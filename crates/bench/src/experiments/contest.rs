//! **§3** — the UCR-style archive contest: build the archive, run a panel
//! of detectors, and report the plain location accuracy the paper argues
//! for.

use tsad_archive::builder::{build_archive, Difficulty};
use tsad_archive::contest::{run_contest, ContestResult};
use tsad_core::Dataset;
use tsad_detectors::baselines::{GlobalZScore, NaiveLastPoint, RandomDetector, SubsequenceKnn};
use tsad_detectors::matrix_profile::{DiscordDetector, OnlineDiscordDetector};
use tsad_detectors::seasonal::SeasonalDetector;
use tsad_detectors::telemanom::Telemanom;
use tsad_eval::report::{fmt, TextTable};

/// The contest results across the detector panel.
#[derive(Debug, Clone)]
pub struct Contest {
    /// Per-detector results.
    pub results: Vec<ContestResult>,
    /// Archive size actually evaluated.
    pub datasets: usize,
    /// How many archive entries are Easy/Medium/Hard.
    pub difficulty_counts: (usize, usize, usize),
}

/// Builds a `count`-entry archive and runs the detector panel.
pub fn run(seed: u64, count: usize) -> tsad_archive::Result<Contest> {
    let archive = build_archive(seed, count)?;
    let tally = |d: Difficulty| {
        archive
            .iter()
            .filter(|e| e.provenance.difficulty == d)
            .count()
    };
    let difficulty_counts = (
        tally(Difficulty::Easy),
        tally(Difficulty::Medium),
        tally(Difficulty::Hard),
    );
    let datasets: Vec<Dataset> = archive.into_iter().map(|e| e.dataset).collect();
    // The panel members are independent of each other; `par_invoke` keeps
    // the leaderboard rows in this declaration order regardless of which
    // detector finishes first.
    let datasets_ref = &datasets;
    type Task<'a> = Box<dyn FnOnce() -> tsad_archive::Result<ContestResult> + Send + 'a>;
    let tasks: Vec<Task<'_>> = vec![
        Box::new(move || run_contest(&DiscordDetector::new(128), datasets_ref)),
        Box::new(move || run_contest(&OnlineDiscordDetector::new(128), datasets_ref)),
        Box::new(move || run_contest(&Telemanom::default(), datasets_ref)),
        Box::new(move || run_contest(&SubsequenceKnn::new(128), datasets_ref)),
        Box::new(move || run_contest(&SeasonalDetector::auto(20, 300), datasets_ref)),
        Box::new(move || run_contest(&GlobalZScore, datasets_ref)),
        Box::new(move || run_contest(&NaiveLastPoint, datasets_ref)),
        Box::new(move || run_contest(&RandomDetector::new(seed), datasets_ref)),
    ];
    let results = tsad_parallel::par_invoke(tasks)
        .into_iter()
        .collect::<tsad_archive::Result<Vec<_>>>()?;
    Ok(Contest {
        results,
        datasets: datasets.len(),
        difficulty_counts,
    })
}

/// Renders the leaderboard.
pub fn render(contest: &Contest) -> String {
    let mut t = TextTable::new(vec!["detector", "UCR accuracy"]);
    let mut sorted = contest.results.clone();
    sorted.sort_by(|a, b| b.accuracy().partial_cmp(&a.accuracy()).expect("finite"));
    for r in &sorted {
        t.row(vec![r.detector.to_string(), fmt(r.accuracy())]);
    }
    let (e, m, h) = contest.difficulty_counts;
    format!(
        "§3 — archive contest over {} datasets (easy {e} / medium {m} / hard {h}):\n{}",
        contest.datasets,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discord_beats_naive_baselines_on_the_archive() {
        // a small archive keeps the test tractable in debug mode
        let c = run(42, 6).unwrap();
        assert_eq!(c.datasets, 6);
        let acc = |needle: &str| {
            c.results
                .iter()
                .find(|r| r.detector.contains(needle))
                .map(|r| r.accuracy())
                .expect("present")
        };
        let discord = acc("discord");
        let random = acc("random");
        let last = acc("last-point");
        assert!(discord >= 0.5, "discord accuracy {discord}");
        assert!(discord > random, "{discord} vs random {random}");
        // unlike the flawed benchmarks, the archive gives the naive
        // last-point detector no foothold
        assert!(
            last <= random + 0.34,
            "naive-last {last} vs random {random}"
        );
        let text = render(&c);
        assert!(text.contains("UCR accuracy"));
    }
}
