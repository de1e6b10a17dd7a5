//! **Figure 8** — the NYC-taxi discord profile versus the five official
//! labels.
//!
//! The paper's finding: the discord score peaks at the five official
//! anomalies *and* at ≥ 7 further events that are "equally worthy of being
//! labeled anomalies" — so an algorithm reported as producing false
//! positives may actually have performed very well.

use tsad_core::Result;
use tsad_detectors::matrix_profile::stomp;
use tsad_detectors::threshold::top_k_peaks;
use tsad_eval::report::{sparkline, TextTable};
use tsad_synth::numenta::{nyc_taxi, TaxiData, TAXI_SAMPLES_PER_DAY};

/// One annotated discord peak.
#[derive(Debug, Clone)]
pub struct AnnotatedPeak {
    /// Day index of the peak.
    pub day: usize,
    /// Peak discord value.
    pub value: f64,
    /// The injected event at that day, if any.
    pub event: Option<String>,
    /// Whether the event is officially labeled.
    pub official: bool,
}

/// Fig. 8 result.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// The underlying data.
    pub taxi: TaxiData,
    /// Discord score per point.
    pub discord_score: Vec<f64>,
    /// Top-12 peaks, annotated against the injected events.
    pub peaks: Vec<AnnotatedPeak>,
    /// How many officially labeled events appear among the peaks.
    pub official_hits: usize,
    /// How many *unlabeled but real* events appear among the peaks — the
    /// paper's headline (≥ 7).
    pub unlabeled_hits: usize,
    /// Peaks matching no injected event at all (true false positives).
    pub spurious: usize,
}

/// Runs Fig. 8. `window_days` is the discord subsequence length in days
/// (1 in the figure; 2 for the sensitivity ablation).
pub fn fig8(seed: u64, window_days: usize) -> Result<Fig8> {
    let taxi = nyc_taxi(seed);
    let m = window_days.max(1) * TAXI_SAMPLES_PER_DAY;
    let mp = stomp(taxi.dataset.values(), m)?;
    let discord_score = mp.point_scores(taxi.dataset.len());
    let peaks = top_k_peaks(&discord_score, 12, 2 * m);

    let mut annotated = Vec::with_capacity(peaks.len());
    let mut official_days = std::collections::HashSet::new();
    let mut unlabeled_days = std::collections::HashSet::new();
    let mut spurious = 0;
    for p in &peaks {
        let day = p.index / TAXI_SAMPLES_PER_DAY;
        // a window-length peak may start up to a window before the event day
        let event = taxi
            .events
            .iter()
            .find(|e| day.abs_diff(e.day) <= window_days)
            .cloned();
        match &event {
            Some(e) if e.official => {
                official_days.insert(e.day);
            }
            Some(e) => {
                unlabeled_days.insert(e.day);
            }
            None => spurious += 1,
        }
        annotated.push(AnnotatedPeak {
            day,
            value: p.value,
            event: event.as_ref().map(|e| e.name.to_string()),
            official: event.as_ref().is_some_and(|e| e.official),
        });
    }
    Ok(Fig8 {
        taxi,
        discord_score,
        peaks: annotated,
        official_hits: official_days.len(),
        unlabeled_hits: unlabeled_days.len(),
        spurious,
    })
}

/// Renders the Fig. 8 peak table and score sparkline.
pub fn render(fig: &Fig8) -> String {
    let mut out = String::from("Fig. 8 — NYC taxi discord score vs official labels:\n");
    out.push_str("  demand:  ");
    out.push_str(&sparkline(fig.taxi.dataset.values(), 107));
    out.push('\n');
    out.push_str("  discord: ");
    out.push_str(&sparkline(&fig.discord_score, 107));
    out.push('\n');
    let mut t = TextTable::new(vec!["rank", "day", "event", "officially labeled?"]);
    for (rank, p) in fig.peaks.iter().enumerate() {
        t.row(vec![
            (rank + 1).to_string(),
            p.day.to_string(),
            p.event
                .clone()
                .unwrap_or_else(|| "(no injected event)".to_string()),
            if p.event.is_none() {
                "-".to_string()
            } else if p.official {
                "yes".to_string()
            } else {
                "NO — unlabeled true event".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "official events found: {} / 5; unlabeled true events found: {}; spurious: {}\n",
        fig.official_hits, fig.unlabeled_hits, fig.spurious
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discord_surfaces_unlabeled_events() {
        let f = fig8(42, 1).unwrap();
        // The counts README and EXPERIMENTS.md quote for seed 42. The
        // paper's point: many unlabeled true events rank as top discords.
        assert_eq!(
            (f.official_hits, f.unlabeled_hits, f.spurious),
            (5, 6, 1),
            "(official, unlabeled, spurious)"
        );
        let text = render(&f);
        assert!(text.contains("unlabeled true event"), "{text}");
    }

    #[test]
    fn two_day_window_still_works() {
        let f = fig8(42, 2).unwrap();
        assert_eq!(
            (f.official_hits, f.unlabeled_hits, f.spurious),
            (4, 6, 0),
            "(official, unlabeled, spurious)"
        );
    }
}
