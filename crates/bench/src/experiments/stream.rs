//! **stream** — the bounded-memory streaming engine, end to end.
//!
//! Three tables, over one series per synthetic family (Yahoo A1, NASA
//! frozen-signal, NYC taxi):
//!
//! 1. *equivalence* — machine-checked batch ↔ stream agreement: bitwise
//!    for the z-score / CUSUM / moving-average-residual / one-liner ports,
//!    1e-6 tolerance for the horizon-bounded left discord.
//! 2. *replay* — each streaming port replayed point by point: memory
//!    bound and the detection-delay metric (first alarm − anomaly onset)
//!    against the family's labels.
//! 3. *chunking* — one detector replayed at chunk sizes {1, 64, 4096};
//!    alarms and delays are identical, only the timing moves.
//!
//! [`render`] prints only what the seed determines, so its text is the
//! same on every run and at every thread count. The wall-clock columns
//! (throughput, per-push latency, worst chunk) go to a separate table,
//! [`render_timing`], which `repro stream` prints to stderr.

use tsad_core::{Labels, Result, TimeSeries};
use tsad_detectors::baselines::{GlobalZScore, MovingAvgResidual};
use tsad_detectors::cusum::Cusum;
use tsad_detectors::matrix_profile::OnlineDiscordDetector;
use tsad_detectors::oneliner::{equation, Equation};
use tsad_detectors::Detector;
use tsad_eval::report::TextTable;
use tsad_stream::{
    check_equivalence, replay, EquivalenceMode, EquivalenceReport, ReplayConfig, ReplayOutcome,
    StreamingCusum, StreamingDetector, StreamingGlobalZScore, StreamingLeftDiscord,
    StreamingMovingAvgResidual, StreamingOneLiner,
};

/// Discord subsequence length used throughout the experiment.
const DISCORD_M: usize = 32;
/// Points of each series the discord checks run on (the stream is
/// O(n · horizon); the cheap ports use the full series).
const DISCORD_CAP: usize = 2500;

/// One replay row: which series it ran on plus the measurements.
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// Series (family) name.
    pub dataset: String,
    /// Alarm threshold the scores were cut at.
    pub threshold: f64,
    /// The measurements.
    pub outcome: ReplayOutcome,
}

/// Everything the `stream` experiment produces.
#[derive(Debug, Clone)]
pub struct StreamExperiment {
    /// Batch ↔ stream equivalence verdicts.
    pub equivalence: Vec<EquivalenceReport>,
    /// Replay measurements (chunk size 1) per family × detector.
    pub replays: Vec<ReplayRow>,
    /// One detector at several chunk sizes on the taxi series.
    pub chunking: Vec<ReplayRow>,
}

fn families(seed: u64) -> Vec<(&'static str, Vec<f64>, Labels)> {
    let yahoo = tsad_synth::yahoo::generate(seed, tsad_synth::yahoo::Family::A1, 3);
    let (nasa, _) = tsad_synth::nasa::frozen_signal(seed);
    let taxi = tsad_synth::numenta::nyc_taxi(seed);
    vec![
        (
            "yahoo-a1",
            yahoo.dataset.values().to_vec(),
            yahoo.dataset.labels().clone(),
        ),
        ("nasa-frozen", nasa.values().to_vec(), nasa.labels().clone()),
        (
            "nyc-taxi",
            taxi.dataset.values().to_vec(),
            taxi.dataset.labels().clone(),
        ),
    ]
}

/// The native streaming panel with per-detector alarm thresholds. The
/// one-liner scores are margins, so they alarm above 0.
fn panel(n: usize) -> Result<Vec<(Box<dyn StreamingDetector>, f64)>> {
    let train = (n / 4).max(2);
    Ok(vec![
        (
            Box::new(StreamingGlobalZScore::new(train)?) as Box<dyn StreamingDetector>,
            3.0,
        ),
        (Box::new(StreamingCusum::new(Cusum::default(), train)?), 5.0),
        (Box::new(StreamingMovingAvgResidual::new(21)?), 3.0),
        (
            Box::new(StreamingOneLiner::compile(&equation(
                Equation::Eq5,
                21,
                3.0,
                0.1,
            ))?),
            0.0,
        ),
    ])
}

/// Runs the experiment. Deterministic given `seed` except for the
/// wall-clock measurements.
pub fn run(seed: u64) -> Result<StreamExperiment> {
    let data = families(seed);

    let mut equivalence = Vec::new();
    for (name, xs, _) in &data {
        let n = xs.len();
        let train = (n / 4).max(2);
        let ts = TimeSeries::from_values(xs.clone())?;

        let batch = GlobalZScore.score(&ts, train)?;
        let mut det = StreamingGlobalZScore::new(train)?;
        equivalence.push(check_equivalence(
            name,
            &batch,
            &mut det,
            xs,
            EquivalenceMode::Bitwise,
        )?);

        let params = Cusum::default();
        let batch = params.score(&ts, train)?;
        let mut det = StreamingCusum::new(params, train)?;
        equivalence.push(check_equivalence(
            name,
            &batch,
            &mut det,
            xs,
            EquivalenceMode::Bitwise,
        )?);

        let batch = MovingAvgResidual::new(21).score(&ts, 0)?;
        let mut det = StreamingMovingAvgResidual::new(21)?;
        equivalence.push(check_equivalence(
            name,
            &batch,
            &mut det,
            xs,
            EquivalenceMode::Bitwise,
        )?);

        let ol = equation(Equation::Eq5, 21, 3.0, 0.1);
        let batch = ol.score_values(xs)?;
        let mut det = StreamingOneLiner::compile(&ol)?;
        equivalence.push(check_equivalence(
            name,
            &batch,
            &mut det,
            xs,
            EquivalenceMode::Bitwise,
        )?);

        let capped: Vec<f64> = xs.iter().copied().take(DISCORD_CAP).collect();
        let ts = TimeSeries::from_values(capped.clone())?;
        let batch = OnlineDiscordDetector::new(DISCORD_M).score(&ts, 0)?;
        let mut det = StreamingLeftDiscord::new(DISCORD_M, Default::default(), capped.len())?;
        equivalence.push(check_equivalence(
            name,
            &batch,
            &mut det,
            &capped,
            EquivalenceMode::Tolerance(1e-6),
        )?);
    }

    let mut replays = Vec::new();
    for (name, xs, labels) in &data {
        for (mut det, threshold) in panel(xs.len())? {
            let cfg = ReplayConfig {
                chunk_size: 1,
                threshold,
                slop: 32,
            };
            let outcome = replay(det.as_mut(), xs, labels, &cfg)?;
            replays.push(ReplayRow {
                dataset: name.to_string(),
                threshold,
                outcome,
            });
        }
    }

    let (name, xs, labels) = &data[2];
    let mut chunking = Vec::new();
    let mut det = StreamingGlobalZScore::new((xs.len() / 4).max(2))?;
    for chunk_size in [1usize, 64, 4096] {
        let cfg = ReplayConfig {
            chunk_size,
            threshold: 3.0,
            slop: 32,
        };
        let outcome = replay(&mut det, xs, labels, &cfg)?;
        chunking.push(ReplayRow {
            dataset: name.to_string(),
            threshold: 3.0,
            outcome,
        });
    }
    debug_assert!(chunking
        .windows(2)
        .all(|w| w[0].outcome.delays == w[1].outcome.delays));

    Ok(StreamExperiment {
        equivalence,
        replays,
        chunking,
    })
}

fn delay_cells(row: &ReplayRow) -> [String; 3] {
    let d = &row.outcome.delays;
    [
        format!("{}/{}", d.detected(), d.regions.len()),
        d.mean_delay()
            .map_or_else(|| "-".to_string(), |m| format!("{m:.1}")),
        d.false_alarms.to_string(),
    ]
}

/// Renders the three tables, without the wall-clock measurements
/// ([`render_timing`] has those).
pub fn render(e: &StreamExperiment) -> String {
    let mut out = String::from("stream — bounded-memory streaming engine:\n\n");

    out.push_str("batch <-> stream equivalence (per family x port):\n");
    let mut t = TextTable::new(vec![
        "dataset",
        "detector",
        "mode",
        "positions",
        "max |diff|",
        "verdict",
    ]);
    for r in &e.equivalence {
        let mode = match r.mode {
            EquivalenceMode::Bitwise => "bitwise".to_string(),
            EquivalenceMode::Tolerance(tol) => format!("tol {tol:.0e}"),
        };
        t.row(vec![
            r.dataset.clone(),
            r.detector.clone(),
            mode,
            r.compared.to_string(),
            format!("{:.2e}", r.max_abs_diff),
            if r.passed {
                "PASS".to_string()
            } else {
                "FAIL".to_string()
            },
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nreplay (chunk size 1; delay = first alarm - onset, slop 32):\n");
    let mut t = TextTable::new(vec![
        "dataset",
        "detector",
        "thr",
        "points",
        "mem (f64s)",
        "detected",
        "mean delay",
        "false alarms",
    ]);
    for row in &e.replays {
        let o = &row.outcome;
        let [det, mean, fa] = delay_cells(row);
        t.row(vec![
            row.dataset.clone(),
            o.detector.clone(),
            format!("{:.1}", row.threshold),
            o.points.to_string(),
            o.memory_bound.to_string(),
            det,
            mean,
            fa,
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nchunking invariance (global z-score on nyc-taxi):\n");
    let mut t = TextTable::new(vec!["chunk", "detected", "mean delay", "false alarms"]);
    for row in &e.chunking {
        let o = &row.outcome;
        let [det, mean, fa] = delay_cells(row);
        t.row(vec![o.chunk_size.to_string(), det, mean, fa]);
    }
    out.push_str(&t.render());
    out.push_str("alarms and delays are identical at every chunk size; only timing moves.\n");
    out
}

/// Renders the wall-clock measurements of every replay and chunking run:
/// throughput, mean per-push latency and the worst chunk's per-point
/// latency. They change from run to run.
pub fn render_timing(e: &StreamExperiment) -> String {
    let mut out = String::from("stream — replay timing (wall clock):\n");
    let mut t = TextTable::new(vec![
        "dataset",
        "detector",
        "chunk",
        "Mpts/s",
        "ns/push",
        "worst chunk ns/pt",
    ]);
    for row in e.replays.iter().chain(&e.chunking) {
        let o = &row.outcome;
        t.row(vec![
            row.dataset.clone(),
            o.detector.clone(),
            o.chunk_size.to_string(),
            format!("{:.1}", o.points_per_sec / 1e6),
            format!("{:.0}", o.mean_push_ns),
            format!("{:.0}", o.max_chunk_ns_per_point),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_equivalence_checks_pass() {
        let e = run(42).unwrap();
        // 3 families x 5 ports
        assert_eq!(e.equivalence.len(), 15);
        for r in &e.equivalence {
            assert!(r.passed, "{r}");
        }
    }

    #[test]
    fn replay_tables_are_populated_and_deterministic() {
        let e1 = run(42).unwrap();
        let e2 = run(42).unwrap();
        assert_eq!(e1.replays.len(), 12); // 3 families x 4 native ports
        for (a, b) in e1.replays.iter().zip(&e2.replays) {
            assert_eq!(a.outcome.delays, b.outcome.delays, "{}", a.outcome.detector);
        }
        for (a, b) in e1.chunking.iter().zip(&e2.chunking) {
            assert_eq!(a.outcome.delays, b.outcome.delays);
        }
        let text = render(&e1);
        assert!(text.contains("PASS"));
        assert!(!text.contains("FAIL"));
        assert!(text.contains("chunking invariance"));
        let timing = render_timing(&e1);
        assert!(timing.contains("Mpts/s") && timing.contains("worst chunk ns/pt"));
    }

    #[test]
    fn rendered_tables_do_not_depend_on_the_thread_count() {
        let one = tsad_parallel::with_threads(1, || render(&run(42).unwrap()));
        let four = tsad_parallel::with_threads(4, || render(&run(42).unwrap()));
        assert_eq!(one, four);
        assert!(!one.contains("Mpts/s"), "timing stays out of the tables");
    }
}
