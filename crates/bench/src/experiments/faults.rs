//! **faults** — the robustness experiment: the streaming detector panel
//! replayed under every standard fault-injection profile.
//!
//! For each synthetic family × [`tsad_faults::standard_profiles`] profile ×
//! streaming detector, the series is corrupted deterministically
//! (`tsad-faults`, seeded), replayed through the detector wrapped in
//! [`Sanitized`] with [`NanPolicy::ImputeLast`] (the deployment-style
//! choice: scores stay finite across gaps), and scored against the clean
//! labels — injection is length-preserving, so label alignment survives:
//!
//! * **UCR hit** — does the argmax of the score stream land inside the
//!   (slop-widened) labeled region? The `clean` profile rows are the
//!   control; comparing a fault row against its clean row gives the
//!   UCR-score delta the paper-style robustness table reports.
//! * **False alarms** — alarms (score > per-detector threshold) outside
//!   every labeled window, plus the total alarm count.
//! * **Quarantine** — points the sanitizer replaced (NaN/∞ reaching the
//!   detector), cross-checked against the injection report.
//!
//! Every number here is a deterministic function of the seed — no wall
//! clock — so `BENCH_faults.json` is byte-stable and CI gates on *exact*
//! row equality (`repro -- gate`, rules in [`crate::gate::SCHEMAS`]): a
//! vanished profile, detector, or flipped outcome fails the `fault-matrix`
//! job.

use std::fmt::Write as _;

use tsad_core::{Labels, Result};
use tsad_detectors::cusum::Cusum;
use tsad_detectors::oneliner::{equation, Equation};
use tsad_eval::report::TextTable;
use tsad_eval::streaming::delays_from_scores;
use tsad_eval::ucr::ucr_correct;
use tsad_faults::{standard_profiles, FaultProfile};
use tsad_stream::{
    NanPolicy, Sanitized, StreamingCusum, StreamingDetector, StreamingGlobalZScore,
    StreamingMovingAvgResidual, StreamingOneLiner,
};

/// UCR-style slop appended to each labeled region when scoring alarms.
const SLOP: usize = 100;

/// One (family × profile × detector) measurement. All integer/bool fields:
/// the document must be byte-stable for exact gating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRow {
    /// Fault profile name (`clean` is the control).
    pub profile: String,
    /// Series family.
    pub dataset: String,
    /// Detector `name()` (the `Sanitized` wrapper is part of the name).
    pub detector: String,
    /// Points the injector modified.
    pub injected_points: usize,
    /// Points the sanitizer replaced (non-finite reaching the detector).
    pub quarantined: u64,
    /// Argmax of the score stream lands in the labeled (slop-widened)
    /// region. For multi-region labels: at least one region detected.
    pub ucr_hit: bool,
    /// Regions with at least one alarm in their window.
    pub detected: usize,
    /// Labeled regions.
    pub regions: usize,
    /// Alarms outside every region window.
    pub false_alarms: usize,
    /// Total alarms raised.
    pub total_alarms: usize,
}

/// Everything the experiment produces.
#[derive(Debug, Clone)]
pub struct FaultsExperiment {
    /// Seed the injections and series were generated from.
    pub seed: u64,
    /// One row per family × profile × detector.
    pub rows: Vec<FaultRow>,
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

/// The native streaming panel with per-detector alarm thresholds,
/// mirroring the `stream` experiment.
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

fn score_row(
    profile: &FaultProfile,
    dataset: &str,
    xs: &[f64],
    labels: &Labels,
    det: Box<dyn StreamingDetector>,
    threshold: f64,
    seed: u64,
) -> Result<FaultRow> {
    let (faulted, report) = profile.inject(xs, seed);
    let mut wrapped = Sanitized::new(det, NanPolicy::ImputeLast);
    let scores = wrapped.score_stream(&faulted);
    let offset = wrapped.score_offset();

    // argmax over emitted scores, mapped back to a series position;
    // total_cmp keeps this well-defined if a score still goes NaN
    let pred = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i + offset)
        .unwrap_or(0);
    let ucr_hit = if labels.region_count() == 1 {
        ucr_correct(pred, labels)?
    } else {
        labels
            .regions()
            .iter()
            .any(|r| pred + SLOP >= r.start && pred < r.end + SLOP)
    };

    let delays = delays_from_scores(&scores, offset, threshold, labels, SLOP)?;
    Ok(FaultRow {
        profile: profile.name.clone(),
        dataset: dataset.to_string(),
        detector: wrapped.name(),
        injected_points: report.points_injected(),
        quarantined: wrapped.quarantined(),
        ucr_hit,
        detected: delays.detected(),
        regions: delays.regions.len(),
        false_alarms: delays.false_alarms,
        total_alarms: delays.total_alarms,
    })
}

/// Runs the full matrix. Deterministic given `seed`.
pub fn run(seed: u64) -> Result<FaultsExperiment> {
    let mut rows = Vec::new();
    for (dataset, xs, labels) in families(seed) {
        for profile in standard_profiles() {
            for (det, threshold) in panel(xs.len())? {
                rows.push(score_row(
                    &profile, dataset, &xs, &labels, det, threshold, seed,
                )?);
            }
        }
    }
    Ok(FaultsExperiment { seed, rows })
}

/// Renders the human-readable table: one block per family, profiles as
/// rows, with the clean-row control first.
pub fn render(exp: &FaultsExperiment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fault matrix — detector panel under injected stream corruption (seed {})",
        exp.seed
    );
    let _ = writeln!(
        out,
        "(`clean` is the control; `hit` = score argmax inside the labeled region)"
    );
    let mut datasets: Vec<&str> = exp.rows.iter().map(|r| r.dataset.as_str()).collect();
    datasets.dedup();
    for dataset in datasets {
        let _ = writeln!(out, "\n── {dataset} ──");
        let mut t = TextTable::new(vec![
            "profile", "detector", "inj", "quar", "hit", "det/reg", "false", "alarms",
        ]);
        for r in exp.rows.iter().filter(|r| r.dataset == dataset) {
            // the wrapper suffix is constant noise in the table; keep the
            // JSON document exact instead
            let short = r.detector.replace(" [nan: impute-last]", "");
            t.row(vec![
                r.profile.clone(),
                short,
                r.injected_points.to_string(),
                r.quarantined.to_string(),
                if r.ucr_hit { "yes" } else { "NO" }.to_string(),
                format!("{}/{}", r.detected, r.regions),
                r.false_alarms.to_string(),
                r.total_alarms.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Renders the machine-readable `BENCH_faults.json` document.
pub fn render_json(exp: &FaultsExperiment) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tsad-bench-faults/v1\",");
    let _ = writeln!(out, "  \"seed\": {},", exp.seed);
    out.push_str("  \"rows\": [\n");
    for (i, r) in exp.rows.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"profile\": \"{}\", \"dataset\": \"{}\", \"detector\": \"{}\", \
             \"injected_points\": {}, \"quarantined\": {}, \"ucr_hit\": {}, \
             \"detected\": {}, \"regions\": {}, \"false_alarms\": {}, \
             \"total_alarms\": {}",
            r.profile,
            r.dataset,
            r.detector,
            r.injected_points,
            r.quarantined,
            r.ucr_hit,
            r.detected,
            r.regions,
            r.false_alarms,
            r.total_alarms
        );
        out.push_str(if i + 1 == exp.rows.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::compare;
    use crate::minijson::{parse, JsonValue};
    use crate::DEFAULT_SEED;

    /// Reads one row of the rendered document back.
    fn row_from_json(r: &JsonValue) -> FaultRow {
        let text = |k: &str| r.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        let int = |k: &str| r.get(k).and_then(JsonValue::as_u64).unwrap();
        FaultRow {
            profile: text("profile"),
            dataset: text("dataset"),
            detector: text("detector"),
            injected_points: int("injected_points") as usize,
            quarantined: int("quarantined"),
            ucr_hit: r.get("ucr_hit").and_then(JsonValue::as_bool).unwrap(),
            detected: int("detected") as usize,
            regions: int("regions") as usize,
            false_alarms: int("false_alarms") as usize,
            total_alarms: int("total_alarms") as usize,
        }
    }

    fn small_run() -> FaultsExperiment {
        // full matrix but cached once per test binary would be nicer;
        // the run is a few seconds in test profile, fine for two tests
        run(DEFAULT_SEED).unwrap()
    }

    #[test]
    fn matrix_is_deterministic_and_clean_control_detects() {
        let a = small_run();
        let b = small_run();
        assert_eq!(a.rows, b.rows, "fault matrix must be deterministic");
        assert_eq!(a.rows.len(), 3 * standard_profiles().len() * 4);
        // the clean control rows must quarantine nothing
        for r in a.rows.iter().filter(|r| r.profile == "clean") {
            assert_eq!(r.quarantined, 0, "{}/{}", r.dataset, r.detector);
            assert_eq!(r.injected_points, 0);
        }
        // the spike-style families have a clean-control hit; the NASA
        // frozen-signal anomaly is *flat* and argmax-style detectors
        // legitimately miss it, so it is not asserted here
        for dataset in ["yahoo-a1", "nyc-taxi"] {
            assert!(
                a.rows
                    .iter()
                    .any(|r| r.profile == "clean" && r.dataset == dataset && r.ucr_hit),
                "no clean hit on {dataset}"
            );
        }
    }

    #[test]
    fn json_round_trips_and_gate_is_exact() {
        let exp = small_run();
        let json = render_json(&exp);
        let doc = parse(&json).unwrap();
        let parsed: Vec<FaultRow> = doc
            .get("rows")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(row_from_json)
            .collect();
        assert_eq!(parsed, exp.rows);
        // identical documents pass
        assert!(compare(&json, &json).unwrap().failures.is_empty());
        // a vanished row fails
        let mut truncated = exp.clone();
        truncated.rows.pop();
        let failures = compare(&json, &render_json(&truncated)).unwrap().failures;
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("vanished"));
        // a flipped outcome fails
        let mut flipped = exp.clone();
        flipped.rows[0].ucr_hit = !flipped.rows[0].ucr_hit;
        let failures = compare(&json, &render_json(&flipped)).unwrap().failures;
        assert!(failures.iter().any(|f| f.contains("row changed")));
    }
}
