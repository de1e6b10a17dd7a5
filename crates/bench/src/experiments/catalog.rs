//! **catalog** — the full detector registry run through the paper's
//! Table-1 setting: every [`DetectorRegistry`] entry, at its default
//! parameters, over the simulated Yahoo benchmark, scored by the UCR
//! convention (argmax inside the labeled region, ±100 slop).
//!
//! The point is the paper's triviality argument at catalog scale: the
//! one-liner row is the *bar*, and the table shows which of the other
//! twenty-odd detectors clear it. On a benchmark where `abs(diff) >
//! c·movstd + b` wins, sophistication buys little — exactly §2.2's
//! "illusion of progress".
//!
//! Hit counts are exact integers, deterministic in the seed, so
//! `BENCH_catalog.json` is gated like `BENCH_faults.json` (by
//! `repro -- gate`, rules in [`crate::gate::SCHEMAS`]): a vanished
//! (detector, family) row or a changed hit count fails the `catalog-smoke`
//! CI job outright; per-detector wall time is gated at the usual
//! [`crate::gate::MAX_WALL_RATIO`] above the
//! [`crate::gate::WALL_NOISE_FLOOR_NS`] noise floor. The scoring loop
//! runs one detector on one series at a time, but MERLIN, discord,
//! left-discord and subsequence 1-NN fan out over `tsad-parallel` inside
//! the detector. Hit counts are thread-count invariant; wall numbers are
//! not. The smoke job runs the same gate at 1 and 4 threads.

use std::fmt::Write as _;
use std::time::Instant;

use tsad_core::{Labels, Result};
use tsad_detectors::registry::{DetectorRegistry, Params};
use tsad_eval::report::TextTable;
use tsad_synth::yahoo::{self, Family};

/// UCR-style slop appended to each labeled region (the archive convention
/// the paper scores by).
pub const SLOP: usize = 100;

/// Train prefix handed to every detector (the simulated series are 1400
/// points; the real benchmark's splits hover around this fraction).
pub const TRAIN_LEN: usize = 350;

/// Experiment size knobs.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Series per Yahoo family (the full benchmark is 67/100/100/100).
    pub per_family: usize,
}

impl CatalogConfig {
    /// CI scale: small enough that the committed baseline regenerates in
    /// seconds on any machine, large enough that hit counts separate the
    /// detectors.
    pub fn ci() -> Self {
        Self { per_family: 4 }
    }
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self { per_family: 8 }
    }
}

/// One (detector, family) cell. `hits`/`series` are exact-gated; `wall_ns`
/// is ratio-gated per detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    /// Registry id (`DetectorEntry::id`).
    pub detector: String,
    /// Yahoo family (`A1`..`A4`).
    pub family: String,
    /// Series whose score argmax landed inside a labeled region ± slop.
    pub hits: usize,
    /// Series scored in this cell.
    pub series: usize,
    /// Wall time for the whole cell, sequential, in ns.
    pub wall_ns: u64,
}

/// Everything the experiment produces.
#[derive(Debug, Clone)]
pub struct CatalogExperiment {
    /// Seed the benchmark was generated from.
    pub seed: u64,
    /// Series per family.
    pub per_family: usize,
    /// Registry size when the experiment ran (docs-drift cross-check).
    pub detector_count: usize,
    /// One row per registry entry × family, registry order.
    pub rows: Vec<CatalogRow>,
}

fn is_hit(pred: usize, labels: &Labels) -> bool {
    labels
        .regions()
        .iter()
        .any(|r| pred + SLOP >= r.start && pred < r.end + SLOP)
}

/// Runs the full catalog × family grid. Deterministic in `seed` (wall
/// times aside), independent of `TSAD_THREADS` by construction.
pub fn run(seed: u64, cfg: &CatalogConfig) -> Result<CatalogExperiment> {
    let reg = DetectorRegistry::standard();
    let mut rows = Vec::new();
    for entry in reg.entries() {
        for family in Family::all() {
            let count = cfg.per_family.min(family.size());
            let started = Instant::now();
            let mut hits = 0;
            for index in 1..=count {
                let series = yahoo::generate(seed, family, index);
                let det = entry.build(&Params::new())?;
                // a detector refusing a series (e.g. the seasonal methods
                // on an aperiodic signal) is a deterministic miss, not an
                // experiment failure
                let Ok(scores) = det.score(series.dataset.series(), TRAIN_LEN) else {
                    continue;
                };
                let pred = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if is_hit(pred, series.dataset.labels()) {
                    hits += 1;
                }
            }
            rows.push(CatalogRow {
                detector: entry.id.to_string(),
                family: family.to_string(),
                hits,
                series: count,
                wall_ns: started.elapsed().as_nanos() as u64,
            });
        }
    }
    Ok(CatalogExperiment {
        seed,
        per_family: cfg.per_family,
        detector_count: reg.len(),
        rows,
    })
}

/// Total hits/series for one detector across families.
fn totals(exp: &CatalogExperiment, detector: &str) -> (usize, usize) {
    exp.rows
        .iter()
        .filter(|r| r.detector == detector)
        .fold((0, 0), |(h, s), r| (h + r.hits, s + r.series))
}

/// Renders the human-readable table: detectors as rows, families as
/// columns, the one-liner triviality bar called out at the bottom.
pub fn render(exp: &CatalogExperiment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Catalog × Yahoo triviality grid — {} detectors, {} series/family (seed {})",
        exp.detector_count, exp.per_family, exp.seed
    );
    let _ = writeln!(
        out,
        "(UCR hits: argmax inside the labeled region ± {SLOP}; `oneliner` is the triviality bar)"
    );
    let (bar_hits, bar_series) = totals(exp, "oneliner");
    let mut t = TextTable::new(vec!["detector", "A1", "A2", "A3", "A4", "total", "vs bar"]);
    let mut detectors: Vec<&str> = exp.rows.iter().map(|r| r.detector.as_str()).collect();
    detectors.dedup();
    for det in detectors {
        let cell = |fam: &str| {
            exp.rows
                .iter()
                .find(|r| r.detector == det && r.family == fam)
                .map_or("-".to_string(), |r| format!("{}/{}", r.hits, r.series))
        };
        let (h, s) = totals(exp, det);
        let vs = if det == "oneliner" {
            "= bar".to_string()
        } else if h >= bar_hits {
            "clears".to_string()
        } else {
            "below".to_string()
        };
        t.row(vec![
            det.to_string(),
            cell("A1"),
            cell("A2"),
            cell("A3"),
            cell("A4"),
            format!("{h}/{s}"),
            vs,
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "triviality bar (one-liner): {bar_hits}/{bar_series} — detectors at or above it add \
         nothing this benchmark can measure"
    );
    out
}

/// Renders the machine-readable `BENCH_catalog.json` document.
pub fn render_json(exp: &CatalogExperiment) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tsad-bench-catalog/v1\",");
    let _ = writeln!(out, "  \"seed\": {},", exp.seed);
    let _ = writeln!(out, "  \"per_family\": {},", exp.per_family);
    let _ = writeln!(out, "  \"detectors\": {},", exp.detector_count);
    out.push_str("  \"rows\": [\n");
    for (i, r) in exp.rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"detector\": \"{}\", \"family\": \"{}\", \"hits\": {}, \
             \"series\": {}, \"wall_ns\": {}}}",
            r.detector, r.family, r.hits, r.series, r.wall_ns
        );
        out.push_str(if i + 1 == exp.rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Generates `DETECTORS.md` from the live registry — the committed copy is
/// CI-diffed against this output, so the docs cannot drift from the code.
pub fn detectors_md() -> String {
    let reg = DetectorRegistry::standard();
    let mut out = String::new();
    out.push_str("# Detector catalog\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit. Regenerate with:\n     \
         cargo run --release -p tsad-bench --bin repro -- detectors-md\n     \
         CI (docs-drift) fails if this file does not match the registry. -->\n\n",
    );
    let _ = writeln!(
        out,
        "The registry (`tsad_detectors::DetectorRegistry::standard()`) exposes \
         **{} detectors**. Every entry builds from the same table that drives \
         the batch experiments, the streaming engine (`tsad-stream`'s \
         `StreamRegistry` — native port or batch-adapter per the *streaming* \
         column), checkpoint name-fingerprints, and `tsad-fleet` spawning.\n",
        reg.len()
    );
    out.push_str("| id | name | category | cost | streaming | summary |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for e in reg.entries() {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} |",
            e.id,
            e.display,
            e.category.as_str(),
            e.cost.as_str(),
            e.streaming.label(),
            e.summary
        );
    }
    out.push_str("\n## Parameters\n");
    for e in reg.entries() {
        let _ = writeln!(out, "\n### `{}` — {}\n", e.id, e.display);
        if e.params.is_empty() {
            out.push_str("No parameters.\n");
            continue;
        }
        out.push_str("| parameter | type | default | description |\n");
        out.push_str("|---|---|---|---|\n");
        for p in e.params {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} |",
                p.name,
                p.default.type_name(),
                p.default.render(),
                p.doc
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{compare, WALL_NOISE_FLOOR_NS};

    fn tiny() -> CatalogExperiment {
        run(7, &CatalogConfig { per_family: 1 }).unwrap()
    }

    #[test]
    fn grid_covers_every_entry_and_family() {
        let exp = tiny();
        assert_eq!(exp.rows.len(), exp.detector_count * 4);
        assert!(exp.rows.iter().all(|r| r.hits <= r.series && r.series == 1));
    }

    #[test]
    fn hit_counts_are_deterministic_and_json_roundtrips_exactly() {
        let a = tiny();
        let b = tiny();
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!((x.hits, x.series), (y.hits, y.series), "{}", x.detector);
        }
        let json = render_json(&a);
        let report = compare(&json, &json).unwrap();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn compare_fails_on_changed_hits_and_vanished_rows() {
        let exp = tiny();
        let json = render_json(&exp);
        let mut tampered = exp.clone();
        tampered.rows[0].hits += 1;
        let report = compare(&json, &render_json(&tampered)).unwrap();
        assert!(!report.passed());

        let mut shrunk = exp.clone();
        shrunk.rows.remove(0);
        let report = compare(&json, &render_json(&shrunk)).unwrap();
        assert!(
            report.failures.iter().any(|f| f.contains("vanished")),
            "{:?}",
            report.failures
        );
    }

    fn one_row(wall_ns: u64) -> CatalogExperiment {
        CatalogExperiment {
            seed: 7,
            per_family: 1,
            detector_count: 1,
            rows: vec![CatalogRow {
                detector: "x".to_string(),
                family: "A1".to_string(),
                hits: 1,
                series: 1,
                wall_ns,
            }],
        }
    }

    #[test]
    fn wall_ratio_gates_above_the_noise_floor_and_notes_below_it() {
        // below the floor on both sides: an arbitrarily bad ratio is a
        // note, not a failure
        let report = compare(
            &render_json(&one_row(1_000_000)),
            &render_json(&one_row(10_000_000)),
        )
        .unwrap();
        assert!(report.passed(), "{:?}", report.failures);
        assert!(
            report.notes.iter().any(|n| n.contains("noise floor")),
            "{:?}",
            report.notes
        );

        // above the floor: the same 10x ratio fails the gate
        let report = compare(
            &render_json(&one_row(WALL_NOISE_FLOOR_NS)),
            &render_json(&one_row(WALL_NOISE_FLOOR_NS * 10)),
        )
        .unwrap();
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("wall-time regression")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn detectors_md_reflects_the_registry() {
        let md = detectors_md();
        let reg = DetectorRegistry::standard();
        assert!(md.contains(&format!("**{} detectors**", reg.len())));
        for e in reg.entries() {
            assert!(md.contains(&format!("| `{}` |", e.id)), "{}", e.id);
        }
        assert!(md.contains("GENERATED FILE"));
    }
}
