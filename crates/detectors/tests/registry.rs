//! Registry-wide hardening: every catalog entry must build from its
//! default parameter set, survive hostile (finite) inputs without
//! panicking, and score deterministically — the same entry built twice
//! over the same series yields bitwise-identical output. These are the
//! membership dues of the catalog: a detector that cannot pass them has
//! no business in `DetectorRegistry::standard()`.

use proptest::prelude::*;
use tsad_core::TimeSeries;
use tsad_detectors::{Detector, DetectorRegistry, Params};

/// Finite-but-hostile values: `TimeSeries` rejects NaN/∞ at the door, so
/// the adversary works inside the finite range — huge magnitudes that
/// overflow naive sums of squares, subnormals, signed zeros, and flat or
/// quantized plateaus that zero out variances.
fn finite_point((sel, bits): (u8, u64)) -> f64 {
    match sel % 8 {
        0 | 1 => (bits % 20_000) as f64 / 100.0 - 100.0,
        2 => ((bits % 2_000) as f64 - 1_000.0) * 1e12,
        3 => f64::MIN_POSITIVE / 2.0,
        4 => -0.0,
        5 => 0.0,
        6 => 1e-300,
        _ => (bits % 7) as f64,
    }
}

fn finite_stream(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), min_len..=max_len)
        .prop_map(|pairs| pairs.into_iter().map(finite_point).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_entry_builds_and_survives_finite_hostility(xs in finite_stream(2, 160)) {
        let reg = DetectorRegistry::standard();
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        for entry in reg.entries() {
            let det = entry
                .build(&Params::new())
                .unwrap_or_else(|e| panic!("{}: default build failed: {e}", entry.id));
            for train_len in [0, xs.len() / 4, xs.len(), xs.len() + 1] {
                // a typed error is fine; a panic is a catalog bug
                let _ = det.score(&ts, train_len);
            }
        }
    }

    #[test]
    fn default_builds_are_deterministic(xs in finite_stream(8, 160)) {
        let reg = DetectorRegistry::standard();
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        for entry in reg.entries() {
            let a = entry.build(&Params::new()).unwrap().score(&ts, xs.len() / 3);
            let b = entry.build(&Params::new()).unwrap().score(&ts, xs.len() / 3);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.len(), b.len(), "{} length", entry.id);
                    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{}: scores diverge at {} ({} vs {})",
                            entry.id, i, x, y
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "{}: nondeterministic outcome: ok={} vs ok={}",
                    entry.id, a.is_ok(), b.is_ok()
                ),
            }
        }
    }
}

/// The well-behaved counterpart: on a tame sine-plus-spike series every
/// entry must produce full-length, all-finite scores — the catalog's
/// baseline liveness check, independent of proptest shrinking.
#[test]
fn every_entry_scores_a_tame_series_finitely() {
    // period ≈ 31 keeps the seasonal detector's automatic period scan
    // (bounded at 64 by default) satisfiable
    let xs: Vec<f64> = (0..512)
        .map(|i| (i as f64 * 0.2).sin() + if i == 400 { 6.0 } else { 0.0 })
        .collect();
    let ts = TimeSeries::from_values(xs.clone()).unwrap();
    let reg = DetectorRegistry::standard();
    for entry in reg.entries() {
        let det = entry.build(&Params::new()).unwrap();
        let scores = det
            .score(&ts, 128)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
        assert_eq!(scores.len(), xs.len(), "{}", entry.id);
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "{}: non-finite score on a tame series",
            entry.id
        );
    }
}
