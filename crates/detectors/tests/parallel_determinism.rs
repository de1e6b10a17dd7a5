//! Thread-count invariance of the parallel detector kernels.
//!
//! The contract (see `tsad-parallel`): every public kernel returns bitwise
//! identical output whether it runs on 1, 2, or 8 threads. These tests pin
//! that by re-running each kernel under `with_threads` overrides and
//! comparing with exact equality — not a tolerance.

use proptest::prelude::*;
use tsad_core::simd::{self, Backend};
use tsad_core::CoreError;
use tsad_detectors::matrix_profile::{left_stomp, prefix_join, stamp, stomp, ProfileMetric};
use tsad_detectors::merlin::{merlin, merlin_top, LengthDiscord};
use tsad_parallel::with_threads;
use tsad_synth::yahoo::{self, Family};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn wavy(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic pseudo-random walk on top of a seasonal carrier.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut level = 0.0f64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let step = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            level += step;
            (i as f64 * 0.37).sin() + 0.25 * level
        })
        .collect()
}

fn assert_profiles_bitwise_equal(runs: &[(usize, Vec<f64>, Vec<usize>)]) {
    let (_, base_p, base_i) = &runs[0];
    for (threads, p, ix) in &runs[1..] {
        assert_eq!(
            p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            base_p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "profile diverged at {threads} threads"
        );
        assert_eq!(ix, base_i, "index diverged at {threads} threads");
    }
}

#[test]
fn stomp_is_thread_count_invariant() {
    let x = wavy(900, 7);
    for metric in [ProfileMetric::ZNormalized, ProfileMetric::Euclidean] {
        let runs: Vec<_> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                let mp = with_threads(t, || stomp_metric_via(&x, 24, metric));
                (t, mp.0, mp.1)
            })
            .collect();
        assert_profiles_bitwise_equal(&runs);
    }
}

fn stomp_metric_via(x: &[f64], m: usize, metric: ProfileMetric) -> (Vec<f64>, Vec<usize>) {
    let mp = tsad_detectors::matrix_profile::stomp_metric(x, m, metric).unwrap();
    (mp.profile, mp.index)
}

#[test]
fn left_stomp_is_thread_count_invariant() {
    let x = wavy(700, 11);
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mp = with_threads(t, || {
                left_stomp(&x, 16, ProfileMetric::ZNormalized).unwrap()
            });
            (t, mp.profile, mp.index)
        })
        .collect();
    assert_profiles_bitwise_equal(&runs);
}

#[test]
fn prefix_join_is_thread_count_invariant() {
    // a long train prefix, a short one, and a series with flat stretches
    // on both sides of the split (the exact degenerate-window scorer)
    let mut flat = wavy(600, 5);
    flat[40..90].fill(1.5);
    flat[420..470].fill(1.5);
    for (x, m, train_len) in [
        (wavy(900, 13), 24, 600),
        (wavy(900, 17), 24, 100),
        (flat, 16, 300),
    ] {
        let runs: Vec<_> = THREAD_COUNTS
            .iter()
            .map(|&t| {
                let mp = with_threads(t, || prefix_join(&x, m, train_len).unwrap());
                (t, mp.profile, mp.index)
            })
            .collect();
        assert_profiles_bitwise_equal(&runs);
    }
}

#[test]
fn stamp_is_thread_count_invariant() {
    let x = wavy(400, 3);
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mp = with_threads(t, || stamp(&x, 20).unwrap());
            (t, mp.profile, mp.index)
        })
        .collect();
    assert_profiles_bitwise_equal(&runs);
}

#[test]
fn merlin_is_thread_count_invariant() {
    let x = wavy(500, 19);
    let base = with_threads(1, || merlin(&x, 18, 33).unwrap());
    for t in [2, 8] {
        let got = with_threads(t, || merlin(&x, 18, 33).unwrap());
        assert_eq!(got.len(), base.len());
        for (a, b) in got.iter().zip(&base) {
            assert_eq!(a.length, b.length);
            assert_eq!(
                a.start, b.start,
                "length {} diverged at {t} threads",
                a.length
            );
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "length {} distance diverged at {t} threads",
                a.length
            );
        }
    }
}

/// FNV-1a over every discord's `(length, start, distance bits)`.
fn merlin_digest(discords: &[LengthDiscord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in discords {
        for word in [d.length as u64, d.start as u64, d.distance.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// MERLIN's catalog setting (lengths 8..=64) on the first seed-42 series
/// of each Yahoo family.
fn merlin_catalog_digest(family: Family) -> u64 {
    let s = yahoo::generate(42, family, 1);
    merlin_digest(&merlin(s.dataset.values(), 8, 64).unwrap())
}

#[test]
fn merlin_matches_pinned_scalar_digests_at_every_thread_count() {
    // Recorded before DRAG gained per-backend compilation, the best-so-far
    // abandon and per-length work claims: under the scalar backend (the
    // exact sequential dot product) none of them may move a single bit.
    const PINS: [(Family, u64); 4] = [
        (Family::A1, 0xb388_1f71_f857_6c96),
        (Family::A2, 0xcc1b_5a23_51f2_7346),
        (Family::A3, 0x4fd0_d3f7_29ee_9203),
        (Family::A4, 0x136e_97a5_fb79_423e),
    ];
    for (family, pin) in PINS {
        for t in THREAD_COUNTS {
            let got = simd::with_backend(Backend::Scalar, || {
                with_threads(t, || merlin_catalog_digest(family))
            });
            assert_eq!(got, pin, "{family:?} at {t} threads: {got:#018x}");
        }
    }
}

#[test]
fn merlin_dispatched_backend_is_thread_count_invariant() {
    for family in Family::all() {
        let base = with_threads(1, || merlin_catalog_digest(family));
        for t in [2, 8] {
            let got = with_threads(t, || merlin_catalog_digest(family));
            assert_eq!(got, base, "{family:?} at {t} threads");
        }
    }
}

#[test]
fn merlin_breaks_a_tie_between_identical_anomalies_by_earlier_start() {
    // A palindromic, zero-sum integer series: a period-8 triangle wave
    // symmetric about its centre, plus the same palindromic bump at two
    // mirrored spots (not a period apart, so neither window is a copy of
    // the other). Every partial sum is an exact integer, so window `i` and
    // its mirror `n - m - i` get bitwise equal moments, dot products and
    // nearest-neighbour distances: the top discord always ties with its
    // mirror, and the earlier start must win at every thread count.
    let n = 8 * 50 + 1;
    let mut x: Vec<f64> = (0..n)
        .map(|t| [2.0, 1.0, 0.0, -1.0, -2.0, -1.0, 0.0, 1.0][t % 8])
        .collect();
    let p = 100;
    for (k, b) in [3.0, -7.0, 3.0].into_iter().enumerate() {
        x[p + k] += b;
        x[n - 3 - p + k] += b;
    }
    assert!(x.iter().eq(x.iter().rev()));
    assert_eq!(x.iter().sum::<f64>(), 0.0);
    for backend in [Backend::Scalar, simd::current()] {
        let base = simd::with_backend(backend, || with_threads(1, || merlin(&x, 8, 24).unwrap()));
        for d in &base {
            let mirror = n - d.length - d.start;
            assert!(
                d.start < mirror,
                "length {}: start {} is the later twin of {mirror}",
                d.length,
                d.start
            );
            assert!(
                d.start + d.length > p && d.start <= p + 2,
                "length {}: discord at {} misses the anomaly",
                d.length,
                d.start
            );
        }
        for t in [2, 8] {
            let got =
                simd::with_backend(backend, || with_threads(t, || merlin(&x, 8, 24).unwrap()));
            assert_eq!(
                merlin_digest(&got),
                merlin_digest(&base),
                "{} at {t} threads",
                backend.name()
            );
        }
    }
}

#[test]
fn merlin_top_is_thread_count_invariant() {
    let x = wavy(450, 23);
    let base = with_threads(1, || merlin_top(&x, 16, 28).unwrap()).unwrap();
    for t in [2, 8] {
        let got = with_threads(t, || merlin_top(&x, 16, 28).unwrap()).unwrap();
        assert_eq!(got.length, base.length, "at {t} threads");
        assert_eq!(got.start, base.start, "at {t} threads");
        assert_eq!(
            got.distance.to_bits(),
            base.distance.to_bits(),
            "at {t} threads"
        );
    }
}

#[test]
fn merlin_handles_constant_series_at_every_thread_count() {
    let x = vec![4.5; 120];
    for t in THREAD_COUNTS {
        let discords = with_threads(t, || merlin(&x, 8, 12).unwrap());
        assert_eq!(discords.len(), 5);
        for d in discords {
            assert_eq!(d.distance, 0.0, "at {t} threads");
            assert_eq!(d.start, 0, "at {t} threads");
        }
    }
}

#[test]
fn stomp_handles_nan_series_at_every_thread_count() {
    // A NaN would poison every later window's moments; the kernel rejects
    // it with the same typed error at every thread count instead.
    let mut x = wavy(300, 5);
    x[150] = f64::NAN;
    for t in THREAD_COUNTS {
        let err = with_threads(t, || stomp(&x, 12)).unwrap_err();
        assert_eq!(err, CoreError::NonFinite { index: 150 }, "at {t} threads");
    }
}

#[test]
fn short_series_fall_back_to_a_single_chunk() {
    // count barely above the exclusion zone: only a couple of admissible
    // diagonals exist, fewer than the requested thread count.
    let x = wavy(40, 13);
    let runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mp = with_threads(t, || stomp(&x, 8).unwrap());
            (t, mp.profile, mp.index)
        })
        .collect();
    assert_profiles_bitwise_equal(&runs);
}

proptest! {
    #[test]
    fn stomp_thread_invariance_holds_for_random_series(seed in 0u64..40) {
        let n = 120 + (seed as usize % 7) * 37;
        let m = 8 + (seed as usize % 5) * 3;
        let x = wavy(n, seed);
        let base = with_threads(1, || stomp(&x, m).unwrap());
        let par = with_threads(8, || stomp(&x, m).unwrap());
        prop_assert_eq!(
            base.profile.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            par.profile.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(base.index, par.index);
    }
}
