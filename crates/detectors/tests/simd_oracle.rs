//! SIMD-vs-scalar oracles for the vectorized detector kernels.
//!
//! STOMP (both metrics, full and left profiles) and the prefix join must
//! agree with the
//! forced-scalar twin **bitwise**: the lane chains replicate the scalar
//! operation chains exactly, and the order-independent tie rule makes lane
//! grouping and the ragged prologues/epilogues invisible (DESIGN.md §11).
//! MERLIN's fused dot product reassociates on wide backends, so it is held
//! to a 1e-9 relative tolerance instead.
//!
//! Shapes deliberately cover lane remainders (profile lengths not a
//! multiple of the lane width), `m` close to `n` (bands shorter than one
//! lane group), and non-power-of-two lengths; the proptest block fuzzes
//! arbitrary series on top of the fixed shapes.

use proptest::prelude::*;
use tsad_core::simd::{self, Backend};
use tsad_detectors::matrix_profile::{
    left_stomp, prefix_join, stomp_metric, MatrixProfile, ProfileMetric,
};
use tsad_detectors::merlin::merlin;

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state as f64 / u64::MAX as f64) * 0.6 - 0.3;
            (i as f64 * 0.11).sin() + noise
        })
        .collect()
}

/// Wide backends available on this host (beyond scalar).
fn wide_backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Sse2, Backend::Neon]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

fn assert_profiles_bitwise(a: &MatrixProfile, b: &MatrixProfile, ctx: &str) {
    assert_eq!(a.profile.len(), b.profile.len(), "{ctx}: length");
    for i in 0..a.profile.len() {
        assert_eq!(
            a.profile[i].to_bits(),
            b.profile[i].to_bits(),
            "{ctx}: profile[{i}] {} vs {}",
            a.profile[i],
            b.profile[i]
        );
        assert_eq!(a.index[i], b.index[i], "{ctx}: index[{i}]");
    }
}

#[test]
fn stomp_is_bitwise_identical_across_backends() {
    // (n, m): lane remainders, m == n/2 (single short band), tiny bands
    // shorter than a lane group, non-pow2 everything.
    let shapes = [
        (777usize, 33usize),
        (515, 128),
        (300, 149), // count = 152: bands barely longer than the zone
        (97, 13),
        (1024, 100),
        (260, 128), // count = 133, exclusion zone 64: few diagonals
    ];
    for (n, m) in shapes {
        let x = series(n, 42);
        for metric in [ProfileMetric::ZNormalized, ProfileMetric::Euclidean] {
            let reference =
                simd::with_backend(Backend::Scalar, || stomp_metric(&x, m, metric).unwrap());
            for be in wide_backends() {
                let wide = simd::with_backend(be, || stomp_metric(&x, m, metric).unwrap());
                assert_profiles_bitwise(
                    &wide,
                    &reference,
                    &format!("{} stomp n={n} m={m} {metric:?}", be.name()),
                );
            }
        }
    }
}

#[test]
fn left_stomp_is_bitwise_identical_across_backends() {
    let shapes = [(777usize, 33usize), (515, 128), (300, 149), (97, 13)];
    for (n, m) in shapes {
        let x = series(n, 7);
        for metric in [ProfileMetric::ZNormalized, ProfileMetric::Euclidean] {
            let reference =
                simd::with_backend(Backend::Scalar, || left_stomp(&x, m, metric).unwrap());
            for be in wide_backends() {
                let wide = simd::with_backend(be, || left_stomp(&x, m, metric).unwrap());
                assert_profiles_bitwise(
                    &wide,
                    &reference,
                    &format!("{} left_stomp n={n} m={m} {metric:?}", be.name()),
                );
            }
        }
    }
}

#[test]
fn prefix_join_is_bitwise_identical_across_backends() {
    // (n, m, train_len): diagonals shorter than a lane group at both ends
    // of the test x train block, a single test window, a train prefix of
    // exactly 2m, and lane remainders everywhere
    let shapes = [
        (777usize, 33usize, 400usize),
        (515, 128, 256),
        (300, 16, 284),
        (97, 13, 30),
        (1024, 100, 200),
        (260, 7, 250),
    ];
    for (n, m, train_len) in shapes {
        let x = series(n, 11);
        let reference =
            simd::with_backend(Backend::Scalar, || prefix_join(&x, m, train_len).unwrap());
        for be in wide_backends() {
            let wide = simd::with_backend(be, || prefix_join(&x, m, train_len).unwrap());
            assert_profiles_bitwise(
                &wide,
                &reference,
                &format!("{} prefix_join n={n} m={m} train={train_len}", be.name()),
            );
        }
    }
}

#[test]
fn merlin_agrees_with_scalar_at_tolerance() {
    // MERLIN's pair distance reassociates the dot product on wide
    // backends, so the oracle is relative tolerance, not bitwise — but the
    // discord *locations* must still match, because 1e-9 perturbations
    // cannot flip DRAG's pruning decisions on a non-degenerate series.
    let x = series(500, 99);
    let reference = simd::with_backend(Backend::Scalar, || merlin(&x, 16, 28).unwrap());
    for be in wide_backends() {
        let wide = simd::with_backend(be, || merlin(&x, 16, 28).unwrap());
        assert_eq!(wide.len(), reference.len());
        for (a, b) in wide.iter().zip(&reference) {
            assert_eq!(a.length, b.length);
            assert_eq!(a.start, b.start, "{} length {}", be.name(), a.length);
            let denom = b.distance.abs().max(1.0);
            assert!(
                (a.distance - b.distance).abs() / denom < 1e-9,
                "{} length {}: {} vs {}",
                be.name(),
                a.length,
                a.distance,
                b.distance
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fuzzed_stomp_is_bitwise_identical_across_backends(
        x in prop::collection::vec(-50.0f64..50.0, 40..220),
        m in 8usize..32,
    ) {
        for metric in [ProfileMetric::ZNormalized, ProfileMetric::Euclidean] {
            let reference =
                simd::with_backend(Backend::Scalar, || stomp_metric(&x, m, metric).unwrap());
            for be in wide_backends() {
                let wide = simd::with_backend(be, || stomp_metric(&x, m, metric).unwrap());
                for i in 0..reference.profile.len() {
                    prop_assert_eq!(
                        wide.profile[i].to_bits(),
                        reference.profile[i].to_bits(),
                        "{} profile[{}] n={} m={}", be.name(), i, x.len(), m
                    );
                    prop_assert_eq!(wide.index[i], reference.index[i]);
                }
            }
        }
    }

    #[test]
    fn fuzzed_left_stomp_is_bitwise_identical_across_backends(
        x in prop::collection::vec(-50.0f64..50.0, 40..180),
        m in 8usize..24,
    ) {
        let reference = simd::with_backend(Backend::Scalar, || {
            left_stomp(&x, m, ProfileMetric::ZNormalized).unwrap()
        });
        for be in wide_backends() {
            let wide =
                simd::with_backend(be, || left_stomp(&x, m, ProfileMetric::ZNormalized).unwrap());
            for i in 0..reference.profile.len() {
                prop_assert_eq!(
                    wide.profile[i].to_bits(),
                    reference.profile[i].to_bits(),
                    "{} profile[{}] n={} m={}", be.name(), i, x.len(), m
                );
                prop_assert_eq!(wide.index[i], reference.index[i]);
            }
        }
    }

    #[test]
    fn fuzzed_prefix_join_is_bitwise_identical_across_backends(
        x in prop::collection::vec(-50.0f64..50.0, 60..220),
        m in 4usize..24,
        frac in 0.2f64..0.8,
    ) {
        let train_len = ((x.len() as f64 * frac) as usize).max(m);
        prop_assume!(train_len + m <= x.len());
        let reference =
            simd::with_backend(Backend::Scalar, || prefix_join(&x, m, train_len).unwrap());
        for be in wide_backends() {
            let wide = simd::with_backend(be, || prefix_join(&x, m, train_len).unwrap());
            for i in 0..reference.profile.len() {
                prop_assert_eq!(
                    wide.profile[i].to_bits(),
                    reference.profile[i].to_bits(),
                    "{} profile[{}] n={} m={} train={}", be.name(), i, x.len(), m, train_len
                );
                prop_assert_eq!(wide.index[i], reference.index[i]);
            }
        }
    }
}
