//! Pinned output digests of the three STOMP diagonal kernels.
//!
//! The self-join ([`stomp_metric`], both metrics), the left profile
//! ([`left_stomp`]) and the prefix join ([`prefix_join`]) promise bitwise
//! identical profiles and indices at every thread count and on every SIMD
//! backend (DESIGN.md §7, §11). The other suites compare runs with each
//! other; this one compares every run with FNV-1a digests recorded from a
//! known-good build, so a kernel rewrite that changes every run the same
//! way — a lane-group width, a reordered merge, a new remainder path —
//! still fails here.
//!
//! The inputs cover the walkers' boundary cases:
//! - a series with more windows than the kernels' 16,384-row cache block,
//!   so each diagonal's dot product is carried across a block boundary;
//! - 32 consecutive series lengths per kernel, so the number of diagonals
//!   takes every residue modulo 16 and every lane-group width leaves every
//!   possible remainder at a band's end (more band ends come from the 2-
//!   and 8-thread splits);
//! - a series with flat windows, which takes the exact per-cell
//!   z-normalized scorer on the forced scalar backend.
//!
//! Each case runs at 1, 2 and 8 threads under every backend the host
//! supports.

use tsad_core::ckpt::digest64;
use tsad_core::simd::{self, Backend};
use tsad_detectors::matrix_profile::{
    left_stomp, prefix_join, stomp_metric, MatrixProfile, ProfileMetric,
};
use tsad_parallel::with_threads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Windows per row block in the kernels; the long case must exceed it.
const ROW_BLOCK: usize = 16_384;

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut level = 0.0f64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let step = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            level += step;
            (i as f64 * 0.23).sin() + 0.2 * level
        })
        .collect()
}

/// A wavy series with two flat stretches: its constant windows force the
/// exact z-normalized scorer.
fn flat_series(n: usize) -> Vec<f64> {
    let mut x = series(n, 5);
    for v in &mut x[n / 5..n / 5 + 60] {
        *v = 1.5;
    }
    for v in &mut x[3 * n / 5..3 * n / 5 + 60] {
        *v = 1.5;
    }
    x
}

/// FNV-1a digests of the profile bits and of the indices, over every
/// profile of a case in order.
fn digests(runs: &[MatrixProfile]) -> (u64, u64) {
    let mut profile = Vec::new();
    let mut index = Vec::new();
    for mp in runs {
        for p in &mp.profile {
            profile.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        for &i in &mp.index {
            index.extend_from_slice(&(i as u64).to_le_bytes());
        }
    }
    (digest64(&profile), digest64(&index))
}

fn backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Sse2, Backend::Neon, Backend::Scalar]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// Runs `case` at every thread count under every supported backend and
/// checks each run against the pinned `(profile, index)` digests.
fn check(name: &str, pinned: (u64, u64), case: impl Fn() -> Vec<MatrixProfile>) {
    for be in backends() {
        for t in THREAD_COUNTS {
            let got = simd::with_backend(be, || with_threads(t, || digests(&case())));
            assert_eq!(
                got,
                pinned,
                "{name} under {} at {t} threads: got ({:#018x}, {:#018x})",
                be.name(),
                got.0,
                got.1
            );
        }
    }
}

#[test]
fn long_self_join_carries_across_row_blocks() {
    let m = 50;
    let x = series(ROW_BLOCK + m + 300, 42);
    check(
        "stomp z-normalized, long",
        (0xa66a59ac76afbfe6, 0x55b901ba2746fcb6),
        || vec![stomp_metric(&x, m, ProfileMetric::ZNormalized).unwrap()],
    );
    check(
        "stomp euclidean, long",
        (0x4a8d8433470f42ea, 0x4342be680bda130c),
        || vec![stomp_metric(&x, m, ProfileMetric::Euclidean).unwrap()],
    );
}

#[test]
fn long_left_profile_carries_across_row_blocks() {
    let m = 50;
    let x = series(ROW_BLOCK + m + 300, 43);
    check(
        "left_stomp, long",
        (0xbf545a5686417cb0, 0x923729801b954b1a),
        || vec![left_stomp(&x, m, ProfileMetric::ZNormalized).unwrap()],
    );
}

#[test]
fn long_prefix_join_carries_across_row_blocks() {
    let m = 40;
    let train_len = 500;
    let x = series(train_len + ROW_BLOCK + m + 300, 44);
    check(
        "prefix_join, long",
        (0x1694733f470d6d94, 0x2aea19859744fa7a),
        || vec![prefix_join(&x, m, train_len).unwrap()],
    );
}

#[test]
fn every_band_remainder_is_pinned() {
    // 32 consecutive lengths: the diagonal count (count − excl for the
    // profiles, count − m for the join) takes every residue modulo 16
    let m = 8;
    let lens = || 90..122usize;
    let x = series(200, 9);
    check(
        "stomp z-normalized, remainders",
        (0x6441ad1fb097cad9, 0x75f1a7362e7b35a0),
        || {
            lens()
                .map(|n| stomp_metric(&x[..n], m, ProfileMetric::ZNormalized).unwrap())
                .collect()
        },
    );
    check(
        "stomp euclidean, remainders",
        (0xb1ffa6af191e7b9b, 0xfcaf7a4af0cdc36a),
        || {
            lens()
                .map(|n| stomp_metric(&x[..n], m, ProfileMetric::Euclidean).unwrap())
                .collect()
        },
    );
    check(
        "left_stomp, remainders",
        (0xb96e4c2f23fda195, 0xf3d800227d807ee5),
        || {
            lens()
                .map(|n| left_stomp(&x[..n], m, ProfileMetric::ZNormalized).unwrap())
                .collect()
        },
    );
    check(
        "left_stomp euclidean, remainders",
        (0x3b9bf5021487b55a, 0x455fd6d697521ddc),
        || {
            lens()
                .map(|n| left_stomp(&x[..n], m, ProfileMetric::Euclidean).unwrap())
                .collect()
        },
    );
    check(
        "prefix_join, remainders",
        (0xa3cd4cfc6658b492, 0x046a512691f6a094),
        || {
            lens()
                .map(|n| prefix_join(&x[..n], m, 30).unwrap())
                .collect()
        },
    );
}

#[test]
fn flat_windows_take_the_exact_scorer() {
    let m = 32;
    let x = flat_series(2_000);
    check(
        "stomp z-normalized, flat windows",
        (0x8320b060b5f27624, 0x0b753e018257b92b),
        || vec![stomp_metric(&x, m, ProfileMetric::ZNormalized).unwrap()],
    );
    check(
        "left_stomp, flat windows",
        (0x565c768a5b0d579a, 0x173a4cd8d6c815a9),
        || vec![left_stomp(&x, m, ProfileMetric::ZNormalized).unwrap()],
    );
    check(
        "prefix_join, flat windows",
        (0x4ccf44befb8cc750, 0xab9fac2bddd86c1c),
        || vec![prefix_join(&x, m, 700).unwrap()],
    );
}
