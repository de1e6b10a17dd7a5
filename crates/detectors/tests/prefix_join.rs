//! Oracle and hostile-input tests for the train→test prefix join and the
//! subsequence 1-NN detector built on it.
//!
//! The oracle is the brute-force definition: for every test window, the
//! minimum of `distance_profile_naive` against the train prefix. The join
//! must match it to 1e-9 relative, with a small absolute floor for
//! distances near 0, where the correlation form's `√(2m(1 + s))` turns a
//! rounding-level `s + 1` into a visible (but tiny) distance.

use proptest::prelude::*;
use tsad_core::dist::distance_profile_naive;
use tsad_core::TimeSeries;
use tsad_detectors::baselines::SubsequenceKnn;
use tsad_detectors::matrix_profile::{prefix_join, MatrixProfile};
use tsad_detectors::Detector;

/// Brute-force 1-NN distance of every test window to the train prefix.
fn naive_join(x: &[f64], m: usize, train_len: usize) -> Vec<f64> {
    (train_len..=x.len() - m)
        .map(|i| {
            distance_profile_naive(&x[i..i + m], &x[..train_len])
                .unwrap()
                .into_iter()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-6
}

/// Checks the join against the oracle: test rows match, train rows are 0,
/// and every reported neighbor is a train window at the reported distance.
fn assert_matches_oracle(x: &[f64], m: usize, train_len: usize) -> MatrixProfile {
    let mp = prefix_join(x, m, train_len).unwrap();
    let count = x.len() - m + 1;
    assert_eq!(mp.profile.len(), count);
    assert_eq!(mp.index.len(), count);
    assert!(mp.profile[..train_len.min(count)].iter().all(|&p| p == 0.0));
    for (r, want) in naive_join(x, m, train_len).into_iter().enumerate() {
        let i = train_len + r;
        let got = mp.profile[i];
        assert!(
            close(got, want),
            "n={} m={m} train={train_len} i={i}: {got} vs {want}",
            x.len()
        );
        let j = mp.index[i];
        assert!(
            j + m <= train_len,
            "i={i}: neighbor {j} is not a train window"
        );
        let at_j = distance_profile_naive(&x[i..i + m], &x[j..j + m]).unwrap()[0];
        assert!(
            close(got, at_j),
            "i={i}: index {j} at {at_j}, profile {got}"
        );
    }
    mp
}

fn wavy(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state as f64 / u64::MAX as f64) * 0.6 - 0.3;
            (i as f64 * 0.21).sin() + noise
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_matches_brute_force(
        x in prop::collection::vec(-50.0f64..50.0, 60..260),
        m in 3usize..24,
        frac in 0.2f64..0.8,
    ) {
        let train_len = ((x.len() as f64 * frac) as usize).max(m);
        prop_assume!(train_len + m <= x.len());
        assert_matches_oracle(&x, m, train_len);
    }
}

#[test]
fn join_matches_brute_force_on_lane_edge_shapes() {
    // (n, m, train_len): diagonals shorter than a lane group, train and
    // test regions of very different lengths, non-power-of-two everything
    for (n, m, train_len) in [
        (300, 16, 150),
        (300, 16, 40),
        (300, 16, 260),
        (97, 13, 30),
        (515, 64, 128),
        (400, 5, 399 - 5),
    ] {
        assert_matches_oracle(&wavy(n, n as u64), m, train_len);
    }
}

#[test]
fn constant_train_windows_take_the_flat_conventions() {
    // a flat stretch in the train prefix: a flat test window pairs with it
    // at exactly 0, a wiggly one is at most √(2m) from anything
    let m = 8;
    let mut x = wavy(200, 3);
    x[10..40].fill(2.5);
    x[150..170].fill(-1.0);
    let mp = assert_matches_oracle(&x, m, 100);
    assert_eq!(mp.profile[152], 0.0);
    let cap = (2.0 * m as f64).sqrt();
    assert!(mp.profile.iter().all(|&p| p <= cap + 1e-12));
}

#[test]
fn constant_test_windows_without_flat_train_are_at_the_maximum() {
    let m = 10;
    let mut x = wavy(240, 5);
    x[180..220].fill(0.7);
    let mp = assert_matches_oracle(&x, m, 120);
    assert_eq!(mp.profile[190], (2.0 * m as f64).sqrt());
}

#[test]
fn all_constant_series_scores_zero_everywhere() {
    let x = vec![4.0; 120];
    let mp = assert_matches_oracle(&x, 12, 48);
    assert!(mp.profile.iter().all(|&p| p == 0.0));
    let ts = TimeSeries::new("flat", x).unwrap();
    let s = SubsequenceKnn::new(12).score(&ts, 48).unwrap();
    assert!(s.iter().all(|&v| v == 0.0));
}

#[test]
fn smallest_train_prefix_and_single_test_window() {
    let m = 16;
    let x = wavy(200, 9);
    // train_len == 2m: the smallest prefix the detector accepts
    assert_matches_oracle(&x, m, 2 * m);
    // a test region exactly m long: one test window
    let mp = assert_matches_oracle(&x, m, x.len() - m);
    assert!(mp.profile[x.len() - m] > 0.0);
}

#[test]
fn short_test_region_and_bad_train_lengths() {
    let x = wavy(100, 2);
    // fewer than m test points: no test window, all zeros
    let mp = prefix_join(&x, 20, 90).unwrap();
    assert!(mp.profile.iter().all(|&p| p == 0.0));
    assert!(prefix_join(&x, 20, 19).is_err(), "no train window");
    assert!(prefix_join(&x, 20, 101).is_err(), "prefix past the end");
    assert!(prefix_join(&x, 0, 50).is_err());
    assert!(prefix_join(&x, 101, 50).is_err());
    let ts = TimeSeries::new("s", x).unwrap();
    assert!(SubsequenceKnn::new(20).score(&ts, 39).is_err());
    assert!(SubsequenceKnn::new(20).score(&ts, 101).is_err());
}

#[test]
fn detector_expands_the_join_by_window_max() {
    let m = 12;
    let x = wavy(260, 4);
    let train_len = 100;
    let ts = TimeSeries::new("s", x.clone()).unwrap();
    let scores = SubsequenceKnn::new(m).score(&ts, train_len).unwrap();
    let nn = naive_join(&x, m, train_len);
    for (p, &s) in scores.iter().enumerate() {
        let want = (train_len..=x.len() - m)
            .filter(|&i| i <= p && p < i + m)
            .map(|i| nn[i - train_len])
            .fold(0.0f64, f64::max);
        assert!(close(s, want), "point {p}: {s} vs {want}");
    }
}
