//! The discord detectors' and subsequence 1-NN's `locate` hook returns
//! exactly the first arg-max of `point_scores` over the test part, on
//! every backend, whether the certified search proves its answer or falls
//! back to the full profile or join; and the same error where the default
//! body errs.

use proptest::prelude::*;
use tsad_core::simd::{self, Backend};
use tsad_core::{Result, TimeSeries};
use tsad_detectors::baselines::SubsequenceKnn;
use tsad_detectors::matrix_profile::{DiscordDetector, OnlineDiscordDetector};
use tsad_detectors::{Detector, DetectorRegistry, Params};

fn backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// The default `locate`: the first arg-max of the score's test part.
fn full_profile_location(detector: &dyn Detector, ts: &TimeSeries, train_len: usize) -> usize {
    let score = detector.score(ts, train_len).unwrap();
    train_len + tsad_core::stats::argmax(&score[train_len..]).unwrap()
}

/// A detector's `score` under the trait's default `locate` body.
struct ScoreOnly<'a>(&'a dyn Detector);

impl Detector for ScoreOnly<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        self.0.score(ts, train_len)
    }
}

/// A noisy sine with one squashed cycle, shaped by `kind`: 0 plain,
/// 1 a flat stretch, 2 exact repeats of one period, 3 a `1e6`-offset
/// stretch (whose windows the moments read as flat), 4 a repeated
/// anomaly, 5 a `1e4`-offset stretch (which they do not).
fn series(n: usize, period: usize, kind: u8, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let at = n / 2 + (seed as usize % (n / 4 + 1));
    let mut x: Vec<f64> = (0..n)
        .map(|i| {
            let base = (i as f64 * std::f64::consts::TAU / period as f64).sin();
            let v = if (at..at + period / 2).contains(&i) {
                base * 0.2 + 0.8
            } else {
                base
            };
            v + 0.05 * noise()
        })
        .collect();
    match kind {
        1 => {
            let s = n / 5;
            x[s..s + n / 6].fill(0.25);
        }
        2 => {
            for i in period..n {
                x[i] = x[i % period];
            }
        }
        3 | 5 => {
            let s = n / 3;
            for v in &mut x[s..s + n / 8] {
                *v += if kind == 3 { 1e6 } else { 1e4 };
            }
        }
        4 => {
            let (a, b) = (n / 6, n / 6 + n / 3);
            let copy: Vec<f64> = x[a..a + period].to_vec();
            x[b..b + period].copy_from_slice(&copy);
        }
        _ => {}
    }
    x
}

/// Asserts `member`'s `locate` against the default body on every backend.
/// The default must answer unless `may_refuse`; then both may refuse the
/// input, with the same error.
fn assert_member_matches(
    member: &dyn Detector,
    ts: &TimeSeries,
    train_len: usize,
    may_refuse: bool,
) -> std::result::Result<(), proptest::TestCaseError> {
    let want = ScoreOnly(member).locate(ts, train_len);
    prop_assert!(
        may_refuse || want.is_ok(),
        "{} refused train {}: {:?}",
        member.name(),
        train_len,
        want
    );
    for backend in backends() {
        let got = simd::with_backend(backend, || member.locate(ts, train_len));
        prop_assert_eq!(
            &got,
            &want,
            "{} on {} (train {})",
            member.name(),
            backend.name(),
            train_len
        );
    }
    Ok(())
}

/// Asserts the three members' `locate` on every backend: the discord
/// members must answer, 1-NN answer or refuse as its default does (it
/// refuses a train prefix shorter than `2m`).
fn assert_locate_matches(
    x: &[f64],
    m: usize,
    train_len: usize,
) -> std::result::Result<(), proptest::TestCaseError> {
    let ts = TimeSeries::new("p", x.to_vec()).unwrap();
    assert_member_matches(&DiscordDetector::new(m), &ts, train_len, false)?;
    assert_member_matches(&OnlineDiscordDetector::new(m), &ts, train_len, false)?;
    assert_member_matches(&SubsequenceKnn::new(m), &ts, train_len, true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn locate_is_the_test_argmax_of_point_scores(
        n in 80usize..360,
        m in 4usize..24,
        period in 6usize..30,
        kind in 0u8..6,
        train_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= 4 * m);
        let x = series(n, period, kind, seed);
        // any prefix: windows starting in it reach into the test part
        let train_len = ((n - 1) as f64 * train_frac) as usize;
        assert_locate_matches(&x, m, train_len)?;
    }

    #[test]
    fn locate_handles_short_and_warm_test_parts(
        n in 80usize..200,
        m in 4usize..16,
        kind in 0u8..6,
        short in 1usize..16,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= 4 * m);
        let x = series(n, 12, kind, seed);
        // a test part shorter than the window
        assert_locate_matches(&x, m, n - short.min(m - 1).max(1))?;
        // a left warm-up (exclusion zone + 2m) covering every window
        let y = &x[..m.div_ceil(2) + 3 * m - 1];
        assert_locate_matches(y, m, y.len() / 2)?;
        // ... or all but the last few
        let y = &x[..m.div_ceil(2) + 3 * m + short];
        assert_locate_matches(y, m, m)?;
    }

    #[test]
    fn knn_locate_is_the_test_argmax_of_the_prefix_join(
        n in 80usize..360,
        m in 4usize..24,
        period in 6usize..30,
        kind in 0u8..6,
        train_frac in 0.0f64..1.0,
        short in 1usize..24,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= 4 * m);
        let x = series(n, period, kind, seed);
        let ts = TimeSeries::new("p", x).unwrap();
        let knn = SubsequenceKnn::new(m);
        // a train prefix 1-NN accepts, short of the last window
        let count = n - m + 1;
        let train_len = 2 * m + ((count - 2 * m) as f64 * train_frac) as usize;
        assert_member_matches(&knn, &ts, train_len, false)?;
        // no test window: `t == count` and a test part shorter than the
        // window, which still answer ...
        assert_member_matches(&knn, &ts, count, false)?;
        assert_member_matches(&knn, &ts, n - short.min(m - 1).max(1), false)?;
        // ... and an empty test part, which both refuse
        assert_member_matches(&knn, &ts, n, true)?;
    }
}

#[test]
fn knn_locate_errs_where_the_default_does() {
    // `run_contest` maps any error to `predicted = 0`, so the hook must
    // refuse exactly what the default body refuses, with the same error
    let x = series(200, 24, 0, 11);
    let ts = TimeSeries::new("e", x).unwrap();
    let cases = [
        (0, 100, "m == 0"),
        (201, 100, "m > n"),
        (24, 47, "t < 2m"),
        (24, 200, "t == n"),
        (24, 201, "t > n"),
    ];
    for (m, t, what) in cases {
        let knn = SubsequenceKnn::new(m);
        let want = ScoreOnly(&knn).locate(&ts, t);
        assert!(want.is_err(), "{what}: the default answered");
        for backend in backends() {
            let got = simd::with_backend(backend, || knn.locate(&ts, t));
            assert_eq!(got, want, "{what} on {}", backend.name());
        }
    }
    // a NaN never reaches `locate`: the series refuses it as `score`'s
    // join would
    let mut y = series(200, 24, 0, 11);
    y[150] = f64::NAN;
    let nan = TimeSeries::new("e", y.clone()).unwrap_err();
    assert_eq!(
        tsad_detectors::matrix_profile::prefix_join(&y, 24, 100).unwrap_err(),
        nan
    );
}

#[test]
fn registry_discord_boxes_forward_locate() {
    // a forwarded locate takes the certified path and moves its counter;
    // the default body would compute the whole profile instead
    let registry = DetectorRegistry::standard();
    let x = series(600, 24, 0, 3);
    let ts = TimeSeries::new("r", x).unwrap();
    for (id, counter) in [
        ("discord", "detectors.discord.locate_certified"),
        ("left-discord", "detectors.left_discord.locate_certified"),
        ("subsequence-knn", "detectors.knn.locate_certified"),
    ] {
        let boxed = registry.build(id, &Params::new()).unwrap();
        let read = || tsad_obs::snapshot().counter(counter).unwrap_or(0);
        let before = read();
        let got = tsad_obs::with_enabled(true, || boxed.locate(&ts, 200)).unwrap();
        assert!(read() > before, "{id} did not forward locate");
        assert_eq!(got, full_profile_location(&boxed, &ts, 200), "{id}");
    }
}
