//! Property-based tests for detector invariants.

use proptest::prelude::*;
use tsad_core::dist::dot_to_znorm_dist;
use tsad_core::simd::{self, Backend};
use tsad_core::windows::WindowMoments;
use tsad_core::{Labels, Region, TimeSeries};
use tsad_detectors::hotsax::{hotsax_discord, HotSaxConfig};
use tsad_detectors::matrix_profile::{stomp, stomp_metric, ProfileMetric};
use tsad_detectors::merlin::{drag_discord, merlin, merlin_top, LengthDiscord};
use tsad_detectors::oneliner::{equation, solves, Equation, Expr, OneLiner};
use tsad_detectors::telemanom::ewma;
use tsad_detectors::threshold::{discrimination_ratio, top_k_peaks};

fn signal(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, min_len..=max_len)
}

/// Every window's nearest-neighbour distance by brute force, scored like
/// HOT SAX and MERLIN score a pair: one dot product on `backend` over the
/// window moments, with window `i` as the first argument.
fn brute_force_nn(x: &[f64], m: usize, backend: Backend) -> Vec<f64> {
    let mo = WindowMoments::compute(x, m).unwrap();
    let excl = m.div_ceil(2);
    (0..mo.len())
        .map(|i| {
            let mut nn = f64::INFINITY;
            for j in 0..mo.len() {
                if j.abs_diff(i) < excl {
                    continue;
                }
                let dot = simd::dot_with(backend, &x[i..i + m], &x[j..j + m]);
                let d = dot_to_znorm_dist(dot, m, mo.means[i], mo.stds[i], mo.means[j], mo.stds[j]);
                if d < nn {
                    nn = d;
                }
            }
            nn
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oneliner_mask_and_score_agree(x in signal(8, 200), b in -5.0f64..5.0) {
        // mask[i] == (score[i] > 0) wherever the expression is defined
        let ol = equation(Equation::Eq3, 1, 0.0, b);
        let mask = ol.mask(&x).unwrap();
        let score = ol.score_values(&x).unwrap();
        prop_assert_eq!(mask.len(), x.len());
        prop_assert_eq!(score.len(), x.len());
        // position 0 is lost to diff and must never fire
        prop_assert!(!mask[0]);
        for i in 1..x.len() {
            prop_assert_eq!(mask[i], score[i] > 0.0, "index {}", i);
        }
    }

    #[test]
    fn oneliner_eq3_is_sign_symmetric(x in signal(8, 150), b in 0.1f64..10.0) {
        // |diff| is invariant to flipping the series
        let ol = equation(Equation::Eq3, 1, 0.0, b);
        let flipped: Vec<f64> = x.iter().map(|v| -v).collect();
        prop_assert_eq!(ol.mask(&x).unwrap(), ol.mask(&flipped).unwrap());
    }

    #[test]
    fn oneliner_offset_invariance(x in signal(8, 150), b in 0.1f64..10.0, c in -50.0f64..50.0) {
        // diff-based one-liners ignore constant offsets
        let ol = equation(Equation::Eq5, 11, 2.0, b);
        let shifted: Vec<f64> = x.iter().map(|v| v + c).collect();
        let m1 = ol.mask(&x).unwrap();
        let m2 = ol.mask(&shifted).unwrap();
        prop_assert_eq!(m1, m2);
    }

    #[test]
    fn expr_display_round_trips_structure(k in 1usize..40, c in -3.0f64..3.0) {
        let e = Expr::Ts.diff().abs().movstd(k).scale(c).plus(Expr::Const(1.0));
        let rendered = e.to_string();
        prop_assert!(rendered.contains("movstd"));
        let k_str = k.to_string();
        prop_assert!(rendered.contains(&k_str));
    }

    #[test]
    fn solves_is_monotone_in_slop(
        mask in prop::collection::vec(any::<bool>(), 50..100),
        start in 10usize..30,
    ) {
        let labels = Labels::single(mask.len(), Region { start, end: start + 5 }).unwrap();
        // if it solves at slop s, it solves at any larger slop
        for s in 0..6usize {
            if solves(&mask, &labels, s) {
                for s2 in s..8 {
                    prop_assert!(solves(&mask, &labels, s2), "slop {} -> {}", s, s2);
                }
                break;
            }
        }
    }

    #[test]
    fn stomp_profile_is_symmetric_distance(x in signal(40, 120)) {
        // profile values are genuine NN distances: profile[i] equals the
        // distance to profile's claimed neighbor
        let m = 8;
        let mp = stomp(&x, m).unwrap();
        for i in (0..mp.profile.len()).step_by(7) {
            let j = mp.index[i];
            let d = tsad_core::dist::znorm_euclidean(&x[i..i + m], &x[j..j + m]).unwrap();
            prop_assert!((d - mp.profile[i]).abs() < 1e-4, "i={} j={}: {} vs {}", i, j, d, mp.profile[i]);
        }
    }

    #[test]
    fn euclidean_profile_scale_covariance(x in signal(40, 100), c in 0.5f64..4.0) {
        // scaling the series scales every euclidean profile value by |c|
        let m = 8;
        let scaled: Vec<f64> = x.iter().map(|v| v * c).collect();
        let p1 = stomp_metric(&x, m, ProfileMetric::Euclidean).unwrap();
        let p2 = stomp_metric(&scaled, m, ProfileMetric::Euclidean).unwrap();
        for (a, b) in p1.profile.iter().zip(&p2.profile) {
            prop_assert!((a * c - b).abs() < 1e-6 * (1.0 + b.abs()), "{} vs {}", a * c, b);
        }
    }

    #[test]
    fn znorm_profile_scale_invariance(x in signal(40, 100), c in 0.5f64..4.0, off in -20.0f64..20.0) {
        let m = 8;
        let transformed: Vec<f64> = x.iter().map(|v| v * c + off).collect();
        let p1 = stomp(&x, m).unwrap();
        let p2 = stomp(&transformed, m).unwrap();
        for (a, b) in p1.profile.iter().zip(&p2.profile) {
            prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn hotsax_distance_is_the_brute_force_max_of_min(
        mut x in signal(40, 160),
        m in 6usize..20,
        flat_at in 0usize..160,
        flat_len in 0usize..40,
    ) {
        // A flat stretch makes constant windows, which the pair distance
        // scores by convention rather than by the dot product.
        let start = flat_at.min(x.len());
        let end = (start + flat_len).min(x.len());
        x[start..end].fill(7.5);
        let backends = [Backend::Scalar, Backend::Avx2, Backend::Sse2, Backend::Neon];
        for be in backends.into_iter().filter(|b| b.is_supported()) {
            let (loc, dist) = simd::with_backend(be, || {
                hotsax_discord(&x, m, &HotSaxConfig::default()).unwrap()
            });
            let nn = brute_force_nn(&x, m, be);
            let best = nn
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(dist.to_bits(), best.to_bits(), "{} m={}", be.name(), m);
            prop_assert_eq!(nn[loc].to_bits(), dist.to_bits(), "{} loc={}", be.name(), loc);
        }
    }

    #[test]
    fn drag_is_the_brute_force_top_discord_iff_it_reaches_r(
        mut x in signal(60, 160),
        m in 4usize..16,
        kind in 0usize..4,
        at in 0usize..160,
        span in 1usize..40,
        probe in 0usize..200,
    ) {
        let n = x.len();
        let at = at % (n - span);
        match kind {
            // a large offset: the correlation numerator cancels hard
            0 => x.iter_mut().for_each(|v| *v = 1e6 + *v * 1e-2),
            // a flat stretch: constant windows score by convention
            1 => x[at..at + span].fill(-3.25),
            // an exact repeat of the series' head
            2 => {
                let len = span.min(n - at).min(at);
                let head = x[..len].to_vec();
                x[at..at + len].copy_from_slice(&head);
            }
            // twin anomalies: the same bump at two places
            _ => {
                for (k, b) in [40.0, -90.0, 40.0].into_iter().enumerate() {
                    x[(at + k) % n] += b;
                    x[(at + n / 2 + k) % n] += b;
                }
            }
        }
        let backends = [Backend::Scalar, Backend::Avx2, Backend::Sse2, Backend::Neon];
        for be in backends.into_iter().filter(|b| b.is_supported()) {
            let nn = brute_force_nn(&x, m, be);
            let top = nn.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let loc = nn.iter().position(|&d| d == top).unwrap();
            let other = nn[probe % nn.len()];
            for r in [top, top.next_down(), top.next_up(), other, 0.0] {
                let got = simd::with_backend(be, || drag_discord(&x, m, r).unwrap());
                let want = (top >= r).then_some((loc, top));
                prop_assert_eq!(
                    got.map(|(i, d)| (i, d.to_bits())),
                    want.map(|(i, d)| (i, d.to_bits())),
                    "{} kind={} m={} r={}", be.name(), kind, m, r
                );
            }
        }
    }

    #[test]
    fn merlin_top_is_the_full_sweep_fold(
        mut x in signal(60, 160),
        lo in 3usize..12,
        extra in 0usize..10,
        kind in 0usize..5,
        at in 0usize..160,
        span in 1usize..40,
    ) {
        let n = x.len();
        let at = at % (n - span);
        let hi = lo + extra;
        match kind {
            // every length scores 0: the longest must win the tie
            0 => x.fill(2.5),
            1 => x[at..at + span].fill(-3.25),
            2 => {
                let len = span.min(n - at).min(at);
                let head = x[..len].to_vec();
                x[at..at + len].copy_from_slice(&head);
            }
            3 => {
                for (k, b) in [40.0, -90.0, 40.0].into_iter().enumerate() {
                    x[(at + k) % n] += b;
                    x[(at + n / 2 + k) % n] += b;
                }
            }
            _ => x.iter_mut().for_each(|v| *v = 1e6 + *v * 1e-2),
        }
        let key = |d: LengthDiscord| (d.length, d.start, d.distance.to_bits());
        let backends = [Backend::Scalar, Backend::Avx2, Backend::Sse2, Backend::Neon];
        // the ambient count (`TSAD_THREADS`) too, so a CI matrix adds its own
        let threads = [tsad_parallel::current_threads(), 1, 2, 8];
        for be in backends.into_iter().filter(|b| b.is_supported()) {
            let sweep = simd::with_backend(be, || merlin(&x, lo, hi).unwrap());
            let want = sweep
                .into_iter()
                .max_by(|a, b| {
                    let na = a.distance / (a.length as f64).sqrt();
                    let nb = b.distance / (b.length as f64).sqrt();
                    na.total_cmp(&nb)
                })
                .map(key);
            if kind == 0 {
                prop_assert_eq!(want, Some((hi, 0, 0.0f64.to_bits())));
            }
            for t in threads {
                let got = simd::with_backend(be, || {
                    tsad_parallel::with_threads(t, || merlin_top(&x, lo, hi).unwrap())
                });
                prop_assert_eq!(got.map(key), want, "{} kind={} {}..={} t={}", be.name(), kind, lo, hi, t);
            }
        }
    }

    #[test]
    fn ewma_stays_within_input_range(x in signal(1, 200), alpha in 0.01f64..1.0) {
        let s = ewma(&x, alpha).unwrap();
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in s {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn top_k_peaks_are_separated_and_sorted(x in signal(10, 300), k in 1usize..8, excl in 1usize..20) {
        let peaks = top_k_peaks(&x, k, excl);
        prop_assert!(peaks.len() <= k);
        for w in peaks.windows(2) {
            prop_assert!(w[0].value >= w[1].value);
        }
        for i in 0..peaks.len() {
            for j in i + 1..peaks.len() {
                prop_assert!(peaks[i].index.abs_diff(peaks[j].index) > excl);
            }
        }
    }

    #[test]
    fn discrimination_ratio_at_least_one(x in signal(2, 200)) {
        let r = discrimination_ratio(&x).unwrap();
        prop_assert!(r >= 1.0 - 1e-9 || r.is_infinite());
    }

    #[test]
    fn detector_outputs_match_series_length(x in signal(30, 200)) {
        use tsad_detectors::baselines::{GlobalZScore, MovingAvgResidual, NaiveLastPoint};
        use tsad_detectors::Detector;
        let ts = TimeSeries::new("p", x).unwrap();
        for det in [
            &GlobalZScore as &dyn Detector,
            &MovingAvgResidual::new(7),
            &NaiveLastPoint,
        ] {
            let s = det.score(&ts, 0).unwrap();
            prop_assert_eq!(s.len(), ts.len(), "{}", det.name());
            prop_assert!(s.iter().all(|v| v.is_finite()), "{}", det.name());
        }
    }

    #[test]
    fn oneliner_detector_never_panics_on_short_input(x in signal(0, 6)) {
        let ol = OneLiner::new(Expr::Ts.diff().abs(), Expr::Const(1.0));
        // may error for degenerate inputs, must not panic
        let _ = ol.mask(&x);
        let _ = ol.score_values(&x);
    }
}
