//! Property-based tests for `tsad-core` invariants.

use proptest::prelude::*;
use tsad_core::{dist, fft, labels::Labels, ops, sax, stats, windows::WindowMoments};

fn finite_vec(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e4f64..1e4, min_len..=max_len)
}

proptest! {
    #[test]
    fn diff_then_cumsum_recovers_series(x in finite_vec(2, 200)) {
        let d = ops::diff(&x);
        let rebuilt: Vec<f64> = std::iter::once(x[0])
            .chain(ops::cumsum(&d).iter().map(|&c| x[0] + c))
            .collect();
        prop_assert_eq!(rebuilt.len(), x.len());
        for (a, b) in rebuilt.iter().zip(&x) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn movmean_bounded_by_min_max(x in finite_vec(1, 100), k in 1usize..20) {
        let mm = ops::movmean(&x, k).unwrap();
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in mm {
            prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6);
        }
    }

    #[test]
    fn movstd_nonnegative(x in finite_vec(1, 100), k in 1usize..20) {
        for v in ops::movstd(&x, k).unwrap() {
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn movmax_dominates_movmin(x in finite_vec(1, 100), k in 1usize..20) {
        let mx = ops::movmax(&x, k).unwrap();
        let mn = ops::movmin(&x, k).unwrap();
        for (a, b) in mx.iter().zip(&mn) {
            prop_assert!(a >= b);
        }
    }

    #[test]
    fn znormalize_has_zero_mean_unit_std(x in finite_vec(2, 200)) {
        let z = ops::znormalize(&x);
        let m = z.iter().sum::<f64>() / z.len() as f64;
        prop_assert!(m.abs() < 1e-6);
        let var = z.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / z.len() as f64;
        // either the input was (near-)constant (all zeros) or unit variance
        prop_assert!(var.abs() < 1e-6 || (var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn labels_mask_roundtrip(mask in prop::collection::vec(any::<bool>(), 0..200)) {
        let labels = Labels::from_mask(&mask);
        prop_assert_eq!(labels.to_mask(), mask);
    }

    #[test]
    fn labels_density_in_unit_interval(mask in prop::collection::vec(any::<bool>(), 1..200)) {
        let labels = Labels::from_mask(&mask);
        let d = labels.density();
        prop_assert!((0.0..=1.0).contains(&d));
        let expected = mask.iter().filter(|&&b| b).count() as f64 / mask.len() as f64;
        prop_assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn labels_contains_matches_mask(mask in prop::collection::vec(any::<bool>(), 1..150)) {
        let labels = Labels::from_mask(&mask);
        for (i, &m) in mask.iter().enumerate() {
            prop_assert_eq!(labels.contains(i), m);
        }
    }

    #[test]
    fn fft_roundtrip_preserves_signal(x in finite_vec(1, 128)) {
        let size = fft::next_pow2(x.len());
        let mut data: Vec<fft::Complex> =
            x.iter().map(|&v| fft::Complex::from_real(v)).collect();
        data.resize(size, fft::Complex::default());
        fft::fft_in_place(&mut data, false).unwrap();
        fft::fft_in_place(&mut data, true).unwrap();
        for (c, &v) in data.iter().zip(&x) {
            prop_assert!((c.re - v).abs() < 1e-6);
            prop_assert!(c.im.abs() < 1e-6);
        }
    }

    #[test]
    fn sliding_dot_fft_matches_naive(
        x in finite_vec(8, 120),
        m_frac in 0.05f64..1.0,
    ) {
        let m = ((x.len() as f64 * m_frac) as usize).clamp(1, x.len());
        let query = x[..m].to_vec();
        let fast = fft::sliding_dot_product(&query, &x).unwrap();
        let slow = fft::sliding_dot_product_naive(&query, &x).unwrap();
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn rfft_complex_and_naive_sdp_paths_agree(
        x in finite_vec(8, 160),
        m_frac in 0.0f64..1.0,
    ) {
        // the three sliding-dot-product implementations — naive O(nm), the
        // historical complex-FFT path, and the packed real-input FFT path —
        // must agree to 1e-9 relative tolerance on arbitrary (n, m),
        // including m == n and non-power-of-two n (which exercises the
        // zero-padding to the next power of two)
        let n = x.len();
        let m_random = ((n as f64 * m_frac) as usize).clamp(1, n);
        for m in [m_random, n] {
            let query = x[..m].to_vec();
            let naive = fft::sliding_dot_product_naive(&query, &x).unwrap();
            let complex = fft::sliding_dot_product_fft_complex(&query, &x).unwrap();
            let real = fft::sliding_dot_product_fft(&query, &x).unwrap();
            prop_assert_eq!(real.len(), naive.len());
            prop_assert_eq!(complex.len(), naive.len());
            let qmax = query.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            let xmax = x.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            let scale = 1.0 + m as f64 * qmax * xmax;
            for i in 0..naive.len() {
                prop_assert!(
                    (real[i] - naive[i]).abs() < 1e-9 * scale,
                    "rfft vs naive at {}: {} vs {} (n={}, m={})",
                    i, real[i], naive[i], n, m
                );
                prop_assert!(
                    (real[i] - complex[i]).abs() < 1e-9 * scale,
                    "rfft vs complex at {}: {} vs {} (n={}, m={})",
                    i, real[i], complex[i], n, m
                );
            }
        }
    }

    #[test]
    fn mass_matches_naive_profile(x in finite_vec(16, 100), m in 2usize..10) {
        prop_assume!(m < x.len());
        let query = x[..m].to_vec();
        let fast = dist::mass(&query, &x).unwrap();
        let slow = dist::distance_profile_naive(&query, &x).unwrap();
        // FFT round-off on inputs up to 1e4 can leave ~1e-4 absolute noise
        // in the derived distance; that is far below any decision threshold
        // the detectors use.
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    #[test]
    fn window_moments_match_subslice_stats(x in finite_vec(4, 100), m in 1usize..20) {
        prop_assume!(m <= x.len());
        let mom = WindowMoments::compute(&x, m).unwrap();
        for i in 0..mom.len() {
            let w = &x[i..i + m];
            let mean = stats::mean(w).unwrap();
            prop_assert!((mom.means[i] - mean).abs() < 1e-6);
            let sd = stats::std_dev(w).unwrap();
            prop_assert!((mom.stds[i] - sd).abs() < 1e-6);
        }
    }

    #[test]
    fn paa_output_within_input_range(x in finite_vec(2, 100), s in 1usize..20) {
        prop_assume!(s <= x.len());
        let reduced = sax::paa(&x, s).unwrap();
        let lo = x.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in reduced {
            prop_assert!(v >= lo - 1e-6 && v <= hi + 1e-6);
        }
    }

    #[test]
    fn sax_word_symbols_in_alphabet(x in finite_vec(8, 100), w in 2usize..8, a in 2usize..10) {
        prop_assume!(w <= x.len());
        let word = sax::sax_word(&x, w, a).unwrap();
        prop_assert_eq!(word.len(), w);
        for sym in word {
            prop_assert!((sym as usize) < a);
        }
    }

    #[test]
    fn quantile_monotone(x in finite_vec(1, 100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let v1 = stats::quantile(&x, lo).unwrap();
        let v2 = stats::quantile(&x, hi).unwrap();
        prop_assert!(v1 <= v2 + 1e-9);
    }

    #[test]
    fn ks_statistic_in_unit_interval(x in prop::collection::vec(0.0f64..1.0, 1..100)) {
        let d = stats::ks_statistic_uniform(&x).unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
    }
}
