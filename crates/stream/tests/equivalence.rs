//! Acceptance check: batch ↔ stream equivalence across three synthetic
//! benchmark families (Yahoo A1, NASA frozen-signal, NYC taxi).
//!
//! Bitwise for the z-score / CUSUM / SPOT / moving-average-residual /
//! one-liner ports; tolerance (1e-6) for the streaming left discord, whose dot
//! products are summed in a different (equally valid) order than the batch
//! FFT path.

use tsad_core::TimeSeries;
use tsad_detectors::baselines::{GlobalZScore, MovingAvgResidual};
use tsad_detectors::cusum::Cusum;
use tsad_detectors::matrix_profile::OnlineDiscordDetector;
use tsad_detectors::oneliner::{equation, Equation};
use tsad_detectors::spot::Spot;
use tsad_detectors::Detector;
use tsad_stream::{
    check_equivalence, EquivalenceMode, StreamingCusum, StreamingGlobalZScore,
    StreamingLeftDiscord, StreamingMovingAvgResidual, StreamingOneLiner, StreamingSpot,
};

/// One series per synthetic family, deterministic seeds.
fn families() -> Vec<(&'static str, Vec<f64>)> {
    let yahoo = tsad_synth::yahoo::generate(42, tsad_synth::yahoo::Family::A1, 3);
    let (nasa, _regions) = tsad_synth::nasa::frozen_signal(7);
    let taxi = tsad_synth::numenta::nyc_taxi(1);
    vec![
        ("yahoo-a1", yahoo.dataset.values().to_vec()),
        ("nasa-frozen", nasa.values().to_vec()),
        ("nyc-taxi", taxi.dataset.values().to_vec()),
    ]
}

#[test]
fn zscore_bitwise_on_all_families() {
    for (name, xs) in families() {
        let train = (xs.len() / 4).max(2);
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let batch = GlobalZScore.score(&ts, train).unwrap();
        let mut det = StreamingGlobalZScore::new(train).unwrap();
        let r = check_equivalence(name, &batch, &mut det, &xs, EquivalenceMode::Bitwise).unwrap();
        assert!(r.passed, "{r}");
        assert_eq!(r.compared, xs.len());
    }
}

#[test]
fn cusum_bitwise_on_all_families() {
    for (name, xs) in families() {
        let train = (xs.len() / 4).max(2);
        let params = Cusum::default();
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let batch = params.score(&ts, train).unwrap();
        let mut det = StreamingCusum::new(params, train).unwrap();
        let r = check_equivalence(name, &batch, &mut det, &xs, EquivalenceMode::Bitwise).unwrap();
        assert!(r.passed, "{r}");
    }
}

#[test]
fn spot_bitwise_on_all_families() {
    for (name, xs) in families() {
        let train = (xs.len() / 4).max(tsad_detectors::spot::MIN_CALIBRATION);
        let params = Spot::default();
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let batch = params.score(&ts, train).unwrap();
        let mut det = StreamingSpot::new(params, train).unwrap();
        let r = check_equivalence(name, &batch, &mut det, &xs, EquivalenceMode::Bitwise).unwrap();
        assert!(r.passed, "{r}");
        assert_eq!(r.compared, xs.len());
    }
}

#[test]
fn moving_avg_residual_bitwise_on_all_families() {
    for (name, xs) in families() {
        for k in [5usize, 21] {
            let ts = TimeSeries::from_values(xs.clone()).unwrap();
            let batch = MovingAvgResidual::new(k).score(&ts, 0).unwrap();
            let mut det = StreamingMovingAvgResidual::new(k).unwrap();
            let r =
                check_equivalence(name, &batch, &mut det, &xs, EquivalenceMode::Bitwise).unwrap();
            assert!(r.passed, "k={k}: {r}");
        }
    }
}

#[test]
fn oneliner_panel_bitwise_on_all_families() {
    let panel = [
        equation(Equation::Eq3, 0, 0.0, 2.0),
        equation(Equation::Eq4, 0, 0.0, 1.5),
        equation(Equation::Eq5, 21, 3.0, 0.1),
        equation(Equation::Eq6, 11, 2.5, 0.05),
        equation(Equation::Eq1, 15, 2.0, 0.1),
    ];
    for (name, xs) in families() {
        for ol in &panel {
            let batch = ol.score_values(&xs).unwrap();
            let mut det = StreamingOneLiner::compile(ol).unwrap();
            let r =
                check_equivalence(name, &batch, &mut det, &xs, EquivalenceMode::Bitwise).unwrap();
            assert!(r.passed, "{r}");
            assert_eq!(r.offset, det.depth());
        }
    }
}

#[test]
fn left_discord_tolerance_on_all_families() {
    let m = 32;
    for (name, xs) in families() {
        // cap the series so the O(n · horizon) stream stays test-sized
        let xs: Vec<f64> = xs.into_iter().take(3000).collect();
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let batch = OnlineDiscordDetector::new(m).score(&ts, 0).unwrap();
        let mut det = StreamingLeftDiscord::new(m, Default::default(), xs.len()).unwrap();
        let r = check_equivalence(
            name,
            &batch,
            &mut det,
            &xs,
            EquivalenceMode::Tolerance(1e-6),
        )
        .unwrap();
        assert!(r.passed, "{r}");
    }
}
