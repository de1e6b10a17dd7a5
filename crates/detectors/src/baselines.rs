//! Deliberately simple baseline detectors.
//!
//! The paper's argument needs these: if a *naive* detector scores well on a
//! benchmark, the benchmark — not the detector — is suspect.
//!
//! * [`NaiveLastPoint`] — flags the final test point; §2.5 observes that
//!   run-to-failure bias gives this an "excellent chance of being correct".
//! * [`GlobalZScore`] — distance from the global mean in standard
//!   deviations; solves magnitude-jump NASA examples.
//! * [`MovingAvgResidual`] — |x − movmean| / movstd, the continuous analogue
//!   of the paper's one-liners.
//! * [`SubsequenceKnn`] — z-normalized 1-NN distance from each test window
//!   to the train prefix (the "decades-old simple idea"), computed as a
//!   train→test prefix join on the STOMP diagonal kernels.
//! * [`RandomDetector`] — seeded random scores; the floor any metric should
//!   be calibrated against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsad_core::error::{CoreError, Result};
use tsad_core::{ops, TimeSeries};

use crate::Detector;

/// Flags the last point of the series (score 1 at the end, 0 elsewhere).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveLastPoint;

impl Detector for NaiveLastPoint {
    fn name(&self) -> &'static str {
        "naive last-point"
    }
    fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        if ts.is_empty() {
            return Err(CoreError::EmptySeries);
        }
        let mut s = vec![0.0; ts.len()];
        *s.last_mut().expect("non-empty") = 1.0;
        Ok(s)
    }
}

/// |x − μ| / σ with μ, σ taken from the train prefix when available,
/// otherwise from the whole series.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalZScore;

impl Detector for GlobalZScore {
    fn name(&self) -> &'static str {
        "global z-score"
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        if x.is_empty() {
            return Err(CoreError::EmptySeries);
        }
        let reference = if train_len >= 2 { &x[..train_len] } else { x };
        let mu = tsad_core::stats::mean(reference)?;
        let sd = tsad_core::stats::std_dev(reference)?.max(1e-12);
        Ok(x.iter().map(|&v| (v - mu).abs() / sd).collect())
    }
}

/// |x − movmean(x, k)| / (movstd(x, k) + ε): a local z-score.
#[derive(Debug, Clone, Copy)]
pub struct MovingAvgResidual {
    /// Window length `k`.
    pub window: usize,
}

impl MovingAvgResidual {
    /// Creates the detector with window `k`.
    pub fn new(window: usize) -> Self {
        Self { window }
    }
}

impl Detector for MovingAvgResidual {
    fn name(&self) -> &'static str {
        "moving-average residual"
    }
    fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        let mm = ops::movmean(x, self.window)?;
        let ms = ops::movstd(x, self.window)?;
        Ok(x.iter()
            .zip(mm.iter().zip(&ms))
            .map(|(&v, (&m, &s))| (v - m).abs() / (s + 1e-9))
            .collect())
    }
}

/// Semi-supervised subsequence 1-NN: each test window is scored by its
/// z-normalized distance to the nearest train window; per-point scores take
/// the max over covering windows, and train points score 0.
///
/// The distances come from [`crate::matrix_profile::prefix_join`], which
/// walks the test × train distance matrix along its diagonals at `O(1)`
/// per cell — the same values as one MASS call per test window, to
/// rounding, and bitwise identical at every thread count and on every SIMD
/// backend. Needs a train prefix of at least `2 · window` points.
#[derive(Debug, Clone, Copy)]
pub struct SubsequenceKnn {
    /// Subsequence length.
    pub window: usize,
}

impl SubsequenceKnn {
    /// Creates the detector with subsequence length `window`.
    pub fn new(window: usize) -> Self {
        Self { window }
    }
}

impl Detector for SubsequenceKnn {
    fn name(&self) -> &'static str {
        "subsequence 1-NN"
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        let m = self.window;
        if m == 0 || m > x.len() {
            return Err(CoreError::BadWindow {
                window: m,
                len: x.len(),
            });
        }
        if train_len < 2 * m {
            return Err(CoreError::BadWindow {
                window: 2 * m,
                len: train_len,
            });
        }
        let mp = crate::matrix_profile::prefix_join(x, m, train_len)?;
        Ok(mp.point_scores(x.len()))
    }
}

/// Tukey-fence quantile baseline: distance beyond the train-prefix
/// interquartile box, in IQR units.
///
/// `score = max(x − q3, q1 − x) / IQR` (clamped at 0 inside the box), so a
/// point at the classic `1.5·IQR` whisker scores exactly
/// [`QuantileBaseline::multiplier`] = 1.5. Quartiles come from the train
/// prefix when it has at least four points, otherwise the whole series —
/// the same unsupervised fallback the z-score baseline uses.
#[derive(Debug, Clone, Copy)]
pub struct QuantileBaseline {
    /// Whisker multiplier; only shifts the implied alarm threshold, never
    /// the ranking.
    pub multiplier: f64,
}

impl Default for QuantileBaseline {
    fn default() -> Self {
        Self { multiplier: 1.5 }
    }
}

/// Linearly-interpolated empirical quantile of unsorted data.
fn quantile(x: &[f64], level: f64) -> f64 {
    let mut sorted = x.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = level * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (pos.ceil() as usize).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Detector for QuantileBaseline {
    fn name(&self) -> &'static str {
        "quantile/IQR baseline"
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        if x.is_empty() {
            return Err(CoreError::EmptySeries);
        }
        if !(self.multiplier > 0.0 && self.multiplier.is_finite()) {
            return Err(CoreError::BadParameter {
                name: "multiplier",
                value: self.multiplier,
                expected: "a positive finite whisker multiplier",
            });
        }
        let reference = if train_len >= 4 { &x[..train_len] } else { x };
        let q1 = quantile(reference, 0.25);
        let q3 = quantile(reference, 0.75);
        let iqr = (q3 - q1).max(1e-12);
        Ok(x.iter()
            .map(|&v| ((v - q3).max(q1 - v) / iqr).max(0.0))
            .collect())
    }
}

/// Seeded uniform-random scores — the calibration floor.
#[derive(Debug, Clone, Copy)]
pub struct RandomDetector {
    /// RNG seed (deterministic output for a fixed seed).
    pub seed: u64,
}

impl RandomDetector {
    /// Creates a random detector with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl Detector for RandomDetector {
    fn name(&self) -> &'static str {
        "random"
    }
    fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        Ok((0..ts.len()).map(|_| rng.gen_range(0.0..1.0)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::most_anomalous_point;

    fn spiky(n: usize, at: usize) -> TimeSeries {
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.25).sin()).collect();
        x[at] += 8.0;
        TimeSeries::new("spiky", x).unwrap()
    }

    #[test]
    fn naive_last_point_flags_only_the_end() {
        let ts = spiky(50, 20);
        let s = NaiveLastPoint.score(&ts, 0).unwrap();
        assert_eq!(s[49], 1.0);
        assert!(s[..49].iter().all(|&v| v == 0.0));
        let empty = TimeSeries::from_values(vec![]).unwrap();
        assert!(NaiveLastPoint.score(&empty, 0).is_err());
    }

    #[test]
    fn global_zscore_peaks_at_spike() {
        let ts = spiky(300, 200);
        assert_eq!(most_anomalous_point(&GlobalZScore, &ts, 0).unwrap(), 200);
        // with a train prefix, stats come from the prefix only
        assert_eq!(most_anomalous_point(&GlobalZScore, &ts, 100).unwrap(), 200);
    }

    #[test]
    fn moving_avg_residual_peaks_at_spike() {
        let ts = spiky(300, 150);
        let peak = most_anomalous_point(&MovingAvgResidual::new(21), &ts, 0).unwrap();
        assert!(peak.abs_diff(150) <= 1, "peak {peak}");
    }

    #[test]
    fn subsequence_knn_flags_novel_shape() {
        // periodic train, test contains one novel bump
        let n = 600;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 30.0).sin())
            .collect();
        for (off, v) in x.iter_mut().skip(450).take(15).enumerate() {
            *v = 2.0 + off as f64 * 0.01;
        }
        let ts = TimeSeries::new("knn", x).unwrap();
        let det = SubsequenceKnn::new(30);
        let peak = most_anomalous_point(&det, &ts, 300).unwrap();
        assert!((420..=480).contains(&peak), "peak {peak}");
        // needs a train prefix
        assert!(det.score(&ts, 10).is_err());
        assert!(SubsequenceKnn::new(0).score(&ts, 300).is_err());
    }

    #[test]
    fn quantile_baseline_scores_in_iqr_units() {
        let ts = spiky(300, 200);
        assert_eq!(
            most_anomalous_point(&QuantileBaseline::default(), &ts, 0).unwrap(),
            200
        );
        // inside the interquartile box the score is exactly zero
        let flatish: Vec<f64> = (0..100).map(|i| (i % 5) as f64).collect();
        let ts = TimeSeries::new("box", flatish).unwrap();
        let s = QuantileBaseline::default().score(&ts, 0).unwrap();
        assert!(s.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert!(s.contains(&0.0));
        // constant series must not divide by zero
        let flat = TimeSeries::new("flat", vec![3.0; 40]).unwrap();
        assert!(QuantileBaseline::default()
            .score(&flat, 0)
            .unwrap()
            .iter()
            .all(|v| v.is_finite()));
        let bad = QuantileBaseline { multiplier: -1.0 };
        assert!(bad.score(&flat, 0).is_err());
    }

    #[test]
    fn random_detector_is_deterministic_per_seed() {
        let ts = spiky(100, 50);
        let a = RandomDetector::new(7).score(&ts, 0).unwrap();
        let b = RandomDetector::new(7).score(&ts, 0).unwrap();
        let c = RandomDetector::new(8).score(&ts, 0).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
