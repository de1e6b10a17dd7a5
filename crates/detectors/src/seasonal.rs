//! Seasonal-decomposition detector — the other "decades-old simple idea"
//! family (§4.5): estimate the dominant period, build a robust per-phase
//! profile (seasonal medians), and score points by their deviation from
//! the profile in robust units.
//!
//! On strongly periodic data (the NYC-taxi demand, daily server metrics)
//! this is the natural classical baseline, and it needs *one* intuitive
//! parameter — the period — which it can estimate itself from the
//! autocorrelation function.

use tsad_core::error::{CoreError, Result};
use tsad_core::{stats, TimeSeries};

use crate::Detector;

/// Estimates the dominant period of `x` by locating the highest
/// autocorrelation peak in `min_period ..= max_period` that is also a
/// *local* maximum of the ACF (avoiding the trivial decay at small lags).
pub fn estimate_period(x: &[f64], min_period: usize, max_period: usize) -> Result<usize> {
    if min_period < 2 || min_period > max_period {
        return Err(CoreError::BadParameter {
            name: "min_period",
            value: min_period as f64,
            expected: "2 <= min_period <= max_period",
        });
    }
    if x.len() < 2 * max_period + 2 {
        return Err(CoreError::BadWindow {
            window: 2 * max_period + 2,
            len: x.len(),
        });
    }
    let acf: Vec<f64> = (min_period.saturating_sub(1)..=max_period + 1)
        .map(|lag| stats::autocorrelation(x, lag))
        .collect::<Result<Vec<f64>>>()?;
    // local maxima of the ACF within the window
    let mut best: Option<(usize, f64)> = None;
    for i in 1..acf.len() - 1 {
        if acf[i] >= acf[i - 1] && acf[i] >= acf[i + 1] {
            let lag = min_period - 1 + i;
            if best.is_none_or(|(_, v)| acf[i] > v) {
                best = Some((lag, acf[i]));
            }
        }
    }
    match best {
        Some((lag, corr)) if corr > 0.1 => Ok(lag),
        _ => Err(CoreError::BadParameter {
            name: "acf",
            value: best.map_or(0.0, |(_, v)| v),
            expected: "a periodic signal with an ACF peak > 0.1 in the search range",
        }),
    }
}

/// Robust per-phase profile: median and MAD of every phase of the period.
#[derive(Debug, Clone)]
pub struct SeasonalProfile {
    /// The period.
    pub period: usize,
    /// Per-phase medians.
    pub medians: Vec<f64>,
    /// Per-phase MADs (median absolute deviation), floored to avoid
    /// division blow-ups on quiet phases.
    pub mads: Vec<f64>,
}

impl SeasonalProfile {
    /// Fits the profile on `x` with the given period.
    pub fn fit(x: &[f64], period: usize) -> Result<Self> {
        if period < 2 || period * 2 > x.len() {
            return Err(CoreError::BadWindow {
                window: period,
                len: x.len(),
            });
        }
        let mut medians = Vec::with_capacity(period);
        let mut mads = Vec::with_capacity(period);
        let mut bucket = Vec::with_capacity(x.len() / period + 1);
        for phase in 0..period {
            bucket.clear();
            let mut i = phase;
            while i < x.len() {
                bucket.push(x[i]);
                i += period;
            }
            let med = stats::median(&bucket)?;
            let deviations: Vec<f64> = bucket.iter().map(|v| (v - med).abs()).collect();
            let mad = stats::median(&deviations)?;
            medians.push(med);
            mads.push(mad);
        }
        // global MAD floor: a phase whose observations are all identical
        // would otherwise turn any deviation into infinity
        let floor = stats::median(&mads)?.max(1e-9) * 0.1 + 1e-9;
        for m in &mut mads {
            *m = m.max(floor);
        }
        Ok(Self {
            period,
            medians,
            mads,
        })
    }

    /// Robust z-score of each point against its phase.
    pub fn score(&self, x: &[f64]) -> Vec<f64> {
        // 1.4826 scales MAD to a standard-deviation-comparable unit
        x.iter()
            .enumerate()
            .map(|(i, &v)| {
                let phase = i % self.period;
                (v - self.medians[phase]).abs() / (1.4826 * self.mads[phase])
            })
            .collect()
    }
}

/// The seasonal detector: fits on the train prefix (or everything, when
/// unsupervised) and scores deviations from the per-phase profile.
#[derive(Debug, Clone, Copy)]
pub struct SeasonalDetector {
    /// Fixed period; `None` = estimate from the data.
    pub period: Option<usize>,
    /// Period-search range when estimating.
    pub search_range: (usize, usize),
}

impl SeasonalDetector {
    /// Detector with a known period.
    pub fn with_period(period: usize) -> Self {
        Self {
            period: Some(period),
            search_range: (2, period.max(4)),
        }
    }

    /// Detector that estimates the period in `min..=max`.
    pub fn auto(min_period: usize, max_period: usize) -> Self {
        Self {
            period: None,
            search_range: (min_period, max_period),
        }
    }
}

impl Detector for SeasonalDetector {
    fn name(&self) -> &'static str {
        "seasonal profile"
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        let fit_on = if train_len >= self.search_range.1 * 4 {
            &x[..train_len.min(x.len())]
        } else {
            x
        };
        let period = match self.period {
            Some(p) => p,
            None => estimate_period(fit_on, self.search_range.0, self.search_range.1)?,
        };
        let profile = SeasonalProfile::fit(fit_on, period)?;
        Ok(profile.score(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::most_anomalous_point;

    fn seasonal_series(n: usize, period: usize, anomaly_at: usize) -> TimeSeries {
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let base = (std::f64::consts::TAU * (i % period) as f64 / period as f64).sin();
                let bump = if i == anomaly_at { 3.0 } else { 0.0 };
                base + bump + 0.05 * (((i as u64 * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5)
            })
            .collect();
        TimeSeries::new("seasonal", x).unwrap()
    }

    #[test]
    fn period_estimation_recovers_true_period() {
        let ts = seasonal_series(2000, 48, 5000);
        let p = estimate_period(ts.values(), 10, 100).unwrap();
        assert!(p.abs_diff(48) <= 1, "estimated {p}");
    }

    #[test]
    fn period_estimation_rejects_noise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x: Vec<f64> = (0..1000).map(|_| rng.gen_range(-0.5..0.5)).collect();
        assert!(estimate_period(&x, 10, 100).is_err());
        assert!(estimate_period(&x, 1, 100).is_err());
        assert!(estimate_period(&x, 50, 10).is_err());
        assert!(estimate_period(&x[..50], 10, 100).is_err());
    }

    #[test]
    fn profile_scores_peak_at_anomaly() {
        let ts = seasonal_series(3000, 48, 2200);
        let det = SeasonalDetector::with_period(48);
        let peak = most_anomalous_point(&det, &ts, 1000).unwrap();
        assert_eq!(peak, 2200);
        // auto-period variant agrees
        let auto = SeasonalDetector::auto(10, 100);
        let peak = most_anomalous_point(&auto, &ts, 1000).unwrap();
        assert_eq!(peak, 2200);
    }

    #[test]
    fn profile_fit_validates() {
        assert!(SeasonalProfile::fit(&[1.0; 10], 1).is_err());
        assert!(SeasonalProfile::fit(&[1.0; 10], 6).is_err());
        // constant data: MAD floor keeps scores finite
        let p = SeasonalProfile::fit(&[2.0; 100], 10).unwrap();
        let s = p.score(&[2.0; 100]);
        assert!(s.iter().all(|v| v.is_finite() && *v == 0.0));
    }

    #[test]
    fn taxi_events_stand_out_in_seasonal_scores() {
        let taxi = tsad_synth::numenta::nyc_taxi(42);
        let det = SeasonalDetector::with_period(48 * 7); // weekly seasonality
        let score = det.score(taxi.dataset.series(), 0).unwrap();
        // average score inside true event days far exceeds a normal week
        let events_mask = taxi.full_labels.to_mask();
        let inside: f64 = score
            .iter()
            .zip(&events_mask)
            .filter(|(_, &m)| m)
            .map(|(s, _)| *s)
            .sum::<f64>()
            / events_mask.iter().filter(|&&m| m).count() as f64;
        let outside: f64 = score
            .iter()
            .zip(&events_mask)
            .filter(|(_, &m)| !m)
            .map(|(s, _)| *s)
            .sum::<f64>()
            / events_mask.iter().filter(|&&m| !m).count() as f64;
        assert!(inside > 2.5 * outside, "{inside} vs {outside}");
    }
}
