//! CUSUM change detection — Page (1957), the paper's *first* reference
//! ("papers dating back to the dawn of computer science").
//!
//! The two-sided CUSUM tracks cumulative deviations of the standardized
//! series above/below its in-control mean; the statistic resets toward
//! zero while the process is in control and ramps when the mean shifts.
//! The anomaly score at `t` is the larger of the two one-sided statistics,
//! making CUSUM the canonical detector for level shifts and the honest
//! historical baseline for every changepoint-flavored anomaly in the
//! benchmarks.

use tsad_core::ckpt::{CkptReader, CkptWriter};
use tsad_core::error::{CoreError, Result};
use tsad_core::TimeSeries;

use crate::calibrated::{score_calibrated, standardizer, PrefixCalibrated};
use crate::Detector;

/// Two-sided CUSUM detector.
#[derive(Debug, Clone, Copy)]
pub struct Cusum {
    /// Allowance (slack) `k`, in standard deviations: deviations smaller
    /// than this are treated as in-control drift. The classic default is
    /// 0.5 (tuned to detect 1σ shifts).
    pub allowance: f64,
    /// Decay applied each step (1.0 = the classical pure CUSUM; slightly
    /// below 1 makes the statistic forget old evidence, which suits
    /// anomaly *scoring* rather than one-shot change detection).
    pub decay: f64,
}

impl Default for Cusum {
    fn default() -> Self {
        Self {
            allowance: 0.5,
            decay: 0.995,
        }
    }
}

/// Calibrated CUSUM state: the in-control `μ`, `σ` of the calibration
/// prefix and the two one-sided statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumState {
    /// In-control mean.
    pub mu: f64,
    /// In-control deviation (floored at 1e-9).
    pub sd: f64,
    /// Upper one-sided statistic.
    pub hi: f64,
    /// Lower one-sided statistic.
    pub lo: f64,
}

impl Detector for Cusum {
    fn name(&self) -> &'static str {
        "CUSUM (Page 1957)"
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        score_calibrated(self, ts, train_len)
    }
}

/// The model standardizes by the prefix's `μ`, `σ`; the recursion
/// `hi ← max(0, d·hi + z − k)`, `lo ← max(0, d·lo − z − k)` starts at zero
/// and runs over the prefix too, so the prefix is scored by stepping.
impl PrefixCalibrated for Cusum {
    type State = CusumState;
    const DISPLAY: &'static str = crate::registry::display::CUSUM;
    const MIN_CALIBRATION: usize = 2;
    const STATE_WORDS: usize = 4;

    fn validate(&self) -> Result<()> {
        if !(0.0..10.0).contains(&self.allowance) {
            return Err(CoreError::BadParameter {
                name: "allowance",
                value: self.allowance,
                expected: "0 <= allowance < 10",
            });
        }
        if !(0.0 < self.decay && self.decay <= 1.0) {
            return Err(CoreError::BadParameter {
                name: "decay",
                value: self.decay,
                expected: "0 < decay <= 1",
            });
        }
        Ok(())
    }

    fn calibrate(&self, prefix: &[f64], scores: &mut impl Extend<f64>) -> Result<CusumState> {
        let (mu, sd) = standardizer(prefix, 1e-9)?;
        let mut state = CusumState {
            mu,
            sd,
            hi: 0.0,
            lo: 0.0,
        };
        scores.extend(prefix.iter().map(|&v| self.step(&mut state, v)));
        Ok(state)
    }

    fn step(&self, s: &mut CusumState, x: f64) -> f64 {
        let z = (x - s.mu) / s.sd;
        s.hi = (self.decay * s.hi + z - self.allowance).max(0.0);
        s.lo = (self.decay * s.lo - z - self.allowance).max(0.0);
        s.hi.max(s.lo)
    }

    fn save_state(s: &CusumState, w: &mut CkptWriter) {
        for v in [s.mu, s.sd, s.hi, s.lo] {
            w.f64(v);
        }
    }

    fn load_state(&self, r: &mut CkptReader<'_>) -> Result<CusumState> {
        Ok(CusumState {
            mu: r.f64()?,
            sd: r.f64()?,
            hi: r.f64()?,
            lo: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::most_anomalous_point;

    fn shifted_series(n: usize, shift_at: usize, delta: f64) -> TimeSeries {
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let noise = (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                    / (1u64 << 24) as f64)
                    - 0.5;
                noise + if i >= shift_at { delta } else { 0.0 }
            })
            .collect();
        TimeSeries::new("cusum", x).unwrap()
    }

    #[test]
    fn ramps_after_a_level_shift() {
        let ts = shifted_series(1000, 700, 1.5);
        let det = Cusum::default();
        let score = det.score(&ts, 500).unwrap();
        // the statistic before the shift stays small, after it grows
        let before = score[..690].iter().cloned().fold(0.0f64, f64::max);
        let after = score[720..760].iter().cloned().fold(0.0f64, f64::max);
        assert!(after > before * 3.0, "{after} vs {before}");
    }

    #[test]
    fn detects_downward_shifts_symmetrically() {
        let up = shifted_series(800, 600, 1.2);
        let down = shifted_series(800, 600, -1.2);
        let det = Cusum::default();
        let peak_up = most_anomalous_point(&det, &up, 400).unwrap();
        let peak_down = most_anomalous_point(&det, &down, 400).unwrap();
        assert!(peak_up >= 600, "{peak_up}");
        assert!(peak_down >= 600, "{peak_down}");
    }

    #[test]
    fn in_control_scores_stay_low() {
        let ts = shifted_series(1000, 2000, 0.0); // never shifts
        let score = Cusum::default().score(&ts, 300).unwrap();
        let max = score.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 3.0, "in-control CUSUM should stay small: {max}");
    }

    #[test]
    fn validates_parameters() {
        let ts = shifted_series(100, 50, 1.0);
        assert!(Cusum {
            allowance: -1.0,
            decay: 1.0
        }
        .score(&ts, 0)
        .is_err());
        assert!(Cusum {
            allowance: 0.5,
            decay: 0.0
        }
        .score(&ts, 0)
        .is_err());
        assert!(Cusum {
            allowance: 0.5,
            decay: 1.5
        }
        .score(&ts, 0)
        .is_err());
        let empty = TimeSeries::from_values(vec![]).unwrap();
        assert!(Cusum::default().score(&empty, 0).is_err());
    }

    #[test]
    fn pure_cusum_accumulates_without_decay() {
        let ts = shifted_series(400, 200, 1.0);
        let pure = Cusum {
            allowance: 0.5,
            decay: 1.0,
        };
        let score = pure.score(&ts, 150).unwrap();
        // with no decay the statistic keeps growing after the shift
        assert!(score[399] > score[250], "{} vs {}", score[399], score[250]);
    }
}
