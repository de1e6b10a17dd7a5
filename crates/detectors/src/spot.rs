//! SPOT — streaming peaks-over-threshold with extreme value theory
//! (Siffer et al., KDD 2017), the tail-quantile detector production KPI
//! monitors use when a fixed "3σ" bar is wrong for heavy-tailed data.
//!
//! The idea: calibrate an initial threshold `t` at an empirical quantile
//! of the calibration prefix, model the *excesses* over `t` with a
//! generalized Pareto distribution (GPD), and convert a target tail risk
//! `q` (say 10⁻³) into a data-driven alarm quantile `z_q`. As the stream
//! runs, every new excess refits the GPD in O(1) (method of moments over
//! running excess moments), so `z_q` tracks the tail the data actually
//! has. Both tails are watched: the lower tail is the upper tail of `−x`.
//!
//! The per-point score is scale-free: `0` inside `[t_down, t_up]`,
//! `(x − t) / (z_q − t)` beyond a threshold — so crossing the EVT alarm
//! quantile means score ≥ 1 and the score keeps growing with the
//! exceedance.
//!
//! The whole algorithm is causal: [`Spot`] is a
//! [`PrefixCalibrated`] model whose state is the [`SpotState`] machine, so
//! the batch detector and the streaming port (`tsad-stream`'s
//! `StreamingSpot`) run the same calibrate-then-step code and agree
//! bitwise. Calibration-prefix points are scored retroactively with the
//! freshly-calibrated (not yet updated) state.

use tsad_core::ckpt::{CkptReader, CkptWriter};
use tsad_core::error::{CoreError, Result};
use tsad_core::TimeSeries;

use crate::calibrated::{score_calibrated, PrefixCalibrated};
use crate::Detector;

/// Minimum calibration length: below this the empirical quantile and the
/// excess moments are meaningless.
pub const MIN_CALIBRATION: usize = 8;

/// One tail's peaks-over-threshold state, in "tail space" (the lower tail
/// feeds `−x` through the identical code path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailState {
    /// Initial (empirical-quantile) threshold; excesses are `v − t`.
    pub t: f64,
    /// Number of excesses observed.
    pub n_excess: u64,
    /// Running sum of excesses.
    pub sum: f64,
    /// Running sum of squared excesses.
    pub sum_sq: f64,
    /// Current EVT alarm quantile (`z_q ≥ t`).
    pub zq: f64,
}

impl TailState {
    fn new(t: f64) -> Self {
        Self {
            t,
            n_excess: 0,
            sum: 0.0,
            sum_sq: 0.0,
            zq: t,
        }
    }

    /// Recomputes `z_q` from the running excess moments: GPD fit by the
    /// method of moments (`ξ = (1 − m²/v)/2`, `σ = m(1 + m²/v)/2`), with
    /// the exponential limit when the excess variance degenerates.
    fn refit(&mut self, risk: f64, seen: u64) {
        if self.n_excess == 0 || seen == 0 {
            self.zq = self.t;
            return;
        }
        let nt = self.n_excess as f64;
        let m = self.sum / nt;
        let v = (self.sum_sq / nt - m * m).max(0.0);
        // r = q·n / N_t, the fraction of excesses the target risk allows
        let r = risk * seen as f64 / nt;
        let zq = if !m.is_finite() || m <= 0.0 {
            self.t
        } else if v <= 1e-18 || !v.is_finite() {
            // degenerate spread: exponential tail with σ = m
            self.t - m * r.ln()
        } else {
            let ratio = m * m / v;
            let xi = 0.5 * (1.0 - ratio);
            let sigma = 0.5 * m * (1.0 + ratio);
            if xi.abs() < 1e-9 {
                self.t - sigma * r.ln()
            } else {
                self.t + (sigma / xi) * (r.powf(-xi) - 1.0)
            }
        };
        // the alarm quantile never drops below the initial threshold, and
        // a non-finite fit (hostile input) keeps the previous bar
        self.zq = if zq.is_finite() {
            zq.max(self.t)
        } else {
            self.zq
        };
    }

    /// Score of `v` in this tail: 0 at or below `t`, 1 exactly at `z_q`.
    fn score(&self, v: f64) -> f64 {
        if v > self.t {
            (v - self.t) / (self.zq - self.t).max(1e-9)
        } else {
            0.0
        }
    }

    /// Registers `v` if it is an excess (finite excesses only — one ∞
    /// would destroy the moments forever) and refits the quantile.
    fn update(&mut self, v: f64, risk: f64, seen: u64) {
        self.absorb(v);
        self.refit(risk, seen);
    }

    /// Adds `v` to the excess moments when it is a finite excess.
    fn absorb(&mut self, v: f64) {
        if v > self.t {
            let excess = v - self.t;
            if excess.is_finite() {
                self.n_excess += 1;
                self.sum += excess;
                self.sum_sq += excess * excess;
            }
        }
    }

    fn save(&self, w: &mut CkptWriter) {
        w.f64(self.t);
        w.u64(self.n_excess);
        w.f64(self.sum);
        w.f64(self.sum_sq);
        w.f64(self.zq);
    }

    fn load(r: &mut CkptReader<'_>) -> Result<Self> {
        Ok(Self {
            t: r.f64()?,
            n_excess: r.u64()?,
            sum: r.f64()?,
            sum_sq: r.f64()?,
            zq: r.f64()?,
        })
    }
}

/// The full two-sided SPOT state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotState {
    /// Target tail risk `q` (probability mass beyond the alarm quantile).
    pub risk: f64,
    /// Points seen so far (calibration prefix included).
    pub seen: u64,
    /// Upper-tail state (operates on `x`).
    pub up: TailState,
    /// Lower-tail state (operates on `−x`).
    pub down: TailState,
}

/// Empirical quantile of an already-sorted slice (linear interpolation).
fn sorted_quantile(sorted: &[f64], level: f64) -> f64 {
    let n = sorted.len();
    let pos = level * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi.min(n - 1)] - sorted[lo]) * frac
}

impl SpotState {
    /// Scores `x` against the current alarm quantiles (no mutation).
    pub fn score(&self, x: f64) -> f64 {
        self.up.score(x).max(self.down.score(-x))
    }

    /// Absorbs `x`: counts it, registers any tail excess, refits.
    pub fn update(&mut self, x: f64) {
        self.seen += 1;
        let (risk, seen) = (self.risk, self.seen);
        self.up.update(x, risk, seen);
        self.down.update(-x, risk, seen);
    }
}

/// Batch SPOT detector: calibrate on the train prefix, then walk the rest
/// of the series through the streaming state machine.
#[derive(Debug, Clone, Copy)]
pub struct Spot {
    /// Initial-threshold quantile (e.g. 0.98 = calibrate `t` at the 98th
    /// percentile).
    pub level: f64,
    /// Target tail risk `q` beyond the alarm quantile (e.g. 1e-3).
    pub risk: f64,
}

impl Default for Spot {
    fn default() -> Self {
        Self {
            level: 0.98,
            risk: 1e-3,
        }
    }
}

impl Detector for Spot {
    fn name(&self) -> &'static str {
        crate::registry::display::SPOT
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        score_calibrated(self, ts, train_len)
    }
}

/// Calibration fits both tails on the prefix and scores the prefix with
/// that frozen fit; each later point is scored, then absorbed.
impl PrefixCalibrated for Spot {
    type State = SpotState;
    const DISPLAY: &'static str = crate::registry::display::SPOT;
    const MIN_CALIBRATION: usize = MIN_CALIBRATION;
    // two 5-field tails plus risk, seen and bookkeeping
    const STATE_WORDS: usize = 16;

    fn validate(&self) -> Result<()> {
        if !(0.5 < self.level && self.level < 1.0) {
            return Err(CoreError::BadParameter {
                name: "level",
                value: self.level,
                expected: "0.5 < level < 1 (initial-threshold quantile)",
            });
        }
        if !(0.0 < self.risk && self.risk < 0.5) {
            return Err(CoreError::BadParameter {
                name: "risk",
                value: self.risk,
                expected: "0 < risk < 0.5 (target tail probability)",
            });
        }
        Ok(())
    }

    /// The train prefix when it is usable, otherwise a fixed unsupervised
    /// prefix of up to 200 points.
    fn calibration_len(train_len: usize, n: usize) -> usize {
        if train_len >= MIN_CALIBRATION {
            train_len.min(n)
        } else {
            n.min(200)
        }
    }

    /// Initial thresholds at the `level` / `1 − level` empirical
    /// quantiles, excess moments from the calibration exceedances, first
    /// `z_q` fit from those.
    fn calibrate(&self, prefix: &[f64], scores: &mut impl Extend<f64>) -> Result<SpotState> {
        if prefix.len() < MIN_CALIBRATION {
            return Err(CoreError::BadWindow {
                window: MIN_CALIBRATION,
                len: prefix.len(),
            });
        }
        let mut sorted = prefix.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut state = SpotState {
            risk: self.risk,
            seen: prefix.len() as u64,
            up: TailState::new(sorted_quantile(&sorted, self.level)),
            down: TailState::new(-sorted_quantile(&sorted, 1.0 - self.level)),
        };
        for &x in prefix {
            state.up.absorb(x);
            state.down.absorb(-x);
        }
        state.up.refit(self.risk, state.seen);
        state.down.refit(self.risk, state.seen);
        scores.extend(prefix.iter().map(|&v| state.score(v)));
        Ok(state)
    }

    fn step(&self, state: &mut SpotState, x: f64) -> f64 {
        let s = state.score(x);
        state.update(x);
        s
    }

    fn save_state(s: &SpotState, w: &mut CkptWriter) {
        w.u64(s.seen);
        s.up.save(w);
        s.down.save(w);
    }

    fn load_state(&self, r: &mut CkptReader<'_>) -> Result<SpotState> {
        Ok(SpotState {
            risk: self.risk,
            seen: r.u64()?,
            up: TailState::load(r)?,
            down: TailState::load(r)?,
        })
    }

    fn fingerprint(&self) -> String {
        format!(", level={}, risk={}", self.level, self.risk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::most_anomalous_point;

    fn noisy(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let r = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                    / (1u64 << 24) as f64;
                (i as f64 * 0.05).sin() * 0.4 + r - 0.5
            })
            .collect()
    }

    #[test]
    fn spike_crosses_the_evt_quantile() {
        let mut x = noisy(800);
        x[600] += 9.0;
        let ts = TimeSeries::new("spot", x).unwrap();
        let det = Spot::default();
        assert_eq!(most_anomalous_point(&det, &ts, 300).unwrap(), 600);
        let s = det.score(&ts, 300).unwrap();
        assert!(s[600] >= 1.0, "spike must cross z_q, got {}", s[600]);
    }

    #[test]
    fn lower_tail_dips_are_scored_too() {
        let mut x = noisy(800);
        x[500] -= 9.0;
        let ts = TimeSeries::new("spot-dip", x).unwrap();
        assert_eq!(
            most_anomalous_point(&Spot::default(), &ts, 300).unwrap(),
            500
        );
    }

    #[test]
    fn calibration_is_validated() {
        assert!(Spot::default()
            .calibrate(&[1.0; 4], &mut Vec::new())
            .is_err());
        let spot = |level, risk| Spot { level, risk };
        assert!(spot(0.3, 1e-3).validate().is_err());
        assert!(spot(0.98, 0.9).validate().is_err());
        let x = TimeSeries::new("x", vec![1.0; 64]).unwrap();
        assert!(spot(0.3, 1e-3).score(&x, 32).is_err());
        // unsupervised fallback prefix
        assert_eq!(Spot::calibration_len(0, 1000), 200);
        assert_eq!(Spot::calibration_len(300, 1000), 300);
    }

    #[test]
    fn constant_calibration_does_not_divide_by_zero() {
        let mut x = vec![5.0; 400];
        x[300] = 50.0;
        let ts = TimeSeries::new("flat", x).unwrap();
        let s = Spot::default().score(&ts, 100).unwrap();
        assert!(s.iter().all(|v| v.is_finite()));
        assert_eq!(
            most_anomalous_point(&Spot::default(), &ts, 100).unwrap(),
            300
        );
    }

    #[test]
    fn scores_are_deterministic() {
        let x = noisy(500);
        let ts = TimeSeries::new("det", x).unwrap();
        let a = Spot::default().score(&ts, 200).unwrap();
        let b = Spot::default().score(&ts, 200).unwrap();
        assert_eq!(a, b);
    }
}
