//! Prefix-calibrated detectors: fit once on a calibration prefix, then
//! advance one sample at a time.
//!
//! The global z-score, CUSUM and SPOT share one shape. A model is built
//! from the first `calib` points, those points are scored with it, and
//! every later point is scored by an `O(1)` state update. [`PrefixCalibrated`]
//! captures exactly that shape, and it is the *only* implementation of
//! these detectors:
//!
//! * batch: [`score_calibrated`] picks the calibration length, calibrates,
//!   then loops over [`step`](PrefixCalibrated::step) — each detector's
//!   [`Detector::score`] is this driver;
//! * streaming: `tsad-stream`'s `CalibratedStream` buffers the prefix,
//!   calls the same [`calibrate`](PrefixCalibrated::calibrate), then the
//!   same `step` per push.
//!
//! Batch and stream therefore agree bit for bit by construction, not by
//! keeping two bodies in sync.

use tsad_core::ckpt::{CkptReader, CkptWriter};
use tsad_core::error::Result;
use tsad_core::{stats, TimeSeries};

use crate::Detector;

/// A detector whose model is calibrated on a prefix and then stepped.
pub trait PrefixCalibrated: Detector {
    /// Model state after calibration (frozen statistics plus any running
    /// accumulators `step` advances).
    type State: Clone + std::fmt::Debug;

    /// Registry display name; the streaming port's name starts with it.
    const DISPLAY: &'static str;

    /// Shortest train prefix used as-is. A shorter `train_len` means
    /// "unsupervised" in batch (see
    /// [`calibration_len`](Self::calibration_len)) and is rejected by the
    /// streaming port, which has no whole-series fallback.
    const MIN_CALIBRATION: usize;

    /// Size of [`State`](Self::State) in `f64`-equivalents, for the
    /// streaming port's memory bound.
    const STATE_WORDS: usize;

    /// Checks the model parameters (none by default). [`score_calibrated`]
    /// runs it before calibrating; the streaming port runs it at
    /// construction.
    fn validate(&self) -> Result<()> {
        Ok(())
    }

    /// Calibration length for a series of `n` points: the train prefix
    /// when it is usable (clamped to the series), otherwise the whole
    /// series.
    fn calibration_len(train_len: usize, n: usize) -> usize {
        if train_len >= Self::MIN_CALIBRATION {
            train_len.min(n)
        } else {
            n
        }
    }

    /// Builds the model from `prefix` (parameters already validated) and
    /// appends the prefix's scores, in order, to `scores`.
    fn calibrate(&self, prefix: &[f64], scores: &mut impl Extend<f64>) -> Result<Self::State>;

    /// Scores one sample after the prefix and advances the state.
    fn step(&self, state: &mut Self::State, x: f64) -> f64;

    /// Serializes `state` (the model's part of a streaming checkpoint).
    fn save_state(state: &Self::State, w: &mut CkptWriter);

    /// Reads a state written by [`save_state`](Self::save_state).
    fn load_state(&self, r: &mut CkptReader<'_>) -> Result<Self::State>;

    /// Parameters the streaming port's name carries after `train=`, as
    /// `", key=value"` pairs (empty by default).
    fn fingerprint(&self) -> String {
        String::new()
    }
}

/// The batch driver every [`PrefixCalibrated`] detector scores through:
/// calibrate on the first [`calibration_len`](PrefixCalibrated::calibration_len)
/// points, then step over the rest.
pub fn score_calibrated<M: PrefixCalibrated>(
    model: &M,
    ts: &TimeSeries,
    train_len: usize,
) -> Result<Vec<f64>> {
    model.validate()?;
    let x = ts.values();
    let (prefix, rest) = x.split_at(M::calibration_len(train_len, x.len()));
    let mut out = Vec::with_capacity(x.len());
    let mut state = model.calibrate(prefix, &mut out)?;
    out.extend(rest.iter().map(|&v| model.step(&mut state, v)));
    Ok(out)
}

/// Mean and population deviation of `prefix`, the deviation floored at
/// `floor` so a flat prefix cannot divide by zero.
pub(crate) fn standardizer(prefix: &[f64], floor: f64) -> Result<(f64, f64)> {
    Ok((stats::mean(prefix)?, stats::std_dev(prefix)?.max(floor)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::GlobalZScore;
    use crate::cusum::Cusum;
    use crate::spot::Spot;

    #[test]
    fn calibration_length_clamps_to_the_series() {
        assert_eq!(GlobalZScore::calibration_len(50, 40), 40);
        assert_eq!(GlobalZScore::calibration_len(1, 40), 40);
        assert_eq!(Cusum::calibration_len(10, 40), 10);
        assert_eq!(Spot::calibration_len(500, 40), 40);
    }

    #[test]
    fn an_overlong_train_prefix_is_the_whole_series() {
        let ts = TimeSeries::from_values((0..30).map(|i| (i % 7) as f64).collect()).unwrap();
        let whole = GlobalZScore.score(&ts, 0).unwrap();
        assert_eq!(GlobalZScore.score(&ts, 31).unwrap(), whole);
        let whole = Cusum::default().score(&ts, 0).unwrap();
        assert_eq!(Cusum::default().score(&ts, 31).unwrap(), whole);
    }
}
