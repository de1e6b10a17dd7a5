//! One streaming port for every prefix-calibrated detector.
//!
//! [`CalibratedStream`] runs any [`PrefixCalibrated`] model — the global
//! z-score, CUSUM and SPOT. It buffers the first `train_len` pushes, hands
//! them to the model's `calibrate` (which scores the prefix retroactively),
//! then calls the model's `step` once per push. The batch detector's
//! `score` runs the *same* two methods through
//! [`score_calibrated`](tsad_detectors::calibrated::score_calibrated), so
//! the port is bitwise-equivalent to it by construction (machine-checked
//! in [`equivalence`](crate::equivalence)'s tests).
//!
//! The batch detectors fall back to an unsupervised calibration prefix
//! when `train_len` is below the model's minimum; a bounded-memory stream
//! cannot (the "whole series" never ends), so the port requires
//! `train_len ≥ MIN_CALIBRATION` and a stream shorter than `train_len`
//! emits nothing.
//!
//! Checkpoint state (inside the TSCK v1 envelope): the prefix as an `f64`
//! sequence, the calibrated flag, the model state when calibrated, and the
//! backlog of scores not yet emitted as an `f64` sequence.

use std::collections::VecDeque;

use tsad_core::ckpt::{corrupt, CkptReader, CkptWriter};
use tsad_core::error::{CoreError, Result};
use tsad_core::prefetch::{prefetch, prefetch_deque};
use tsad_detectors::baselines::GlobalZScore;
use tsad_detectors::cusum::Cusum;
use tsad_detectors::spot::Spot;
use tsad_detectors::PrefixCalibrated;

use crate::StreamingDetector;

/// Streaming port of a [`PrefixCalibrated`] model: calibrates on the first
/// `train_len` pushes, then `O(1)` per push, with scores trailing the input
/// by `train_len − 1` pushes.
#[derive(Debug, Clone)]
pub struct CalibratedStream<M: PrefixCalibrated> {
    model: M,
    train_len: usize,
    prefix: Vec<f64>,
    state: Option<M::State>,
    ready: VecDeque<f64>,
}

/// Streaming [`GlobalZScore`]: `|x − μ| / σ` with μ, σ frozen from the
/// calibration prefix.
pub type StreamingGlobalZScore = CalibratedStream<GlobalZScore>;

/// Streaming two-sided [`Cusum`].
pub type StreamingCusum = CalibratedStream<Cusum>;

/// Streaming [`Spot`] (EVT tail detector).
pub type StreamingSpot = CalibratedStream<Spot>;

impl<M: PrefixCalibrated> CalibratedStream<M> {
    /// Creates the port. Fails when the model's parameters are invalid or
    /// `train_len` is below the model's minimum calibration length.
    pub fn with_model(model: M, train_len: usize) -> Result<Self> {
        model.validate()?;
        if train_len < M::MIN_CALIBRATION {
            return Err(CoreError::BadParameter {
                name: "train_len",
                value: train_len as f64,
                expected: "train_len >= the model's minimum calibration length \
                           (a stream has no whole-series fallback)",
            });
        }
        Ok(Self {
            model,
            train_len,
            prefix: Vec::with_capacity(train_len),
            state: None,
            ready: VecDeque::new(),
        })
    }
}

impl StreamingGlobalZScore {
    /// Creates the detector; statistics freeze after `train_len ≥ 2` pushes.
    pub fn new(train_len: usize) -> Result<Self> {
        Self::with_model(GlobalZScore, train_len)
    }
}

impl StreamingCusum {
    /// Creates the detector from batch parameters and `train_len ≥ 2`.
    pub fn new(params: Cusum, train_len: usize) -> Result<Self> {
        Self::with_model(params, train_len)
    }
}

impl StreamingSpot {
    /// Creates the detector; the tail fit freezes its initial thresholds
    /// after `train_len ≥ MIN_CALIBRATION` pushes.
    pub fn new(params: Spot, train_len: usize) -> Result<Self> {
        Self::with_model(params, train_len)
    }
}

impl<M: PrefixCalibrated> StreamingDetector for CalibratedStream<M> {
    fn name(&self) -> String {
        // the registry display const is the fingerprint prefix: renames
        // propagate to TSCK fingerprints from one place
        format!(
            "{} (stream, train={}{})",
            M::DISPLAY,
            self.train_len,
            self.model.fingerprint()
        )
    }

    fn push(&mut self, x: f64) -> Option<f64> {
        match &mut self.state {
            Some(state) => self.ready.push_back(self.model.step(state, x)),
            None => {
                self.prefix.push(x);
                if self.prefix.len() < self.train_len {
                    return None;
                }
                // infallible: the constructor validated the parameters and
                // the prefix holds train_len >= MIN_CALIBRATION samples
                let state = self
                    .model
                    .calibrate(&self.prefix, &mut self.ready)
                    .expect("parameters validated at construction");
                self.prefix = Vec::new();
                self.state = Some(state);
            }
        }
        self.ready.pop_front()
    }

    fn finish(&mut self) -> Vec<f64> {
        // a stream shorter than train_len never calibrates: emit nothing
        // rather than invent statistics
        self.ready.drain(..).collect()
    }

    fn reset(&mut self) {
        self.prefix.clear();
        self.state = None;
        self.ready.clear();
    }

    fn lag(&self) -> usize {
        self.train_len - 1
    }

    fn memory_bound(&self) -> usize {
        // prefix + backlog + model state
        2 * self.train_len + M::STATE_WORDS
    }

    fn prefetch(&self) {
        prefetch(self.prefix.as_slice());
        prefetch_deque(&self.ready);
    }

    fn save_state(&self, w: &mut CkptWriter) {
        w.f64_seq(self.prefix.len(), self.prefix.iter().copied());
        match &self.state {
            Some(state) => {
                w.bool(true);
                M::save_state(state, w);
            }
            None => w.bool(false),
        }
        w.f64_seq(self.ready.len(), self.ready.iter().copied());
    }

    fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<()> {
        let prefix = r.f64_vec()?;
        let state = if r.bool()? {
            Some(self.model.load_state(r)?)
        } else {
            None
        };
        let ready = r.f64_vec()?;
        // the only shapes a push sequence produces: a filling prefix with no
        // backlog, or a calibrated model with an empty prefix and at most
        // lag() scores held back
        let reachable = match state {
            None => prefix.len() < self.train_len && ready.is_empty(),
            Some(_) => prefix.is_empty() && ready.len() < self.train_len,
        };
        if !reachable {
            return Err(corrupt(format!(
                "{}: calibrated={} with {} prefix samples and {} held-back \
                 scores is unreachable for train_len {}",
                M::DISPLAY,
                state.is_some(),
                prefix.len(),
                ready.len(),
                self.train_len
            )));
        }
        self.prefix = prefix;
        self.state = state;
        self.ready = ready.into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::TimeSeries;
    use tsad_detectors::registry::display;

    /// Deterministic wiggly series with a level shift and a spike.
    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let noise = (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                    / (1u64 << 24) as f64)
                    - 0.5;
                let shift = if i >= 2 * n / 3 { 1.2 } else { 0.0 };
                let spike = if i == n / 2 { 6.0 } else { 0.0 };
                (i as f64 * 0.07).sin() + noise + shift + spike
            })
            .collect()
    }

    fn assert_bitwise(batch: &[f64], stream: &[f64], what: &str) {
        assert_eq!(batch.len(), stream.len(), "{what}: length");
        for (i, (a, b)) in batch.iter().zip(stream).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{what} i={i}: {a} vs {b}");
        }
    }

    /// Streams `xs` twice (the second time after `reset`) and checks both
    /// runs against the batch detector bitwise.
    fn assert_stream_is_batch<M: PrefixCalibrated + Clone>(model: M, n: usize, train: usize) {
        let xs = series(n);
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let batch = model.score(&ts, train).unwrap();
        let mut det = CalibratedStream::with_model(model, train).unwrap();
        let what = det.name();
        assert_bitwise(&batch, &det.score_stream(&xs), &what);
        det.reset();
        assert_bitwise(
            &batch,
            &det.score_stream(&xs),
            &format!("{what} after reset"),
        );
    }

    #[test]
    fn every_model_streams_bitwise_batch() {
        assert_stream_is_batch(GlobalZScore, 400, 60);
        assert_stream_is_batch(Cusum::default(), 600, 150);
        let pure = Cusum {
            allowance: 0.25,
            decay: 1.0,
        };
        assert_stream_is_batch(pure, 600, 150);
        assert_stream_is_batch(Spot::default(), 600, 150);
    }

    #[test]
    fn emission_schedule() {
        let mut det = StreamingGlobalZScore::new(5).unwrap();
        assert_eq!(det.lag(), 4);
        for i in 0..4 {
            assert_eq!(det.push(i as f64), None, "warm-up push {i}");
        }
        assert!(det.push(4.0).is_some(), "calibration push emits score 0");
        assert!(det.push(5.0).is_some());
        assert_eq!(det.finish().len(), 4);
    }

    #[test]
    fn short_stream_never_calibrates_and_emits_nothing() {
        let short = [1.0, 2.0, 3.0];
        let none = Vec::<f64>::new();
        let mut z = StreamingGlobalZScore::new(100).unwrap();
        assert_eq!(z.score_stream(&short), none);
        let mut c = StreamingCusum::new(Cusum::default(), 100).unwrap();
        assert_eq!(c.score_stream(&short), none);
        let mut s = StreamingSpot::new(Spot::default(), 100).unwrap();
        assert_eq!(s.score_stream(&short), none);
    }

    #[test]
    fn constructors_validate_eagerly() {
        assert!(StreamingGlobalZScore::new(1).is_err());
        let cusum = |allowance, decay| Cusum { allowance, decay };
        assert!(StreamingCusum::new(cusum(-1.0, 1.0), 10).is_err());
        assert!(StreamingCusum::new(cusum(0.5, 0.0), 10).is_err());
        assert!(StreamingCusum::new(Cusum::default(), 1).is_err());
        let spot = |level, risk| Spot { level, risk };
        assert!(StreamingSpot::new(Spot::default(), 4).is_err());
        assert!(StreamingSpot::new(spot(0.2, 1e-3), 100).is_err());
        assert!(StreamingSpot::new(spot(0.98, 0.9), 100).is_err());
    }

    #[test]
    fn checkpoint_mid_stream_resumes_bitwise() {
        let xs = series(500);
        let mut full = StreamingSpot::new(Spot::default(), 100).unwrap();
        let full_scores = full.score_stream(&xs);

        for cut in [50usize, 100, 250] {
            let mut a = StreamingSpot::new(Spot::default(), 100).unwrap();
            let mut head: Vec<f64> = xs[..cut].iter().filter_map(|&v| a.push(v)).collect();
            let blob = crate::checkpoint(&a);
            let mut b = StreamingSpot::new(Spot::default(), 100).unwrap();
            crate::restore(&mut b, &blob).unwrap();
            head.extend(xs[cut..].iter().filter_map(|&v| b.push(v)));
            head.extend(b.finish());
            assert_eq!(full_scores, head, "cut={cut}");
        }
    }

    #[test]
    fn name_carries_the_configuration_fingerprint() {
        let det = StreamingSpot::new(Spot::default(), 64).unwrap();
        let name = det.name();
        assert!(name.starts_with(display::SPOT), "{name}");
        assert!(name.contains("train=64"), "{name}");
        assert!(
            name.contains("level=0.98") && name.contains("risk=0.001"),
            "{name}"
        );
        let z = StreamingGlobalZScore::new(8).unwrap();
        assert_eq!(
            z.name(),
            format!("{} (stream, train=8)", display::GLOBAL_ZSCORE)
        );
    }

    #[test]
    fn memory_bounds_are_constant_in_stream_length() {
        let mut z = StreamingGlobalZScore::new(50).unwrap();
        let mut c = StreamingCusum::new(Cusum::default(), 50).unwrap();
        let (bz, bc) = (z.memory_bound(), c.memory_bound());
        for i in 0..10_000 {
            let v = (i as f64 * 0.1).sin();
            z.push(v);
            c.push(v);
        }
        assert_eq!(z.memory_bound(), bz);
        assert_eq!(c.memory_bound(), bc);
        // the backlog really is bounded by train_len
        assert!(z.ready.len() <= 50);
    }
}
