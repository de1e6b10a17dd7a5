//! Native streaming port of the moving-average residual. The
//! prefix-calibrated ports (z-score, CUSUM, SPOT) share one implementation
//! in [`calibrated`](crate::calibrated).

use tsad_core::ckpt::{corrupt, CkptReader, CkptState, CkptWriter};
use tsad_core::error::Result;
use tsad_core::ops::incremental::{MovMean, MovStd, RingBuffer};

use crate::StreamingDetector;

/// Streaming [`MovingAvgResidual`](tsad_detectors::baselines::MovingAvgResidual):
/// `|x − movmean(x, k)| / (movstd(x, k) + ε)` with the centered,
/// endpoint-shrinking MATLAB windows.
///
/// Bitwise-equivalent to the batch detector: the incremental
/// `MovMean`/`MovStd` nodes materialize the same windows and reduce them
/// through the same `window_mean`/`window_std` helpers the batch ops use.
#[derive(Debug, Clone)]
pub struct StreamingMovingAvgResidual {
    window: usize,
    mm: MovMean,
    ms: MovStd,
    raw: RingBuffer,
    emitted: usize,
}

impl StreamingMovingAvgResidual {
    /// Creates the detector with window `k ≥ 1`.
    pub fn new(window: usize) -> Result<Self> {
        Ok(Self {
            window,
            mm: MovMean::new(window)?,
            ms: MovStd::new(window)?,
            raw: RingBuffer::new(window)?,
            emitted: 0,
        })
    }

    fn residual(&mut self, m: f64, s: f64) -> f64 {
        // invariant: the raw sample at the emission index is still retained
        // — the node delay (k−1)/2 is strictly less than the ring capacity k
        let v = self.raw.get(self.emitted).expect("raw sample retained");
        self.emitted += 1;
        (v - m).abs() / (s + 1e-9)
    }
}

impl StreamingDetector for StreamingMovingAvgResidual {
    fn name(&self) -> String {
        format!(
            "{} (stream, k={})",
            tsad_detectors::registry::display::MOVING_AVG_RESIDUAL,
            self.window
        )
    }

    fn push(&mut self, x: f64) -> Option<f64> {
        self.raw.push(x);
        // same k ⇒ the two nodes warm up and emit in lockstep
        match (self.mm.push(x), self.ms.push(x)) {
            (Some(m), Some(s)) => Some(self.residual(m, s)),
            _ => None,
        }
    }

    fn finish(&mut self) -> Vec<f64> {
        let means = self.mm.finish();
        let stds = self.ms.finish();
        means
            .into_iter()
            .zip(stds)
            .map(|(m, s)| self.residual(m, s))
            .collect()
    }

    fn reset(&mut self) {
        self.mm.reset();
        self.ms.reset();
        self.raw.clear();
        self.emitted = 0;
    }

    fn lag(&self) -> usize {
        self.mm.delay()
    }

    fn memory_bound(&self) -> usize {
        self.mm.memory_bound() + self.ms.memory_bound() + self.raw.capacity()
    }

    fn save_state(&self, w: &mut CkptWriter) {
        self.mm.save(w);
        self.ms.save(w);
        self.raw.save(w);
        w.usize(self.emitted);
    }

    fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<()> {
        self.mm.load(r)?;
        self.ms.load(r)?;
        self.raw.load(r)?;
        self.emitted = r.usize()?;
        // the next emission reads raw index `emitted`; it must be retained
        if self.emitted > self.raw.next_index() || self.emitted < self.raw.first_index() {
            return Err(corrupt(format!(
                "moving-average residual emission cursor {} outside retained \
                 raw range [{}, {}]",
                self.emitted,
                self.raw.first_index(),
                self.raw.next_index()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::TimeSeries;
    use tsad_detectors::baselines::MovingAvgResidual;
    use tsad_detectors::Detector;

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

    #[test]
    fn moving_avg_residual_stream_is_bitwise_batch() {
        let xs = series(257);
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        for k in [1usize, 2, 5, 21, 64] {
            let batch = MovingAvgResidual::new(k).score(&ts, 0).unwrap();
            let mut det = StreamingMovingAvgResidual::new(k).unwrap();
            assert_bitwise(&batch, &det.score_stream(&xs), &format!("mavg k={k}"));
            det.reset();
            assert_bitwise(
                &batch,
                &det.score_stream(&xs),
                &format!("mavg k={k} after reset"),
            );
        }
        assert!(StreamingMovingAvgResidual::new(0).is_err());
    }

    #[test]
    fn memory_bound_is_constant_in_stream_length() {
        let mut m = StreamingMovingAvgResidual::new(31).unwrap();
        let bm = m.memory_bound();
        for i in 0..10_000 {
            m.push((i as f64 * 0.1).sin());
        }
        assert_eq!(m.memory_bound(), bm);
    }
}
