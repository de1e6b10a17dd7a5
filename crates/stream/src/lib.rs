//! # tsad-stream — bounded-memory streaming detection
//!
//! The batch detectors in `tsad-detectors` score a complete series at once.
//! Deployed anomaly detection is a *stream*: one sample arrives, the
//! detector updates `O(k)` state and (possibly) emits a score. This crate
//! provides that execution model for the repository's detector panel, with
//! two guarantees the batch/streaming split usually loses:
//!
//! 1. **Bounded memory** — every detector reports an upper bound on its
//!    retained state ([`StreamingDetector::memory_bound`]); nothing grows
//!    with stream length.
//! 2. **Batch equivalence** — the native streaming ports reproduce their
//!    batch counterparts *bitwise* (z-score, CUSUM, SPOT, moving-average
//!    residual, the whole one-liner family; see [`equivalence`]) or within
//!    a documented floating-point tolerance (the left matrix profile, whose
//!    rolling dot products accumulate rounding differently). z-score, CUSUM
//!    and SPOT are one [`CalibratedStream`] over the same calibrate-then-step
//!    model their batch `score` runs, so for them equality holds by
//!    construction.
//!
//! ## Emission model
//!
//! [`StreamingDetector::push`] consumes one sample and returns at most one
//! score. Centered-window detectors cannot score index `i` until the
//! samples after `i` arrive, so scores trail the input by
//! [`lag`](StreamingDetector::lag) pushes; [`finish`](StreamingDetector::finish)
//! drains the held-back tail once the stream ends. Detectors whose batch
//! counterpart pads a non-causal prefix (the one-liner's `diff` depth)
//! start emitting at [`score_offset`](StreamingDetector::score_offset)
//! instead of index 0.
//!
//! For every native port: `concat(push outputs, finish())` equals the batch
//! detector's score vector from `score_offset` on.
//!
//! ## Replay
//!
//! The [`mod@replay`] module feeds any dataset through a detector in
//! configurable chunk sizes, recording throughput (points/second),
//! per-push latency, and *detection delay* (first alarm − anomaly onset,
//! scored by `tsad-eval::streaming`).

pub mod adapter;
pub mod calibrated;
pub mod checkpoint;
pub mod detectors;
pub mod discord;
pub mod equivalence;
pub mod factory;
pub mod oneliner;
pub mod registry;
pub mod replay;
pub mod sanitize;

pub use adapter::BatchAdapter;
pub use calibrated::{CalibratedStream, StreamingCusum, StreamingGlobalZScore, StreamingSpot};
pub use checkpoint::{checkpoint, restore, CKPT_MAGIC, CKPT_VERSION};
pub use detectors::StreamingMovingAvgResidual;
pub use discord::StreamingLeftDiscord;
pub use equivalence::{check_equivalence, EquivalenceMode, EquivalenceReport};
pub use factory::{DetectorFactory, FnFactory};
pub use oneliner::StreamingOneLiner;
pub use registry::{RegistryFactory, StreamHints, StreamRegistry};
pub use replay::{replay, replay_many, ReplayConfig, ReplayJob, ReplayOutcome};
pub use sanitize::{NanPolicy, Sanitized};

use tsad_core::ckpt::{CkptReader, CkptWriter};
use tsad_core::error::Result;

/// A push-based anomaly detector with bounded memory.
///
/// Contract: for a stream of `n` pushes, the concatenation of all `Some`
/// values returned by [`push`](Self::push) followed by
/// [`finish`](Self::finish) contains exactly `n − score_offset()` scores;
/// score `t` of that sequence refers to series index `score_offset() + t`.
/// Higher scores mean more anomalous, matching
/// `tsad_detectors::Detector::score`.
pub trait StreamingDetector {
    /// Human-readable detector name.
    fn name(&self) -> String;

    /// Consumes one sample; returns the next in-order score once its
    /// window/warm-up allows, `None` while warming up.
    fn push(&mut self, x: f64) -> Option<f64>;

    /// Drains the scores still held back at end of stream (shrunken
    /// windows, buffered warm-up prefixes).
    fn finish(&mut self) -> Vec<f64>;

    /// Restores the freshly-constructed state.
    fn reset(&mut self);

    /// Series index of the first emitted score (0 for most detectors; the
    /// one-liner family starts at its `diff` depth, whose batch scores are
    /// non-causal padding).
    fn score_offset(&self) -> usize {
        0
    }

    /// Steady-state emission lag: `push` number `t` emits the score for
    /// series index `t − lag()` (0-based, once warmed up).
    fn lag(&self) -> usize;

    /// Upper bound on retained state, in `f64`-equivalents. Constant in
    /// stream length by construction.
    fn memory_bound(&self) -> usize;

    /// Hints that [`push`](Self::push) will run soon: issues software
    /// prefetches for the heap buffers `push` touches, so a caller that
    /// walks many detectors (the fleet) can overlap their cache misses.
    ///
    /// A hint only. It must not change observable state: `save_state`
    /// bytes and every later output stay bitwise identical. It must not
    /// demand-load anything the caller did not already touch: it reads
    /// only the detector's own inline fields (buffer pointers and
    /// lengths), never the memory they point to, and only names that
    /// memory in prefetches (see [`tsad_core::prefetch`]). The default
    /// does nothing.
    fn prefetch(&self) {}

    /// Convenience: streams a whole slice and returns the full score
    /// sequence (`push` outputs then `finish`), aligned to
    /// `score_offset()`.
    fn score_stream(&mut self, xs: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = xs.iter().filter_map(|&v| self.push(v)).collect();
        out.extend(self.finish());
        out
    }

    /// Serializes the detector's *dynamic* state (configuration is carried
    /// by the instance and only fingerprinted, see [`checkpoint::checkpoint`]).
    ///
    /// Together with [`load_state`](Self::load_state) this must satisfy the
    /// resume contract: saving after `k` pushes and loading into an
    /// identically-configured fresh instance yields a detector whose
    /// remaining outputs are **bitwise identical** to the uninterrupted run.
    fn save_state(&self, w: &mut CkptWriter);

    /// Rehydrates state written by [`save_state`](Self::save_state) into an
    /// identically-configured instance. Returns
    /// [`CoreError::Checkpoint`](tsad_core::CoreError) on malformed blobs
    /// or configuration mismatch; the detector is left in an unspecified
    /// but safe state on error (callers should `reset` before reuse).
    fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<()>;
}

/// Boxed detectors stream like their contents — this is what lets the
/// replay panel (`Vec<Box<dyn StreamingDetector>>`) be wrapped by
/// [`Sanitized`] and checkpointed without unboxing.
impl<T: StreamingDetector + ?Sized> StreamingDetector for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn push(&mut self, x: f64) -> Option<f64> {
        (**self).push(x)
    }
    fn finish(&mut self) -> Vec<f64> {
        (**self).finish()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn score_offset(&self) -> usize {
        (**self).score_offset()
    }
    fn lag(&self) -> usize {
        (**self).lag()
    }
    fn memory_bound(&self) -> usize {
        (**self).memory_bound()
    }
    /// Prefetches the boxed detector itself. Forwarding to its own hint
    /// would read the box's contents, which the hint contract forbids.
    fn prefetch(&self) {
        tsad_core::prefetch::prefetch(&**self)
    }
    fn save_state(&self, w: &mut CkptWriter) {
        (**self).save_state(w)
    }
    fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<()> {
        (**self).load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_stream_concatenates_pushes_and_finish() {
        struct Delay1 {
            held: Option<f64>,
        }
        impl StreamingDetector for Delay1 {
            fn name(&self) -> String {
                "delay1".into()
            }
            fn push(&mut self, x: f64) -> Option<f64> {
                self.held.replace(x)
            }
            fn finish(&mut self) -> Vec<f64> {
                self.held.take().into_iter().collect()
            }
            fn reset(&mut self) {
                self.held = None;
            }
            fn lag(&self) -> usize {
                1
            }
            fn memory_bound(&self) -> usize {
                1
            }
            fn save_state(&self, w: &mut CkptWriter) {
                w.opt_f64(self.held);
            }
            fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<()> {
                self.held = r.opt_f64()?;
                Ok(())
            }
        }
        let mut d = Delay1 { held: None };
        assert_eq!(d.score_stream(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.score_offset(), 0);
    }
}
