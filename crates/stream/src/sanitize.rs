//! Non-finite input handling for streaming detectors.
//!
//! Real sensor streams carry NaN markers (dropouts), ±∞ (overflow, bad
//! scaling), and the detectors downstream must neither panic nor silently
//! corrupt state. [`Sanitized`] wraps any [`StreamingDetector`] with an
//! explicit [`NanPolicy`] decided by the caller:
//!
//! * [`Propagate`](NanPolicy::Propagate) — feed samples through untouched.
//!   Non-finite values flow into the detector arithmetic (every detector in
//!   this crate is panic-free on arbitrary `f64`, proven by the no-panic
//!   proptest suite), so scores in the contaminated span are typically NaN.
//!   The honest choice for offline analysis: contamination stays visible.
//! * [`Skip`](NanPolicy::Skip) — quarantine non-finite samples: the inner
//!   detector never sees them (its state evolves exactly as if it had been
//!   run on the finite subsequence), and the skipped position scores `0.0`
//!   ("no evidence"), keeping the output aligned one-score-per-point.
//! * [`ImputeLast`](NanPolicy::ImputeLast) — replace a non-finite sample
//!   with the most recent finite one (`0.0` before any finite sample) and
//!   feed that. The deployment-style choice: detector statistics stay
//!   finite and scores remain comparable across the gap.
//!
//! Every quarantined/imputed point increments the
//! `stream.sanitize.quarantined` obs counter, which the fault-injection
//! experiment (`repro -- faults`) reports per profile.
//!
//! ## Emission alignment under `Skip`
//!
//! The inner detector only counts *kept* samples, so its warm-up and
//! `score_offset` are measured in kept pushes. `Sanitized` re-aligns inner
//! scores to original stream positions: the first `score_offset` kept
//! positions emit nothing (exactly like the unwrapped detector), skipped
//! positions emit `0.0`, and every other position carries the next inner
//! score in order. The total output length is therefore
//! `n − score_offset()` — the [`StreamingDetector`] contract — with
//! `score_offset` counted in kept samples.
//!
//! ## Memory under `Skip`
//!
//! Quarantined positions queue behind any score the inner detector has not
//! emitted yet (emission is strictly in stream order, one score per push).
//! Both queues are run-length encoded, so arbitrarily long quarantine runs
//! — including an endless non-finite tail — cost `O(1)` state per run. The
//! one input shape that exceeds [`memory_bound`](StreamingDetector::memory_bound)
//! transiently is a quarantine burst landing *inside* the inner detector's
//! warm-up/lag window followed by finite data: the scores computed while
//! the placeholder backlog drains (one per push) are retained until
//! emitted, `O(burst)` at worst. This is inherent to in-order
//! one-score-per-push emission, not to the implementation.
//!
//! Each queue keeps its oldest element inline and spills younger ones to
//! the heap. On finite input the steady state is one run of awaiting
//! slots plus at most one resolved output, so it stays inline: a push
//! touches no heap memory of the wrapper, and a new wrapper allocates
//! nothing for its queues. An inner score never waits: its slot was
//! queued before the push that emits it, so `push` hands it straight to
//! that slot.

use std::collections::VecDeque;
use std::fmt;

use tsad_core::ckpt::{corrupt, CkptReader, CkptWriter};
use tsad_core::error::Result;
use tsad_core::prefetch::prefetch_deque;
use tsad_obs::Counter;

use crate::StreamingDetector;

/// Samples replaced or withheld because they were non-finite.
static SANITIZE_QUARANTINED: Counter = Counter::new("stream.sanitize.quarantined");

/// What to do when a pushed sample is NaN or ±∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanPolicy {
    /// Feed the sample through untouched; scores may go NaN.
    Propagate,
    /// Withhold the sample from the inner detector; the position scores 0.
    Skip,
    /// Substitute the last finite sample (0.0 before the first one).
    ImputeLast,
}

impl NanPolicy {
    fn tag(self) -> u8 {
        match self {
            NanPolicy::Propagate => 0,
            NanPolicy::Skip => 1,
            NanPolicy::ImputeLast => 2,
        }
    }
}

impl fmt::Display for NanPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NanPolicy::Propagate => "propagate",
            NanPolicy::Skip => "skip",
            NanPolicy::ImputeLast => "impute-last",
        };
        f.write_str(s)
    }
}

/// Per-original-position bookkeeping for the `Skip` re-alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Non-finite, withheld: emits the placeholder score 0.0.
    Placeholder,
    /// Kept, but within the inner `score_offset`: emits nothing.
    Unscored,
    /// Kept and scoreable: emits the next inner score, in order.
    Await,
}

impl Slot {
    fn tag(self) -> u8 {
        match self {
            Slot::Placeholder => 0,
            Slot::Unscored => 1,
            Slot::Await => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self> {
        match t {
            0 => Ok(Slot::Placeholder),
            1 => Ok(Slot::Unscored),
            2 => Ok(Slot::Await),
            other => Err(corrupt(format!("slot tag {other} out of range"))),
        }
    }
}

/// A resolved-but-unemitted output: either a run of placeholder zeros or
/// one real score. Runs keep hostile all-NaN tails at `O(1)` state.
#[derive(Debug, Clone, Copy)]
enum Out {
    Zeros(usize),
    Score(f64),
}

/// A FIFO queue whose oldest element is stored inline; younger elements
/// spill to a `VecDeque`. A queue that never holds two elements at once
/// never allocates.
#[derive(Debug, Clone)]
struct Fifo<T> {
    /// The oldest element; `None` only when the whole queue is empty.
    front: Option<T>,
    spill: VecDeque<T>,
}

impl<T> Fifo<T> {
    fn new() -> Self {
        Self {
            front: None,
            spill: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        usize::from(self.front.is_some()) + self.spill.len()
    }

    fn is_empty(&self) -> bool {
        self.front.is_none()
    }

    fn front_mut(&mut self) -> Option<&mut T> {
        self.front.as_mut()
    }

    fn back_mut(&mut self) -> Option<&mut T> {
        self.spill.back_mut().or(self.front.as_mut())
    }

    fn push_back(&mut self, v: T) {
        if self.front.is_none() {
            self.front = Some(v);
        } else {
            self.spill.push_back(v);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let v = self.front.take();
        self.front = self.spill.pop_front();
        v
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.front.iter().chain(&self.spill)
    }

    fn clear(&mut self) {
        self.front = None;
        self.spill.clear();
    }
}

/// A [`StreamingDetector`] hardened against non-finite input by an explicit
/// [`NanPolicy`]. See the module docs for the policy semantics.
#[derive(Debug, Clone)]
pub struct Sanitized<D> {
    inner: D,
    policy: NanPolicy,
    /// Last finite sample seen (for [`NanPolicy::ImputeLast`]).
    last_finite: Option<f64>,
    /// Kept pushes forwarded to the inner detector.
    kept: usize,
    /// Pending original positions awaiting emission, oldest first,
    /// run-length encoded.
    slots: Fifo<(Slot, usize)>,
    /// Fully resolved output not yet returned from `push`.
    out_ready: Fifo<Out>,
    /// Local count of quarantined points (also mirrored to the obs
    /// counter), so a checkpoint can restore it.
    quarantined: u64,
}

impl<D: StreamingDetector> Sanitized<D> {
    /// Wraps `inner` with the given policy.
    pub fn new(inner: D, policy: NanPolicy) -> Self {
        Self {
            inner,
            policy,
            last_finite: None,
            kept: 0,
            slots: Fifo::new(),
            out_ready: Fifo::new(),
            quarantined: 0,
        }
    }

    /// The wrapping policy.
    pub fn policy(&self) -> NanPolicy {
        self.policy
    }

    /// Points this instance quarantined (replaced or withheld) so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Shared reference to the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps into the inner detector.
    pub fn into_inner(self) -> D {
        self.inner
    }

    fn push_slot(&mut self, s: Slot) {
        match self.slots.back_mut() {
            Some((kind, count)) if *kind == s => *count += 1,
            _ => self.slots.push_back((s, 1)),
        }
    }

    fn push_zeros(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        match self.out_ready.back_mut() {
            Some(Out::Zeros(count)) => *count += n,
            _ => self.out_ready.push_back(Out::Zeros(n)),
        }
    }

    /// Queues the slot for a kept sample, then feeds it to the inner
    /// detector and returns the inner score it emits, if any.
    fn feed(&mut self, v: f64) -> Option<f64> {
        self.kept += 1;
        let slot = if self.kept <= self.inner.score_offset() {
            Slot::Unscored
        } else {
            Slot::Await
        };
        self.push_slot(slot);
        self.inner.push(v)
    }

    /// Resolves leading slot runs into `out_ready`, matching `Await` slots
    /// to `scores` (inner scores in emission order), until a run blocks on
    /// a score the inner detector has not emitted yet.
    fn drain_slots(&mut self, scores: &mut impl Iterator<Item = f64>) {
        while let Some((slot, count)) = self.slots.front_mut() {
            match *slot {
                Slot::Placeholder => {
                    let n = *count;
                    self.slots.pop_front();
                    self.push_zeros(n);
                }
                Slot::Unscored => {
                    self.slots.pop_front();
                }
                Slot::Await => {
                    let Some(s) = scores.next() else { break };
                    *count -= 1;
                    if *count == 0 {
                        self.slots.pop_front();
                    }
                    self.out_ready.push_back(Out::Score(s));
                }
            }
        }
    }

    fn pop_out(&mut self) -> Option<f64> {
        match self.out_ready.front_mut() {
            None => None,
            Some(Out::Zeros(count)) => {
                *count -= 1;
                if *count == 0 {
                    self.out_ready.pop_front();
                }
                Some(0.0)
            }
            Some(Out::Score(s)) => {
                let s = *s;
                self.out_ready.pop_front();
                Some(s)
            }
        }
    }
}

impl<D: StreamingDetector> StreamingDetector for Sanitized<D> {
    fn name(&self) -> String {
        format!("{} [nan: {}]", self.inner.name(), self.policy)
    }

    fn push(&mut self, x: f64) -> Option<f64> {
        let score = if x.is_finite() {
            self.last_finite = Some(x);
            self.feed(x)
        } else {
            self.quarantined += 1;
            SANITIZE_QUARANTINED.add(1);
            match self.policy {
                NanPolicy::Propagate => self.feed(x),
                NanPolicy::Skip => {
                    self.push_slot(Slot::Placeholder);
                    None
                }
                NanPolicy::ImputeLast => {
                    let v = self.last_finite.unwrap_or(0.0);
                    self.feed(v)
                }
            }
        };
        // the inner contract (at most one score per push, kept − offset in
        // all) means the score's Await slot is already queued, so it
        // resolves here and no inner score outlives the push
        self.drain_slots(&mut score.into_iter());
        self.pop_out()
    }

    fn finish(&mut self) -> Vec<f64> {
        let mut scores = self.inner.finish().into_iter();
        self.drain_slots(&mut scores);
        // invariant: the inner contract (kept − offset scores) resolves
        // every Await slot; only Placeholder/Unscored runs could remain,
        // and drain_slots never blocks on those
        debug_assert!(self.slots.is_empty(), "unresolved slots at finish");
        self.slots.clear();
        let mut out = Vec::new();
        while let Some(v) = self.pop_out() {
            out.push(v);
        }
        out
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.last_finite = None;
        self.kept = 0;
        self.slots.clear();
        self.out_ready.clear();
        self.quarantined = 0;
    }

    fn score_offset(&self) -> usize {
        self.inner.score_offset()
    }

    fn lag(&self) -> usize {
        // skipped positions resolve immediately, so the worst-case lag is
        // the inner detector's (measured in kept pushes)
        self.inner.lag()
    }

    fn memory_bound(&self) -> usize {
        // slot runs: Await units ≤ inner emission backlog; Placeholder and
        // Unscored runs are O(1) each and alternate with Await runs. The
        // module docs describe the one burst shape that can transiently
        // exceed this via retained resolved scores.
        self.inner.memory_bound() + 6 * (self.inner.lag() + self.inner.score_offset() + 2) + 2
    }

    fn prefetch(&self) {
        self.inner.prefetch();
        // the queues' inline fronts sit in `self`, which the caller has
        // in cache; only spilled elements live elsewhere
        prefetch_deque(&self.slots.spill);
        prefetch_deque(&self.out_ready.spill);
    }

    fn save_state(&self, w: &mut CkptWriter) {
        w.u8(self.policy.tag()); // config echo, verified on load
        self.inner.save_state(w);
        w.opt_f64(self.last_finite);
        w.usize(self.kept);
        w.usize(self.slots.len());
        for &(s, count) in self.slots.iter() {
            w.u8(s.tag());
            w.usize(count);
        }
        // inner scores waiting for a slot: always none (see `push`), but
        // written so blobs keep the TSCK v1 layout
        w.f64_seq(0, std::iter::empty());
        w.usize(self.out_ready.len());
        for &o in self.out_ready.iter() {
            match o {
                Out::Zeros(n) => {
                    w.u8(0);
                    w.usize(n);
                }
                Out::Score(s) => {
                    w.u8(1);
                    w.f64(s);
                }
            }
        }
        w.u64(self.quarantined);
    }

    fn load_state(&mut self, r: &mut CkptReader<'_>) -> Result<()> {
        let tag = r.u8()?;
        if tag != self.policy.tag() {
            return Err(corrupt(format!(
                "NanPolicy mismatch: blob tag {tag}, instance {}",
                self.policy
            )));
        }
        self.inner.load_state(r)?;
        self.last_finite = r.opt_f64()?;
        self.kept = r.usize()?;
        let n_slots = r.usize()?;
        if n_slots > r.remaining() {
            return Err(corrupt(format!(
                "slot queue declares {n_slots} runs but only {} bytes remain",
                r.remaining()
            )));
        }
        self.slots.clear();
        for _ in 0..n_slots {
            let slot = Slot::from_tag(r.u8()?)?;
            let count = r.usize()?;
            if count == 0 {
                return Err(corrupt("empty slot run".to_string()));
            }
            self.slots.push_back((slot, count));
        }
        let waiting = r.f64_vec()?;
        if !waiting.is_empty() {
            return Err(corrupt(format!(
                "{} inner scores waiting for a slot is unreachable: every push \
                 hands its score to an already queued slot",
                waiting.len()
            )));
        }
        let n_out = r.usize()?;
        if n_out > r.remaining() {
            return Err(corrupt(format!(
                "output queue declares {n_out} entries but only {} bytes remain",
                r.remaining()
            )));
        }
        self.out_ready.clear();
        for _ in 0..n_out {
            let o = match r.u8()? {
                0 => {
                    let n = r.usize()?;
                    if n == 0 {
                        return Err(corrupt("empty zero run".to_string()));
                    }
                    Out::Zeros(n)
                }
                1 => Out::Score(r.f64()?),
                other => return Err(corrupt(format!("output tag {other} out of range"))),
            };
            self.out_ready.push_back(o);
        }
        self.quarantined = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrated::StreamingGlobalZScore;
    use crate::oneliner::StreamingOneLiner;
    use tsad_detectors::oneliner::{Expr, OneLiner};

    fn dirty(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 17 == 5 {
                    f64::NAN
                } else if i % 29 == 11 {
                    f64::INFINITY
                } else {
                    (i as f64 * 0.13).sin() * 2.0
                }
            })
            .collect()
    }

    #[test]
    fn clean_input_is_transparent_for_every_policy() {
        let xs: Vec<f64> = (0..300).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut plain = StreamingGlobalZScore::new(40).unwrap();
        let want = plain.score_stream(&xs);
        for policy in [NanPolicy::Propagate, NanPolicy::Skip, NanPolicy::ImputeLast] {
            let mut s = Sanitized::new(StreamingGlobalZScore::new(40).unwrap(), policy);
            let got = s.score_stream(&xs);
            assert_eq!(got.len(), want.len(), "{policy}");
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy}");
            }
            assert_eq!(s.quarantined(), 0, "{policy}");
        }
    }

    #[test]
    fn skip_emits_zero_at_quarantined_positions() {
        let xs = dirty(400);
        let n_bad = xs.iter().filter(|v| !v.is_finite()).count();
        assert!(n_bad > 0);
        let mut s = Sanitized::new(StreamingGlobalZScore::new(30).unwrap(), NanPolicy::Skip);
        let got = s.score_stream(&xs);
        assert_eq!(got.len(), xs.len());
        assert_eq!(s.quarantined(), n_bad as u64);
        assert!(got.iter().all(|v| v.is_finite()), "Skip never emits NaN");
        // every non-finite position scores exactly 0; score t refers to
        // original position t here (offset 0)
        for (i, &x) in xs.iter().enumerate() {
            if !x.is_finite() {
                assert_eq!(got[i], 0.0, "position {i}");
            }
        }
    }

    #[test]
    fn skip_matches_running_the_inner_detector_on_the_finite_subsequence() {
        let xs = dirty(500);
        let finite: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
        let mut plain = StreamingGlobalZScore::new(25).unwrap();
        let want = plain.score_stream(&finite);
        let mut s = Sanitized::new(StreamingGlobalZScore::new(25).unwrap(), NanPolicy::Skip);
        let got = s.score_stream(&xs);
        let kept_scores: Vec<f64> = xs
            .iter()
            .zip(&got)
            .filter(|(x, _)| x.is_finite())
            .map(|(_, &s)| s)
            .collect();
        assert_eq!(kept_scores.len(), want.len());
        for (a, b) in want.iter().zip(&kept_scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn impute_last_keeps_scores_finite() {
        let xs = dirty(400);
        let mut s = Sanitized::new(
            StreamingGlobalZScore::new(30).unwrap(),
            NanPolicy::ImputeLast,
        );
        let got = s.score_stream(&xs);
        assert_eq!(got.len(), xs.len());
        assert!(got.iter().all(|v| v.is_finite()));
        assert!(s.quarantined() > 0);
    }

    #[test]
    fn propagate_never_panics_and_counts_quarantine() {
        let xs = dirty(400);
        let n_bad = xs.iter().filter(|v| !v.is_finite()).count() as u64;
        let mut s = Sanitized::new(
            StreamingGlobalZScore::new(30).unwrap(),
            NanPolicy::Propagate,
        );
        let got = s.score_stream(&xs);
        assert_eq!(got.len(), xs.len());
        assert_eq!(s.quarantined(), n_bad);
    }

    #[test]
    fn skip_respects_score_offset_of_the_inner_detector() {
        // a one-liner with diff depth 1: offset counted in *kept* samples
        let ol = OneLiner::new(Expr::Ts.diff().abs(), Expr::Const(0.5));
        let inner = StreamingOneLiner::compile(&ol).unwrap();
        assert_eq!(inner.score_offset(), 1);
        let mut s = Sanitized::new(inner, NanPolicy::Skip);
        let xs = vec![f64::NAN, 1.0, 2.0, f64::NAN, 3.0];
        let got = s.score_stream(&xs);
        // n − offset = 4 scores: NaN@0 → 0.0 placeholder, kept 1.0 is the
        // unscored offset position, then diffs for 2.0 and 3.0, NaN@3 → 0.0
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], 0.0);
        assert_eq!(got[2], 0.0);
    }

    #[test]
    fn memory_stays_bounded_on_hostile_streams() {
        // steady 1/3 quarantine rate: RLE keeps the queues at O(runs)
        let mut s = Sanitized::new(StreamingGlobalZScore::new(20).unwrap(), NanPolicy::Skip);
        let bound = s.memory_bound();
        for i in 0..30_000 {
            let v = if i % 3 == 0 {
                f64::NAN
            } else {
                (i as f64 * 0.01).sin()
            };
            s.push(v);
        }
        assert_eq!(s.memory_bound(), bound);
        let lag = s.inner.lag();
        assert!(
            s.slots.len() <= 2 * (lag + 2),
            "slot runs {} exceed 2*(lag+2)",
            s.slots.len()
        );

        // an endless non-finite tail after a partial warm-up is the
        // adversarial shape: the placeholder run must stay O(1)
        let mut s = Sanitized::new(StreamingGlobalZScore::new(20).unwrap(), NanPolicy::Skip);
        for i in 0..10 {
            s.push(i as f64);
        }
        for _ in 0..100_000 {
            s.push(f64::NAN);
        }
        assert!(
            s.slots.len() + s.out_ready.len() <= 8,
            "NaN tail inflated the queues: slots {}, out {}",
            s.slots.len(),
            s.out_ready.len()
        );
    }

    #[test]
    fn finite_input_keeps_the_queues_inline() {
        for policy in [NanPolicy::Propagate, NanPolicy::Skip, NanPolicy::ImputeLast] {
            let mut s = Sanitized::new(StreamingGlobalZScore::new(40).unwrap(), policy);
            for i in 0..2_000 {
                s.push((i as f64 * 0.07).sin());
                assert!(s.slots.len() <= 1 && s.out_ready.is_empty(), "{policy}");
            }
            assert_eq!(s.slots.spill.capacity(), 0, "{policy}");
            assert_eq!(s.out_ready.spill.capacity(), 0, "{policy}");
        }
    }

    #[test]
    fn reset_restores_the_fresh_state() {
        let xs = dirty(120);
        let mut s = Sanitized::new(
            StreamingGlobalZScore::new(15).unwrap(),
            NanPolicy::ImputeLast,
        );
        let first = s.score_stream(&xs);
        s.reset();
        assert_eq!(s.quarantined(), 0);
        let second = s.score_stream(&xs);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
