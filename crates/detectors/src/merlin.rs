//! MERLIN-style parameter-free discord discovery (Nakamura et al., ICDM
//! 2020) — the paper's reference \[18\] for "decade-old simple ideas" that
//! solve the challenging NASA examples.
//!
//! MERLIN removes the discord's one parameter (the subsequence length) by
//! finding the top discord at *every* length in a range. Each per-length
//! search uses DRAG (Yankov, Keogh & Rebbapragada, ICDM 2007):
//!
//! 1. **Candidate selection**: a single pass keeps a set of subsequences
//!    that could have a nearest neighbor farther than `r`.
//! 2. **Refinement**: a second pass computes each surviving candidate's
//!    true nearest-neighbor distance, discarding it the moment the distance
//!    drops below `r`, or to the best discord found so far (which it could
//!    then never beat).
//!
//! If `r` was too large (no candidates survive), MERLIN retries with a
//! smaller `r`; between consecutive lengths it warm-starts `r` from the
//! previous discord distance.
//!
//! Each pair costs one fused dot product over precomputed window moments
//! (`crate::pair`, shared with HOT SAX). Both passes are written once over
//! that dot product and compiled per SIMD backend, dispatched once per
//! pass. The length sweep runs on `tsad-parallel` workers that claim one
//! length at a time; results are identical at every thread count.

use std::cell::RefCell;

use std::sync::atomic::{AtomicUsize, Ordering};

use tsad_core::error::{CoreError, Result};
use tsad_core::series::ensure_finite;
use tsad_core::simd::{self, Backend};
use tsad_core::windows::{subsequence_count, MomentsScratch, WindowMoments};
use tsad_obs::Counter;
use tsad_parallel::ScratchPool;

use crate::matrix_profile::exclusion_zone;
use crate::pair::{self, pair_distance, Dot, PairSearch};

/// DRAG invocations — one per `(length, r)` attempt, so the ratio to the
/// number of candidate lengths shows how often the `r` halving retried.
static DRAG_PASSES: Counter = Counter::new("detectors.merlin.drag_passes");
/// Windows eliminated by phase 1 before refinement ever saw them.
static WINDOWS_PRUNED: Counter = Counter::new("detectors.merlin.windows_pruned");
/// Windows that survived phase 1 into the refinement pass.
static CANDIDATES_KEPT: Counter = Counter::new("detectors.merlin.candidates_kept");
/// Phase-2 candidates abandoned early: nearest neighbor within `r`, or no
/// farther than the best discord so far.
static REFINE_ABANDONED: Counter = Counter::new("detectors.merlin.refine_abandoned");

/// A discord found at a specific subsequence length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthDiscord {
    /// Subsequence length.
    pub length: usize,
    /// Discord start index.
    pub start: usize,
    /// Distance to nearest non-trivial neighbor.
    pub distance: f64,
}

/// Reusable per-thread buffers for the DRAG passes: the window moments
/// (with their prefix-sum scratch) and the candidate set. MERLIN's length
/// sweep reuses one of these across every candidate length a worker
/// handles, so the halving retries and the per-length searches stop
/// allocating once the largest shape has been seen.
#[derive(Debug, Default)]
struct DragScratch {
    moments: WindowMoments,
    mscratch: MomentsScratch,
    candidates: Vec<usize>,
}

thread_local! {
    static DRAG_SCRATCH: RefCell<DragScratch> = RefCell::new(DragScratch::default());
}

/// The two DRAG passes for one `(m, r)`, over precomputed moments and a
/// caller-owned candidate buffer; written once and compiled per SIMD
/// backend through [`pair::dispatch`].
struct DragPass<'a> {
    x: &'a [f64],
    m: usize,
    r: f64,
    moments: &'a WindowMoments,
    candidates: &'a mut Vec<usize>,
}

impl PairSearch for DragPass<'_> {
    type Output = Option<(usize, f64)>;

    #[inline(always)]
    fn run<D: Dot>(self) -> Option<(usize, f64)> {
        let DragPass {
            x,
            m,
            r,
            moments,
            candidates,
        } = self;
        let count = moments.len();
        let excl = exclusion_zone(m);

        // Phase 1: candidate selection, compacting the survivor list in
        // place with a write cursor.
        candidates.clear();
        for i in 0..count {
            let mut is_candidate = true;
            let mut write = 0;
            for read in 0..candidates.len() {
                let c = candidates[read];
                if i.abs_diff(c) < excl {
                    candidates[write] = c;
                    write += 1;
                    continue;
                }
                let d = pair_distance::<D>(x, m, moments, i, c);
                if d < r {
                    // c has a neighbor within r → not a discord; and i
                    // matched something, so i is not a candidate either.
                    is_candidate = false;
                } else {
                    candidates[write] = c;
                    write += 1;
                }
            }
            candidates.truncate(write);
            if is_candidate {
                candidates.push(i);
            }
        }
        // Phase 1's whole point is shrinking the refinement set: windows
        // that never survive to phase 2 are the "pruned" ones.
        WINDOWS_PRUNED.add((count - candidates.len()) as u64);
        CANDIDATES_KEPT.add(candidates.len() as u64);
        if candidates.is_empty() {
            return None;
        }

        // Phase 2: refinement. A candidate is abandoned the moment its
        // running nearest-neighbor distance drops below `r` (a phase-1
        // false positive) or to the best discord so far: `best` changes
        // only on a strictly larger distance, so such a candidate can
        // never replace it.
        let mut best_loc = 0;
        let mut best_dist = f64::NEG_INFINITY;
        'cand: for &c in candidates.iter() {
            let mut nn = f64::INFINITY;
            for j in 0..count {
                if j.abs_diff(c) < excl {
                    continue;
                }
                let d = pair_distance::<D>(x, m, moments, c, j);
                if d < nn {
                    nn = d;
                    if nn < r || nn <= best_dist {
                        REFINE_ABANDONED.inc();
                        continue 'cand;
                    }
                }
            }
            if nn.is_finite() && nn > best_dist {
                best_loc = c;
                best_dist = nn;
            }
        }
        best_dist.is_finite().then_some((best_loc, best_dist))
    }
}

fn drag_phases(
    x: &[f64],
    m: usize,
    r: f64,
    moments: &WindowMoments,
    backend: Backend,
    candidates: &mut Vec<usize>,
) -> Option<(usize, f64)> {
    DRAG_PASSES.inc();
    pair::dispatch(
        backend,
        DragPass {
            x,
            m,
            r,
            moments,
            candidates,
        },
    )
}

/// DRAG phase 1+2 for one length: the top discord, or `None` if every
/// subsequence has a neighbor within `r`. A non-finite input is rejected
/// with [`CoreError::NonFinite`]: the window moments are prefix sums, so one
/// NaN would poison every later window and score as distance 0.
pub fn drag_discord(x: &[f64], m: usize, r: f64) -> Result<Option<(usize, f64)>> {
    ensure_finite(x)?;
    let count = subsequence_count(x.len(), m)?;
    if count < 2 {
        return Err(CoreError::BadWindow {
            window: m,
            len: x.len(),
        });
    }
    let backend = simd::current();
    DRAG_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        WindowMoments::compute_with(x, m, &mut scratch.mscratch, &mut scratch.moments)?;
        Ok(drag_phases(
            x,
            m,
            r,
            &scratch.moments,
            backend,
            &mut scratch.candidates,
        ))
    })
}

/// The top discord at one length, with a warm-started `r` threaded through
/// `r_hint`. Crucially the *result* does not depend on the hint — only the
/// amount of work does: DRAG returns the exact top discord whenever it
/// returns `Some` (any `r` at or below the discord distance recovers it,
/// with ties broken by the earliest start index), and if the halving loop
/// bottoms out, the `r = 0` call disables both pruning rules and returns
/// the exact answer unconditionally. This hint-independence is what lets
/// [`merlin_into`] hand the lengths to its workers in any order.
fn discord_at_length(
    x: &[f64],
    m: usize,
    backend: Backend,
    r_hint: &mut Option<f64>,
) -> Result<LengthDiscord> {
    let count = subsequence_count(x.len(), m)?;
    if count < 2 {
        return Err(CoreError::BadWindow {
            window: m,
            len: x.len(),
        });
    }
    let mut r = r_hint.unwrap_or_else(|| 2.0 * (m as f64).sqrt());
    // Moments are computed once per length; the halving retries and the
    // exact fallback all reuse them (and the candidate buffer) through the
    // thread-local scratch.
    let mut found = None;
    DRAG_SCRATCH.with(|scratch| -> Result<()> {
        let scratch = &mut *scratch.borrow_mut();
        WindowMoments::compute_with(x, m, &mut scratch.mscratch, &mut scratch.moments)?;
        for _ in 0..64 {
            if let Some(hit) =
                drag_phases(x, m, r, &scratch.moments, backend, &mut scratch.candidates)
            {
                found = Some(hit);
                break;
            }
            r *= 0.5;
            if r < 1e-9 {
                break;
            }
        }
        if found.is_none() {
            // (Near-)degenerate series: fall back to the exact, unpruned
            // search.
            found = drag_phases(
                x,
                m,
                0.0,
                &scratch.moments,
                backend,
                &mut scratch.candidates,
            );
        }
        Ok(())
    })?;
    if let Some((start, distance)) = found {
        *r_hint = Some(distance * 0.99);
        Ok(LengthDiscord {
            length: m,
            start,
            distance,
        })
    } else {
        // Only reachable when every distance is non-finite (e.g. NaNs in
        // every window): report discord distance 0.
        *r_hint = None;
        Ok(LengthDiscord {
            length: m,
            start: 0,
            distance: 0.0,
        })
    }
}

/// Pooled per-worker state for the MERLIN length sweep: the discords of
/// the lengths a worker claimed, and the smallest length offset it failed
/// at (if any). Pooling these — together with the thread-local
/// [`DragScratch`] — makes a warm [`merlin_into`] call fully
/// allocation-free.
#[derive(Debug, Default)]
struct MerlinSpace {
    part: Vec<LengthDiscord>,
    err: Option<(usize, CoreError)>,
}

static MERLIN_POOL: ScratchPool<MerlinSpace> = ScratchPool::new();

/// MERLIN: top discord at every length in `min_len ..= max_len`, appended
/// to `out` in length order. On error `out` is left as it was, and the
/// error is that of the smallest failing length; a non-finite input is
/// rejected up front, as by [`drag_discord`].
///
/// `r` starts at `2√m` (the theoretical maximum z-normalized distance) and
/// halves until DRAG succeeds; subsequent lengths warm-start from the
/// previous discord distance scaled by 0.99, as in the published algorithm.
///
/// The sweep runs one worker per `tsad-parallel` thread. Workers claim one
/// length at a time, in ascending order, from a shared counter, and each
/// warm-starts from the last length it searched. The cost of a length
/// grows with `m` and with how good its hint is, so no static split
/// balances the range; claims do. Which worker gets which length (and so
/// which hint) depends on scheduling, but `discord_at_length` is
/// hint-independent, so every per-length result is identical at every
/// thread count; only the amount of work varies. The SIMD backend is
/// resolved once here, on the caller's thread, so worker threads cannot
/// change the dispatch either.
pub fn merlin_into(
    x: &[f64],
    min_len: usize,
    max_len: usize,
    out: &mut Vec<LengthDiscord>,
) -> Result<()> {
    ensure_finite(x)?;
    if min_len == 0 || min_len > max_len {
        return Err(CoreError::BadParameter {
            name: "min_len",
            value: min_len as f64,
            expected: "0 < min_len <= max_len",
        });
    }
    subsequence_count(x.len(), max_len)?;
    let lengths = max_len - min_len + 1;
    let backend = simd::current();
    let base = out.len();
    out.reserve(lengths);
    let next = AtomicUsize::new(0);
    let mut first_err: Option<(usize, CoreError)> = None;
    tsad_parallel::par_chunks_scratch(
        &MERLIN_POOL,
        tsad_parallel::current_threads().min(lengths),
        MerlinSpace::default,
        |space, _worker| {
            space.part.clear();
            space.err = None;
            let mut r_hint: Option<f64> = None;
            loop {
                // Relaxed: the counter only hands out offsets; the
                // discords come back through the scope's join.
                let offset = next.fetch_add(1, Ordering::Relaxed);
                if offset >= lengths {
                    break;
                }
                match discord_at_length(x, min_len + offset, backend, &mut r_hint) {
                    Ok(d) => space.part.push(d),
                    Err(e) => {
                        // Every smaller offset is already claimed, and its
                        // worker either searches it or stopped at an even
                        // smaller failure, so the smallest failing length
                        // is always reported.
                        space.err = Some((offset, e));
                        break;
                    }
                }
            }
        },
        |space| {
            out.extend_from_slice(&space.part);
            if let Some((offset, e)) = space.err.take() {
                if first_err.as_ref().is_none_or(|(o, _)| offset < *o) {
                    first_err = Some((offset, e));
                }
            }
        },
    );
    if let Some((_, e)) = first_err {
        out.truncate(base);
        return Err(e);
    }
    out[base..].sort_unstable_by_key(|d| d.length);
    Ok(())
}

/// Allocating convenience wrapper over [`merlin_into`].
pub fn merlin(x: &[f64], min_len: usize, max_len: usize) -> Result<Vec<LengthDiscord>> {
    let mut out = Vec::new();
    merlin_into(x, min_len, max_len, &mut out)?;
    Ok(out)
}

/// The single strongest discord across all lengths, with distances
/// length-normalized (divided by `√m`) so different lengths are comparable,
/// as MERLIN recommends.
pub fn merlin_top(x: &[f64], min_len: usize, max_len: usize) -> Result<Option<LengthDiscord>> {
    let all = merlin(x, min_len, max_len)?;
    Ok(all.into_iter().max_by(|a, b| {
        let na = a.distance / (a.length as f64).sqrt();
        let nb = b.distance / (b.length as f64).sqrt();
        na.total_cmp(&nb)
    }))
}

/// [`crate::Detector`] adapter over the MERLIN length sweep: the series
/// score is zero everywhere except the span of the best
/// length-normalized discord, which carries its discord distance.
#[derive(Debug, Clone, Copy)]
pub struct MerlinDetector {
    /// Smallest discord length to try.
    pub min_len: usize,
    /// Largest discord length to try (inclusive).
    pub max_len: usize,
}

impl Default for MerlinDetector {
    fn default() -> Self {
        Self {
            min_len: 8,
            max_len: 64,
        }
    }
}

impl crate::Detector for MerlinDetector {
    fn name(&self) -> &'static str {
        crate::registry::display::MERLIN
    }
    fn score(&self, ts: &tsad_core::TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        let mut out = vec![0.0; x.len()];
        if let Some(d) = merlin_top(x, self.min_len, self.max_len)? {
            for o in out.iter_mut().skip(d.start).take(d.length) {
                *o = d.distance;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_profile::stomp;

    fn anomalous_signal() -> Vec<f64> {
        (0..360)
            .map(|i| {
                let base = (i as f64 * std::f64::consts::TAU / 24.0).sin();
                if (180..192).contains(&i) {
                    -base * 0.9 // a phase-flipped patch
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn drag_agrees_with_matrix_profile() {
        let x = anomalous_signal();
        let m = 24;
        let (mp_loc, mp_dist) = stomp(&x, m).unwrap().discord().unwrap();
        // r slightly below the true discord distance must recover it exactly
        let (loc, dist) = drag_discord(&x, m, mp_dist * 0.9).unwrap().unwrap();
        assert!((dist - mp_dist).abs() < 1e-6, "{dist} vs {mp_dist}");
        assert_eq!(loc, mp_loc);
    }

    #[test]
    fn drag_returns_none_when_r_too_large() {
        let x = anomalous_signal();
        let got = drag_discord(&x, 24, 1e6).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn merlin_sweeps_lengths_and_finds_anomaly() {
        let x = anomalous_signal();
        let discords = merlin(&x, 20, 28).unwrap();
        assert_eq!(discords.len(), 9);
        for d in &discords {
            assert!(
                d.start.abs_diff(180) <= 2 * d.length,
                "length {} discord at {}",
                d.length,
                d.start
            );
            assert!(d.distance > 0.0);
        }
    }

    #[test]
    fn merlin_top_selects_strongest() {
        let x = anomalous_signal();
        let top = merlin_top(&x, 20, 28).unwrap().unwrap();
        assert!(top.distance > 0.0);
        assert!((20..=28).contains(&top.length));
    }

    #[test]
    fn merlin_validates_parameters() {
        let x = vec![0.0; 50];
        assert!(merlin(&x, 0, 10).is_err());
        assert!(merlin(&x, 12, 10).is_err());
        assert!(merlin(&x, 10, 60).is_err());
    }

    #[test]
    fn merlin_and_drag_reject_non_finite_input() {
        let mut x = anomalous_signal();
        x[40] = f64::NAN;
        let nan = CoreError::NonFinite { index: 40 };
        assert_eq!(merlin(&x, 16, 18).unwrap_err(), nan);
        assert_eq!(drag_discord(&x, 16, 1.0).unwrap_err(), nan);
        x[40] = f64::INFINITY;
        assert!(merlin_top(&x, 16, 18).is_err());
    }

    #[test]
    fn merlin_on_constant_signal_reports_zero() {
        let x = vec![1.0; 80];
        let discords = merlin(&x, 8, 10).unwrap();
        for d in discords {
            assert_eq!(d.distance, 0.0);
        }
    }
}
