//! MERLIN-style parameter-free discord discovery (Nakamura et al., ICDM
//! 2020) — the paper's reference \[18\] for "decade-old simple ideas" that
//! solve the challenging NASA examples.
//!
//! MERLIN removes the discord's one parameter (the subsequence length) by
//! searching every length in a range. Each per-length search uses DRAG
//! (Yankov, Keogh & Rebbapragada, ICDM 2007):
//!
//! 1. **Candidate selection**: a single pass keeps a set of subsequences
//!    that could have a nearest neighbor farther than `r`.
//! 2. **Refinement**: a second pass computes each surviving candidate's
//!    true nearest-neighbor distance, discarding it the moment the distance
//!    drops below `r`, or so far that it can no longer beat the best
//!    discord found so far.
//!
//! Two searches share that core. [`merlin_into`] finds the top discord at
//! every length: if `r` was too large (no candidates survive) it retries
//! with a smaller `r`, and between consecutive lengths it warm-starts `r`
//! from the previous discord distance. [`merlin_top`] keeps only the
//! strongest length-normalized discord, so it searches the longest length
//! exactly and every other length once, at the radius that length would
//! need to beat the best `distance/√length` found so far; a length that
//! cannot reach it is settled without a discord.
//!
//! Each pair costs one fused dot product over precomputed window moments
//! (`crate::pair`, shared with HOT SAX). Both passes are one
//! [`simd::Kernel`], compiled per SIMD backend and run through
//! [`simd::dispatch`] once per pass. Four freedoms cut the work without
//! changing a bit of the result (DESIGN.md §11 argues each one):
//!
//! * phase 1 visits windows in SAX-word order, so similar windows meet
//!   early and eliminate each other while the candidate set is small;
//! * phase 2 refines the candidates least similar to their phase-1
//!   partners first, each starting from that partner, and breaks ties in
//!   favour of the smaller index whatever the visit order;
//! * a pair whose distance is provably on the far side of the threshold
//!   (`r` in phase 1, the running nearest-neighbor distance in phase 2) is
//!   settled without the division and square root, by a correlation test
//!   with a guard band; only pairs inside the band take the exact path;
//! * dot products run four at a time against one window, each bitwise
//!   equal to a lone one.
//!
//! Both searches run on `tsad-parallel` workers that claim one length at a
//! time, with their buffers pooled; results are identical at every thread
//! count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use tsad_core::dist::{corr_ceiling, corr_cut};
use tsad_core::error::{CoreError, Result};
use tsad_core::series::ensure_finite;
use tsad_core::simd::{self, Backend, Isa, Kernel};
use tsad_core::windows::{subsequence_count, MomentsScratch, WindowMoments};
use tsad_obs::Counter;
use tsad_parallel::ScratchPool;

use crate::matrix_profile::exclusion_zone;
use crate::pair::{corr_parts, parts_distance, regular_sigmas, Lead};

/// DRAG invocations — one per `(length, r)` attempt, so the ratio to the
/// number of candidate lengths shows how often the `r` halving retried.
static DRAG_PASSES: Counter = Counter::new("detectors.merlin.drag_passes");
/// Lengths [`merlin_top`] closed without a discord: their single DRAG pass,
/// at the radius the shared best demands, found no candidate.
static LENGTHS_SETTLED: Counter = Counter::new("detectors.merlin.lengths_settled");
/// Windows eliminated by phase 1 before refinement ever saw them.
static WINDOWS_PRUNED: Counter = Counter::new("detectors.merlin.windows_pruned");
/// Windows that survived phase 1 into the refinement pass.
static CANDIDATES_KEPT: Counter = Counter::new("detectors.merlin.candidates_kept");
/// Phase-2 candidates abandoned early: nearest neighbor within `r`, or
/// unable to beat the best discord so far.
static REFINE_ABANDONED: Counter = Counter::new("detectors.merlin.refine_abandoned");
/// Window pairs phase 1 compared (each one dot product).
static PHASE1_PAIRS: Counter = Counter::new("detectors.merlin.phase1_pairs");
/// Window pairs phase 2 compared (each one dot product).
static PHASE2_PAIRS: Counter = Counter::new("detectors.merlin.phase2_pairs");

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

/// Segments of the SAX word that orders phase 1; `4^WORD` words fit the
/// top 16 bits of a visit key.
const WORD: usize = 8;
/// The outer SAX breakpoints `±BREAK` (and 0) of a 4-letter alphabet: the
/// quartiles of the standard normal.
const BREAK: f64 = 0.674_489_750_196_081_7;
/// Words shared by at least this many windows count as equally common in
/// the phase-1 visit order.
const COMMON: usize = 16;

/// A candidate's most similar phase-1 partner so far. `score` is the
/// pair's correlation numerator over the partner's `σ`, which orders the
/// partners of one candidate by correlation at one multiply per pair. It
/// only orders phase 2's work, so `f32` precision does, and a window index
/// past `u32` range is simply not recorded.
#[derive(Debug, Clone, Copy)]
struct Closest {
    score: f32,
    partner: u32,
}

impl Closest {
    const NONE: Closest = Closest {
        score: f32::NEG_INFINITY,
        partner: u32::MAX,
    };
}

/// DRAG's buffers: the per-length state (window moments, the `σ` of each
/// regular window, the SAX words and the phase-1 visit order they give),
/// computed once per length and shared by every `r` retry, and the
/// per-pass candidate set with each candidate's closest phase-1 partner.
/// Pooled in [`MerlinSpace`], so a warm sweep or a warm [`drag_discord`]
/// allocates nothing.
#[derive(Debug, Default)]
struct DragScratch {
    moments: WindowMoments,
    mscratch: MomentsScratch,
    sigs: Vec<f64>,
    order: Vec<u64>,
    candidates: Vec<usize>,
    closest: Vec<Closest>,
}

impl DragScratch {
    /// Computes the per-length state of `x` at length `m`.
    fn prepare(&mut self, x: &[f64], m: usize) -> Result<()> {
        // Size every per-window buffer once for the longest series seen:
        // each length has its own window count, and growing by one would
        // double a buffer.
        let n = x.len();
        fit(&mut self.moments.means, n);
        fit(&mut self.moments.stds, n);
        fit(&mut self.sigs, n);
        fit(&mut self.order, n);
        fit(&mut self.candidates, n);
        fit(&mut self.closest, n);
        WindowMoments::compute_with(x, m, &mut self.mscratch, &mut self.moments)?;
        regular_sigmas(&self.moments, &mut self.sigs);
        self.visit_order(x, m);
        Ok(())
    }

    /// Fills `order` with phase 1's visit order at length `m`.
    ///
    /// Windows of common SAX words come first, word by word, and within a
    /// word by index modulo the exclusion zone, so consecutive visits are
    /// similar but not trivial matches and eliminate each other while the
    /// candidate set is small. Rare words, where discords live, come last.
    /// The order decides only the work, not the result.
    ///
    /// A word has `WORD` symbols, one per segment `bound[s] .. bound[s +
    /// 1]` of the window (empty segments, when `m < WORD`, read 0). A
    /// symbol compares the segment's deviation from the window mean with
    /// `±BREAK·len·σ` and 0, the z-normalized PAA breakpoints. Running
    /// segment sums are precise enough for an order.
    fn visit_order(&mut self, x: &[f64], m: usize) {
        let count = self.moments.len();
        let shift = x.iter().sum::<f64>() / x.len() as f64;
        let mut bound = [0usize; WORD + 1];
        let mut share = [0.0; WORD];
        let mut brk = [0.0; WORD];
        let mut sums = [0.0; WORD];
        for s in 0..WORD {
            bound[s + 1] = (s + 1) * m / WORD;
            let len = (bound[s + 1] - bound[s]) as f64;
            share[s] = len / m as f64;
            brk[s] = BREAK * len;
            sums[s] = x[bound[s]..bound[s + 1]].iter().map(|&v| v - shift).sum();
        }
        let mut total: f64 = sums.iter().sum();
        // Key: word, index modulo the exclusion zone, index, in 16 + 24 +
        // 24 bits; past 2^24 windows, word and index.
        let phased = count <= 1 << 24;
        let index_mask: u64 = if phased { (1 << 24) - 1 } else { (1 << 48) - 1 };
        let excl = exclusion_zone(m);
        for (i, &std) in self.moments.stds.iter().enumerate() {
            if i > 0 {
                let w = &x[i - 1..i + m];
                for s in 0..WORD {
                    sums[s] += w[bound[s + 1]] - w[bound[s]];
                }
                total += w[m] - w[0];
            }
            let mut word = 0u64;
            for s in 0..WORD {
                let dev = sums[s] - share[s] * total;
                let z = brk[s] * std;
                word = word * 4 + (dev > -z) as u64 + (dev > 0.0) as u64 + (dev > z) as u64;
            }
            let phase = if phased { ((i % excl) as u64) << 24 } else { 0 };
            self.order.push((word << 48) | phase | i as u64);
        }
        self.order.sort_unstable();
        // Then a stable counting sort by how common each word is, staged
        // through the candidate buffer, which is empty between passes.
        let rank = |run: &[u64]| COMMON - run.len().min(COMMON);
        let mut start = [0usize; COMMON + 2];
        for run in self.order.chunk_by(|a, b| a >> 48 == b >> 48) {
            start[rank(run) + 1] += run.len();
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        self.candidates.resize(count, 0);
        for run in self.order.chunk_by(|a, b| a >> 48 == b >> 48) {
            let at = &mut start[rank(run)];
            for &key in run {
                self.candidates[*at] = (key & index_mask) as usize;
                *at += 1;
            }
        }
        self.order.clear();
        self.order
            .extend(self.candidates.drain(..).map(|i| i as u64));
    }

    /// One DRAG pass at radius `r` over the prepared length.
    fn pass(&mut self, x: &[f64], r: f64, backend: Backend) -> Option<(usize, f64)> {
        DRAG_PASSES.inc();
        simd::dispatch(backend, DragPass { x, r, s: self })
    }
}

/// Empties `v` and makes room for `n` items, without the doubling of
/// `Vec::reserve`.
pub(crate) fn fit<T>(v: &mut Vec<T>, n: usize) {
    v.clear();
    v.reserve_exact(n);
}

/// The two DRAG passes for one `(m, r)` over a prepared [`DragScratch`];
/// written once and compiled per SIMD backend through [`simd::dispatch`].
struct DragPass<'a> {
    x: &'a [f64],
    r: f64,
    s: &'a mut DragScratch,
}

impl Kernel for DragPass<'_> {
    type Output = Option<(usize, f64)>;

    #[inline(always)]
    fn run<I: Isa>(self) -> Option<(usize, f64)> {
        let DragPass { x, r, s } = self;
        let DragScratch {
            moments,
            sigs,
            order,
            candidates,
            closest,
            ..
        } = s;
        let (moments, means, sigs) = (&*moments, &moments.means[..], &sigs[..]);
        let m = moments.window;
        let count = moments.len();
        let excl = exclusion_zone(m);
        let win = |i: usize| &x[i..i + m];

        // Phase 1: candidate selection. Window `i` removes candidate `c`
        // when `d(c, i) < r`, and is itself kept out when `d(i, c) < r`,
        // each distance oriented as phase 2 computes it. So a window whose
        // nearest neighbour is at least `r` away is never removed, in any
        // visit order. `cut` certifies `d >= r` without a division.
        // A NaN `r` prunes nothing in either phase, as `r = −∞` does.
        let r = if r.is_nan() { f64::NEG_INFINITY } else { r };
        let cut = corr_cut(corr_ceiling(r, m));
        candidates.clear();
        closest.clear();
        closest.resize(count, Closest::NONE);
        let mut pairs1 = 0u64;
        for &i in order.iter() {
            let i = i as usize;
            let xi = win(i);
            let (mean_i, sig_i) = (means[i], sigs[i]);
            let li = Lead::new(m, mean_i, sig_i);
            let inv_i = 1.0 / sig_i;
            let mut lone = true;
            // Compacts the survivors in place, four compared candidates
            // at a time; `write` never passes `read`.
            let n = candidates.len();
            let (mut read, mut write) = (0, 0);
            while read < n {
                let mut block = [0usize; 4];
                let mut ready = 0;
                while read < n && ready < 4 {
                    let c = candidates[read];
                    read += 1;
                    if i.abs_diff(c) < excl {
                        candidates[write] = c;
                        write += 1;
                    } else {
                        block[ready] = c;
                        ready += 1;
                    }
                }
                let qt = if ready == 4 {
                    I::dot4(xi, block.map(win))
                } else {
                    let mut qt = [0.0; 4];
                    for k in 0..ready {
                        qt[k] = I::dot(xi, win(block[k]));
                    }
                    qt
                };
                pairs1 += ready as u64;
                for k in 0..ready {
                    let (c, qt) = (block[k], qt[k]);
                    let (mean_c, sig_c) = (means[c], sigs[c]);
                    let ci = corr_parts(&Lead::new(m, mean_c, sig_c), mean_i, sig_i, qt);
                    let ic = corr_parts(&li, mean_c, sig_c, qt);
                    let (keep, ok) = if (ci.0 <= cut * ci.1) & (ic.0 <= cut * ic.1) {
                        (true, true)
                    } else {
                        (
                            parts_distance(moments, c, i, qt, ci) >= r,
                            parts_distance(moments, i, c, qt, ic) >= r,
                        )
                    };
                    lone &= ok;
                    let score = (ci.0 * inv_i) as f32;
                    let best = &mut closest[c];
                    if score > best.score && i < u32::MAX as usize {
                        *best = Closest {
                            score,
                            partner: i as u32,
                        };
                    }
                    candidates[write] = c;
                    write += keep as usize;
                }
            }
            candidates.truncate(write);
            if lone {
                candidates.push(i);
            }
        }
        PHASE1_PAIRS.add(pairs1);
        WINDOWS_PRUNED.add((count - candidates.len()) as u64);
        CANDIDATES_KEPT.add(candidates.len() as u64);
        if candidates.is_empty() {
            return None;
        }

        // Phase 2: refinement, least similar candidates first, each
        // starting from its most similar phase-1 partner. `nn` is an exact
        // minimum whatever the visit order; `nn_cut`, from the correlation
        // of the pair that set `nn`, certifies `d >= nn`, which could not
        // lower it. A candidate wins on a larger `nn`, or on an
        // equal one with a smaller index, so the order cannot change the
        // winner either. It is abandoned as soon as `nn < r` (a phase-1
        // false positive) or `nn` can no longer win.
        let sim = |c: usize| {
            let Closest { score, partner } = closest[c];
            if partner == u32::MAX {
                f64::NEG_INFINITY
            } else {
                f64::from(score) / sigs[c]
            }
        };
        candidates.sort_unstable_by(|&a, &b| sim(a).total_cmp(&sim(b)).then(a.cmp(&b)));
        let mut best_loc = usize::MAX;
        let mut best_dist = f64::NEG_INFINITY;
        let mut pairs2 = 0u64;
        let mut abandoned = 0u64;
        'cand: for &c in candidates.iter() {
            let xc = win(c);
            let lc = Lead::new(m, means[c], sigs[c]);
            let partner = match closest[c].partner {
                u32::MAX => usize::MAX,
                p => p as usize,
            };
            let mut nn = f64::INFINITY;
            let mut nn_cut = f64::NEG_INFINITY;
            // Tests pair (c, j); abandons the candidate when it can no
            // longer win.
            macro_rules! visit {
                ($j:expr, $qt:expr) => {{
                    let (j, qt) = ($j, $qt);
                    pairs2 += 1;
                    let parts = corr_parts(&lc, means[j], sigs[j], qt);
                    let certified = parts.0 <= nn_cut * parts.1;
                    if !certified {
                        let d = parts_distance(moments, c, j, qt, parts);
                        if d < nn {
                            nn = d;
                            if nn < r || nn < best_dist || (nn == best_dist && c > best_loc) {
                                abandoned += 1;
                                continue 'cand;
                            }
                            nn_cut = corr_cut(if parts.1.is_nan() {
                                corr_ceiling(nn, m)
                            } else {
                                parts.0 / parts.1
                            });
                        }
                    }
                }};
            }
            if partner != usize::MAX {
                visit!(partner, I::dot(xc, win(partner)));
            }
            for (lo, hi) in [(0, (c + 1).saturating_sub(excl)), (c + excl, count)] {
                let mut j = lo;
                while j + 4 <= hi {
                    let qt = I::dot4(xc, [win(j), win(j + 1), win(j + 2), win(j + 3)]);
                    for (k, qt) in qt.into_iter().enumerate() {
                        if j + k != partner {
                            visit!(j + k, qt);
                        }
                    }
                    j += 4;
                }
                for j in j..hi {
                    if j != partner {
                        visit!(j, I::dot(xc, win(j)));
                    }
                }
            }
            if nn.is_finite() && (nn > best_dist || (nn == best_dist && c < best_loc)) {
                best_loc = c;
                best_dist = nn;
            }
        }
        PHASE2_PAIRS.add(pairs2);
        REFINE_ABANDONED.add(abandoned);
        best_dist.is_finite().then_some((best_loc, best_dist))
    }
}

/// DRAG phase 1+2 for one length: the top discord, or `None` if every
/// subsequence has a neighbor within `r`. The top discord is the earliest
/// window whose nearest-neighbor distance is the largest, whenever that
/// distance is at least `r`, bit for bit. A non-finite input is rejected
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
    let mut space = MERLIN_POOL.take(MerlinSpace::default);
    let found = space
        .drag
        .prepare(x, m)
        .map(|()| space.drag.pass(x, r, backend));
    MERLIN_POOL.put(space);
    found
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
    scratch: &mut DragScratch,
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
    // The per-length state is computed once; the halving retries and the
    // exact fallback all reuse it.
    scratch.prepare(x, m)?;
    let mut found = None;
    for _ in 0..64 {
        if let Some(hit) = scratch.pass(x, r, backend) {
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
        found = scratch.pass(x, 0.0, backend);
    }
    *r_hint = found.map(|(_, distance)| distance * 0.99);
    // `None` only when no window has a finite nearest-neighbor distance
    // (every pair is a trivial match): report discord distance 0.
    let (start, distance) = found.unwrap_or((0, 0.0));
    Ok(LengthDiscord {
        length: m,
        start,
        distance,
    })
}

/// Pooled per-worker state for the MERLIN length searches: the DRAG
/// buffers, the discords of the lengths a worker claimed ([`merlin_into`])
/// or the strongest of them ([`merlin_top`]), and the smallest length
/// offset (or length) it failed at, if any. Pooling these makes a warm
/// [`merlin_into`], [`merlin_top`] or [`drag_discord`] call fully
/// allocation-free, and lets the workers of a multi-threaded search start
/// from grown buffers.
#[derive(Debug, Default)]
struct MerlinSpace {
    drag: DragScratch,
    part: Vec<LengthDiscord>,
    top: Option<LengthDiscord>,
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
    check_lengths(x, min_len, max_len)?;
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
                match discord_at_length(x, min_len + offset, backend, &mut space.drag, &mut r_hint)
                {
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

/// The checks both length searches make before searching any length: a
/// finite input, `0 < min_len <= max_len`, and `max_len <= x.len()`.
fn check_lengths(x: &[f64], min_len: usize, max_len: usize) -> Result<()> {
    ensure_finite(x)?;
    if min_len == 0 || min_len > max_len {
        return Err(CoreError::BadParameter {
            name: "min_len",
            value: min_len as f64,
            expected: "0 < min_len <= max_len",
        });
    }
    subsequence_count(x.len(), max_len)?;
    Ok(())
}

/// The relative margin by which [`merlin_top`]'s radius `b·√m·(1 − GUARD)`
/// undercuts the distance `b·√m`; it absorbs the rounding of the radius
/// and of `distance/√m` (DESIGN.md §11).
const GUARD: f64 = 1e-9;

/// A discord's length-normalized distance `distance/√length`, by which
/// MERLIN compares lengths.
fn strength(d: &LengthDiscord) -> f64 {
    d.distance / (d.length as f64).sqrt()
}

/// [`merlin_top`]'s order: the larger strength, and between equal
/// strengths the longer length, which is the maximum `Iterator::max_by`
/// keeps (the last) when it folds the lengths in ascending order.
fn stronger(a: &LengthDiscord, b: &LengthDiscord) -> bool {
    strength(a)
        .total_cmp(&strength(b))
        .then(a.length.cmp(&b.length))
        .is_gt()
}

/// The single strongest discord across all lengths, with distances
/// length-normalized (divided by `√m`) so different lengths are comparable,
/// as MERLIN recommends; between equal strengths the longest length wins.
/// The result, and the error on bad input, are those of folding
/// [`merlin`]'s output with `max_by` on `distance/√length`, bit for bit,
/// at every thread count; it is never `None`.
///
/// Only one discord is kept, so a length is searched only as far as it
/// takes to show that it cannot win. The longest length is searched
/// exactly first, with [`merlin_into`]'s halving loop. The other lengths, longest
/// first, go to `tsad-parallel` workers that claim one at a time, and
/// each runs one DRAG pass at `r = b·√m·(1 − GUARD)`, where `b` is the
/// best strength found so far by any worker. A length whose strength
/// reaches `b` has its top discord at least `r` away from its nearest
/// neighbor, so the pass returns that discord exactly; a pass that finds
/// nothing proves the length scores below `b`, which the answer's
/// strength is at least, so it could neither win nor tie (DESIGN.md §11).
pub fn merlin_top(x: &[f64], min_len: usize, max_len: usize) -> Result<Option<LengthDiscord>> {
    check_lengths(x, min_len, max_len)?;
    let backend = simd::current();
    let mut space = MERLIN_POOL.take(MerlinSpace::default);
    let seed = discord_at_length(x, max_len, backend, &mut space.drag, &mut None);
    MERLIN_POOL.put(space);
    // Only the longest length can have fewer than two windows, so an error
    // here is the smallest failing length's.
    let mut top = seed?;
    let lengths = max_len - min_len;
    // Strengths are finite and non-negative (never −0), so their bit
    // patterns order as the values do and `fetch_max` raises the best.
    // Relaxed: any value read is some length's strength, so a lower bound
    // on the answer's, which is all the radius needs.
    let best = AtomicU64::new(strength(&top).to_bits());
    let next = AtomicUsize::new(0);
    let mut first_err: Option<(usize, CoreError)> = None;
    tsad_parallel::par_chunks_scratch(
        &MERLIN_POOL,
        tsad_parallel::current_threads().min(lengths),
        MerlinSpace::default,
        |space, _worker| {
            space.top = None;
            space.err = None;
            loop {
                let offset = next.fetch_add(1, Ordering::Relaxed);
                if offset >= lengths {
                    break;
                }
                let m = max_len - 1 - offset;
                if let Err(e) = space.drag.prepare(x, m) {
                    // Claims descend, so a later failure is a smaller
                    // length; keep claiming, as every length must be seen.
                    space.err = Some((m, e));
                    continue;
                }
                let b = f64::from_bits(best.load(Ordering::Relaxed));
                let r = b * (m as f64).sqrt() * (1.0 - GUARD);
                // `None`: the length's top discord is nearer than `r` to
                // its neighbor, or it has no finite distance and scores 0,
                // which the longer seed's score of at least 0 beats.
                let Some((start, distance)) = space.drag.pass(x, r, backend) else {
                    LENGTHS_SETTLED.inc();
                    continue;
                };
                let found = LengthDiscord {
                    length: m,
                    start,
                    distance,
                };
                best.fetch_max(strength(&found).to_bits(), Ordering::Relaxed);
                if space.top.is_none_or(|t| stronger(&found, &t)) {
                    space.top = Some(found);
                }
            }
        },
        |space| {
            if let Some(d) = space.top.take().filter(|d| stronger(d, &top)) {
                top = d;
            }
            if let Some((m, e)) = space.err.take() {
                if first_err.as_ref().is_none_or(|(f, _)| m < *f) {
                    first_err = Some((m, e));
                }
            }
        },
    );
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(Some(top)),
    }
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

    /// `merlin_top` as the full sweep defines it: `max_by` over every
    /// length's discord in length order.
    fn full_sweep_top(x: &[f64], lo: usize, hi: usize) -> Result<Option<LengthDiscord>> {
        Ok(merlin(x, lo, hi)?.into_iter().max_by(|a, b| {
            let na = a.distance / (a.length as f64).sqrt();
            let nb = b.distance / (b.length as f64).sqrt();
            na.total_cmp(&nb)
        }))
    }

    #[test]
    fn merlin_top_fails_as_the_full_sweep_does() {
        let x = anomalous_signal();
        let short = &x[..50];
        let mut nan = x.clone();
        nan[40] = f64::NAN;
        let cases: [(&[f64], usize, usize); 6] = [
            (&x, 0, 10),
            (&x, 12, 10),
            (short, 30, 50),
            (short, 50, 50),
            (short, 10, 60),
            (&nan, 16, 18),
        ];
        for t in [1, 2, 8] {
            for (x, lo, hi) in cases {
                let want = full_sweep_top(x, lo, hi);
                assert!(want.is_err(), "{lo}..={hi}");
                let got = tsad_parallel::with_threads(t, || merlin_top(x, lo, hi));
                assert_eq!(got, want, "{lo}..={hi} at {t} threads");
            }
        }
        // the longest length's single window is the smallest failure
        assert_eq!(
            merlin_top(short, 30, 50),
            Err(CoreError::BadWindow {
                window: 50,
                len: 50
            })
        );
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
