//! The contest's location without the whole profile: a certified top-1
//! search for [`super::DiscordDetector`], [`super::OnlineDiscordDetector`]
//! and [`crate::baselines::SubsequenceKnn`] (DESIGN.md §11).
//!
//! `Detector::locate` must return the first arg-max of the test part of
//! `point_scores`, bit for bit. For a profile `P` that point is
//! `max(w, train_len)`, where `w` is the first window from
//! `train_len − m + 1` on (the windows that reach the test part; the
//! prefix join scores only those from `train_len` on) with the largest
//! `P[w]`, or `train_len` itself when that maximum is not positive.
//! A DAMP-style search finds a candidate `w` with direct dot products. It is
//! accepted only when a proven bound on `|STOMP − direct|` separates it:
//! a lower bound on STOMP's `P[w]`, from `w`'s whole row, must exceed an
//! upper bound on STOMP's `P[i]` for every other such window `i`, from one
//! witness neighbour of `i`. Both bounds are in final-distance space, so
//! two scores that finalize to equal distances never separate. The bound
//! walks each diagonal from its own seed cell: row 0 for the self-join and
//! the left profile, and for the prefix join train column 0 or the first
//! test row, the two seed rows [`super::prefix_join_seeds`] gives both
//! `join_into` and this search. Anything else returns `None` and the
//! caller computes the full profile.

use std::ops::Range;

use tsad_core::series::ensure_finite;
use tsad_core::simd::{self, Backend, Isa, Kernel};
use tsad_core::windows::{subsequence_count, MomentsScratch, WindowMoments};
use tsad_parallel::ScratchPool;

use super::{corr_scorer, exclusion_zone, prefix_join_seeds, CorrScorer, Scorer};
use crate::merlin::fit;

/// Half an ulp of 1: the unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// Largest `|x|` the bounds are proven for: every product and sum they
/// form stays finite.
const BIG: f64 = 1e100;

/// Windows whose witness does not separate them get one full-row search
/// each for a better upper bound, up to this many; past it the answer
/// falls back.
const REFINE: usize = 8;

/// No witness recorded for a window.
const NONE: u32 = u32::MAX;

/// Which matrix profile a location is certified for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Join {
    /// The self-join of [`super::stomp_metric`]: neighbours on both
    /// sides.
    Both,
    /// The left profile of [`super::left_stomp`].
    Left,
    /// The train → test join of [`super::prefix_join`]: rows are the test
    /// windows `train_len..count`, columns the train windows
    /// `0..=train_len − m`, with no exclusion zone.
    Prefix,
}

/// Pooled buffers of one certified search; only capacity survives a call.
#[derive(Debug, Default)]
struct LocateSpace {
    /// Window moments, turned into [`CorrScorer`]'s tables in place.
    moments: WindowMoments,
    mscratch: MomentsScratch,
    /// STOMP's seed row `QT[0][k]`, computed as STOMP computes it; for
    /// the prefix join, window 0 against the test part only.
    first_row: Vec<f64>,
    /// The prefix join's second seed row: the first test window against
    /// the train part.
    test_row: Vec<f64>,
    /// Bound on `|seed − exact|` per diagonal `k`, for the seed row entry
    /// that starts it.
    seed_err: Vec<f64>,
    /// Upper bound on each window's squared norm.
    sq: Vec<f64>,
    /// Double-double prefix sums of `sq`: high and low parts.
    q_hi: Vec<f64>,
    q_lo: Vec<f64>,
    /// A witness per window: the neighbour that scored below the best so
    /// far, or the nearest one.
    witness: Vec<u32>,
}

static LOCATE_POOL: ScratchPool<LocateSpace> = ScratchPool::new();

/// The contest location of `x`'s z-normalized `join` profile at window
/// `m` with train prefix `train_len`, or `None` when it cannot be
/// certified: a degenerate window the profile reads (its exact per-cell
/// path), a non-finite or huge value, a tiny series or train part, an
/// empty test part, or a candidate the bounds do not separate.
pub(super) fn certified_location(
    x: &[f64],
    m: usize,
    train_len: usize,
    join: Join,
) -> Option<usize> {
    let n = x.len();
    let count = subsequence_count(n, m).ok()?;
    let excl = exclusion_zone(m);
    let fits = match join {
        // every window has a neighbour outside its exclusion zone, so the
        // self-join caps nothing
        Join::Both | Join::Left => count >= 2 * excl + 2,
        // at least one train window
        Join::Prefix => train_len >= m,
    };
    // the index fits a witness
    if train_len >= n || !fits || count >= NONE as usize {
        return None;
    }
    ensure_finite(x).ok()?;
    if x.iter().any(|v| v.abs() > BIG) {
        return None;
    }
    let lo = train_len.saturating_sub(m - 1);
    let start = match join {
        Join::Both => lo,
        // the left profile's warm-up windows score 0
        Join::Left => lo.max((excl + 2 * m).min(count)),
        // the train windows score 0
        Join::Prefix => train_len,
    };
    if start >= count {
        // every window reaching the test part scores 0
        return Some(train_len);
    }
    let backend = simd::current();
    let mut space = LOCATE_POOL.take(LocateSpace::default);
    let found = locate_in(x, m, train_len, start, join, backend, &mut space);
    LOCATE_POOL.put(space);
    found.map(|w| w.max(train_len))
}

/// [`certified_location`]'s search and proof over pooled buffers: the
/// certified first window of largest profile value from `start` on.
fn locate_in(
    x: &[f64],
    m: usize,
    train_len: usize,
    start: usize,
    join: Join,
    backend: Backend,
    space: &mut LocateSpace,
) -> Option<usize> {
    let n = x.len();
    let count = n - m + 1;
    let t = train_len;
    let LocateSpace {
        moments,
        mscratch,
        first_row,
        test_row,
        seed_err,
        sq,
        q_hi,
        q_lo,
        witness,
    } = space;
    fit(&mut moments.means, count);
    fit(&mut moments.stds, count);
    WindowMoments::compute_with(x, m, mscratch, moments).ok()?;
    // mirror the profile kernels' degeneracy test and seeds
    match join {
        Join::Both | Join::Left => {
            if moments.stds.iter().any(|&s| s < 1e-9) {
                return None;
            }
            fit(first_row, n);
            tsad_core::fft::sliding_dot_product_into(&x[..m], x, first_row).ok()?;
        }
        Join::Prefix => {
            fit(first_row, n - t);
            fit(test_row, t);
            if prefix_join_seeds(x, m, t, &moments.stds, first_row, test_row).ok()? {
                return None;
            }
        }
    }
    fit(witness, count);
    fit(seed_err, count);
    fit(sq, count);
    fit(q_hi, count + 1);
    fit(q_lo, count + 1);
    let scorer = corr_scorer(moments, m);
    let certify = Certify {
        x,
        m,
        train_len,
        start,
        join,
        scorer,
        first_row,
        test_row,
        seed_err,
        sq,
        q_hi,
        q_lo,
        witness,
    };
    simd::dispatch(backend, certify)
}

/// The search for a candidate and its proof, written once over an
/// [`Isa`] and compiled per SIMD backend by [`simd::dispatch`].
struct Certify<'a> {
    x: &'a [f64],
    m: usize,
    train_len: usize,
    start: usize,
    join: Join,
    scorer: CorrScorer<'a>,
    first_row: &'a [f64],
    test_row: &'a [f64],
    seed_err: &'a mut Vec<f64>,
    sq: &'a mut Vec<f64>,
    q_hi: &'a mut Vec<f64>,
    q_lo: &'a mut Vec<f64>,
    witness: &'a mut Vec<u32>,
}

impl Kernel for Certify<'_> {
    type Output = Option<usize>;

    #[inline(always)]
    fn run<I: Isa>(self) -> Option<usize> {
        let Certify {
            x,
            m,
            train_len: t,
            start,
            join,
            scorer,
            first_row,
            test_row,
            seed_err,
            sq,
            q_hi,
            q_lo,
            witness,
        } = self;
        let count = x.len() - m + 1;
        let excl = exclusion_zone(m);
        let win = |i: usize| &x[i..i + m];
        let mf = m as f64;
        // `γ_m`: a dot product of `m` terms, summed in any order, is
        // within `γ_m·Σ|a_t·b_t|` of the exact one.
        let gamma = (mf + 1.0) * U * 1.01;

        // Squared window norms, rounded up, and their prefix sums as
        // double-double pairs, so a range sum keeps its relative accuracy
        // however large the prefix before it is.
        for i in 0..count {
            // a plain loop: a closure would not inline the dot product
            // under the dispatched target features
            sq.push(I::dot(win(i), win(i)) * (1.0 + 2.0 * gamma));
        }
        let (mut hi, mut lo) = (0.0f64, 0.0f64);
        q_hi.push(hi);
        q_lo.push(lo);
        for &v in sq.iter() {
            // Knuth's TwoSum: `s + e == hi + v` exactly
            let s = hi + v;
            let bv = s - hi;
            lo += (hi - (s - bv)) + (v - bv);
            hi = s;
            q_hi.push(hi);
            q_lo.push(lo);
        }

        // The seed of every diagonal `k`, STOMP's dot product of the
        // windows `p` and `p + k` of its seed cell, measured against a
        // direct one.
        let norm = |i: usize| sq[i].sqrt() * (1.0 + 2.0 * U);
        let err = |seed: f64, d: f64, p: usize, k: usize| {
            let measured = (seed - d).abs() * (1.0 + 2.0 * U);
            (measured + gamma * norm(p) * norm(p + k)) * (1.0 + 4.0 * U)
        };
        seed_err.resize(count, 0.0);
        match join {
            Join::Both | Join::Left => {
                each_dot::<I>(x, m, 0, excl..count, |k, d| {
                    seed_err[k] = err(first_row[k], d, 0, k);
                    Some(())
                });
            }
            Join::Prefix => {
                // diagonals `k ≥ t` start in train column 0 ...
                each_dot::<I>(x, m, 0, t..count, |k, d| {
                    seed_err[k] = err(first_row[k - t], d, 0, k);
                    Some(())
                });
                // ... and the others in the first test row
                each_dot::<I>(x, m, t, 1..t - m + 1, |j, d| {
                    seed_err[t - j] = err(test_row[j], d, j, t - j);
                    Some(())
                });
            }
        }

        let bounds = Bounds {
            scorer: &scorer,
            sq,
            q_hi,
            q_lo,
            seed_err,
            split: if join == Join::Prefix { t } else { 0 },
            gamma,
            growth: 1.0 + 4.1 * U * count as f64,
        };
        let row = |i: usize| neighbours(join, i, m, t, count);
        let w = search::<I>(x, m, start, &scorer, witness, row)?;
        let floor = row_bound::<I>(x, m, &bounds, w, row(w), false)?;
        let least = scorer.finalize(floor);
        if least.is_nan() || least <= 0.0 {
            return None;
        }
        let mut refined = 0;
        for i in (start..count).filter(|&i| i != w) {
            let j = witness[i] as usize;
            let [before, after] = row(i);
            let valid = before.contains(&j) || after.contains(&j);
            let ceiling = if valid {
                let qd = I::dot(win(i), win(j));
                bounds.score(i, j, qd)?.1
            } else {
                f64::INFINITY
            };
            if scorer.finalize(ceiling) < least {
                continue;
            }
            refined += 1;
            if refined > REFINE {
                return None;
            }
            let ceiling = row_bound::<I>(x, m, &bounds, i, row(i), true)?;
            if scorer.finalize(ceiling) >= least {
                return None;
            }
        }
        Some(w)
    }
}

/// The bound tables of one series: [`Bounds::score`] brackets the score
/// STOMP gives a pair, from a direct dot product of it.
struct Bounds<'a> {
    scorer: &'a CorrScorer<'a>,
    /// Upper bounds on the squared window norms.
    sq: &'a [f64],
    q_hi: &'a [f64],
    q_lo: &'a [f64],
    /// Bound on the seed error of each diagonal.
    seed_err: &'a [f64],
    /// Diagonal `k` is seeded at its cell `(split − k, split)` when
    /// `k < split`, else at `(0, k)`: the prefix join's first test row
    /// (`split = train_len`) or row 0 (`split = 0`).
    split: usize,
    /// `γ_m` of a direct dot product.
    gamma: f64,
    /// Bound on the growth `(1 + 2.01u)^count` of an error carried along a
    /// diagonal.
    growth: f64,
}

impl Bounds<'_> {
    /// Upper bound on the sum of the squared norms of windows `a..b`.
    #[inline(always)]
    fn sq_sum(&self, a: usize, b: usize) -> f64 {
        let d_hi = self.q_hi[b] - self.q_hi[a];
        let d_lo = self.q_lo[b] - self.q_lo[a];
        let t = b as f64 * U;
        (d_hi + d_lo) + 8.0 * U * (d_hi.abs() + d_lo.abs()) + 8.0 * t * t * self.q_hi[b]
    }

    /// Upper bound on `|QT − exact|` for STOMP's dot product of windows
    /// `p < q`: the seed error of diagonal `k = q − p` plus the rounding
    /// of the recurrence steps that carry it from its seed cell `(s, s + k)`
    /// to `(p, q)`, each at most
    /// `u·(5.02·N_{r−1}N_{r−1+k} + 2.01·N_r N_{r+k})`, summed by
    /// Cauchy–Schwarz over the prefix sums of squared norms.
    #[inline(always)]
    fn stomp_err(&self, p: usize, q: usize) -> f64 {
        let k = q - p;
        let s = self.split.saturating_sub(k);
        let walk = self.sq_sum(s, p + 1).sqrt() * self.sq_sum(s + k, q + 1).sqrt();
        self.growth * (self.seed_err[k] + 8.0 * U * walk) * (1.0 + 8.0 * U)
    }

    /// `[lo, hi]` around STOMP's score of the pair `(i, j)`, given the
    /// direct dot product `qd` of the two windows; `None` if a bound is
    /// not finite.
    #[inline(always)]
    fn score(&self, i: usize, j: usize, qd: f64) -> Option<(f64, f64)> {
        let CorrScorer { a, inv, .. } = *self.scorer;
        let s = self.scorer.score(i, j, qd);
        let nn = self.sq[i].sqrt() * self.sq[j].sqrt() * (1.0 + 4.0 * U);
        let e_dir = self.gamma * nn;
        let e_stomp = self.stomp_err(i.min(j), i.max(j));
        let w = inv[i] * inv[j];
        let aa = (a[i] * a[j]).abs();
        let delta =
            w * ((e_stomp + e_dir) * (1.0 + 8.0 * U) + 8.0 * U * (nn + 2.0 * aa)) * (1.0 + 8.0 * U);
        let pad = delta + (s.abs() + delta) * 4.0 * U;
        (pad.is_finite() && s.is_finite()).then_some((s - pad, s + pad))
    }
}

/// The least lower bound (`upper == false`) or the least upper bound of
/// STOMP's scores over window `i`'s neighbours `rows`: bounds of the min
/// that STOMP's profile entry finalizes.
#[inline(always)]
fn row_bound<I: Isa>(
    x: &[f64],
    m: usize,
    bounds: &Bounds<'_>,
    i: usize,
    rows: [Range<usize>; 2],
    upper: bool,
) -> Option<f64> {
    let mut least = f64::INFINITY;
    for r in rows {
        each_dot::<I>(x, m, i, r, |j, qd| {
            let (lo, hi) = bounds.score(i, j, qd)?;
            least = least.min(if upper { hi } else { lo });
            Some(())
        })?;
    }
    least.is_finite().then_some(least)
}

/// Calls `f(j, dot)` with the direct dot product of window `i` and each
/// window `j` of `r`, in order, four at a time; stops at the first `None`.
#[inline(always)]
fn each_dot<I: Isa>(
    x: &[f64],
    m: usize,
    i: usize,
    r: Range<usize>,
    mut f: impl FnMut(usize, f64) -> Option<()>,
) -> Option<()> {
    let win = |i: usize| &x[i..i + m];
    let xi = win(i);
    let mut j = r.start;
    while j + 4 <= r.end {
        let qd = I::dot4(xi, [win(j), win(j + 1), win(j + 2), win(j + 3)]);
        for (g, &q) in qd.iter().enumerate() {
            f(j + g, q)?;
        }
        j += 4;
    }
    for j in j..r.end {
        f(j, I::dot(xi, win(j)))?;
    }
    Some(())
}

/// The windows `join`'s profile takes window `i`'s neighbours from: the
/// earlier ones, and for the self-join the later ones, outside the
/// exclusion zone; for the prefix join the train windows, every one at
/// least `m` before a test window.
#[inline(always)]
fn neighbours(join: Join, i: usize, m: usize, train_len: usize, count: usize) -> [Range<usize>; 2] {
    let excl = exclusion_zone(m);
    let before = 0..(i + 1).saturating_sub(excl);
    match join {
        Join::Both => [before, (i + excl).min(count)..count],
        Join::Left => [before, 0..0],
        Join::Prefix => [0..train_len + 1 - m, 0..0],
    }
}

/// The top-1 search, after DAMP (Lu et al., "Matrix Profile XXIV", KDD
/// 2022): windows from `start` on, in order, each abandoned as soon as
/// one neighbour scores below the best nearest-neighbour score so far.
/// The first try is the window `step` after the witness of the window
/// `step` before, which a repeating series keeps close; then the
/// neighbours nearest in time first, the earlier ones (`row(i)[0]`)
/// backwards and then the later ones. Only windows that set a new best
/// scan their whole row, and a profile that climbs for about `m` windows
/// into a discord sets one at every window; so a first pass visits every
/// `⌊√m⌋`-th window, and the second the rest against the best that pass
/// found. Fills `witness` for every window and returns one of largest
/// score (the proof rejects ties).
#[inline(always)]
fn search<I: Isa>(
    x: &[f64],
    m: usize,
    start: usize,
    scorer: &CorrScorer<'_>,
    witness: &mut Vec<u32>,
    row: impl Fn(usize) -> [Range<usize>; 2],
) -> Option<usize> {
    let count = x.len() - m + 1;
    let win = |i: usize| &x[i..i + m];
    witness.clear();
    witness.resize(count, NONE);
    let mut best = None;
    let mut bsf = f64::NEG_INFINITY;
    let stride = m.isqrt();
    let coarse = (start..count).step_by(stride).map(|i| (i, stride));
    let fine = (start..count).map(|i| (i, 1));
    'window: for (i, step) in coarse.chain(fine) {
        if witness[i] != NONE {
            // visited by the first pass
            continue;
        }
        let xi = win(i);
        let rows = row(i);
        let prev = if i >= start + step {
            witness[i - step]
        } else {
            NONE
        };
        if prev != NONE {
            let j = prev as usize + step;
            let valid = rows.iter().any(|r| r.contains(&j));
            if valid && scorer.score(i, j, I::dot(xi, win(j))) < bsf {
                witness[i] = j as u32;
                continue;
            }
        }
        let (mut nn, mut nn_at) = (f64::INFINITY, NONE);
        for (r, back) in rows.into_iter().zip([true, false]) {
            let len = r.len();
            let mut k = 0;
            while k < len {
                let width = (len - k).min(4);
                let js: [usize; 4] = std::array::from_fn(|g| {
                    let step = k + g.min(width - 1);
                    if back {
                        r.end - 1 - step
                    } else {
                        r.start + step
                    }
                });
                let mut qd = [0.0; 4];
                if width == 4 {
                    qd = I::dot4(xi, js.map(win));
                } else {
                    for g in 0..width {
                        qd[g] = I::dot(xi, win(js[g]));
                    }
                }
                for g in 0..width {
                    let s = scorer.score(i, js[g], qd[g]);
                    if s < nn {
                        nn = s;
                        nn_at = js[g] as u32;
                        if s < bsf {
                            witness[i] = nn_at;
                            continue 'window;
                        }
                    }
                }
                k += width;
            }
        }
        witness[i] = nn_at;
        if nn > bsf {
            bsf = nn;
            best = Some(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_outside_the_proof_are_not_certified() {
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.3).sin()).collect();
        for join in [Join::Both, Join::Left, Join::Prefix] {
            assert!(certified_location(&x, 16, 200, join).is_some(), "{join:?}");
            let mut y = x.clone();
            y[300] = f64::NAN;
            assert_eq!(certified_location(&y, 16, 200, join), None, "{join:?} NaN");
            y[300] = 2.0 * BIG;
            assert_eq!(certified_location(&y, 16, 200, join), None, "{join:?} huge");
            for (m, t) in [(0, 200), (401, 200), (16, 400), (16, 401)] {
                assert_eq!(
                    certified_location(&x, m, t, join),
                    None,
                    "{join:?} m {m} t {t}"
                );
            }
        }
        // one train window is enough for the prefix join
        assert!(certified_location(&x, 16, 16, Join::Prefix).is_some());
        assert_eq!(certified_location(&x, 16, 15, Join::Prefix), None);
    }

    #[test]
    fn the_prefix_join_reads_past_degenerate_straddling_windows() {
        // flat windows across the split only: `join_into` keeps the
        // correlation scorer, so the proof need not fall back
        let mut x: Vec<f64> = (0..400)
            .map(|i| (i as f64 * 0.3).sin() + 0.01 * (i as f64 * 1.7).cos())
            .collect();
        x[190..210].fill(0.5);
        x[300..305].iter_mut().for_each(|v| *v *= 3.0);
        assert!(certified_location(&x, 16, 200, Join::Prefix).is_some());
        // the self-join reads them, and does
        assert_eq!(certified_location(&x, 16, 200, Join::Both), None);
    }
}
