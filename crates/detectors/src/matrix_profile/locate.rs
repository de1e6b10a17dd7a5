//! The contest's location without the whole profile: a certified top-1
//! search for [`super::DiscordDetector`] and
//! [`super::OnlineDiscordDetector`] (DESIGN.md §11).
//!
//! `Detector::locate` must return the first arg-max of the test part of
//! `point_scores`, bit for bit. For a profile `P` that point is
//! `max(w, train_len)`, where `w` is the first window from
//! `train_len − m + 1` on (the windows that reach the test part) with the
//! largest `P[w]`, or `train_len` itself when that maximum is not positive.
//! A DAMP-style search finds a candidate `w` with direct dot products. It is
//! accepted only when a proven bound on `|STOMP − direct|` separates it:
//! a lower bound on STOMP's `P[w]`, from `w`'s whole row, must exceed an
//! upper bound on STOMP's `P[i]` for every other such window `i`, from one
//! witness neighbour of `i`. Both bounds are in final-distance space, so
//! two scores that finalize to equal distances never separate. Anything
//! else returns `None` and the caller computes the full profile.

use std::ops::Range;

use tsad_core::series::ensure_finite;
use tsad_core::simd::{self, Backend, Isa, Kernel};
use tsad_core::windows::{subsequence_count, MomentsScratch, WindowMoments};
use tsad_parallel::ScratchPool;

use super::{corr_scorer, exclusion_zone, CorrScorer, Scorer};
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
    /// The self-join of [`super::stomp_metric`].
    SelfJoin,
    /// The left profile of [`super::left_stomp`].
    Left,
}

/// Pooled buffers of one certified search; only capacity survives a call.
#[derive(Debug, Default)]
struct LocateSpace {
    /// Window moments, turned into [`CorrScorer`]'s tables in place.
    moments: WindowMoments,
    mscratch: MomentsScratch,
    /// STOMP's seed row `QT[0][k]`, computed as STOMP computes it.
    first_row: Vec<f64>,
    /// Bound on `|first_row[k] − exact|` per diagonal.
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
/// certified: a degenerate window (the profile's exact per-cell path), a
/// non-finite or huge value, a tiny series, an empty test part, or a
/// candidate the bounds do not separate.
pub(super) fn certified_location(
    x: &[f64],
    m: usize,
    train_len: usize,
    join: Join,
) -> Option<usize> {
    let n = x.len();
    let count = subsequence_count(n, m).ok()?;
    let excl = exclusion_zone(m);
    // Every window has a neighbour outside its exclusion zone, so the
    // self-join caps nothing; the index fits a witness.
    if train_len >= n || count < 2 * excl + 2 || count >= NONE as usize {
        return None;
    }
    ensure_finite(x).ok()?;
    if x.iter().any(|v| v.abs() > BIG) {
        return None;
    }
    let lo = train_len.saturating_sub(m - 1);
    let start = match join {
        Join::SelfJoin => lo,
        // the left profile's warm-up windows score 0
        Join::Left => lo.max((excl + 2 * m).min(count)),
    };
    if start >= count {
        // every window reaching the test part scores 0
        return Some(train_len);
    }
    let backend = simd::current();
    let mut space = LOCATE_POOL.take(LocateSpace::default);
    let found = locate_in(x, m, start, join, backend, &mut space);
    LOCATE_POOL.put(space);
    found.map(|w| w.max(train_len))
}

/// [`certified_location`]'s search and proof over pooled buffers: the
/// certified first window of largest profile value from `start` on.
fn locate_in(
    x: &[f64],
    m: usize,
    start: usize,
    join: Join,
    backend: Backend,
    space: &mut LocateSpace,
) -> Option<usize> {
    let n = x.len();
    let count = n - m + 1;
    let LocateSpace {
        moments,
        mscratch,
        first_row,
        seed_err,
        sq,
        q_hi,
        q_lo,
        witness,
    } = space;
    fit(&mut moments.means, count);
    fit(&mut moments.stds, count);
    WindowMoments::compute_with(x, m, mscratch, moments).ok()?;
    // mirror the profile kernels' degeneracy test
    if moments.stds.iter().any(|&s| s < 1e-9) {
        return None;
    }
    fit(first_row, n);
    tsad_core::fft::sliding_dot_product_into(&x[..m], x, first_row).ok()?;
    fit(witness, count);
    fit(seed_err, count);
    fit(sq, count);
    fit(q_hi, count + 1);
    fit(q_lo, count + 1);
    let scorer = corr_scorer(moments, m);
    let certify = Certify {
        x,
        m,
        start,
        join,
        scorer,
        first_row,
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
    start: usize,
    join: Join,
    scorer: CorrScorer<'a>,
    first_row: &'a [f64],
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
            start,
            join,
            scorer,
            first_row,
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

        // The seed of every diagonal, measured against direct dots.
        let norm = |i: usize| sq[i].sqrt() * (1.0 + 2.0 * U);
        seed_err.resize(count, 0.0);
        each_dot::<I>(x, m, 0, excl..count, |j, d| {
            let measured = (first_row[j] - d).abs() * (1.0 + 2.0 * U);
            seed_err[j] = (measured + gamma * norm(0) * norm(j)) * (1.0 + 4.0 * U);
            Some(())
        });

        let bounds = Bounds {
            scorer: &scorer,
            sq,
            q_hi,
            q_lo,
            seed_err,
            gamma,
            growth: 1.0 + 4.1 * U * count as f64,
        };
        let w = search::<I>(x, m, start, join, &scorer, witness)?;
        let row = |i: usize| neighbours(join, i, excl, count);
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
    /// `p < q`: the seed error of diagonal `q − p` plus the rounding of
    /// the `p` recurrence steps that carry it to row `p`, each at most
    /// `u·(5.02·N_{s−1}N_{s−1+k} + 2.01·N_s N_{s+k})`, summed by
    /// Cauchy–Schwarz over the prefix sums of squared norms.
    #[inline(always)]
    fn stomp_err(&self, p: usize, q: usize) -> f64 {
        let k = q - p;
        let walk = self.sq_sum(0, p + 1).sqrt() * self.sq_sum(k, q + 1).sqrt();
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
/// exclusion zone.
#[inline(always)]
fn neighbours(join: Join, i: usize, excl: usize, count: usize) -> [Range<usize>; 2] {
    let before = 0..(i + 1).saturating_sub(excl);
    match join {
        Join::SelfJoin => [before, (i + excl).min(count)..count],
        Join::Left => [before, 0..0],
    }
}

/// The top-1 search, after DAMP (Lu et al., "Matrix Profile XXIV", KDD
/// 2022): windows from `start` on, in order, each abandoned as soon as
/// one neighbour scores below the best nearest-neighbour score so far.
/// The first try is the window after the previous window's witness, which
/// a repeating series keeps close; then the neighbours nearest in time
/// first, the earlier ones backwards and then the later ones. Fills
/// `witness` for every window it passes and returns the first window of
/// largest score: only windows that set a new best scan their whole row.
#[inline(always)]
fn search<I: Isa>(
    x: &[f64],
    m: usize,
    start: usize,
    join: Join,
    scorer: &CorrScorer<'_>,
    witness: &mut Vec<u32>,
) -> Option<usize> {
    let count = x.len() - m + 1;
    let excl = exclusion_zone(m);
    let win = |i: usize| &x[i..i + m];
    witness.clear();
    witness.resize(count, NONE);
    let mut best = None;
    let mut bsf = f64::NEG_INFINITY;
    'window: for i in start..count {
        let xi = win(i);
        let rows = neighbours(join, i, excl, count);
        let prev = if i > start { witness[i - 1] } else { NONE };
        if prev != NONE {
            let j = prev as usize + 1;
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
