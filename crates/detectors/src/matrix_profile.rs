//! Matrix profiles on the STOMP diagonal kernels — the self-join
//! ([`stomp`]), the left profile ([`left_stomp`]) and the train→test
//! prefix join ([`prefix_join`]) — plus STAMP (MASS-per-query,
//! `O(n² log n)`, kept as an independent reference implementation) and a
//! brute-force `O(n²·m)` oracle for testing.
//!
//! The matrix profile value at `i` is the z-normalized Euclidean distance
//! from subsequence `i` to its nearest non-trivial neighbor. Its maximum is
//! the *time series discord* — the anomaly score the paper plots in Fig. 8
//! (NYC taxi) and Fig. 13 (ECG), and recommends as a strong decades-old
//! baseline.
//!
//! All three profiles walk the distance matrix along its diagonals with the
//! incremental dot-product recurrence, so each cell costs `O(1)`: the
//! self-join `O(n²)`, the prefix join `O(n_test·n_train)` for the test
//! windows against the train windows — where per-window MASS pays an FFT
//! sliding dot product, a moments pass and three allocations per test
//! window.
//!
//! One walker per kernel advances four independent SIMD lane groups of
//! adjacent diagonals per row (16 diagonals under AVX2), so the four
//! dependent dot-product chains overlap in the core instead of one chain
//! bounding each row; a band's last diagonals, too few for four groups,
//! take one group and then the scalar walk. Every lane runs the scalar
//! operation chain and every merge is order-independent, so the grouping
//! never changes a bit of the result (DESIGN.md §11).
//!
//! The archive contest asks the discord detectors and subsequence 1-NN for
//! one location, not a profile. Their `Detector::locate` runs a certified
//! top-1 search first (`locate.rs`): a DAMP-style search with direct dot
//! products finds the candidate, and a proven bound on how far STOMP's
//! rounded scores can stray from direct ones must separate it from every
//! other window that reaches the test part. Otherwise, and for degenerate
//! or Euclidean series, they compute the full profile or prefix join, so
//! the answer is always its own arg-max, bit for bit (DESIGN.md §11).

use std::ops::Range;

use tsad_core::dist::{dot_to_znorm_dist, mass_with_moments};
use tsad_core::error::{CoreError, Result};
use tsad_core::series::ensure_finite;
use tsad_core::simd::{self, Backend, F64Lanes, Isa, Kernel};
use tsad_core::windows::{MomentsScratch, WindowMoments};
use tsad_core::{stats, TimeSeries};
use tsad_obs::{Counter, Span};
use tsad_parallel::ScratchPool;

mod locate;

use locate::{certified_location, Join};

/// Wall-clock time each worker spends filling one band of diagonals. The
/// per-band distribution is what shows whether the band fan-out is balanced.
static STOMP_BAND_NS: Span = Span::new("detectors.stomp.band_ns");
/// [`DiscordDetector::locate`] answers certified without the profile.
static DISCORD_CERTIFIED: Counter = Counter::new("detectors.discord.locate_certified");
/// [`DiscordDetector::locate`] answers from the full profile.
static DISCORD_FALLBACK: Counter = Counter::new("detectors.discord.locate_fallback");
/// [`OnlineDiscordDetector::locate`] answers certified without the profile.
static LEFT_CERTIFIED: Counter = Counter::new("detectors.left_discord.locate_certified");
/// [`OnlineDiscordDetector::locate`] answers from the full profile.
static LEFT_FALLBACK: Counter = Counter::new("detectors.left_discord.locate_fallback");

use crate::Detector;

/// Distance metric for the matrix profile.
///
/// Z-normalized distance is the standard choice (amplitude/offset
/// invariant). Raw Euclidean — the metric of Yankov et al.'s disk-aware
/// discords — is preferable when window amplitude is meaningful and when
/// additive noise would dominate low-variance windows after normalization
/// (the paper's Fig. 13 ECG is exactly that case: its flat diastolic
/// segments z-normalize to pure noise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMetric {
    /// Z-normalized Euclidean distance (the matrix-profile default).
    #[default]
    ZNormalized,
    /// Plain Euclidean distance between raw subsequences.
    Euclidean,
}

/// A computed self-join matrix profile.
#[derive(Debug, Clone)]
pub struct MatrixProfile {
    /// `profile[i]` = z-normalized distance from window `i` to its nearest
    /// non-trivial neighbor.
    pub profile: Vec<f64>,
    /// `index[i]` = start of that nearest neighbor; exact distance ties are
    /// resolved to the smallest neighbor index. Windows that received no
    /// admissible neighbor (tiny inputs; the left profile's warm-up prefix;
    /// the prefix join's train windows) keep the placeholder 0 — check
    /// `profile[i]` before trusting `index[i]` in those regions.
    pub index: Vec<usize>,
    /// Subsequence length.
    pub window: usize,
}

impl MatrixProfile {
    /// The discord: the window whose nearest neighbor is farthest away.
    /// Returns `(start_index, distance)`.
    pub fn discord(&self) -> Result<(usize, f64)> {
        let i = stats::argmax(&self.profile)?;
        Ok((i, self.profile[i]))
    }

    /// Expands the window-aligned profile to a per-point score of the
    /// original series length: each point receives the maximum profile
    /// value among windows covering it. This is how the "discord score" is
    /// rendered against per-point labels in the paper's figures.
    pub fn point_scores(&self, series_len: usize) -> Vec<f64> {
        let mut out = vec![0.0; series_len];
        for (i, &p) in self.profile.iter().enumerate() {
            for o in out.iter_mut().skip(i).take(self.window) {
                if p > *o {
                    *o = p;
                }
            }
        }
        out
    }
}

/// Exclusion-zone half-width: `m / 2` rounded up, the standard choice that
/// prevents trivial self-matches.
pub fn exclusion_zone(m: usize) -> usize {
    m.div_ceil(2)
}

/// STOMP: exact self-join matrix profile in `O(n²)` time, `O(n)` memory,
/// under the z-normalized metric.
pub fn stomp(x: &[f64], m: usize) -> Result<MatrixProfile> {
    stomp_metric(x, m, ProfileMetric::ZNormalized)
}

/// Per-cell scoring strategy for the diagonal STOMP kernels.
///
/// The band scan minimizes the *score*, not necessarily the distance: any
/// strictly decreasing transform of similarity works for the argmin, and
/// [`Scorer::finalize`] maps the winning score back to the metric's
/// distance once per window instead of once per `O(n²)` cell. `score` must
/// be a pure function of `(i, j, qt)` — no call-order state — which is
/// what keeps the banded scan thread-count invariant.
trait Scorer: Sync {
    /// Score of the pair `(i, j)` with sliding dot product `qt`; lower
    /// means nearer.
    fn score(&self, i: usize, j: usize, qt: f64) -> f64;
    /// Maps a merged score back to the metric's distance. Must be weakly
    /// monotone so the argmin carries over.
    fn finalize(&self, s: f64) -> f64;
}

/// A [`Scorer`] that can evaluate a lockstep group of `L::LANES` adjacent
/// diagonals at once. Lane `g` holds the pair `(i, j0 + g)` (`FWD`, the
/// self-join's ascending columns) or `(i, j0 - g)` (the left profile's
/// descending columns). Implementations must run, per lane, the **exact
/// operation chain** of [`Scorer::score`] — lanewise IEEE arithmetic then
/// makes a vector group bitwise equal to the scalar walk, which is what
/// keeps the banded scan thread-count invariant under SIMD (DESIGN.md §11).
trait LaneScorer: Scorer {
    /// Lane-group score; see the trait docs for the lane-to-pair mapping.
    ///
    /// # Safety
    /// The scorer's lookup tables must be readable at every lane's column:
    /// `j0..j0 + L::LANES` when `FWD`, else `j0 + 1 - L::LANES..=j0`.
    unsafe fn score_lanes<L: F64Lanes, const FWD: bool>(&self, i: usize, j0: usize, qt: L) -> L;
}

/// Loads the lane group of table values for the column side: ascending from
/// `j0` for the self-join, descending from `j0` for the left profile (the
/// reversed load keeps lane `g` ↔ column `j0 - g`).
///
/// # Safety
/// See [`LaneScorer::score_lanes`].
#[inline(always)]
unsafe fn load_cols<L: F64Lanes, const FWD: bool>(table: &[f64], j0: usize) -> L {
    unsafe {
        if FWD {
            L::load(table.as_ptr().add(j0))
        } else {
            L::load_reversed(table.as_ptr().add(j0 + 1 - L::LANES))
        }
    }
}

/// Z-normalized scoring for series with no degenerate (constant) windows:
/// minimizes the negated Pearson correlation
/// `-(qt − a_i·a_j)·inv_i·inv_j` with `a_i = √m·μ_i` and
/// `inv_i = 1/(√m·σ_i)`, replacing the per-cell divide/clamp/sqrt of
/// [`dot_to_znorm_dist`] with two multiplies. `finalize` converts via
/// `d = √(2m(1 + s))`; correlation noise beyond ±1 clamps at 0 on the
/// near side exactly like the old path and only inflates the far side by
/// rounding-level amounts that never win a minimum.
struct CorrScorer<'a> {
    a: &'a [f64],
    inv: &'a [f64],
    two_m: f64,
}

impl Scorer for CorrScorer<'_> {
    #[inline]
    fn score(&self, i: usize, j: usize, qt: f64) -> f64 {
        -((qt - self.a[i] * self.a[j]) * (self.inv[i] * self.inv[j]))
    }
    #[inline]
    fn finalize(&self, s: f64) -> f64 {
        (self.two_m * (1.0 + s)).max(0.0).sqrt()
    }
}

impl LaneScorer for CorrScorer<'_> {
    #[inline(always)]
    unsafe fn score_lanes<L: F64Lanes, const FWD: bool>(&self, i: usize, j0: usize, qt: L) -> L {
        let (aj, invj) = unsafe {
            (
                load_cols::<L, FWD>(self.a, j0),
                load_cols::<L, FWD>(self.inv, j0),
            )
        };
        // per lane: -((qt - a_i*a_j) * (inv_i*inv_j)), exactly as `score`
        qt.sub(L::splat(self.a[i]).mul(aj))
            .mul(L::splat(self.inv[i]).mul(invj))
            .neg()
    }
}

/// Exact z-normalized scoring, used whenever the series contains a
/// degenerate window: [`dot_to_znorm_dist`]'s explicit constant-window
/// conventions (two constants at distance 0) cannot be expressed in the
/// correlation form, so these inputs keep the historical per-cell path
/// bit for bit.
struct ZnormScorer<'a> {
    m: usize,
    means: &'a [f64],
    stds: &'a [f64],
}

impl Scorer for ZnormScorer<'_> {
    #[inline]
    fn score(&self, i: usize, j: usize, qt: f64) -> f64 {
        dot_to_znorm_dist(
            qt,
            self.m,
            self.means[i],
            self.stds[i],
            self.means[j],
            self.stds[j],
        )
    }
    #[inline]
    fn finalize(&self, s: f64) -> f64 {
        s
    }
}

impl LaneScorer for ZnormScorer<'_> {
    /// The branchy degenerate-window conventions don't vectorize; degenerate
    /// inputs dispatch with [`Backend::Scalar`] (see [`run_scan`]), so this
    /// per-lane fallback only ever runs with the one-lane scalar type.
    #[inline(always)]
    unsafe fn score_lanes<L: F64Lanes, const FWD: bool>(&self, i: usize, j0: usize, qt: L) -> L {
        let q = qt.to_array();
        let mut out = [0.0f64; 4];
        for (g, slot) in out.iter_mut().enumerate().take(L::LANES) {
            let j = if FWD { j0 + g } else { j0 - g };
            *slot = self.score(i, j, q[g]);
        }
        unsafe { L::load(out.as_ptr()) }
    }
}

/// Raw-Euclidean scoring: minimizes the squared distance
/// `‖a‖² + ‖b‖² − 2·qt` and takes one square root per window at the end.
struct EuclidScorer<'a> {
    sq_norms: &'a [f64],
}

impl Scorer for EuclidScorer<'_> {
    #[inline]
    fn score(&self, i: usize, j: usize, qt: f64) -> f64 {
        let s = self.sq_norms[i] + self.sq_norms[j] - 2.0 * qt;
        // hardware-max (maxpd) semantics, spelled out so the scalar chain is
        // bit-identical to the vector lanes' clamp
        if s > 0.0 {
            s
        } else {
            0.0
        }
    }
    #[inline]
    fn finalize(&self, s: f64) -> f64 {
        s.sqrt()
    }
}

impl LaneScorer for EuclidScorer<'_> {
    #[inline(always)]
    unsafe fn score_lanes<L: F64Lanes, const FWD: bool>(&self, i: usize, j0: usize, qt: L) -> L {
        let sj = unsafe { load_cols::<L, FWD>(self.sq_norms, j0) };
        // per lane: (sq_i + sq_j - 2·qt) clamped at zero, exactly as `score`
        L::splat(self.sq_norms[i])
            .add(sj)
            .sub(L::splat(2.0).mul(qt))
            .max(L::splat(0.0))
    }
}

/// Per-worker band buffers, pooled across calls (the workspace spawns
/// threads per call, so persistence has to live outside the workers; see
/// `tsad_parallel::ScratchPool`). All vectors are fully re-initialized on
/// every use — only capacity survives.
#[derive(Debug, Default)]
struct BandSpace {
    scores: Vec<f64>,
    index: Vec<usize>,
    /// Dot-product checkpoint per diagonal of the band, carried across row
    /// blocks (see [`BandKernel::fill`]).
    qt_save: Vec<f64>,
}

static BAND_POOL: ScratchPool<BandSpace> = ScratchPool::new();

/// Merges candidate `(s, j)` into profile slot `r` under the
/// order-independent tie rule: the surviving entry is the **lexicographic
/// minimum** of every `(score, neighbor index)` candidate the slot ever
/// sees — strict improvement wins, exact score ties go to the smaller
/// neighbor index. Lexicographic minima are associative and commutative,
/// so the final state is identical no matter how candidates are grouped
/// into lanes, row blocks, bands, or threads; this rule is what lets the
/// SIMD kernels walk diagonals in lockstep groups and still stay bitwise
/// thread-count invariant. NaN scores never displace anything (both
/// comparisons are false), matching the historical strict-`<` behavior.
#[inline(always)]
fn merge_cell(scores: &mut [f64], index: &mut [usize], r: usize, s: f64, j: usize) {
    if s < scores[r] || (s == scores[r] && j < index[r]) {
        scores[r] = s;
        index[r] = j;
    }
}

/// Lane groups every lockstep walker advances per row. One group's dot
/// products form a dependent `sub → add` chain from row to row; four
/// independent groups let those chains overlap in the core, and a band's
/// last diagonals, too few for four groups, fall back to one group and then
/// to the scalar walk.
const GROUPS: usize = 4;

/// Merges every lane of `s` into profile slot `r`, lane `g` carrying the
/// neighbor `col(g)`.
#[inline(always)]
fn merge_lanes<L: F64Lanes>(
    scores: &mut [f64],
    index: &mut [usize],
    r: usize,
    s: L,
    col: impl Fn(usize) -> usize,
) {
    let sa = s.to_array();
    for (g, &sv) in sa.iter().enumerate().take(L::LANES) {
        merge_cell(scores, index, r, sv, col(g));
    }
}

/// Merges lane `g` of `s` into profile slot `j0 + g` with neighbor `i`: the
/// self-join's partner side, whose slots are contiguous.
#[inline(always)]
fn merge_partners<L: F64Lanes>(scores: &mut [f64], index: &mut [usize], j0: usize, s: L, i: usize) {
    let sa = s.to_array();
    for (g, &sv) in sa.iter().enumerate().take(L::LANES) {
        merge_cell(scores, index, j0 + g, sv, i);
    }
}

/// Whether any lane of the groups `s` is `<= bound`. A lane can only win a
/// profile slot when its score is `<=` the slot's (NaN lanes compare false,
/// as in [`merge_cell`]), so the lockstep walkers test every group of a row
/// against an upper bound of the row's slot — its value before the row;
/// it only falls during the row — and skip the lane-by-lane merge, on one
/// well-predicted branch, when none can win.
#[inline(always)]
fn any_le<L: F64Lanes, const N: usize>(s: &[L; N], bound: L) -> bool {
    s.iter().fold(0, |hit, sn| hit | sn.le_mask(bound)) != 0
}

/// Rows per cache block: every diagonal of a band advances through the same
/// row block before any moves on, so the `x`/lookup-table/profile windows a
/// block touches stay L2-resident while the whole band crosses them. 16k
/// rows touch well under 1 MB across the six hot arrays.
const ROW_BLOCK: usize = 16_384;

/// One walk over bands of diagonals — the self-join, the left profile, or
/// the prefix join. [`BandKernel::fill`] is shared: it crosses the walk's
/// rows one [`ROW_BLOCK`] at a time and, within a block, covers the band in
/// lockstep groups of [`GROUPS`]·`LANES` diagonals, then of `LANES`, then
/// one diagonal at a time, as far as each fits. Every lane computes the
/// exact scalar operation chain and every merge goes through
/// [`merge_cell`]'s order-independent rule, so group widths, row blocks and
/// band boundaries are all invisible bit for bit. Generic over the lane
/// type so [`FillBand`] can monomorphize it per SIMD backend and
/// [`scan_bands`] can fan any of them out over the same pooled buffers.
trait BandKernel: Sync {
    /// Profile slots the walk writes: the worker buffers' length.
    fn rows(&self) -> usize;
    /// Number of diagonals the bands partition.
    fn diagonals(&self) -> usize;
    /// The rows the walk crosses, in series windows.
    fn row_span(&self) -> Range<usize>;
    /// Diagonal of band offset `d`.
    fn diagonal(&self, d: usize) -> usize;
    /// The rows on which diagonal `k` has a cell.
    fn live(&self, k: usize) -> Range<usize>;
    /// Whether the diagonals `k..k + width` share at least one row on which
    /// all of them are past their seed row: a lockstep group needs one.
    fn lockstep(&self, k: usize, width: usize) -> bool;
    /// Scalar walk of diagonal `k` over `rows` (a subrange of `live(k)`):
    /// the diagonal's first row seeds `qt`, later rows advance the STOMP
    /// recurrence `QT[i+1][j+1] = QT[i][j] − x[i]·x[j] + x[i+m]·x[j+m]` in
    /// place, so a diagonal can be walked in disjoint row blocks with `qt`
    /// carried between them.
    fn walk(
        &self,
        k: usize,
        rows: Range<usize>,
        qt: &mut f64,
        scores: &mut [f64],
        index: &mut [usize],
    );
    /// Walks the diagonals `k..k + N·LANES` over `rows` as `N` lane groups
    /// advancing together, with `qs` (`N·LANES` long) carrying their dot
    /// products across row blocks; lanes outside their lockstep rows run on
    /// [`BandKernel::walk`].
    fn group_rows<L: F64Lanes, const N: usize>(
        &self,
        k: usize,
        rows: Range<usize>,
        qs: &mut [f64],
        scores: &mut [f64],
        index: &mut [usize],
    );

    /// Walks the diagonals of `band` into one worker's buffers.
    #[inline(always)]
    fn fill<L: F64Lanes>(&self, band: Range<usize>, space: &mut BandSpace) {
        let BandSpace {
            scores,
            index,
            qt_save,
        } = space;
        qt_save.clear();
        qt_save.resize(band.len(), 0.0);
        let span = self.row_span();
        let (wide, narrow) = (GROUPS * L::LANES, L::LANES);
        let mut rb = span.start;
        while rb < span.end {
            let re = (rb + ROW_BLOCK).min(span.end);
            let mut d = band.start;
            while d < band.end {
                let k = self.diagonal(d);
                let qs = &mut qt_save[d - band.start..];
                let left = band.end - d;
                if left >= wide && self.lockstep(k, wide) {
                    self.group_rows::<L, GROUPS>(k, rb..re, &mut qs[..wide], scores, index);
                    d += wide;
                } else if left >= narrow && self.lockstep(k, narrow) {
                    self.group_rows::<L, 1>(k, rb..re, &mut qs[..narrow], scores, index);
                    d += narrow;
                } else {
                    let live = self.live(k);
                    let rows = rb.max(live.start)..re.min(live.end);
                    self.walk(k, rows, &mut qs[0], scores, index);
                    d += 1;
                }
            }
            rb = re;
        }
    }
}

/// Loads `N` lane groups of carried dot products from `qs`.
#[inline(always)]
fn load_groups<L: F64Lanes, const N: usize>(qs: &[f64]) -> [L; N] {
    assert!(qs.len() >= N * L::LANES);
    // SAFETY: group `n` reads `qs[n·LANES..(n + 1)·LANES]`, in bounds.
    std::array::from_fn(|n| unsafe { L::load(qs.as_ptr().add(n * L::LANES)) })
}

/// Stores `N` lane groups of dot products back to `qs`.
#[inline(always)]
fn store_groups<L: F64Lanes, const N: usize>(qt: &[L; N], qs: &mut [f64]) {
    assert!(qs.len() >= N * L::LANES);
    for (n, q) in qt.iter().enumerate() {
        // SAFETY: as for the loads of `load_groups`.
        unsafe { q.store(qs.as_mut_ptr().add(n * L::LANES)) };
    }
}

/// The self-join (`LEFT = false`) or left-profile walk of [`run_scan`].
/// Diagonal `k` pairs window `i` with window `i + k` (the self-join, which
/// updates both windows) or `i − k` (the left profile, which updates only
/// the later one, so every entry sees exactly the candidates preceding it).
struct DiagScan<'a, S, const LEFT: bool> {
    x: &'a [f64],
    m: usize,
    count: usize,
    excl: usize,
    first_row: &'a [f64],
    /// Held by value, so the scorer's table pointers live in the kernel
    /// itself rather than behind a second reference, which the compiler
    /// would have to reload after every profile store.
    scorer: S,
}

impl<S: LaneScorer, const LEFT: bool> DiagScan<'_, S, LEFT> {
    /// Lockstep walk of the self-join diagonals `k..k + N·LANES` over
    /// `rows`. At row `i` group `n`'s partners are the `LANES` consecutive
    /// windows from `j0 = i + k + n·LANES`, so the recurrence inputs, the
    /// scorer tables and the partner-side profile slots are all contiguous
    /// vector loads. The last lane's diagonal is the shortest and bounds the
    /// lockstep rows; lane `g` outlives it by `N·LANES − 1 − g` rows, which
    /// a ragged epilogue finishes on the scalar walk from the carried `qt`.
    #[inline(always)]
    fn self_group_rows<L: F64Lanes, const N: usize>(
        &self,
        k: usize,
        rows: Range<usize>,
        qs: &mut [f64],
        scores: &mut [f64],
        index: &mut [usize],
    ) {
        let (x, m, scorer) = (self.x, self.m, &self.scorer);
        let width = N * L::LANES;
        let vec_end = self.count - (k + width - 1);
        let mut qt: [L; N];
        if rows.start == 0 {
            // Row 0 seeds every lane straight from the precomputed
            // dot-product row and, like the scalar seed, scores both sides
            // of each pair.
            // SAFETY: `k + width <= count <= first_row.len()` (lockstep).
            qt = std::array::from_fn(|n| unsafe {
                L::load(self.first_row.as_ptr().add(k + n * L::LANES))
            });
            for (n, &q) in qt.iter().enumerate() {
                let j0 = k + n * L::LANES;
                // SAFETY: the scorer tables span every window, and the
                // lanes' columns `j0..j0 + LANES` are windows.
                let s = unsafe { scorer.score_lanes::<L, true>(0, j0, q) };
                merge_lanes(scores, index, 0, s, |g| j0 + g);
                merge_partners(scores, index, j0, s, 0);
            }
        } else {
            qt = load_groups::<L, N>(qs);
        }
        for i in rows.start.max(1)..rows.end.min(vec_end) {
            let (xi, xim) = (L::splat(x[i - 1]), L::splat(x[i + m - 1]));
            let mut s = [L::splat(0.0); N];
            for (n, (q, sn)) in qt.iter_mut().zip(&mut s).enumerate() {
                let j0 = i + k + n * L::LANES;
                // SAFETY: below `vec_end` every lane's partner
                // `j0 + g < count`, so `x[j0 − 1 .. j0 + m − 1 + LANES]`
                // and the scorer tables are in bounds.
                unsafe {
                    let xl = L::load(x.as_ptr().add(j0 - 1));
                    let xh = L::load(x.as_ptr().add(j0 + m - 1));
                    *q = q.sub(xi.mul(xl)).add(xim.mul(xh));
                    *sn = scorer.score_lanes::<L, true>(i, j0, *q);
                }
            }
            // one gate for the row slot and every partner slot (see
            // `any_le`); the partners' slots only fall during the row too
            let mut hit = any_le(&s, L::splat(scores[i]));
            for (n, sn) in s.iter().enumerate() {
                // SAFETY: `j0 + LANES <= count` below `vec_end`.
                let cur = unsafe { L::load(scores.as_ptr().add(i + k + n * L::LANES)) };
                hit |= sn.le_mask(cur) != 0;
            }
            if hit {
                for (n, &sn) in s.iter().enumerate() {
                    let j0 = i + k + n * L::LANES;
                    merge_lanes(scores, index, i, sn, |g| j0 + g);
                    merge_partners(scores, index, j0, sn, i);
                }
            }
        }
        store_groups(&qt, qs);
        for (g, q) in qs.iter_mut().enumerate().take(width - 1) {
            let lane = rows.start.max(vec_end)..rows.end.min(self.count - (k + g));
            self.walk(k + g, lane, q, scores, index);
        }
    }

    /// Lockstep walk of the left-profile diagonals `k..k + N·LANES` over
    /// `rows`. Lane `g` of group `n` pairs row `i` with window
    /// `i − k − n·LANES − g`: the columns descend as the lane index ascends,
    /// so the column-side loads are reversed. Diagonal `k + g` only comes
    /// alive at row `k + g`, so a staggered prologue walks each lane on the
    /// scalar walk until every lane is live; then the lanes advance in
    /// lockstep to the end of the series (left-profile diagonals all end at
    /// row `count`, so there is no ragged epilogue).
    #[inline(always)]
    fn left_group_rows<L: F64Lanes, const N: usize>(
        &self,
        k: usize,
        rows: Range<usize>,
        qs: &mut [f64],
        scores: &mut [f64],
        index: &mut [usize],
    ) {
        let (x, m, scorer) = (self.x, self.m, &self.scorer);
        let width = N * L::LANES;
        let vec_start = k + width;
        for (g, q) in qs.iter_mut().enumerate().take(width) {
            let lane = rows.start.max(k + g)..rows.end.min(vec_start);
            self.walk(k + g, lane, q, scores, index);
        }
        let start = rows.start.max(vec_start);
        if start >= rows.end {
            return;
        }
        let mut qt = load_groups::<L, N>(qs);
        for i in start..rows.end {
            let (xi, xim) = (L::splat(x[i - 1]), L::splat(x[i + m - 1]));
            let mut s = [L::splat(0.0); N];
            for (n, (q, sn)) in qt.iter_mut().zip(&mut s).enumerate() {
                let j0 = i - k - n * L::LANES;
                // lane g reads x[j0 − g − 1]: reversed loads keep lane order
                // while the addresses descend. From `vec_start` on,
                // `base = j0 − LANES >= 0`.
                let base = j0 - L::LANES;
                // SAFETY: the highest read `base + m + LANES − 1 = j0 + m − 1`
                // is below `i + m − 1 < x.len()`, and the lanes' columns
                // `j0 + 1 − LANES ..= j0` are windows.
                unsafe {
                    let xl = L::load_reversed(x.as_ptr().add(base));
                    let xh = L::load_reversed(x.as_ptr().add(base + m));
                    *q = q.sub(xi.mul(xl)).add(xim.mul(xh));
                    *sn = scorer.score_lanes::<L, false>(i, j0, *q);
                }
            }
            if any_le(&s, L::splat(scores[i])) {
                for (n, &sn) in s.iter().enumerate() {
                    let j0 = i - k - n * L::LANES;
                    merge_lanes(scores, index, i, sn, |g| j0 - g);
                }
            }
        }
        store_groups(&qt, qs);
    }
}

impl<S: LaneScorer, const LEFT: bool> BandKernel for DiagScan<'_, S, LEFT> {
    fn rows(&self) -> usize {
        self.count
    }
    fn diagonals(&self) -> usize {
        self.count.saturating_sub(self.excl)
    }
    fn row_span(&self) -> Range<usize> {
        0..self.count
    }
    #[inline(always)]
    fn diagonal(&self, d: usize) -> usize {
        self.excl + d
    }
    #[inline(always)]
    fn live(&self, k: usize) -> Range<usize> {
        if LEFT {
            k..self.count
        } else {
            0..self.count - k
        }
    }
    #[inline(always)]
    fn lockstep(&self, k: usize, width: usize) -> bool {
        // the self-join's last lane must have a row, the left profile's a
        // row past its seed
        if LEFT {
            k + width < self.count
        } else {
            k + width <= self.count
        }
    }
    #[inline(always)]
    fn walk(
        &self,
        k: usize,
        rows: Range<usize>,
        qt: &mut f64,
        scores: &mut [f64],
        index: &mut [usize],
    ) {
        let (x, m, scorer) = (self.x, self.m, &self.scorer);
        let mut i = rows.start;
        let seed_row = if LEFT { k } else { 0 };
        if i <= seed_row && seed_row < rows.end {
            *qt = self.first_row[k];
            if LEFT {
                let s = scorer.score(k, 0, *qt);
                merge_cell(scores, index, k, s, 0);
            } else {
                let s = scorer.score(0, k, *qt);
                merge_cell(scores, index, 0, s, k);
                merge_cell(scores, index, k, s, 0);
            }
            i = seed_row + 1;
        }
        while i < rows.end {
            let j = if LEFT { i - k } else { i + k };
            *qt = *qt - x[i - 1] * x[j - 1] + x[i + m - 1] * x[j + m - 1];
            let s = scorer.score(i, j, *qt);
            merge_cell(scores, index, i, s, j);
            if !LEFT {
                merge_cell(scores, index, j, s, i);
            }
            i += 1;
        }
    }
    #[inline(always)]
    fn group_rows<L: F64Lanes, const N: usize>(
        &self,
        k: usize,
        rows: Range<usize>,
        qs: &mut [f64],
        scores: &mut [f64],
        index: &mut [usize],
    ) {
        if LEFT {
            self.left_group_rows::<L, N>(k, rows, qs, scores, index);
        } else {
            self.self_group_rows::<L, N>(k, rows, qs, scores, index);
        }
    }
}

/// The train→test prefix join of [`prefix_join`] as a band walk. Rows are
/// the test windows `train_len..count`, columns the train windows
/// `0..cols` (`cols = train_len − m + 1`), and diagonal `k = i − j` runs
/// over rows `lo(k)..hi(k)` for `k` in `m..count`. Every pair is at least
/// `m` apart, so no exclusion zone applies, and only the test row of a pair
/// is updated. Worker buffers hold one slot per test row (`i − train_len`).
struct JoinScan<'a, S> {
    x: &'a [f64],
    m: usize,
    train_len: usize,
    cols: usize,
    count: usize,
    /// `QT[0][k]` for `k ≥ train_len`, stored at `k − train_len`: window 0
    /// against each test window, the seed of every diagonal that starts in
    /// train column 0.
    head_row: &'a [f64],
    /// `QT[train_len][j]` for train windows `j`: the seed of every diagonal
    /// that starts in the first test row.
    test_row: &'a [f64],
    scorer: S,
}

impl<S: LaneScorer> JoinScan<'_, S> {
    /// First row of diagonal `k`.
    #[inline(always)]
    fn lo(&self, k: usize) -> usize {
        self.train_len.max(k)
    }

    /// One past the last row of diagonal `k` (its column reaches `cols − 1`
    /// or its row the last window).
    #[inline(always)]
    fn hi(&self, k: usize) -> usize {
        self.count.min(self.cols + k)
    }

    /// Dot product of the first cell `(lo(k), lo(k) − k)` of diagonal `k`.
    #[inline(always)]
    fn seed(&self, k: usize) -> f64 {
        if k >= self.train_len {
            self.head_row[k - self.train_len]
        } else {
            self.test_row[self.train_len - k]
        }
    }
}

impl<S: LaneScorer> BandKernel for JoinScan<'_, S> {
    fn rows(&self) -> usize {
        self.count - self.train_len
    }
    fn diagonals(&self) -> usize {
        self.count - self.m
    }
    fn row_span(&self) -> Range<usize> {
        self.train_len..self.count
    }
    #[inline(always)]
    fn diagonal(&self, d: usize) -> usize {
        self.m + d
    }
    #[inline(always)]
    fn live(&self, k: usize) -> Range<usize> {
        self.lo(k)..self.hi(k)
    }
    #[inline(always)]
    fn lockstep(&self, k: usize, width: usize) -> bool {
        self.lo(k + width - 1) + 1 < self.hi(k)
    }
    #[inline(always)]
    fn walk(
        &self,
        k: usize,
        rows: Range<usize>,
        qt: &mut f64,
        scores: &mut [f64],
        index: &mut [usize],
    ) {
        let (x, m, t) = (self.x, self.m, self.train_len);
        let mut i = rows.start;
        if i == self.lo(k) && i < rows.end {
            *qt = self.seed(k);
            let s = self.scorer.score(i, i - k, *qt);
            merge_cell(scores, index, i - t, s, i - k);
            i += 1;
        }
        while i < rows.end {
            let j = i - k;
            *qt = *qt - x[i - 1] * x[j - 1] + x[i + m - 1] * x[j + m - 1];
            let s = self.scorer.score(i, j, *qt);
            merge_cell(scores, index, i - t, s, j);
            i += 1;
        }
    }

    /// Lane `g` of group `n` pairs row `i` with train window
    /// `i − k − n·LANES − g`, so the column-side loads are reversed, as in
    /// the left profile. Lane `g` is live on `lo(k + g)..hi(k + g)`; both
    /// bounds rise with `g`, so a staggered scalar prologue walks each lane
    /// (its seed row included) until the last lane is live, the lanes
    /// advance together until lane 0 ends, and a ragged scalar epilogue
    /// finishes the later lanes.
    #[inline(always)]
    fn group_rows<L: F64Lanes, const N: usize>(
        &self,
        k: usize,
        rows: Range<usize>,
        qs: &mut [f64],
        scores: &mut [f64],
        index: &mut [usize],
    ) {
        let (x, m, t, scorer) = (self.x, self.m, self.train_len, &self.scorer);
        let width = N * L::LANES;
        let lock_lo = self.lo(k + width - 1) + 1;
        let lock_hi = self.hi(k);
        for (g, q) in qs.iter_mut().enumerate().take(width) {
            let lane = rows.start.max(self.lo(k + g))..rows.end.min(lock_lo);
            self.walk(k + g, lane, q, scores, index);
        }
        let (start, end) = (rows.start.max(lock_lo), rows.end.min(lock_hi));
        if start < end {
            let mut qt = load_groups::<L, N>(qs);
            for i in start..end {
                let (xi, xim) = (L::splat(x[i - 1]), L::splat(x[i + m - 1]));
                let mut s = [L::splat(0.0); N];
                for (n, (q, sn)) in qt.iter_mut().zip(&mut s).enumerate() {
                    let j0 = i - k - n * L::LANES;
                    // Every lane is live, so the last lane's column
                    // `i − k − width + 1 >= 1`: the reversed loads below
                    // start at `j0 − LANES >= 0`, and lane 0's
                    // `j0 + m − 1 < train_len <= x.len()`.
                    let base = j0 - L::LANES;
                    // SAFETY: `base .. base + m + LANES` lies inside `x`
                    // (above); the scorer tables span every window, and the
                    // lanes' columns `j0 + 1 − LANES ..= j0` are windows.
                    unsafe {
                        let xl = L::load_reversed(x.as_ptr().add(base));
                        let xh = L::load_reversed(x.as_ptr().add(base + m));
                        *q = q.sub(xi.mul(xl)).add(xim.mul(xh));
                        *sn = scorer.score_lanes::<L, false>(i, j0, *q);
                    }
                }
                if any_le(&s, L::splat(scores[i - t])) {
                    for (n, &sn) in s.iter().enumerate() {
                        let j0 = i - k - n * L::LANES;
                        merge_lanes(scores, index, i - t, sn, |g| j0 - g);
                    }
                }
            }
            store_groups(&qt, qs);
        }
        for (g, q) in qs.iter_mut().enumerate().take(width) {
            let lane = rows.start.max(lock_hi)..rows.end.min(self.hi(k + g));
            self.walk(k + g, lane, q, scores, index);
        }
    }
}

/// One band of a [`BandKernel`]'s walk, run under the SIMD backend by
/// [`simd::dispatch`] over its real lanes. The backend is resolved once per
/// profile call on the caller's thread (see [`run_scan`]) and passed in, so
/// worker threads can never re-detect differently.
struct FillBand<'a, K> {
    kernel: &'a K,
    band: Range<usize>,
    space: &'a mut BandSpace,
}

impl<K: BandKernel> Kernel for FillBand<'_, K> {
    type Output = ();

    #[inline(always)]
    fn run<I: Isa>(self) {
        self.kernel.fill::<I::F>(self.band, self.space);
    }
}

/// Fans contiguous bands of diagonals out over `tsad-parallel` and merges
/// the per-worker buffers through [`merge_cell`]'s order-independent rule —
/// every slot ends at the lexicographic minimum of all its candidates, so
/// the outcome is identical wherever the band boundaries fall and in
/// whatever order the folds arrive. `scores`/`index` (both
/// `kernel.rows()` long) are reset and receive the merged result.
fn scan_bands<K: BandKernel>(
    backend: Backend,
    kernel: &K,
    scores: &mut [f64],
    index: &mut [usize],
) {
    let rows = kernel.rows();
    debug_assert!(scores.len() == rows && index.len() == rows);
    scores.fill(f64::INFINITY);
    index.fill(0);
    tsad_parallel::par_chunks_scratch(
        &BAND_POOL,
        kernel.diagonals(),
        BandSpace::default,
        |space, band| {
            let _band_timer = STOMP_BAND_NS.start();
            space.scores.clear();
            space.scores.resize(rows, f64::INFINITY);
            space.index.clear();
            space.index.resize(rows, 0);
            simd::dispatch(
                backend,
                FillBand {
                    kernel,
                    band,
                    space,
                },
            );
        },
        |space| {
            for i in 0..rows {
                merge_cell(scores, index, i, space.scores[i], space.index[i]);
            }
        },
    );
}

/// Reusable buffers for [`stomp_metric_with`] / [`left_stomp_with`] (and,
/// pooled, [`prefix_join`]): the window moments (plus their prefix-sum
/// scratch; the correlation-form lookup tables overwrite them in place),
/// the seed rows of dot products, and squared norms (Euclidean metric
/// only). Scores merge straight into the output profile. A caller that
/// keeps one of these across calls of the same shape performs no heap
/// allocation in the kernel after the first call; numeric state never
/// carries over because every buffer is fully rewritten per call.
#[derive(Debug, Default)]
pub struct StompWorkspace {
    moments: WindowMoments,
    mscratch: MomentsScratch,
    first_row: Vec<f64>,
    /// The prefix join's second seed row (see [`JoinScan::test_row`]).
    test_row: Vec<f64>,
    sq_norms: Vec<f64>,
}

/// Workspaces behind the allocating convenience wrappers, shared across
/// threads and calls. The experiment drivers call the wrappers from worker
/// threads spawned per batch, where a thread-local workspace would die with
/// its thread and every batch would reallocate the `O(n)` tables; pooled,
/// the tables are built once per concurrent caller and then reused.
static WS_POOL: ScratchPool<StompWorkspace> = ScratchPool::new();

/// Runs `f` with a workspace taken from [`WS_POOL`], then returns it.
fn with_workspace<R>(f: impl FnOnce(&mut StompWorkspace) -> R) -> R {
    let mut ws = WS_POOL.take(StompWorkspace::default);
    let out = f(&mut ws);
    WS_POOL.put(ws);
    out
}

/// Turns the window moments into the [`CorrScorer`] lookup tables in
/// place — `a_i = √m·μ_i` over the means, `inv_i = 1/(√m·σ_i)` over the
/// stds — and returns the scorer. The moments are rebuilt on every call,
/// so the workspace keeps no second pair of `O(n)` tables.
fn corr_scorer(moments: &mut WindowMoments, m: usize) -> CorrScorer<'_> {
    let sqrt_m = (m as f64).sqrt();
    for mu in &mut moments.means {
        *mu *= sqrt_m;
    }
    for s in &mut moments.stds {
        *s = 1.0 / (sqrt_m * *s);
    }
    CorrScorer {
        a: &moments.means,
        inv: &moments.stds,
        two_m: 2.0 * m as f64,
    }
}

/// Runs one self-join or left-profile scan into `out`: the merge runs in
/// `out.profile` / `out.index` directly, then the scores are finalized to
/// distances in place.
fn scan_profile<S: LaneScorer, const LEFT: bool>(
    backend: Backend,
    kernel: &DiagScan<'_, S, LEFT>,
    out: &mut MatrixProfile,
) {
    out.profile.resize(kernel.count, 0.0);
    out.index.resize(kernel.count, 0);
    scan_bands(backend, kernel, &mut out.profile, &mut out.index);
    for p in &mut out.profile {
        *p = kernel.scorer.finalize(*p);
    }
}

/// Shared preparation + dispatch for both profile variants. A non-finite
/// input is rejected ([`CoreError::NonFinite`]): the window moments are
/// prefix sums, so one NaN would poison every later window. Scorer choice
/// is a pure function of the input (`ZNormalized` series with any window
/// std below the degeneracy epsilon take the exact historical path), and
/// the SIMD backend is resolved here, once, on the caller's thread — so
/// neither dispatch can vary with thread count.
fn run_scan<const LEFT: bool>(
    x: &[f64],
    m: usize,
    metric: ProfileMetric,
    ws: &mut StompWorkspace,
    out: &mut MatrixProfile,
) -> Result<()> {
    ensure_finite(x)?;
    let n = x.len();
    let count = tsad_core::windows::subsequence_count(n, m)?;
    if count < 2 {
        return Err(CoreError::BadWindow { window: m, len: n });
    }
    let excl = exclusion_zone(m);
    WindowMoments::compute_with(x, m, &mut ws.mscratch, &mut ws.moments)?;
    tsad_core::fft::sliding_dot_product_into(&x[0..m], x, &mut ws.first_row)?;
    let StompWorkspace {
        moments,
        first_row,
        sq_norms,
        ..
    } = ws;
    let backend = simd::current();
    match metric {
        ProfileMetric::ZNormalized => {
            // mirror dot_to_znorm_dist's degeneracy epsilon
            let degenerate = moments.stds.iter().any(|&s| s < 1e-9);
            if degenerate {
                let scorer = ZnormScorer {
                    m,
                    means: &moments.means,
                    stds: &moments.stds,
                };
                // the degenerate conventions are branchy scalar code; forcing
                // the one-lane backend keeps the historical path bit for bit
                // (still a pure function of the input)
                let kernel = DiagScan::<_, LEFT> {
                    x,
                    m,
                    count,
                    excl,
                    first_row,
                    scorer,
                };
                scan_profile(Backend::Scalar, &kernel, out);
            } else {
                let scorer = corr_scorer(moments, m);
                let kernel = DiagScan::<_, LEFT> {
                    x,
                    m,
                    count,
                    excl,
                    first_row,
                    scorer,
                };
                scan_profile(backend, &kernel, out);
            }
        }
        ProfileMetric::Euclidean => {
            sq_norms.clear();
            sq_norms.reserve(count);
            sq_norms.extend((0..count).map(|i| x[i..i + m].iter().map(|v| v * v).sum::<f64>()));
            let scorer = EuclidScorer { sq_norms };
            let kernel = DiagScan::<_, LEFT> {
                x,
                m,
                count,
                excl,
                first_row,
                scorer,
            };
            scan_profile(backend, &kernel, out);
        }
    }
    out.window = m;
    Ok(())
}

/// Replaces the INFINITY placeholder of windows that received no
/// admissible neighbor (tiny inputs only) with the max finite value, for
/// downstream safety.
fn cap_non_finite(profile: &mut [f64]) {
    let max_finite = profile
        .iter()
        .copied()
        .filter(|d| d.is_finite())
        .fold(0.0f64, f64::max);
    for p in profile.iter_mut() {
        if !p.is_finite() {
            *p = max_finite;
        }
    }
}

/// STOMP under an explicit [`ProfileMetric`]. Both metrics share the same
/// `O(n²)` incremental-dot-product core; Euclidean uses
/// `d² = ‖a‖² + ‖b‖² − 2·a·b` with precomputed window norms.
///
/// The distance matrix is walked along its diagonals: diagonal `k` pairs
/// window `i` with window `i + k`, and the dot product follows the STOMP
/// recurrence `QT[i+1][j+1] = QT[i][j] − x[i]·x[j] + x[i+m]·x[j+m]` from
/// the seed `QT[0][k]`. Diagonals are independent, so contiguous bands of
/// them fan out over `tsad-parallel` with per-thread profile buffers, and
/// within a band adjacent diagonals advance in SIMD lockstep groups under
/// the runtime-dispatched backend (`TSAD_SIMD=0` forces scalar). Each
/// pairwise score is computed by the same floating-point operation chain
/// regardless of banding or lane grouping, and every profile update goes
/// through one order-independent lexicographic merge rule, so the result
/// is **bitwise identical at every thread count and on every backend**.
///
/// A non-finite input is rejected with [`CoreError::NonFinite`] (the first
/// offending index), as are the left profile's and the prefix join's.
pub fn stomp_metric(x: &[f64], m: usize, metric: ProfileMetric) -> Result<MatrixProfile> {
    with_workspace(|ws| {
        let mut out = MatrixProfile {
            profile: Vec::new(),
            index: Vec::new(),
            window: m,
        };
        stomp_metric_with(x, m, metric, ws, &mut out)?;
        Ok(out)
    })
}

/// [`stomp_metric`] with caller-owned buffers: the workspace holds every
/// intermediate and `out` receives the profile (both fully rewritten). A
/// caller looping over same-shaped series — the benchmark harness, batch
/// sweeps — allocates nothing here once buffers are warm (single-threaded;
/// with more threads the per-call scoped spawns still allocate, though
/// band buffers are pooled). Scores and indices are identical to
/// [`stomp_metric`] at every thread count.
pub fn stomp_metric_with(
    x: &[f64],
    m: usize,
    metric: ProfileMetric,
    ws: &mut StompWorkspace,
    out: &mut MatrixProfile,
) -> Result<()> {
    run_scan::<false>(x, m, metric, ws, out)?;
    cap_non_finite(&mut out.profile);
    Ok(())
}

/// Left matrix profile: each window's nearest neighbor among *preceding*
/// windows only — the streaming/online variant (a window can only be
/// compared against history, never the future), which is what a NAB-style
/// real-time detector actually gets to see. Warm-up windows with no
/// admissible left neighbor score 0 (no evidence either way).
pub fn left_stomp(x: &[f64], m: usize, metric: ProfileMetric) -> Result<MatrixProfile> {
    with_workspace(|ws| {
        let mut out = MatrixProfile {
            profile: Vec::new(),
            index: Vec::new(),
            window: m,
        };
        left_stomp_with(x, m, metric, ws, &mut out)?;
        Ok(out)
    })
}

/// [`left_stomp`] with caller-owned buffers; see [`stomp_metric_with`] for
/// the reuse contract.
///
/// Diagonal `k` pairs window `i` with its left neighbor `j = i − k`,
/// `k ≥ excl`. The diagonal starts at `(i, j) = (k, 0)` whose dot product
/// is `QT[k][0] = QT[0][k]` by symmetry, then follows the same recurrence
/// as the self-join; only the later window is updated, so each entry sees
/// the same candidate set as a row-wise scan.
pub fn left_stomp_with(
    x: &[f64],
    m: usize,
    metric: ProfileMetric,
    ws: &mut StompWorkspace,
    out: &mut MatrixProfile,
) -> Result<()> {
    run_scan::<true>(x, m, metric, ws, out)?;
    let count = out.profile.len();
    // Warm-up: windows with no left neighbor — or too little history for
    // the minimum distance to be meaningful (a lone far-away neighbor makes
    // everything look novel) — score 0: no evidence of anomaly yet.
    let warmup = (exclusion_zone(m) + 2 * m).min(count);
    for p in &mut out.profile[..warmup] {
        *p = 0.0;
    }
    for p in &mut out.profile {
        if !p.is_finite() {
            *p = 0.0;
        }
    }
    Ok(())
}

/// Prefix join: for every test window `i ≥ train_len`, the z-normalized
/// distance to its nearest train window `j ≤ train_len − m` — the
/// semi-supervised subsequence 1-NN score of
/// [`crate::baselines::SubsequenceKnn`]. Train windows are not scored:
/// their profile entries are 0 and their index the placeholder 0, so
/// [`MatrixProfile::point_scores`] gives the test points their 1-NN score
/// and the train points 0. A test region shorter than `m` scores nothing.
///
/// The join walks the diagonals `k = i − j` of the test × train block
/// with the self-join's machinery: each diagonal is seeded once, from the
/// sliding dot products of window 0 against the test region (`k ≥
/// train_len`) and of the first test window against the train prefix
/// (`k < train_len`), and then costs one STOMP recurrence step per cell
/// instead of a per-window MASS call. Scorer choice, SIMD lane groups, band
/// fan-out and the lexicographic tie rule are those of [`stomp_metric`], so
/// the result is bitwise identical at every thread count and on every
/// backend; it matches per-window MASS to rounding. A non-finite input is
/// rejected with [`CoreError::NonFinite`], as by [`stomp_metric`].
pub fn prefix_join(x: &[f64], m: usize, train_len: usize) -> Result<MatrixProfile> {
    ensure_finite(x)?;
    let count = tsad_core::windows::subsequence_count(x.len(), m)?;
    if train_len < m || train_len > x.len() {
        return Err(CoreError::BadParameter {
            name: "train_len",
            value: train_len as f64,
            expected: "a train prefix of at least one window, within the series",
        });
    }
    let mut out = MatrixProfile {
        profile: vec![0.0; count],
        index: vec![0; count],
        window: m,
    };
    if train_len < count {
        with_workspace(|ws| join_into(x, m, train_len, ws, &mut out))?;
    }
    Ok(out)
}

/// Runs the prefix join (`m ≤ train_len < count`) into the test rows of
/// `out`, whose profile and index are `count` long.
fn join_into(
    x: &[f64],
    m: usize,
    train_len: usize,
    ws: &mut StompWorkspace,
    out: &mut MatrixProfile,
) -> Result<()> {
    let count = out.profile.len();
    let t = train_len;
    let cols = t - m + 1;
    WindowMoments::compute_with(x, m, &mut ws.mscratch, &mut ws.moments)?;
    let StompWorkspace {
        moments,
        first_row,
        test_row,
        ..
    } = ws;
    let stds = &moments.stds;
    let degenerate = prefix_join_seeds(x, m, t, stds, first_row, test_row)?;
    if degenerate {
        let scorer = ZnormScorer {
            m,
            means: &moments.means,
            stds,
        };
        let kernel = JoinScan {
            x,
            m,
            train_len: t,
            cols,
            count,
            head_row: first_row,
            test_row,
            scorer,
        };
        join_profile(Backend::Scalar, &kernel, out);
    } else {
        let scorer = corr_scorer(moments, m);
        let kernel = JoinScan {
            x,
            m,
            train_len: t,
            cols,
            count,
            head_row: first_row,
            test_row,
            scorer,
        };
        join_profile(simd::current(), &kernel, out);
    }
    Ok(())
}

/// The prefix join's seeds, as [`join_into`] and the certified top-1
/// search (`locate.rs`) both take them: `head_row` is window 0 against the
/// test part `x[t..]` (diagonals `k ≥ t`, seeded in train column 0) and
/// `test_row` the first test window against the train part (the others,
/// seeded in test row `t`). Returns whether a window the join reads is
/// degenerate: only the train windows `..=t − m` and the test windows
/// `t..` decide the scorer, never those straddling the split.
pub(super) fn prefix_join_seeds(
    x: &[f64],
    m: usize,
    t: usize,
    stds: &[f64],
    head_row: &mut Vec<f64>,
    test_row: &mut Vec<f64>,
) -> Result<bool> {
    tsad_core::fft::sliding_dot_product_into(&x[..m], &x[t..], head_row)?;
    tsad_core::fft::sliding_dot_product_into(&x[t..t + m], &x[..t], test_row)?;
    let cols = t - m + 1;
    Ok(stds[..cols].iter().chain(&stds[t..]).any(|&s| s < 1e-9))
}

/// The contest location of `x`'s [`prefix_join`] at window `m` with train
/// prefix `train_len`, from the certified top-1 search (`locate.rs`);
/// `None` when the search cannot prove it.
pub(crate) fn certified_prefix_location(x: &[f64], m: usize, train_len: usize) -> Option<usize> {
    certified_location(x, m, train_len, Join::Prefix)
}

/// Runs one prefix-join scan into the test rows of `out` and finalizes
/// their scores to distances in place.
fn join_profile<S: LaneScorer>(
    backend: Backend,
    kernel: &JoinScan<'_, S>,
    out: &mut MatrixProfile,
) {
    let t = kernel.train_len;
    let profile = &mut out.profile[t..];
    scan_bands(backend, kernel, profile, &mut out.index[t..]);
    for p in profile {
        *p = kernel.scorer.finalize(*p);
    }
}

/// STAMP: the same matrix profile computed with one MASS call per window.
/// Asymptotically slower than STOMP but a fully independent code path, used
/// to cross-check correctness (and historically, the anytime variant).
pub fn stamp(x: &[f64], m: usize) -> Result<MatrixProfile> {
    let n = x.len();
    let count = tsad_core::windows::subsequence_count(n, m)?;
    if count < 2 {
        return Err(CoreError::BadWindow { window: m, len: n });
    }
    let excl = exclusion_zone(m);
    // One moments pass for the whole series (each MASS row used to redo
    // it), and per-worker dot-product/distance buffers reused across rows.
    let moments = WindowMoments::compute(x, m)?;
    // Each window's row is independent (one MASS scan, min over admissible
    // columns), so windows fan out over contiguous chunks and the per-chunk
    // slices are stitched back in index order — trivially deterministic.
    let chunks = tsad_parallel::par_chunks(count, |range| {
        let mut qt = Vec::new();
        let mut dists = Vec::new();
        let mut rows = Vec::with_capacity(range.len());
        for i in range {
            let mut best = (f64::INFINITY, 0usize);
            match mass_with_moments(&x[i..i + m], &moments, x, &mut qt, &mut dists) {
                Ok(()) => {
                    for (j, &d) in dists.iter().enumerate() {
                        if j.abs_diff(i) < excl {
                            continue;
                        }
                        if d < best.0 {
                            best = (d, j);
                        }
                    }
                    rows.push(Ok(best));
                }
                Err(e) => rows.push(Err(e)),
            }
        }
        rows
    });
    let mut profile = Vec::with_capacity(count);
    let mut index = Vec::with_capacity(count);
    for row in chunks.into_iter().flatten() {
        let (d, j) = row?;
        profile.push(d);
        index.push(j);
    }
    cap_non_finite(&mut profile);
    Ok(MatrixProfile {
        profile,
        index,
        window: m,
    })
}

/// Brute-force matrix profile (`O(n²·m)`): the correctness oracle.
pub fn matrix_profile_naive(x: &[f64], m: usize) -> Result<MatrixProfile> {
    let count = tsad_core::windows::subsequence_count(x.len(), m)?;
    if count < 2 {
        return Err(CoreError::BadWindow {
            window: m,
            len: x.len(),
        });
    }
    let excl = exclusion_zone(m);
    let mut profile = vec![f64::INFINITY; count];
    let mut index = vec![0usize; count];
    for i in 0..count {
        for j in 0..count {
            if j.abs_diff(i) < excl {
                continue;
            }
            let d = tsad_core::dist::znorm_euclidean(&x[i..i + m], &x[j..j + m])?;
            if d < profile[i] {
                profile[i] = d;
                index[i] = j;
            }
        }
    }
    cap_non_finite(&mut profile);
    Ok(MatrixProfile {
        profile,
        index,
        window: m,
    })
}

/// Matrix-profile discord detector: scores each point by the profile of the
/// windows covering it. Unsupervised — ignores the train prefix, exactly
/// like the "Discord, no training data" trace in the paper's Fig. 13.
#[derive(Debug, Clone)]
pub struct DiscordDetector {
    /// Subsequence length.
    pub window: usize,
    /// Distance metric.
    pub metric: ProfileMetric,
}

impl DiscordDetector {
    /// Creates a z-normalized discord detector with subsequence length
    /// `window`.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            metric: ProfileMetric::ZNormalized,
        }
    }

    /// Creates a raw-Euclidean discord detector (Yankov-style).
    pub fn euclidean(window: usize) -> Self {
        Self {
            window,
            metric: ProfileMetric::Euclidean,
        }
    }
}

impl Detector for DiscordDetector {
    fn name(&self) -> &'static str {
        match self.metric {
            ProfileMetric::ZNormalized => "discord (matrix profile)",
            ProfileMetric::Euclidean => "discord (euclidean)",
        }
    }
    fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        let mp = stomp_metric(ts.values(), self.window, self.metric)?;
        Ok(mp.point_scores(ts.len()))
    }
    /// The certified top-1 search of `locate.rs` under the z-normalized
    /// metric; the full profile's arg-max otherwise or when the search
    /// cannot prove its answer. Either way the bits of the default.
    fn locate(&self, ts: &TimeSeries, train_len: usize) -> Result<usize> {
        if self.metric == ProfileMetric::ZNormalized {
            let found = certified_location(ts.values(), self.window, train_len, Join::Both);
            if let Some(at) = found {
                DISCORD_CERTIFIED.inc();
                return Ok(at);
            }
        }
        DISCORD_FALLBACK.inc();
        crate::score_argmax(self, ts, train_len)
    }
}

/// Streaming discord detector: scores each point with the *left* matrix
/// profile, so the score at time `t` uses only data up to `t` — the
/// honest online setting NAB evaluates (a self-join profile quietly looks
/// into the future).
#[derive(Debug, Clone)]
pub struct OnlineDiscordDetector {
    /// Subsequence length.
    pub window: usize,
    /// Distance metric.
    pub metric: ProfileMetric,
}

impl OnlineDiscordDetector {
    /// Creates a z-normalized online discord detector.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            metric: ProfileMetric::ZNormalized,
        }
    }
}

impl Detector for OnlineDiscordDetector {
    fn name(&self) -> &'static str {
        "online discord (left profile)"
    }
    fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        let mp = left_stomp(ts.values(), self.window, self.metric)?;
        Ok(mp.point_scores(ts.len()))
    }
    /// As [`DiscordDetector::locate`], over the left profile.
    fn locate(&self, ts: &TimeSeries, train_len: usize) -> Result<usize> {
        if self.metric == ProfileMetric::ZNormalized {
            let found = certified_location(ts.values(), self.window, train_len, Join::Left);
            if let Some(at) = found {
                LEFT_CERTIFIED.inc();
                return Ok(at);
            }
        }
        LEFT_FALLBACK.inc();
        crate::score_argmax(self, ts, train_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Periodic signal with one anomalous cycle.
    fn anomalous_sine(n: usize, period: usize, at: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let base = (i as f64 * std::f64::consts::TAU / period as f64).sin();
                if i >= at && i < at + period / 2 {
                    base * 0.2 + 0.8 // squashed half-cycle
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn stomp_matches_naive() {
        let x = anomalous_sine(240, 24, 120);
        for m in [8, 24] {
            let fast = stomp(&x, m).unwrap();
            let slow = matrix_profile_naive(&x, m).unwrap();
            assert_eq!(fast.profile.len(), slow.profile.len());
            for i in 0..fast.profile.len() {
                assert!(
                    (fast.profile[i] - slow.profile[i]).abs() < 1e-4,
                    "m={m} i={i}: {} vs {}",
                    fast.profile[i],
                    slow.profile[i]
                );
            }
        }
    }

    #[test]
    fn stamp_matches_stomp() {
        let x = anomalous_sine(300, 30, 150);
        let a = stomp(&x, 16).unwrap();
        let b = stamp(&x, 16).unwrap();
        for i in 0..a.profile.len() {
            assert!((a.profile[i] - b.profile[i]).abs() < 1e-5, "i={i}");
        }
    }

    #[test]
    fn discord_lands_on_anomalous_cycle() {
        let period = 32;
        let at = 320;
        let x = anomalous_sine(640, period, at);
        let mp = stomp(&x, period).unwrap();
        let (loc, dist) = mp.discord().unwrap();
        assert!(dist > 0.0);
        assert!(
            loc >= at.saturating_sub(period) && loc <= at + period / 2,
            "discord at {loc}, anomaly at {at}"
        );
    }

    #[test]
    fn profile_of_pure_periodic_signal_is_low() {
        let x: Vec<f64> = (0..512)
            .map(|i| (i as f64 * std::f64::consts::TAU / 32.0).sin())
            .collect();
        let mp = stomp(&x, 32).unwrap();
        let max = mp.profile.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max < 0.5,
            "pure periodic signal should self-match well: {max}"
        );
    }

    #[test]
    fn point_scores_cover_series() {
        let x = anomalous_sine(200, 20, 100);
        let mp = stomp(&x, 20).unwrap();
        let scores = mp.point_scores(x.len());
        assert_eq!(scores.len(), x.len());
        let peak = stats::argmax(&scores).unwrap();
        assert!((80..=130).contains(&peak), "peak at {peak}");
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        // one workspace swept across metrics, variants, and shapes must
        // reproduce the convenience wrappers exactly — proof that no
        // numeric state leaks between calls
        let x = anomalous_sine(260, 26, 130);
        let mut ws = StompWorkspace::default();
        let mut out = MatrixProfile {
            profile: Vec::new(),
            index: Vec::new(),
            window: 0,
        };
        for m in [8usize, 26, 13] {
            for metric in [ProfileMetric::ZNormalized, ProfileMetric::Euclidean] {
                stomp_metric_with(&x, m, metric, &mut ws, &mut out).unwrap();
                let fresh = stomp_metric(&x, m, metric).unwrap();
                assert_eq!(out.index, fresh.index, "m={m} {metric:?}");
                assert!(out
                    .profile
                    .iter()
                    .zip(&fresh.profile)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                left_stomp_with(&x, m, metric, &mut ws, &mut out).unwrap();
                let fresh = left_stomp(&x, m, metric).unwrap();
                assert_eq!(out.index, fresh.index, "left m={m} {metric:?}");
                assert!(out
                    .profile
                    .iter()
                    .zip(&fresh.profile)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn degenerate_windows_keep_the_flat_region_conventions() {
        // a series with constant windows must take the exact historical
        // path: two flat windows pair at distance 0, flat-vs-wiggly at
        // sqrt(2m)
        let mut x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.4).sin()).collect();
        for v in &mut x[10..30] {
            *v = 2.0;
        }
        for v in &mut x[70..90] {
            *v = 2.0;
        }
        let m = 8;
        let fast = stomp(&x, m).unwrap();
        let slow = matrix_profile_naive(&x, m).unwrap();
        for i in 0..fast.profile.len() {
            assert!(
                (fast.profile[i] - slow.profile[i]).abs() < 1e-4,
                "i={i}: {} vs {}",
                fast.profile[i],
                slow.profile[i]
            );
        }
        // the two flat stretches pair up at exactly 0
        assert_eq!(fast.profile[12], 0.0);
    }

    #[test]
    fn rejects_too_short_input() {
        assert!(stomp(&[1.0, 2.0, 3.0], 3).is_err());
        assert!(stomp(&[1.0, 2.0, 3.0], 0).is_err());
        assert!(stamp(&[1.0; 4], 4).is_err());
        assert!(matrix_profile_naive(&[1.0; 4], 4).is_err());
    }

    #[test]
    fn kernels_reject_non_finite_input() {
        let mut x: Vec<f64> = (0..300).map(|i| (i as f64 * 0.3).sin()).collect();
        x[40] = f64::NAN;
        let nan = CoreError::NonFinite { index: 40 };
        for metric in [ProfileMetric::ZNormalized, ProfileMetric::Euclidean] {
            assert_eq!(stomp_metric(&x, 16, metric).unwrap_err(), nan);
            assert_eq!(left_stomp(&x, 16, metric).unwrap_err(), nan);
        }
        assert_eq!(prefix_join(&x, 16, 100).unwrap_err(), nan);
        x[40] = f64::NEG_INFINITY;
        assert_eq!(
            prefix_join(&x, 16, 100).unwrap_err(),
            CoreError::NonFinite { index: 40 }
        );
    }

    #[test]
    fn euclidean_metric_matches_naive() {
        let x = anomalous_sine(200, 20, 100);
        let m = 16;
        let fast = stomp_metric(&x, m, ProfileMetric::Euclidean).unwrap();
        let excl = exclusion_zone(m);
        let count = x.len() - m + 1;
        for i in 0..count {
            let mut nn = f64::INFINITY;
            for j in 0..count {
                if j.abs_diff(i) < excl {
                    continue;
                }
                let d = tsad_core::dist::euclidean(&x[i..i + m], &x[j..j + m]).unwrap();
                nn = nn.min(d);
            }
            assert!(
                (fast.profile[i] - nn).abs() < 1e-6,
                "i={i}: {} vs {nn}",
                fast.profile[i]
            );
        }
    }

    #[test]
    fn nn_indices_respect_exclusion_zone() {
        let x = anomalous_sine(160, 16, 80);
        let mp = stomp(&x, 16).unwrap();
        let excl = exclusion_zone(16);
        for (i, &j) in mp.index.iter().enumerate() {
            assert!(j.abs_diff(i) >= excl, "i={i} j={j}");
        }
    }

    #[test]
    fn left_profile_matches_naive_left_scan() {
        let x = anomalous_sine(200, 20, 120);
        let m = 16;
        let left = left_stomp(&x, m, ProfileMetric::ZNormalized).unwrap();
        let excl = exclusion_zone(m);
        let count = x.len() - m + 1;
        for i in (excl + 2 * m + 1)..count {
            let mut nn = f64::INFINITY;
            for j in 0..i {
                if i - j < excl {
                    continue;
                }
                let d = tsad_core::dist::znorm_euclidean(&x[i..i + m], &x[j..j + m]).unwrap();
                nn = nn.min(d);
            }
            if nn.is_finite() {
                assert!(
                    (left.profile[i] - nn).abs() < 1e-6,
                    "i={i}: {} vs {nn}",
                    left.profile[i]
                );
            }
        }
    }

    #[test]
    fn left_profile_discord_is_the_first_novel_event() {
        // two identical anomalous cycles: the SELF-JOIN profile pairs them
        // (neither is a discord), but the LEFT profile still flags the
        // first occurrence — the streaming advantage
        let period = 24;
        let x: Vec<f64> = (0..480)
            .map(|i| {
                let base = (i as f64 * std::f64::consts::TAU / period as f64).sin();
                // events 8 periods apart: identical shape AND phase
                if (192..204).contains(&i) || (384..396).contains(&i) {
                    base + 2.0
                } else {
                    base
                }
            })
            .collect();
        let full = stomp(&x, period).unwrap();
        let left = left_stomp(&x, period, ProfileMetric::ZNormalized).unwrap();
        let (left_loc, _) = left.discord().unwrap();
        assert!(
            (170..=204).contains(&left_loc),
            "left discord at the first event: {left_loc}"
        );
        // the self-join profile at the first event is depressed by the twin
        let first_event_profile = full.profile[190];
        let left_event_profile = left.profile[190];
        assert!(left_event_profile >= first_event_profile - 1e-9);
    }

    #[test]
    fn online_detector_flags_first_novelty() {
        let x = anomalous_sine(400, 20, 300);
        let ts = TimeSeries::new("online", x).unwrap();
        let det = OnlineDiscordDetector::new(20);
        let peak = crate::most_anomalous_point(&det, &ts, 0).unwrap();
        assert!((280..=330).contains(&peak), "peak {peak}");
        assert_eq!(det.name(), "online discord (left profile)");
    }

    #[test]
    fn detector_scores_full_length() {
        let x = anomalous_sine(200, 20, 100);
        let ts = TimeSeries::new("s", x).unwrap();
        let det = DiscordDetector::new(20);
        let s = det.score(&ts, 50).unwrap();
        assert_eq!(s.len(), ts.len());
        assert_eq!(det.name(), "discord (matrix profile)");
    }
}
