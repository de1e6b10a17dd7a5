//! Minimal complex arithmetic and an iterative radix-2 FFT.
//!
//! This exists to support MASS (Mueen's Algorithm for Similarity Search),
//! the `O(n log n)` sliding-dot-product kernel behind the STAMP matrix
//! profile. We implement it here rather than pulling in an FFT crate — the
//! required surface is tiny (power-of-two forward/inverse transforms and a
//! real-input cross-correlation) and keeping it local keeps the workspace on
//! the approved dependency list.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use tsad_obs::Counter;

use crate::error::{CoreError, Result};
use crate::simd::{self, Backend, C64Lanes, Isa, Kernel};

/// Plan served from a cache (thread-local mirror or the shared store)
/// without rebuilding twiddle tables. Covers both complex and real plans.
static PLAN_HIT: Counter = Counter::new("core.fft.plan_hit");
/// Plan built from scratch (first transform of this size in the process).
static PLAN_MISS: Counter = Counter::new("core.fft.plan_miss");
/// Sliding-dot-product call served by already-warm thread-local scratch.
static SCRATCH_REUSE: Counter = Counter::new("core.fft.scratch_reuse");
/// Sliding-dot-product call that had to (re)allocate its scratch buffers.
static SCRATCH_GROW: Counter = Counter::new("core.fft.scratch_grow");

/// A complex number with `f64` components.
///
/// `repr(C)` so a `[Complex]` slice is exactly an interleaved
/// `re, im, re, im, …` sequence of f64 values — the layout the SIMD lane
/// types in [`crate::simd`] load and store directly.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    pub re: f64,
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A real number as a complex number.
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// Smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// Precomputed twiddle factors for one power-of-two transform size, both
/// directions.
///
/// The tables are laid out stage by stage (`len = 2, 4, …, n`, `len/2`
/// roots per stage, `n − 1` entries total) and are generated with the same
/// incremental `w ← w · w_len` recurrence the direct butterfly loop used,
/// so a plan-driven transform is **bitwise identical** to the historical
/// recompute-every-call implementation.
#[derive(Debug)]
pub struct FftPlan {
    /// Transform size (a power of two).
    pub n: usize,
    forward: Vec<Complex>,
    inverse: Vec<Complex>,
}

impl FftPlan {
    /// Builds the twiddle tables for size `n` (must be a power of two).
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        Self {
            n,
            forward: Self::tables(n, -1.0),
            inverse: Self::tables(n, 1.0),
        }
    }

    fn tables(n: usize, sign: f64) -> Vec<Complex> {
        let mut t = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let angle = sign * std::f64::consts::TAU / len as f64;
            let wlen = Complex::new(angle.cos(), angle.sin());
            let mut w = Complex::from_real(1.0);
            for _ in 0..len / 2 {
                t.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        t
    }
}

/// Number of cacheable transform sizes: `log2(n)` must be below this. The
/// twiddle tables for a `2^39`-point transform alone would be terabytes, so
/// the bound is unreachable in practice; larger sizes are rejected like any
/// other invalid length.
pub const PLAN_SLOTS: usize = 40;

/// Process-wide plan store: a **fixed-size** array indexed by `log2(n)`.
/// Shared so a plan built by one worker thread is visible to all; the lock
/// is held only for a lookup or an insert, never while transforming. The
/// fixed array (rather than a grow-by-index `Vec`) means a lookup never
/// reallocates cache storage and never leaves `None` holes to resize
/// around — plan lookup is allocation-free once a plan exists.
static SHARED_PLANS: Mutex<[Option<Arc<FftPlan>>; PLAN_SLOTS]> =
    Mutex::new([const { None }; PLAN_SLOTS]);

thread_local! {
    /// Per-thread lock-free mirror of [`SHARED_PLANS`]: after the first
    /// transform of a given size on a thread, plan lookup touches no lock
    /// and performs no allocation.
    static LOCAL_PLANS: RefCell<[Option<Arc<FftPlan>>; PLAN_SLOTS]> =
        const { RefCell::new([const { None }; PLAN_SLOTS]) };
}

fn plan_index(n: usize) -> Result<usize> {
    if n == 0 || !n.is_power_of_two() || (n.trailing_zeros() as usize) >= PLAN_SLOTS {
        return Err(CoreError::BadParameter {
            name: "fft_len",
            value: n as f64,
            expected: "a power of two below 2^40",
        });
    }
    Ok(n.trailing_zeros() as usize)
}

/// Fetches (building and caching if needed) the twiddle plan for a
/// power-of-two size `n`. Repeated same-length transforms — STOMP seed
/// rows, MASS scans, per-window STAMP queries — stop recomputing roots of
/// unity; the tables cost `2(n − 1)` complex values per cached size, a
/// geometric series bounded by ~4× the largest transform.
pub fn fft_plan(n: usize) -> Result<Arc<FftPlan>> {
    let idx = plan_index(n)?;
    LOCAL_PLANS.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(plan) = &local[idx] {
            PLAN_HIT.inc();
            return Ok(plan.clone());
        }
        let plan = match &mut SHARED_PLANS.lock().expect("fft plan cache poisoned")[idx] {
            Some(plan) => {
                PLAN_HIT.inc();
                plan.clone()
            }
            slot @ None => {
                PLAN_MISS.inc();
                slot.insert(Arc::new(FftPlan::new(n))).clone()
            }
        };
        local[idx] = Some(plan.clone());
        Ok(plan)
    })
}

/// Twiddle plan for a real-input transform of `n` real points: the complex
/// plan for the half-size transform plus the pack/unpack roots
/// `e^{-2πik/n}` for `k = 0 ..= n/4`.
#[derive(Debug)]
pub struct RfftPlan {
    /// Real transform size (a power of two, `>= 2`).
    pub n: usize,
    half: Arc<FftPlan>,
    /// `twiddles[k] = e^{-2πik/n}`, `k = 0 ..= n/4`, generated with the
    /// same incremental recurrence as the complex tables.
    twiddles: Vec<Complex>,
}

impl RfftPlan {
    fn new(n: usize, half: Arc<FftPlan>) -> Self {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let angle = -std::f64::consts::TAU / n as f64;
        let wlen = Complex::new(angle.cos(), angle.sin());
        let mut w = Complex::from_real(1.0);
        let mut twiddles = Vec::with_capacity(n / 4 + 1);
        for _ in 0..=n / 4 {
            twiddles.push(w);
            w = w * wlen;
        }
        Self { n, half, twiddles }
    }
}

/// Process-wide real-plan store, fixed-size like [`SHARED_PLANS`].
static SHARED_RPLANS: Mutex<[Option<Arc<RfftPlan>>; PLAN_SLOTS]> =
    Mutex::new([const { None }; PLAN_SLOTS]);

thread_local! {
    static LOCAL_RPLANS: RefCell<[Option<Arc<RfftPlan>>; PLAN_SLOTS]> =
        const { RefCell::new([const { None }; PLAN_SLOTS]) };
}

/// Fetches (building and caching if needed) the real-input plan for a
/// power-of-two size `n >= 2`. Same caching discipline as [`fft_plan`]:
/// fixed-slot stores, shared across threads, mirrored thread-locally, and
/// allocation-free on the steady-state lookup path.
pub fn rfft_plan(n: usize) -> Result<Arc<RfftPlan>> {
    let idx = plan_index(n)?;
    if n < 2 {
        return Err(CoreError::BadParameter {
            name: "rfft_len",
            value: n as f64,
            expected: "a power of two >= 2",
        });
    }
    let half = fft_plan(n / 2)?;
    LOCAL_RPLANS.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(plan) = &local[idx] {
            PLAN_HIT.inc();
            return Ok(plan.clone());
        }
        let plan = match &mut SHARED_RPLANS.lock().expect("rfft plan cache poisoned")[idx] {
            Some(plan) => {
                PLAN_HIT.inc();
                plan.clone()
            }
            slot @ None => {
                PLAN_MISS.inc();
                slot.insert(Arc::new(RfftPlan::new(n, half))).clone()
            }
        };
        local[idx] = Some(plan.clone());
        Ok(plan)
    })
}

/// In-place iterative radix-2 Cooley–Tukey FFT. `data.len()` must be a power
/// of two. `inverse` selects the inverse transform (including the `1/n`
/// scaling, so `ifft(fft(x)) == x`). Twiddle factors come from the cached
/// [`FftPlan`] for this size.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) -> Result<()> {
    let plan = fft_plan(data.len())?;
    fft_with_plan(data, &plan, inverse);
    Ok(())
}

/// The butterfly passes, driven by a prebuilt plan. `data.len()` must equal
/// `plan.n`. Dispatches on [`simd::current`]; every backend performs the
/// same per-element operation chain, so the output is bitwise identical
/// across backends on finite inputs (DESIGN.md §11).
pub fn fft_with_plan(data: &mut [Complex], plan: &FftPlan, inverse: bool) {
    fft_with_plan_be(data, plan, inverse, simd::current());
}

/// [`fft_with_plan`] with a pre-resolved backend, so compound kernels (the
/// sliding dot product runs four transform passes) resolve dispatch exactly
/// once at their own entry.
fn fft_with_plan_be(data: &mut [Complex], plan: &FftPlan, inverse: bool, backend: Backend) {
    let n = data.len();
    assert_eq!(n, plan.n, "plan size mismatch");
    // Bit-reversal permutation (random-access swaps; stays scalar).
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let twiddles = if inverse {
        &plan.inverse
    } else {
        &plan.forward
    };
    let scale = if inverse { Some(1.0 / n as f64) } else { None };
    simd::dispatch(backend, Pass::Butterflies(data, twiddles, scale));
}

/// One vectorized pass of the transforms, run under a backend by
/// [`simd::dispatch`] over its complex lanes.
enum Pass<'a> {
    /// [`butterflies_lanes`] with the stage twiddles and optional scale.
    Butterflies(&'a mut [Complex], &'a [Complex], Option<f64>),
    /// [`unpack_forward_lanes`] with the unpack twiddles.
    UnpackForward(&'a mut [Complex], &'a [Complex]),
    /// [`unpack_inverse_lanes`] with the unpack twiddles.
    UnpackInverse(&'a mut [Complex], &'a [Complex]),
    /// [`spectrum_mul_lanes`] of the first spectrum by the second.
    SpectrumMul(&'a mut [Complex], &'a [Complex]),
}

impl Kernel for Pass<'_> {
    type Output = ();

    #[inline(always)]
    fn run<I: Isa>(self) {
        match self {
            Pass::Butterflies(data, twiddles, scale) => {
                butterflies_lanes::<I::C>(data, twiddles, scale)
            }
            Pass::UnpackForward(out, twiddles) => unpack_forward_lanes::<I::C>(out, twiddles),
            Pass::UnpackInverse(x, twiddles) => unpack_inverse_lanes::<I::C>(x, twiddles),
            Pass::SpectrumMul(a, b) => spectrum_mul_lanes::<I::C>(a, b),
        }
    }
}

/// All butterfly stages plus the optional inverse `1/n` scaling, generic
/// over the complex lane width. The per-element chain is exactly the scalar
/// `u + v·w` / `u − v·w` butterfly (the lane `mul_complex` documents its
/// bitwise contract), so every instantiation agrees bitwise on finite input.
#[inline(always)]
fn butterflies_lanes<C: C64Lanes>(data: &mut [Complex], twiddles: &[Complex], scale: Option<f64>) {
    let n = data.len();
    let ptr = data.as_mut_ptr() as *mut f64;
    let mut offset = 0;
    let mut len = 2;
    if len <= n {
        // len == 2: every butterfly uses the single stage twiddle (1 + 0i),
        // so C consecutive blocks can run per vector after a de-interleave
        // (`gather_lo`/`gather_hi` split [u0 v0 u1 v1] into us/vs and fuse
        // the results back — the identity when C == 1).
        let w = C::splat(twiddles[0].re, twiddles[0].im);
        let step = 2 * C::COMPLEX;
        let mut i = 0;
        while i + step <= n {
            // SAFETY: complexes [i, i + 2C) are in bounds; the two loads
            // cover disjoint halves of that range.
            unsafe {
                let x0 = C::load(ptr.add(2 * i));
                let x1 = C::load(ptr.add(2 * (i + C::COMPLEX)));
                let u = x0.gather_lo(x1);
                let v = x0.gather_hi(x1).mul_complex(w);
                let a = u.add(v);
                let b = u.sub(v);
                a.gather_lo(b).store(ptr.add(2 * i));
                a.gather_hi(b).store(ptr.add(2 * (i + C::COMPLEX)));
            }
            i += step;
        }
        while i < n {
            let u = data[i];
            let v = data[i + 1] * twiddles[0];
            data[i] = u + v;
            data[i + 1] = u - v;
            i += 2;
        }
        offset += 1;
        len = 4;
    }
    while len <= n {
        let half = len / 2;
        let stage = &twiddles[offset..offset + half];
        let mut i = 0;
        while i < n {
            let mut k = 0;
            // half >= 2 is a multiple of every lane width here (C <= 2),
            // so the vector loop covers the stage exactly.
            while k + C::COMPLEX <= half {
                // SAFETY: k + C <= half keeps both halves of the butterfly
                // in bounds and non-overlapping; the twiddle load reads
                // repr(C) complex values within the stage slice.
                unsafe {
                    let u = C::load(ptr.add(2 * (i + k)));
                    let v = C::load(ptr.add(2 * (i + k + half)));
                    let w = C::load(stage.as_ptr().add(k) as *const f64);
                    let t = v.mul_complex(w);
                    u.add(t).store(ptr.add(2 * (i + k)));
                    u.sub(t).store(ptr.add(2 * (i + k + half)));
                }
                k += C::COMPLEX;
            }
            while k < half {
                let u = data[i + k];
                let v = data[i + k + half] * stage[k];
                data[i + k] = u + v;
                data[i + k + half] = u - v;
                k += 1;
            }
            i += len;
        }
        offset += half;
        len <<= 1;
    }
    if let Some(s) = scale {
        let mut i = 0;
        while i + C::COMPLEX <= n {
            // SAFETY: complexes [i, i + C) are in bounds.
            unsafe { C::load(ptr.add(2 * i)).scale(s).store(ptr.add(2 * i)) };
            i += C::COMPLEX;
        }
        while i < n {
            data[i].re *= s;
            data[i].im *= s;
            i += 1;
        }
    }
}

/// Query lengths at or below this go through the `O(n·m)` direct scan
/// instead of the FFT. Measured on the bench host (release mode, series
/// lengths 4k–128k): the direct scan's `2·n·m` flops beat the three
/// `next_pow2(n + m)`-point transforms plus padding/copy overhead at every
/// `m ≤ 128` (ratios 1.3–20×), while the FFT wins everywhere by `m = 256`
/// (ratios 0.56–0.75). 128 is the conservative edge of the measured band,
/// so short-query callers (small STOMP seeds, short MASS scans) never pay
/// the padding cost.
pub const FFT_CROSSOVER_M: usize = 128;

/// Sliding dot products of `query` against every length-`m` window of
/// `series`: `out[i] = Σ_j query[j] · series[i + j]` for `i = 0 ..= n − m`.
///
/// Dispatches on query length: at most [`FFT_CROSSOVER_M`] the direct
/// `O(n·m)` scan is used (FFT padding overhead dominates below it);
/// longer queries go through the `O(n log n)` FFT cross-correlation. The
/// choice depends only on `m`, so results are deterministic for a given
/// input regardless of thread count or call history.
pub fn sliding_dot_product(query: &[f64], series: &[f64]) -> Result<Vec<f64>> {
    if query.len() <= FFT_CROSSOVER_M {
        sliding_dot_product_naive(query, series)
    } else {
        sliding_dot_product_fft(query, series)
    }
}

/// [`sliding_dot_product`] writing into a caller-owned buffer (cleared
/// first): the allocation-free entry point for kernels that call the scan
/// in a loop. Same `m`-only dispatch, bitwise identical to the returning
/// form.
pub fn sliding_dot_product_into(query: &[f64], series: &[f64], out: &mut Vec<f64>) -> Result<()> {
    if query.len() <= FFT_CROSSOVER_M {
        sliding_dot_product_naive_into(query, series, out)
    } else {
        sliding_dot_product_fft_into(query, series, out)
    }
}

/// Real input feeding a packed transform: a sample slice, optionally
/// reversed, always zero-padded out to the transform size. Replacing the
/// old closure-per-sample packing with slice chunking turned the pack pass
/// into straight-line copies the compiler vectorizes on every backend.
enum RealSource<'a> {
    /// `sample(i) = s[i]` for `i < s.len()`, else `0.0`.
    Padded(&'a [f64]),
    /// `sample(i) = s[len − 1 − i]` for `i < s.len()`, else `0.0` (the
    /// reversed-query form that turns convolution into correlation).
    PaddedReversed(&'a [f64]),
}

/// Forward half of the packed real transform: pack the source into `n/2`
/// complex points, run the half-size complex FFT, and unpack in place into
/// the **packed spectrum** layout: slot `k` (`1 <= k < n/2`) holds `X[k]`;
/// slot 0 holds `{re: X[0], im: X[n/2]}` (both bins are purely real for
/// real input, so they share a slot and nothing is lost).
fn rfft_with_plan(plan: &RfftPlan, out: &mut Vec<Complex>, src: RealSource<'_>, backend: Backend) {
    let h = plan.n / 2;
    out.clear();
    out.reserve(h);
    match src {
        RealSource::Padded(s) => {
            let mut chunks = s.chunks_exact(2);
            out.extend(chunks.by_ref().map(|c| Complex::new(c[0], c[1])));
            if let [last] = chunks.remainder() {
                out.push(Complex::new(*last, 0.0));
            }
        }
        RealSource::PaddedReversed(s) => {
            let mut chunks = s.rchunks_exact(2);
            out.extend(chunks.by_ref().map(|c| Complex::new(c[1], c[0])));
            if let [first] = chunks.remainder() {
                out.push(Complex::new(*first, 0.0));
            }
        }
    }
    out.resize(h, Complex::default());
    fft_with_plan_be(out, &plan.half, false, backend);
    simd::dispatch(backend, Pass::UnpackForward(out, &plan.twiddles));
}

/// The forward unpack pass: with Z the half transform,
/// `E_k = (Z[k] + conj(Z[h−k]))/2` and `O_k = (Z[k] − conj(Z[h−k]))/(2i)`
/// are the even/odd-sample DFTs, and `X[k] = E_k + w^k·O_k`,
/// `X[h−k] = conj(E_k − w^k·O_k)` with `w = e^{-2πi/n}`.
///
/// Vector slots `k .. k+C` pair with slots `h−k−C+1 ..= h−k` loaded in
/// reversed complex order; the loop bound `2(k+C−1) < h` is exactly the
/// condition that the two ranges never overlap, and the scalar tail
/// finishes the middle. Per-slot chains match the historical scalar code
/// bit for bit (negate-then-add equals subtract in IEEE arithmetic).
#[inline(always)]
fn unpack_forward_lanes<C: C64Lanes>(out: &mut [Complex], twiddles: &[Complex]) {
    let h = out.len();
    let z0 = out[0];
    out[0] = Complex::new(z0.re + z0.im, z0.re - z0.im);
    let ptr = out.as_mut_ptr() as *mut f64;
    let mut k = 1;
    while 2 * (k + C::COMPLEX - 1) < h {
        let rev = h - k - (C::COMPLEX - 1);
        // SAFETY: 1 <= k, k + C - 1 < rev (the loop bound), and
        // rev + C - 1 = h - k < h keep both ranges in bounds and disjoint.
        unsafe {
            let a = C::load(ptr.add(2 * k));
            let b = C::load_reversed(ptr.add(2 * rev));
            let e = a.add(b.conj()).scale(0.5);
            let f = a.sub(b.conj()).scale(0.5);
            let w = C::load(twiddles.as_ptr().add(k) as *const f64);
            let wo = w.mul_complex(f).swap_re_im().conj(); // −i·(w^k·F)
            e.add(wo).store(ptr.add(2 * k));
            e.sub(wo).conj().store_reversed(ptr.add(2 * rev));
        }
        k += C::COMPLEX;
    }
    while 2 * k < h {
        let a = out[k];
        let b = out[h - k];
        let e = Complex::new((a.re + b.re) * 0.5, (a.im - b.im) * 0.5);
        let f = Complex::new((a.re - b.re) * 0.5, (a.im + b.im) * 0.5);
        let t = twiddles[k] * f;
        let wo = Complex::new(t.im, -t.re); // −i·(w^k·F) = w^k·O_k
        out[k] = e + wo;
        out[h - k] = (e - wo).conj();
        k += 1;
    }
    if h >= 2 {
        // k = h/2 pairs with itself: w^{h/2} = −i collapses the formula.
        out[h / 2] = out[h / 2].conj();
    }
}

/// Pointwise product of two packed spectra (the frequency-domain step of a
/// real convolution). Slot 0 multiplies componentwise because `X[0]` and
/// `X[n/2]` are independent real bins sharing the slot.
pub fn packed_spectrum_mul(a: &mut [Complex], b: &[Complex]) {
    packed_spectrum_mul_be(a, b, simd::current());
}

fn packed_spectrum_mul_be(a: &mut [Complex], b: &[Complex], backend: Backend) {
    debug_assert_eq!(a.len(), b.len());
    simd::dispatch(backend, Pass::SpectrumMul(a, b));
}

#[inline(always)]
fn spectrum_mul_lanes<C: C64Lanes>(a: &mut [Complex], b: &[Complex]) {
    a[0] = Complex::new(a[0].re * b[0].re, a[0].im * b[0].im);
    let n = a.len();
    let pa = a.as_mut_ptr() as *mut f64;
    let pb = b.as_ptr() as *const f64;
    let mut k = 1;
    while k + C::COMPLEX <= n {
        // SAFETY: complexes [k, k + C) are in bounds of both equal-length
        // slices.
        unsafe {
            let x = C::load(pa.add(2 * k));
            let y = C::load(pb.add(2 * k));
            x.mul_complex(y).store(pa.add(2 * k));
        }
        k += C::COMPLEX;
    }
    while k < n {
        a[k] = a[k] * b[k];
        k += 1;
    }
}

/// Inverse half of the packed real transform, in place: rebuild the
/// half-size spectrum `Z` from the packed `X`, then run the inverse
/// half-size FFT (whose `1/(n/2)` scaling makes the roundtrip exact, and
/// makes `irfft(X·Y)` the properly scaled circular convolution). Afterwards
/// slot `k` holds the real samples `{re: x[2k], im: x[2k+1]}`.
fn irfft_with_plan(plan: &RfftPlan, x: &mut [Complex], backend: Backend) {
    simd::dispatch(backend, Pass::UnpackInverse(x, &plan.twiddles));
    fft_with_plan_be(x, &plan.half, true, backend);
}

/// Inverse of the forward unpack: `E_k = (X[k] + conj(X[h−k]))/2`,
/// `w^k·O_k = (X[k] − conj(X[h−k]))/2`, `Z[k] = E_k + i·O_k`,
/// `Z[h−k] = conj(E_k) + i·conj(O_k)`. Same pairing, bounds, and bitwise
/// reasoning as [`unpack_forward_lanes`].
#[inline(always)]
fn unpack_inverse_lanes<C: C64Lanes>(x: &mut [Complex], twiddles: &[Complex]) {
    let h = x.len();
    let x0 = x[0];
    x[0] = Complex::new((x0.re + x0.im) * 0.5, (x0.re - x0.im) * 0.5);
    let ptr = x.as_mut_ptr() as *mut f64;
    let mut k = 1;
    while 2 * (k + C::COMPLEX - 1) < h {
        let rev = h - k - (C::COMPLEX - 1);
        // SAFETY: same disjoint-range argument as the forward unpack.
        unsafe {
            let a = C::load(ptr.add(2 * k));
            let b = C::load_reversed(ptr.add(2 * rev));
            let e = a.add(b.conj()).scale(0.5);
            let g = a.sub(b.conj()).scale(0.5);
            let w = C::load(twiddles.as_ptr().add(k) as *const f64);
            let o = w.conj().mul_complex(g);
            // Z[k] = E + i·O; Z[h−k] = conj(E) + i·conj(O) — i· is
            // swap_re_im + neg_re, and i·conj(o) swaps without negating.
            e.add(o.swap_re_im().neg_re()).store(ptr.add(2 * k));
            e.conj()
                .add(o.swap_re_im())
                .store_reversed(ptr.add(2 * rev));
        }
        k += C::COMPLEX;
    }
    while 2 * k < h {
        let a = x[k];
        let b = x[h - k];
        let e = Complex::new((a.re + b.re) * 0.5, (a.im - b.im) * 0.5);
        let g = Complex::new((a.re - b.re) * 0.5, (a.im + b.im) * 0.5);
        let o = twiddles[k].conj() * g;
        x[k] = Complex::new(e.re - o.im, e.im + o.re);
        x[h - k] = Complex::new(e.re + o.im, o.re - e.im);
        k += 1;
    }
    if h >= 2 {
        x[h / 2] = x[h / 2].conj();
    }
}

/// Real-input FFT: writes the packed `n/2`-point spectrum of the length-`n`
/// real `input` (a power of two, `>= 2`) into `out`. `out` is reused via
/// `clear` + `extend`, so repeated same-size calls allocate nothing once
/// its capacity suffices. See [`packed_spectrum_mul`] for the slot layout.
pub fn rfft(input: &[f64], out: &mut Vec<Complex>) -> Result<()> {
    let plan = rfft_plan(input.len())?;
    rfft_with_plan(&plan, out, RealSource::Padded(input), simd::current());
    Ok(())
}

/// Inverse real-input FFT: consumes a packed spectrum of `n/2` slots
/// (mutated in place) and appends the `n` recovered real samples to `out`
/// after clearing it. `irfft(rfft(x))` reproduces `x` up to rounding.
pub fn irfft(spec: &mut [Complex], out: &mut Vec<f64>) -> Result<()> {
    let n = spec.len() * 2;
    let plan = rfft_plan(n)?;
    irfft_with_plan(&plan, spec, simd::current());
    out.clear();
    out.extend_from_slice(complex_as_f64s(spec));
    Ok(())
}

/// A `[Complex]` slice viewed as its interleaved `re, im, …` f64 sequence.
/// Sound because [`Complex`] is `repr(C)` with two f64 fields and no
/// padding.
fn complex_as_f64s(spec: &[Complex]) -> &[f64] {
    // SAFETY: repr(C) guarantees the layout; length doubles exactly.
    unsafe { std::slice::from_raw_parts(spec.as_ptr() as *const f64, spec.len() * 2) }
}

/// Reusable frequency-domain buffers for [`sliding_dot_product_fft_into`].
/// One per thread; both vectors are fully overwritten each call, so no
/// numeric state leaks between calls — only capacity is reused.
struct SdpScratch {
    series_spec: Vec<Complex>,
    query_spec: Vec<Complex>,
}

impl SdpScratch {
    const fn new() -> Self {
        Self {
            series_spec: Vec::new(),
            query_spec: Vec::new(),
        }
    }
}

thread_local! {
    static SDP_SCRATCH: RefCell<SdpScratch> = const { RefCell::new(SdpScratch::new()) };
}

/// The FFT cross-correlation path of [`sliding_dot_product`], callable
/// directly (the crossover tests compare the paths). Runs over
/// the packed real-input transform: two forward half-size FFTs, a packed
/// pointwise product, one inverse — half the butterfly work of the complex
/// formulation in [`sliding_dot_product_fft_complex`].
pub fn sliding_dot_product_fft(query: &[f64], series: &[f64]) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    sliding_dot_product_fft_into(query, series, &mut out)?;
    Ok(out)
}

/// Smallest overlap-save block (in real points). A 16384-point block keeps
/// the whole working set — 8192 packed complex points, the 8192-point
/// half-plan twiddles, the pack/unpack roots, and the precomputed query
/// spectrum — resident in a ~2 MB L2, which is what lets the vector
/// butterflies run at compute speed instead of memory speed. Below one
/// block's worth of work the single-transform path is used unchanged.
const SDP_BLOCK_MIN: usize = 16_384;

/// The FFT size [`sliding_dot_product_fft_into`] uses for a given shape:
/// the overlap-save block when the series is long enough to split (the
/// block must hold at least `4·m` points so the discarded `m − 1`-point
/// overlap stays a minority of each block), else the full padded size.
/// A pure function of `(n, m)` — like the naive/FFT crossover, the choice
/// can never depend on thread count or call history.
fn sdp_fft_size(n: usize, m: usize) -> usize {
    // linear correlation needs n + m points of headroom (the highest used
    // convolution index is n - 1 + m); padding to 2n would double the FFT
    // whenever n + m lands below a power-of-two boundary that 2n crosses
    let full = next_pow2(n + m);
    let block = next_pow2(4 * m).max(SDP_BLOCK_MIN);
    if block < full {
        block
    } else {
        full
    }
}

/// [`sliding_dot_product_fft`] writing into a caller-owned buffer. Repeated
/// calls with the same `(n, m)` shape — STOMP seed rows, STAMP's per-row
/// scans, MERLIN's length sweep — perform zero heap allocations once the
/// thread-local scratch and `out` have warmed up.
///
/// Long series run in **overlap-save** blocks of `sdp_fft_size` points:
/// the reversed query's spectrum is transformed once, then each block of
/// the series is transformed, multiplied, and inverted in L2-resident
/// buffers, with consecutive blocks overlapping by `m − 1` points (the
/// circular-wraparound prefix of each block's convolution is discarded).
/// Short series keep the historical single full-size transform.
pub fn sliding_dot_product_fft_into(
    query: &[f64],
    series: &[f64],
    out: &mut Vec<f64>,
) -> Result<()> {
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return Err(CoreError::BadWindow { window: m, len: n });
    }
    let size = sdp_fft_size(n, m);
    let plan = rfft_plan(size)?;
    // One dispatch resolution covers every transform pass of every block
    // (and any worker thread this call runs on inherits the caller's
    // choice).
    let backend = simd::current();
    SDP_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        // The spectra hold size/2 packed complex points (see rfft_with_plan);
        // enough capacity in both buffers means this call allocates nothing.
        if scratch.series_spec.capacity() >= size / 2 && scratch.query_spec.capacity() >= size / 2 {
            SCRATCH_REUSE.inc();
        } else {
            SCRATCH_GROW.inc();
        }
        let ts = &mut scratch.series_spec;
        let q = &mut scratch.query_spec;
        // Reverse the query so that convolution computes correlation.
        rfft_with_plan(&plan, q, RealSource::PaddedReversed(query), backend);
        out.clear();
        out.reserve(n - m + 1);
        // Each block contributes `step` outputs; the first `m − 1` slots of
        // its circular convolution wrap around and are discarded, which is
        // why consecutive blocks re-read the previous block's tail.
        let step = size - m + 1;
        let total = n - m + 1;
        let mut start = 0;
        while start < total {
            let chunk = &series[start..n.min(start + size)];
            rfft_with_plan(&plan, ts, RealSource::Padded(chunk), backend);
            packed_spectrum_mul_be(ts, q, backend);
            irfft_with_plan(&plan, ts, backend);
            // Convolution index m-1+t holds Σ_j query[j]·chunk[t+j]; after
            // the inverse, slot k packs real samples {2k, 2k+1} — so the
            // valid outputs are a contiguous f64 run of the interleaved
            // buffer starting at m-1.
            let take = step.min(total - start);
            out.extend_from_slice(&complex_as_f64s(ts)[m - 1..m - 1 + take]);
            start += step;
        }
    });
    Ok(())
}

/// The historical complex-transform formulation of the FFT path: three
/// full-size complex transforms with the series and reversed query each
/// promoted to complex. Kept as an independent oracle for the rfft path
/// (the property tests pit it against both the packed path and the naive
/// scan) — not used by the dispatcher.
pub fn sliding_dot_product_fft_complex(query: &[f64], series: &[f64]) -> Result<Vec<f64>> {
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return Err(CoreError::BadWindow { window: m, len: n });
    }
    let size = next_pow2(n + m);
    let mut ts: Vec<Complex> = Vec::with_capacity(size);
    ts.extend(series.iter().map(|&v| Complex::from_real(v)));
    ts.resize(size, Complex::default());
    let mut q: Vec<Complex> = Vec::with_capacity(size);
    q.extend(query.iter().rev().map(|&v| Complex::from_real(v)));
    q.resize(size, Complex::default());

    let plan = fft_plan(size)?;
    fft_with_plan(&mut ts, &plan, false);
    fft_with_plan(&mut q, &plan, false);
    for (a, b) in ts.iter_mut().zip(&q) {
        *a = *a * *b;
    }
    fft_with_plan(&mut ts, &plan, true);

    Ok((0..=n - m).map(|i| ts[m - 1 + i].re).collect())
}

/// Naive `O(n·m)` sliding dot product — reference implementation used in
/// tests and for short queries where FFT overhead dominates.
pub fn sliding_dot_product_naive(query: &[f64], series: &[f64]) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    sliding_dot_product_naive_into(query, series, &mut out)?;
    Ok(out)
}

/// [`sliding_dot_product_naive`] writing into a caller-owned buffer
/// (cleared first); allocation-free once `out` has capacity.
pub fn sliding_dot_product_naive_into(
    query: &[f64],
    series: &[f64],
    out: &mut Vec<f64>,
) -> Result<()> {
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return Err(CoreError::BadWindow { window: m, len: n });
    }
    out.clear();
    out.reserve(n - m + 1);
    out.extend((0..=n - m).map(|i| {
        query
            .iter()
            .zip(&series[i..i + m])
            .map(|(&a, &b)| a * b)
            .sum::<f64>()
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(1000), 1024);
    }

    #[test]
    fn fft_rejects_non_pow2() {
        let mut data = vec![Complex::default(); 3];
        assert!(fft_in_place(&mut data, false).is_err());
        let mut empty: Vec<Complex> = vec![];
        assert!(fft_in_place(&mut empty, false).is_err());
    }

    #[test]
    fn fft_roundtrip() {
        let original: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut data = original.clone();
        fft_in_place(&mut data, false).unwrap();
        fft_in_place(&mut data, true).unwrap();
        for (a, b) in data.iter().zip(&original) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::from_real(1.0);
        fft_in_place(&mut data, false).unwrap();
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::from_real((i as f64).sin()))
            .collect();
        let time_energy: f64 = x.iter().map(|c| c.re * c.re + c.im * c.im).sum();
        let mut f = x.clone();
        fft_in_place(&mut f, false).unwrap();
        let freq_energy: f64 =
            f.iter().map(|c| c.re * c.re + c.im * c.im).sum::<f64>() / f.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn sliding_dot_product_matches_naive() {
        let series: Vec<f64> = (0..200).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        for m in [1, 2, 3, 8, 64, 200] {
            let query: Vec<f64> = series.iter().take(m).map(|&v| v * 0.5 + 1.0).collect();
            let fast = sliding_dot_product(&query, &series).unwrap();
            let slow = sliding_dot_product_naive(&query, &series).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((a - b).abs() < 1e-6, "m={m} i={i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sliding_dot_product_rejects_bad_sizes() {
        assert!(sliding_dot_product(&[], &[1.0]).is_err());
        assert!(sliding_dot_product(&[1.0, 2.0], &[1.0]).is_err());
        assert!(sliding_dot_product_naive(&[], &[1.0]).is_err());
        assert!(sliding_dot_product_fft(&[], &[1.0]).is_err());
    }

    #[test]
    fn plan_cache_reuses_plans() {
        let a = fft_plan(256).unwrap();
        let b = fft_plan(256).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.n, 256);
        assert!(fft_plan(0).is_err());
        assert!(fft_plan(24).is_err());
    }

    #[test]
    fn plan_lookup_never_reallocates_the_cache() {
        // The stores are fixed-size arrays indexed by log2(n): interleaved
        // lookups of other sizes must not move previously cached plans (a
        // grow-by-index Vec would reallocate and a pointer-identity check
        // like this would be the first thing to catch a regression).
        let first = fft_plan(64).unwrap();
        for shift in [1usize, 3, 5, 7, 9, 11] {
            fft_plan(1 << shift).unwrap();
        }
        let again = fft_plan(64).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let rfirst = rfft_plan(128).unwrap();
        for shift in [2usize, 4, 6, 8] {
            rfft_plan(1 << shift).unwrap();
        }
        let ragain = rfft_plan(128).unwrap();
        assert!(Arc::ptr_eq(&rfirst, &ragain));
        // sizes at or above 2^PLAN_SLOTS are rejected, not grown into
        assert!(fft_plan(1usize << PLAN_SLOTS).is_err());
        assert!(rfft_plan(1usize << PLAN_SLOTS).is_err());
        assert!(rfft_plan(1).is_err(), "rfft needs at least two points");
    }

    #[test]
    fn rfft_roundtrip_recovers_input() {
        for n in [2usize, 4, 8, 64, 256] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
            let mut spec = Vec::new();
            rfft(&x, &mut spec).unwrap();
            assert_eq!(spec.len(), n / 2);
            let mut back = Vec::new();
            irfft(&mut spec, &mut back).unwrap();
            assert_eq!(back.len(), n);
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rfft_matches_complex_spectrum() {
        // The packed spectrum must agree with the plain complex transform of
        // the same real input: slot 0 carries {X[0], X[n/2]}, slot k carries
        // X[k] for 1 <= k < n/2.
        let n = 128;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.11).cos() * 2.0 - 0.5)
            .collect();
        let mut packed = Vec::new();
        rfft(&x, &mut packed).unwrap();
        let mut full: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        fft_in_place(&mut full, false).unwrap();
        assert!((packed[0].re - full[0].re).abs() < 1e-9);
        assert!((packed[0].im - full[n / 2].re).abs() < 1e-9);
        for k in 1..n / 2 {
            assert!((packed[k].re - full[k].re).abs() < 1e-9, "k={k}");
            assert!((packed[k].im - full[k].im).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn rfft_sdp_agrees_with_complex_and_naive_paths() {
        let series: Vec<f64> = (0..777)
            .map(|i| ((i * 29 % 41) as f64) * 0.25 - 3.0)
            .collect();
        for m in [1usize, 2, 129, 300, 777] {
            let query: Vec<f64> = series.iter().take(m).map(|&v| v * 0.8 - 0.4).collect();
            let packed = sliding_dot_product_fft(&query, &series).unwrap();
            let complex = sliding_dot_product_fft_complex(&query, &series).unwrap();
            let naive = sliding_dot_product_naive(&query, &series).unwrap();
            assert_eq!(packed.len(), complex.len());
            for i in 0..packed.len() {
                let scale = naive[i].abs().max(1.0);
                assert!(
                    (packed[i] - complex[i]).abs() < 1e-9 * scale,
                    "m={m} i={i}: packed {} vs complex {}",
                    packed[i],
                    complex[i]
                );
                assert!(
                    (packed[i] - naive[i]).abs() < 1e-9 * scale,
                    "m={m} i={i}: packed {} vs naive {}",
                    packed[i],
                    naive[i]
                );
            }
        }
    }

    #[test]
    fn into_variants_match_returning_forms_bitwise() {
        let series: Vec<f64> = (0..400).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let mut out = Vec::new();
        for m in [3usize, 64, 129, 256] {
            let query: Vec<f64> = series[1..1 + m].to_vec();
            sliding_dot_product_into(&query, &series, &mut out).unwrap();
            let owned = sliding_dot_product(&query, &series).unwrap();
            assert_eq!(out.len(), owned.len());
            assert!(out
                .iter()
                .zip(&owned)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn plan_driven_fft_is_bitwise_stable_across_calls() {
        let original: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
            .collect();
        let mut first = original.clone();
        fft_in_place(&mut first, false).unwrap();
        let mut second = original.clone();
        fft_in_place(&mut second, false).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn plans_are_shared_across_threads() {
        // a plan built on a worker thread comes from (or lands in) the
        // shared store, and transforms agree bitwise with the main thread's
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.05).sin()).collect();
        let q: Vec<f64> = x[7..7 + 96].to_vec();
        let here = sliding_dot_product_fft(&q, &x).unwrap();
        let there = std::thread::scope(|s| {
            s.spawn(|| sliding_dot_product_fft(&q, &x).unwrap())
                .join()
                .unwrap()
        });
        for (a, b) in here.iter().zip(&there) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sdp_fft_size_is_a_pure_shape_function() {
        // short series: the full padded transform, exactly as before
        assert_eq!(sdp_fft_size(600, 129), next_pow2(600 + 129));
        assert_eq!(sdp_fft_size(15_000, 512), next_pow2(15_512));
        // the bench shape splits into minimum-size L2-resident blocks
        assert_eq!(sdp_fft_size(65_536, 512), SDP_BLOCK_MIN);
        // long windows grow the block so the m-1 overlap stays a minority
        assert_eq!(sdp_fft_size(60_000, 5_000), 32_768);
        // ...until the full transform is no bigger anyway
        assert_eq!(sdp_fft_size(20_000, 20_000), next_pow2(40_000));
    }

    #[test]
    fn overlap_save_blocks_agree_with_naive() {
        // n is large enough that sliding_dot_product_fft runs the
        // overlap-save path; shapes cover a partial tail block, an exact
        // block multiple (total == 2*step), and a tail of exactly one
        // output (total == step + 1).
        let m = 200usize;
        let step = SDP_BLOCK_MIN - m + 1;
        let series: Vec<f64> = (0..2 * step + m - 1)
            .map(|i| ((i * 29 % 41) as f64) * 0.25 - 3.0)
            .collect();
        for n in [20_000usize, 2 * step + m - 1, step + m] {
            let x = &series[..n];
            assert!(sdp_fft_size(n, m) < next_pow2(n + m), "n={n} must split");
            let query: Vec<f64> = x[37..37 + m].iter().map(|&v| v * 0.8 - 0.4).collect();
            let fast = sliding_dot_product_fft(&query, x).unwrap();
            let naive = sliding_dot_product_naive(&query, x).unwrap();
            assert_eq!(fast.len(), naive.len());
            for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1.0),
                    "n={n} i={i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn crossover_pins_the_dispatch() {
        let series: Vec<f64> = (0..600)
            .map(|i| ((i * 37 % 23) as f64) * 0.5 - 4.0)
            .collect();
        // at the crossover: bitwise equal to the direct scan (proof the
        // naive path was taken — FFT rounding differs from exact dot
        // products on inputs like these)
        let q_small: Vec<f64> = series[3..3 + FFT_CROSSOVER_M].to_vec();
        let dispatched = sliding_dot_product(&q_small, &series).unwrap();
        let naive = sliding_dot_product_naive(&q_small, &series).unwrap();
        let fft = sliding_dot_product_fft(&q_small, &series).unwrap();
        assert!(dispatched
            .iter()
            .zip(&naive)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(
            dispatched
                .iter()
                .zip(&fft)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "FFT output coincides bitwise with the exact scan; the pin is vacuous"
        );
        // just above the crossover: bitwise equal to the FFT path
        let q_big: Vec<f64> = series[3..3 + FFT_CROSSOVER_M + 1].to_vec();
        let dispatched = sliding_dot_product(&q_big, &series).unwrap();
        let fft = sliding_dot_product_fft(&q_big, &series).unwrap();
        assert!(dispatched
            .iter()
            .zip(&fft)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // and both paths agree numerically across the boundary
        let naive = sliding_dot_product_naive(&q_big, &series).unwrap();
        for (a, b) in dispatched.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
        }
    }
}
