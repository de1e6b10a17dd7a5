//! Runtime-dispatched SIMD lane abstraction for the kernel hot paths.
//!
//! The gated kernels (`sliding_dot_product`, `stomp`, `merlin`) spend their
//! time in three tight loops: FFT butterflies, the STOMP diagonal-band
//! recurrence, and MERLIN's fused z-normalized dot product. This module gives
//! those loops explicit wide lanes on stable Rust: a pair of traits
//! ([`F64Lanes`] for real lanes, [`C64Lanes`] for interleaved complex lanes)
//! with `core::arch` backends for x86-64 AVX2 (4 × f64), the x86-64 SSE2
//! baseline (2 × f64), aarch64 NEON (2 × f64), and a portable scalar
//! fallback (1 × f64).
//!
//! # Dispatch
//!
//! The backend is resolved once per process from CPU-feature detection
//! (`is_x86_feature_detected!`) and the `TSAD_SIMD` environment variable,
//! then cached. `TSAD_SIMD=0` (or `scalar`/`off`) forces the scalar
//! fallback; `TSAD_SIMD=sse2` pins the x86-64 baseline; anything else is
//! auto-detect. Kernels resolve [`current`] **once at their public entry, on
//! the caller's thread**, and pass the choice down to worker threads — so a
//! thread-count change can never change which instruction set computed a
//! result, and the thread-local test override installed by [`with_backend`]
//! propagates into the parallel sections of the kernel under test.
//!
//! A kernel is written once as a [`Kernel`] over an [`Isa`] (a backend's
//! lane types and dot products) and run through [`dispatch`], the only
//! place that maps a [`Backend`] to lane types and target features.
//!
//! # Bitwise contract
//!
//! Every lane operation here is a plain elementwise IEEE-754 operation — no
//! FMA contraction, no reassociation — so a kernel that performs the *same
//! per-element operation chain* through these lanes as its scalar twin is
//! bitwise identical to it on finite inputs (see DESIGN.md §11). The one
//! deliberately reassociating helper is the wide [`Isa::dot`] (and
//! [`dot_with`] over it), whose accumulators change the summation order;
//! its consumers are gated at 1e-9 relative tolerance instead.
//! [`F64Lanes::mul_add`] may or may not fuse depending on the backend and
//! must therefore only be used on tolerance-gated paths.

use std::cell::Cell;
use std::sync::OnceLock;
use tsad_obs::Gauge;

/// Reported in per-kernel obs snapshots: the number of f64 lanes the
/// resolved backend processes per vector (1 when scalar).
static LANE_WIDTH_GAUGE: Gauge = Gauge::new("core.simd.lane_width");

/// Instruction-set backend for the lane traits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// x86-64 AVX2 + FMA: 4 × f64 per vector.
    Avx2,
    /// x86-64 baseline SSE2: 2 × f64 per vector.
    Sse2,
    /// aarch64 baseline NEON: 2 × f64 per vector.
    Neon,
    /// Portable scalar fallback: 1 × f64.
    Scalar,
}

impl Backend {
    /// Stable identifier recorded in `BENCH_kernels.json` (`dispatch` field).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2 => "avx2",
            Backend::Sse2 => "sse2",
            Backend::Neon => "neon",
            Backend::Scalar => "scalar",
        }
    }

    /// f64 lanes per vector for this backend.
    pub fn lane_width(self) -> usize {
        match self {
            Backend::Avx2 => 4,
            Backend::Sse2 | Backend::Neon => 2,
            Backend::Scalar => 1,
        }
    }

    /// Whether this backend's instructions can run on the current CPU.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Best supported backend for the current CPU, ignoring the environment.
    pub fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if Backend::Avx2.is_supported() {
                return Backend::Avx2;
            }
            return Backend::Sse2;
        }
        #[cfg(target_arch = "aarch64")]
        {
            return Backend::Neon;
        }
        #[allow(unreachable_code)]
        Backend::Scalar
    }

    /// Pure mapping from a `TSAD_SIMD` value to a requested backend.
    ///
    /// `None` means auto-detect. Unknown values auto-detect rather than
    /// erroring so a stale pin degrades to the fast path, never a crash.
    pub fn from_env_str(v: &str) -> Option<Backend> {
        match v.trim().to_ascii_lowercase().as_str() {
            "0" | "off" | "scalar" => Some(Backend::Scalar),
            "sse2" => Some(Backend::Sse2),
            "neon" => Some(Backend::Neon),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }
}

static PROCESS_BACKEND: OnceLock<Backend> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

fn resolve() -> Backend {
    let detected = Backend::detect();
    match std::env::var("TSAD_SIMD")
        .ok()
        .and_then(|v| Backend::from_env_str(&v))
    {
        // A requested backend the CPU cannot run degrades to detection.
        Some(b) if b.is_supported() => b,
        _ => detected,
    }
}

/// The backend every kernel entry should use right now on this thread:
/// the [`with_backend`] override if one is installed, else the process-wide
/// choice (resolved once from `TSAD_SIMD` + CPU detection and cached).
pub fn current() -> Backend {
    let b = OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| *PROCESS_BACKEND.get_or_init(resolve));
    LANE_WIDTH_GAUGE.set(b.lane_width() as u64);
    b
}

/// Lane width of the currently dispatched backend (for bench reporting).
pub fn lane_width() -> usize {
    current().lane_width()
}

/// Dispatch name of the currently dispatched backend (for bench reporting).
pub fn dispatch_name() -> &'static str {
    current().name()
}

/// Run `f` with a thread-locally forced backend — the oracle hook that lets
/// one process compare SIMD and scalar outputs on identical inputs.
///
/// Kernels resolve dispatch on the calling thread and pass it to their
/// workers, so the override covers their parallel sections too. Restores the
/// previous override even on unwind.
///
/// # Panics
///
/// Panics if `backend` is not supported on the current CPU (forcing an
/// unsupported instruction set would be undefined behavior, not a test).
pub fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    assert!(
        backend.is_supported(),
        "backend {} is not supported on this CPU",
        backend.name()
    );
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(backend))));
    f()
}

/// A small fixed vector of f64 lanes with elementwise IEEE-754 ops.
///
/// All operations are strictly per-lane and unfused (except [`F64Lanes::mul_add`],
/// which is documented as tolerance-path-only), so a lane computation is
/// bit-for-bit the scalar chain run [`LANES`](Self::LANES) times.
///
/// # Safety
///
/// `load`/`store` read/write `Self::LANES` consecutive f64 values and the
/// caller must guarantee the pointed-to range is valid. Backends other than
/// the scalar one execute instructions that are undefined behavior on CPUs
/// lacking the feature; construct values only under a matching
/// [`Backend`]-guarded dispatch.
pub trait F64Lanes: Copy {
    /// Number of f64 values per vector.
    const LANES: usize;

    /// Load `LANES` consecutive values starting at `p`.
    ///
    /// # Safety
    /// `p..p+LANES` must be readable.
    unsafe fn load(p: *const f64) -> Self;

    /// Load `LANES` consecutive values with lane order reversed: lane `l`
    /// receives `p[LANES - 1 - l]`. Used by the LEFT-profile band kernel,
    /// whose lane-to-column mapping descends while memory ascends.
    ///
    /// # Safety
    /// `p..p+LANES` must be readable.
    unsafe fn load_reversed(p: *const f64) -> Self;

    /// Store all lanes to `p..p+LANES`.
    ///
    /// # Safety
    /// `p..p+LANES` must be writable.
    unsafe fn store(self, p: *mut f64);

    /// All lanes set to `v`.
    fn splat(v: f64) -> Self;

    /// Lanewise `self + o`.
    fn add(self, o: Self) -> Self;
    /// Lanewise `self - o`.
    fn sub(self, o: Self) -> Self;
    /// Lanewise `self * o`.
    fn mul(self, o: Self) -> Self;
    /// Lanewise `self * a + b`. May or may not fuse into an FMA depending on
    /// the backend — use only on tolerance-gated paths, never bitwise ones.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Lanewise sign flip (exact, affects NaN/±0 sign bits only).
    fn neg(self) -> Self;
    /// Lanewise IEEE maxNum-style max as the hardware provides it for the
    /// `max(x, 0.0)` clamp idiom: NaN lanes in `self` yield the `o` lane.
    fn max(self, o: Self) -> Self;

    /// Bitmask (bit `l` = lane `l`) of lanes where `self <= o`; NaN lanes
    /// compare false.
    fn le_mask(self, o: Self) -> u32;

    /// Horizontal minimum of all lanes. If any lane is NaN the result is
    /// unspecified (it may be NaN or any lane's value) — callers on bitwise
    /// paths must treat a non-comparing result as "inspect lanes one by one".
    fn reduce_min(self) -> f64;

    /// Horizontal sum of all lanes (reassociates; tolerance paths only).
    fn reduce_add(self) -> f64;

    /// Lanes written into the first `LANES` slots of a fixed array.
    fn to_array(self) -> [f64; 4];
}

/// A small fixed vector of interleaved complex f64 values (`re, im` pairs)
/// with the exact operation chains the scalar FFT uses — see the bitwise
/// contract in the module docs.
///
/// # Safety
///
/// Same contract as [`F64Lanes`]: pointers must cover `2 * COMPLEX` f64
/// values, and non-scalar backends require a matching dispatched CPU.
pub trait C64Lanes: Copy {
    /// Number of complex values per vector.
    const COMPLEX: usize;

    /// Load `COMPLEX` interleaved complex values starting at `p`.
    ///
    /// # Safety
    /// `p..p + 2*COMPLEX` must be readable.
    unsafe fn load(p: *const f64) -> Self;

    /// Load with complex order reversed: complex slot `c` receives the pair
    /// at `p[2*(COMPLEX-1-c)..]`. Lane pairs stay (re, im).
    ///
    /// # Safety
    /// `p..p + 2*COMPLEX` must be readable.
    unsafe fn load_reversed(p: *const f64) -> Self;

    /// Store `COMPLEX` interleaved complex values to `p`.
    ///
    /// # Safety
    /// `p..p + 2*COMPLEX` must be writable.
    unsafe fn store(self, p: *mut f64);

    /// Store with complex order reversed (inverse of [`load_reversed`](Self::load_reversed)).
    ///
    /// # Safety
    /// `p..p + 2*COMPLEX` must be writable.
    unsafe fn store_reversed(self, p: *mut f64);

    /// All complex slots set to `(re, im)`.
    fn splat(re: f64, im: f64) -> Self;

    /// Complexwise addition (elementwise over lanes).
    fn add(self, o: Self) -> Self;
    /// Complexwise subtraction (elementwise over lanes).
    fn sub(self, o: Self) -> Self;
    /// Multiply every lane (both re and im) by the real scalar `s`.
    fn scale(self, s: f64) -> Self;
    /// Complex conjugate: negate the imaginary lanes (exact sign flip).
    fn conj(self) -> Self;
    /// Negate the real lanes (exact sign flip); `swap_re_im().neg_re()` is
    /// multiplication by i, and `swap_re_im().conj()` is the scalar unpack's
    /// `(t.im, -t.re)` rotation.
    fn neg_re(self) -> Self;
    /// Swap re and im within every complex slot.
    fn swap_re_im(self) -> Self;

    /// Complex multiply matching the scalar chain bitwise on finite values:
    /// `re' = a.re*b.re - a.im*b.im`, `im' = a.re*b.im + a.im*b.re` (the
    /// additions may be commuted — IEEE addition and multiplication are
    /// commutative bit-for-bit on finite values).
    fn mul_complex(self, o: Self) -> Self;

    /// From two vectors viewed as one sequence of `2*COMPLEX` complex
    /// values, gather the even-position complexes (`a[0], b[0]` for
    /// COMPLEX=2; `a` for COMPLEX=1). With [`gather_hi`](Self::gather_hi)
    /// this de/re-interleaves the `len == 2` butterfly stage.
    fn gather_lo(self, o: Self) -> Self;
    /// Gather the odd-position complexes (`a[1], b[1]` for COMPLEX=2; `o`
    /// for COMPLEX=1).
    fn gather_hi(self, o: Self) -> Self;
}

// ---------------------------------------------------------------------------
// Scalar fallback
// ---------------------------------------------------------------------------

/// One f64 "lane": the portable fallback and the bitwise reference.
#[derive(Clone, Copy)]
pub struct ScalarF64(pub f64);

impl F64Lanes for ScalarF64 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        ScalarF64(unsafe { *p })
    }
    #[inline(always)]
    unsafe fn load_reversed(p: *const f64) -> Self {
        unsafe { Self::load(p) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        unsafe { *p = self.0 }
    }
    #[inline(always)]
    fn splat(v: f64) -> Self {
        ScalarF64(v)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarF64(self.0 + o.0)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarF64(self.0 - o.0)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        ScalarF64(self.0 * o.0)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        ScalarF64(self.0 * a.0 + b.0)
    }
    #[inline(always)]
    fn neg(self) -> Self {
        ScalarF64(-self.0)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // maxNum semantics to match the vector units: NaN self -> o.
        ScalarF64(if self.0 > o.0 { self.0 } else { o.0 })
    }
    #[inline(always)]
    fn le_mask(self, o: Self) -> u32 {
        u32::from(self.0 <= o.0)
    }
    #[inline(always)]
    fn reduce_min(self) -> f64 {
        self.0
    }
    #[inline(always)]
    fn reduce_add(self) -> f64 {
        self.0
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        [self.0, 0.0, 0.0, 0.0]
    }
}

/// One complex "lane": scalar reference for the FFT chains.
#[derive(Clone, Copy)]
pub struct ScalarC64 {
    re: f64,
    im: f64,
}

impl C64Lanes for ScalarC64 {
    const COMPLEX: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        unsafe {
            ScalarC64 {
                re: *p,
                im: *p.add(1),
            }
        }
    }
    #[inline(always)]
    unsafe fn load_reversed(p: *const f64) -> Self {
        unsafe { Self::load(p) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        unsafe {
            *p = self.re;
            *p.add(1) = self.im;
        }
    }
    #[inline(always)]
    unsafe fn store_reversed(self, p: *mut f64) {
        unsafe { self.store(p) }
    }
    #[inline(always)]
    fn splat(re: f64, im: f64) -> Self {
        ScalarC64 { re, im }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        ScalarC64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        ScalarC64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
    #[inline(always)]
    fn scale(self, s: f64) -> Self {
        ScalarC64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
    #[inline(always)]
    fn conj(self) -> Self {
        ScalarC64 {
            re: self.re,
            im: -self.im,
        }
    }
    #[inline(always)]
    fn neg_re(self) -> Self {
        ScalarC64 {
            re: -self.re,
            im: self.im,
        }
    }
    #[inline(always)]
    fn swap_re_im(self) -> Self {
        ScalarC64 {
            re: self.im,
            im: self.re,
        }
    }
    #[inline(always)]
    fn mul_complex(self, o: Self) -> Self {
        ScalarC64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    #[inline(always)]
    fn gather_lo(self, _o: Self) -> Self {
        self
    }
    #[inline(always)]
    fn gather_hi(self, o: Self) -> Self {
        o
    }
}

// ---------------------------------------------------------------------------
// x86-64: SSE2 baseline (2 lanes) and AVX2 (4 lanes)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{C64Lanes, F64Lanes};
    use core::arch::x86_64::*;

    /// 2 × f64 on the x86-64 SSE2 baseline (always available).
    #[derive(Clone, Copy)]
    pub struct SseF64(pub __m128d);

    impl F64Lanes for SseF64 {
        const LANES: usize = 2;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            SseF64(unsafe { _mm_loadu_pd(p) })
        }
        #[inline(always)]
        unsafe fn load_reversed(p: *const f64) -> Self {
            let v = unsafe { _mm_loadu_pd(p) };
            SseF64(unsafe { _mm_shuffle_pd(v, v, 0b01) })
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm_storeu_pd(p, self.0) }
        }
        #[inline(always)]
        fn splat(v: f64) -> Self {
            SseF64(unsafe { _mm_set1_pd(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            SseF64(unsafe { _mm_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            SseF64(unsafe { _mm_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            SseF64(unsafe { _mm_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul_add(self, a: Self, b: Self) -> Self {
            // SSE2 has no FMA: unfused, which is always tolerance-safe.
            self.mul(a).add(b)
        }
        #[inline(always)]
        fn neg(self) -> Self {
            SseF64(unsafe { _mm_xor_pd(self.0, _mm_set1_pd(-0.0)) })
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            SseF64(unsafe { _mm_max_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn le_mask(self, o: Self) -> u32 {
            (unsafe { _mm_movemask_pd(_mm_cmple_pd(self.0, o.0)) }) as u32
        }
        #[inline(always)]
        fn reduce_min(self) -> f64 {
            unsafe {
                let sw = _mm_shuffle_pd(self.0, self.0, 0b01);
                _mm_cvtsd_f64(_mm_min_pd(self.0, sw))
            }
        }
        #[inline(always)]
        fn reduce_add(self) -> f64 {
            unsafe {
                let sw = _mm_shuffle_pd(self.0, self.0, 0b01);
                _mm_cvtsd_f64(_mm_add_pd(self.0, sw))
            }
        }
        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe { self.store(out.as_mut_ptr()) };
            out
        }
    }

    /// 1 complex (re, im) per `__m128d` on the SSE2 baseline.
    #[derive(Clone, Copy)]
    pub struct SseC64(pub __m128d);

    impl C64Lanes for SseC64 {
        const COMPLEX: usize = 1;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            SseC64(unsafe { _mm_loadu_pd(p) })
        }
        #[inline(always)]
        unsafe fn load_reversed(p: *const f64) -> Self {
            unsafe { Self::load(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm_storeu_pd(p, self.0) }
        }
        #[inline(always)]
        unsafe fn store_reversed(self, p: *mut f64) {
            unsafe { self.store(p) }
        }
        #[inline(always)]
        fn splat(re: f64, im: f64) -> Self {
            SseC64(unsafe { _mm_set_pd(im, re) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            SseC64(unsafe { _mm_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            SseC64(unsafe { _mm_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn scale(self, s: f64) -> Self {
            SseC64(unsafe { _mm_mul_pd(self.0, _mm_set1_pd(s)) })
        }
        #[inline(always)]
        fn conj(self) -> Self {
            SseC64(unsafe { _mm_xor_pd(self.0, _mm_set_pd(-0.0, 0.0)) })
        }
        #[inline(always)]
        fn neg_re(self) -> Self {
            SseC64(unsafe { _mm_xor_pd(self.0, _mm_set_pd(0.0, -0.0)) })
        }
        #[inline(always)]
        fn swap_re_im(self) -> Self {
            SseC64(unsafe { _mm_shuffle_pd(self.0, self.0, 0b01) })
        }
        #[inline(always)]
        fn mul_complex(self, o: Self) -> Self {
            // t1 = (a.re*b.re, a.im*b.re); t2 = (a.im*b.im, a.re*b.im).
            // SSE2 has no addsub, so negate t2's real lane and add: by IEEE
            // definition x + (-y) is the same operation (same bits) as x - y.
            unsafe {
                let b_re = _mm_shuffle_pd(o.0, o.0, 0b00);
                let b_im = _mm_shuffle_pd(o.0, o.0, 0b11);
                let t1 = _mm_mul_pd(self.0, b_re);
                let t2 = _mm_mul_pd(_mm_shuffle_pd(self.0, self.0, 0b01), b_im);
                let t2 = _mm_xor_pd(t2, _mm_set_pd(0.0, -0.0));
                SseC64(_mm_add_pd(t1, t2))
            }
        }
        #[inline(always)]
        fn gather_lo(self, _o: Self) -> Self {
            self
        }
        #[inline(always)]
        fn gather_hi(self, o: Self) -> Self {
            o
        }
    }

    /// 4 × f64 with AVX2. All methods assume the avx2 feature is on; the
    /// kernels only instantiate this type inside [`super::dispatch`]'s
    /// `#[target_feature]` wrapper, chosen for [`super::Backend::Avx2`].
    #[derive(Clone, Copy)]
    pub struct AvxF64(pub __m256d);

    impl F64Lanes for AvxF64 {
        const LANES: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            AvxF64(unsafe { _mm256_loadu_pd(p) })
        }
        #[inline(always)]
        unsafe fn load_reversed(p: *const f64) -> Self {
            let v = unsafe { _mm256_loadu_pd(p) };
            AvxF64(unsafe { _mm256_permute4x64_pd(v, 0b00_01_10_11) })
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm256_storeu_pd(p, self.0) }
        }
        #[inline(always)]
        fn splat(v: f64) -> Self {
            AvxF64(unsafe { _mm256_set1_pd(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            AvxF64(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            AvxF64(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            AvxF64(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul_add(self, a: Self, b: Self) -> Self {
            // Fused: dispatch requires avx2 && fma together.
            AvxF64(unsafe { _mm256_fmadd_pd(self.0, a.0, b.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            AvxF64(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            AvxF64(unsafe { _mm256_max_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn le_mask(self, o: Self) -> u32 {
            (unsafe { _mm256_movemask_pd(_mm256_cmp_pd(self.0, o.0, _CMP_LE_OQ)) }) as u32
        }
        #[inline(always)]
        fn reduce_min(self) -> f64 {
            unsafe {
                let hi = _mm256_extractf128_pd(self.0, 1);
                let lo = _mm256_castpd256_pd128(self.0);
                let m = _mm_min_pd(lo, hi);
                let sw = _mm_shuffle_pd(m, m, 0b01);
                _mm_cvtsd_f64(_mm_min_pd(m, sw))
            }
        }
        #[inline(always)]
        fn reduce_add(self) -> f64 {
            unsafe {
                let hi = _mm256_extractf128_pd(self.0, 1);
                let lo = _mm256_castpd256_pd128(self.0);
                let s = _mm_add_pd(lo, hi);
                let sw = _mm_shuffle_pd(s, s, 0b01);
                _mm_cvtsd_f64(_mm_add_pd(s, sw))
            }
        }
        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe { self.store(out.as_mut_ptr()) };
            out
        }
    }

    /// 2 complex (re, im) pairs per `__m256d` with AVX2.
    #[derive(Clone, Copy)]
    pub struct AvxC64(pub __m256d);

    impl C64Lanes for AvxC64 {
        const COMPLEX: usize = 2;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            AvxC64(unsafe { _mm256_loadu_pd(p) })
        }
        #[inline(always)]
        unsafe fn load_reversed(p: *const f64) -> Self {
            let v = unsafe { _mm256_loadu_pd(p) };
            AvxC64(unsafe { _mm256_permute2f128_pd(v, v, 0x01) })
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm256_storeu_pd(p, self.0) }
        }
        #[inline(always)]
        unsafe fn store_reversed(self, p: *mut f64) {
            let v = unsafe { _mm256_permute2f128_pd(self.0, self.0, 0x01) };
            unsafe { _mm256_storeu_pd(p, v) }
        }
        #[inline(always)]
        fn splat(re: f64, im: f64) -> Self {
            AvxC64(unsafe { _mm256_setr_pd(re, im, re, im) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            AvxC64(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            AvxC64(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn scale(self, s: f64) -> Self {
            AvxC64(unsafe { _mm256_mul_pd(self.0, _mm256_set1_pd(s)) })
        }
        #[inline(always)]
        fn conj(self) -> Self {
            AvxC64(unsafe { _mm256_xor_pd(self.0, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)) })
        }
        #[inline(always)]
        fn neg_re(self) -> Self {
            AvxC64(unsafe { _mm256_xor_pd(self.0, _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)) })
        }
        #[inline(always)]
        fn swap_re_im(self) -> Self {
            AvxC64(unsafe { _mm256_permute_pd(self.0, 0b0101) })
        }
        #[inline(always)]
        fn mul_complex(self, o: Self) -> Self {
            // t1 = (a.re*b.re, a.im*b.re); t2 = (a.im*b.im, a.re*b.im);
            // addsub gives (re: t1-t2, im: t1+t2) — the scalar chain with
            // the im addition commuted (bitwise-equal on finite values).
            unsafe {
                let b_re = _mm256_movedup_pd(o.0);
                let b_im = _mm256_permute_pd(o.0, 0b1111);
                let t1 = _mm256_mul_pd(self.0, b_re);
                let t2 = _mm256_mul_pd(_mm256_permute_pd(self.0, 0b0101), b_im);
                AvxC64(_mm256_addsub_pd(t1, t2))
            }
        }
        #[inline(always)]
        fn gather_lo(self, o: Self) -> Self {
            AvxC64(unsafe { _mm256_permute2f128_pd(self.0, o.0, 0x20) })
        }
        #[inline(always)]
        fn gather_hi(self, o: Self) -> Self {
            AvxC64(unsafe { _mm256_permute2f128_pd(self.0, o.0, 0x31) })
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{AvxC64, AvxF64, SseC64, SseF64};

// ---------------------------------------------------------------------------
// aarch64 NEON (2 lanes)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{C64Lanes, F64Lanes};
    use core::arch::aarch64::*;

    /// 2 × f64 on the aarch64 NEON baseline.
    #[derive(Clone, Copy)]
    pub struct NeonF64(pub float64x2_t);

    #[inline(always)]
    unsafe fn sign_xor(v: float64x2_t, mask: float64x2_t) -> float64x2_t {
        unsafe {
            vreinterpretq_f64_u64(veorq_u64(
                vreinterpretq_u64_f64(v),
                vreinterpretq_u64_f64(mask),
            ))
        }
    }

    impl F64Lanes for NeonF64 {
        const LANES: usize = 2;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            NeonF64(unsafe { vld1q_f64(p) })
        }
        #[inline(always)]
        unsafe fn load_reversed(p: *const f64) -> Self {
            let v = unsafe { vld1q_f64(p) };
            NeonF64(unsafe { vextq_f64::<1>(v, v) })
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { vst1q_f64(p, self.0) }
        }
        #[inline(always)]
        fn splat(v: f64) -> Self {
            NeonF64(unsafe { vdupq_n_f64(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            NeonF64(unsafe { vaddq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            NeonF64(unsafe { vsubq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            NeonF64(unsafe { vmulq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn mul_add(self, a: Self, b: Self) -> Self {
            // Fused on NEON (vfmaq): tolerance paths only.
            NeonF64(unsafe { vfmaq_f64(b.0, self.0, a.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            NeonF64(unsafe { vnegq_f64(self.0) })
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // vmaxnmq: NaN self lane yields the other operand, matching the
            // scalar fallback's `if self > o { self } else { o }` clamp use.
            NeonF64(unsafe { vmaxnmq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn le_mask(self, o: Self) -> u32 {
            unsafe {
                let m = vcleq_f64(self.0, o.0);
                (vgetq_lane_u64::<0>(m) as u32 & 1) | ((vgetq_lane_u64::<1>(m) as u32 & 1) << 1)
            }
        }
        #[inline(always)]
        fn reduce_min(self) -> f64 {
            unsafe {
                let a = vgetq_lane_f64::<0>(self.0);
                let b = vgetq_lane_f64::<1>(self.0);
                if a < b {
                    a
                } else {
                    b
                }
            }
        }
        #[inline(always)]
        fn reduce_add(self) -> f64 {
            unsafe { vaddvq_f64(self.0) }
        }
        #[inline(always)]
        fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe { self.store(out.as_mut_ptr()) };
            out
        }
    }

    /// 1 complex (re, im) per NEON vector.
    #[derive(Clone, Copy)]
    pub struct NeonC64(pub float64x2_t);

    impl C64Lanes for NeonC64 {
        const COMPLEX: usize = 1;
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            NeonC64(unsafe { vld1q_f64(p) })
        }
        #[inline(always)]
        unsafe fn load_reversed(p: *const f64) -> Self {
            unsafe { Self::load(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { vst1q_f64(p, self.0) }
        }
        #[inline(always)]
        unsafe fn store_reversed(self, p: *mut f64) {
            unsafe { self.store(p) }
        }
        #[inline(always)]
        fn splat(re: f64, im: f64) -> Self {
            let pair = [re, im];
            NeonC64(unsafe { vld1q_f64(pair.as_ptr()) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            NeonC64(unsafe { vaddq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            NeonC64(unsafe { vsubq_f64(self.0, o.0) })
        }
        #[inline(always)]
        fn scale(self, s: f64) -> Self {
            NeonC64(unsafe { vmulq_f64(self.0, vdupq_n_f64(s)) })
        }
        #[inline(always)]
        fn conj(self) -> Self {
            let mask = [0.0f64, -0.0];
            NeonC64(unsafe { sign_xor(self.0, vld1q_f64(mask.as_ptr())) })
        }
        #[inline(always)]
        fn neg_re(self) -> Self {
            let mask = [-0.0f64, 0.0];
            NeonC64(unsafe { sign_xor(self.0, vld1q_f64(mask.as_ptr())) })
        }
        #[inline(always)]
        fn swap_re_im(self) -> Self {
            NeonC64(unsafe { vextq_f64::<1>(self.0, self.0) })
        }
        #[inline(always)]
        fn mul_complex(self, o: Self) -> Self {
            // Same shape as the SSE2 chain: t1 = a * dup(b.re),
            // t2 = swap(a) * dup(b.im) with the real lane negated, then add.
            unsafe {
                let b_re = vdupq_laneq_f64::<0>(o.0);
                let b_im = vdupq_laneq_f64::<1>(o.0);
                let t1 = vmulq_f64(self.0, b_re);
                let t2 = vmulq_f64(vextq_f64::<1>(self.0, self.0), b_im);
                let mask = [-0.0f64, 0.0];
                let t2 = sign_xor(t2, vld1q_f64(mask.as_ptr()));
                NeonC64(vaddq_f64(t1, t2))
            }
        }
        #[inline(always)]
        fn gather_lo(self, _o: Self) -> Self {
            self
        }
        #[inline(always)]
        fn gather_hi(self, o: Self) -> Self {
            o
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub use arm::{NeonC64, NeonF64};

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// A backend's instruction set as types: its real and complex lanes and its
/// dot products. Kernels are written once over an `Isa` and [`dispatch`]
/// picks the one the backend runs with.
pub trait Isa {
    /// Real lanes.
    type F: F64Lanes;
    /// Interleaved complex lanes.
    type C: C64Lanes;

    /// Dot product of `a` and `b` over the shorter length.
    fn dot(a: &[f64], b: &[f64]) -> f64;

    /// `[dot(a, b[0]), …, dot(a, b[3])]`, bit for bit, with the four
    /// reductions interleaved so their dependency chains overlap. Each
    /// `b[k]` must be at least as long as `a`.
    fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4];
}

/// The scalar backend: one-lane types and the exact sequential
/// left-to-right sum (the historical behavior).
pub struct Sequential;

impl Isa for Sequential {
    type F = ScalarF64;
    type C = ScalarC64;

    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        dot_sequential(a, b)
    }

    #[inline(always)]
    fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
        let n = a.len();
        let b = b.map(|b| &b[..n]);
        // `Sum for f64` folds from its own identity; start from the same.
        let zero: f64 = std::iter::empty::<f64>().sum();
        let mut s = [zero; 4];
        for (t, &v) in a.iter().enumerate() {
            for k in 0..4 {
                s[k] += v * b[k][t];
            }
        }
        s
    }
}

/// A wide backend over real lanes `F` and complex lanes `C`; its dot
/// products reassociate through [`dot_lanes`]' two accumulators.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
struct Wide<F, C>(std::marker::PhantomData<(F, C)>);

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
impl<F: F64Lanes, C: C64Lanes> Isa for Wide<F, C> {
    type F = F;
    type C = C;

    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        dot_lanes::<F>(a, b)
    }

    #[inline(always)]
    fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
        // `dot_lanes` four times over, one step at a time.
        let n = a.len();
        let b = b.map(|b| &b[..n]);
        let step = 2 * F::LANES;
        let mut acc0 = [F::splat(0.0); 4];
        let mut acc1 = [F::splat(0.0); 4];
        let mut i = 0;
        while i + step <= n {
            // SAFETY: i + 2*LANES <= n bounds every load in `a` and in
            // each `b[k]`, all of length n.
            unsafe {
                let a0 = F::load(a.as_ptr().add(i));
                let a1 = F::load(a.as_ptr().add(i + F::LANES));
                for k in 0..4 {
                    let b0 = F::load(b[k].as_ptr().add(i));
                    let b1 = F::load(b[k].as_ptr().add(i + F::LANES));
                    acc0[k] = a0.mul_add(b0, acc0[k]);
                    acc1[k] = a1.mul_add(b1, acc1[k]);
                }
            }
            i += step;
        }
        let mut sum = [0.0; 4];
        for k in 0..4 {
            sum[k] = acc0[k].add(acc1[k]).reduce_add();
        }
        // The scalar tails, interleaved too.
        for t in i..n {
            let v = a[t];
            for k in 0..4 {
                sum[k] += v * b[k][t];
            }
        }
        sum
    }
}

/// A computation written once over an [`Isa`] and run under a backend by
/// [`dispatch`]. `run` should be `#[inline(always)]`, so its loops compile
/// under the dispatched target features.
pub trait Kernel {
    /// What the kernel returns.
    type Output;
    /// Runs the kernel with `I`'s lanes and dot products.
    fn run<I: Isa>(self) -> Self::Output;
}

/// AVX2 monomorphization of a [`Kernel`]: the `target_feature` wrapper is
/// what lets the compiler emit 256-bit instructions for the inlined lane
/// ops. Enabling `fma` moves no bit of a kernel that never calls
/// [`F64Lanes::mul_add`]: Rust never contracts a multiply and an add.
///
/// # Safety
/// The CPU must support AVX2 and FMA (guaranteed when dispatch chose
/// [`Backend::Avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<Wide<AvxF64, AvxC64>>()
}

/// Runs `kernel` under `backend`: the one place that picks a backend's
/// lane types and target features. Kernels resolve [`current`] once on the
/// caller's thread and pass the choice here, from each worker when the
/// kernel runs in parallel.
pub fn dispatch<K: Kernel>(backend: Backend, kernel: K) -> K::Output {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a backend is only chosen where `is_supported()` held.
        Backend::Avx2 => unsafe { run_avx2(kernel) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => kernel.run::<Wide<SseF64, SseC64>>(),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => kernel.run::<Wide<NeonF64, NeonC64>>(),
        _ => kernel.run::<Sequential>(),
    }
}

/// Generic wide dot product: two independent vector accumulators, folded and
/// then a scalar tail. Reassociates the summation, so consumers are gated at
/// 1e-9 relative tolerance, never bitwise.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn dot_lanes<L: F64Lanes>(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let step = 2 * L::LANES;
    let mut acc0 = L::splat(0.0);
    let mut acc1 = L::splat(0.0);
    let mut i = 0;
    while i + step <= n {
        // SAFETY: i + 2*LANES <= n bounds both loads in both slices.
        unsafe {
            let a0 = L::load(a.as_ptr().add(i));
            let b0 = L::load(b.as_ptr().add(i));
            let a1 = L::load(a.as_ptr().add(i + L::LANES));
            let b1 = L::load(b.as_ptr().add(i + L::LANES));
            acc0 = a0.mul_add(b0, acc0);
            acc1 = a1.mul_add(b1, acc1);
        }
        i += step;
    }
    let mut sum = acc0.add(acc1).reduce_add();
    while i < n {
        sum += a[i] * b[i];
        i += 1;
    }
    sum
}

/// The scalar backend's dot product: the exact sequential left-to-right sum.
#[inline(always)]
fn dot_sequential(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Dot product of `a` and `b` (over the shorter length) with an explicit,
/// pre-resolved backend — kernels resolve [`current`] once at entry and
/// thread it through so workers use the caller's dispatch.
///
/// The scalar backend is the exact sequential left-to-right sum (the
/// historical behavior); wide backends reassociate (1e-9 contract).
pub fn dot_with(backend: Backend, a: &[f64], b: &[f64]) -> f64 {
    struct Dot<'a>(&'a [f64], &'a [f64]);
    impl Kernel for Dot<'_> {
        type Output = f64;
        #[inline(always)]
        fn run<I: Isa>(self) -> f64 {
            I::dot(self.0, self.1)
        }
    }
    dispatch(backend, Dot(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn env_mapping_is_exact() {
        assert_eq!(Backend::from_env_str("0"), Some(Backend::Scalar));
        assert_eq!(Backend::from_env_str("off"), Some(Backend::Scalar));
        assert_eq!(Backend::from_env_str("Scalar"), Some(Backend::Scalar));
        assert_eq!(Backend::from_env_str("sse2"), Some(Backend::Sse2));
        assert_eq!(Backend::from_env_str("NEON"), Some(Backend::Neon));
        assert_eq!(Backend::from_env_str("avx2"), Some(Backend::Avx2));
        assert_eq!(Backend::from_env_str("1"), None);
        assert_eq!(Backend::from_env_str("auto"), None);
        assert_eq!(Backend::from_env_str(""), None);
    }

    #[test]
    fn scalar_is_always_supported_and_detect_never_scalar_on_x86() {
        assert!(Backend::Scalar.is_supported());
        let d = Backend::detect();
        assert!(d.is_supported());
        #[cfg(target_arch = "x86_64")]
        assert_ne!(d, Backend::Scalar, "x86-64 always has at least SSE2");
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let ambient = current();
        with_backend(Backend::Scalar, || {
            assert_eq!(current(), Backend::Scalar);
            assert_eq!(lane_width(), 1);
            assert_eq!(dispatch_name(), "scalar");
        });
        assert_eq!(current(), ambient);
    }

    #[test]
    fn with_backend_restores_on_panic() {
        let ambient = current();
        let r = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || panic!("boom"));
        });
        assert!(r.is_err());
        assert_eq!(current(), ambient);
    }

    #[test]
    fn dot_backends_agree_at_1e9_over_remainder_lengths() {
        // Lengths straddling every lane/unroll remainder: 0..=9, a prime,
        // and a power of two.
        for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 97, 256] {
            let a = series(n, 7);
            let b = series(n, 11);
            let scalar = dot_with(Backend::Scalar, &a, &b);
            for be in [Backend::Avx2, Backend::Sse2, Backend::Neon] {
                if !be.is_supported() {
                    continue;
                }
                let wide = dot_with(be, &a, &b);
                let tol = 1e-9 * scalar.abs().max(1.0);
                assert!(
                    (wide - scalar).abs() <= tol,
                    "backend {} n={} wide={} scalar={}",
                    be.name(),
                    n,
                    wide,
                    scalar
                );
            }
        }
    }

    /// Runs `dot4` and four `dot` calls under one backend.
    struct Dot4Check<'a> {
        a: &'a [f64],
        b: [&'a [f64]; 4],
    }

    impl Kernel for Dot4Check<'_> {
        type Output = ([f64; 4], [f64; 4]);
        fn run<I: Isa>(self) -> Self::Output {
            (I::dot4(self.a, self.b), self.b.map(|b| I::dot(self.a, b)))
        }
    }

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dot4_matches_four_dots_bitwise_on_every_backend() {
        let x = noise(400, 3);
        // Signed zeros: the sequential sum's identity decides the sign of
        // an all-zero result.
        let zeros = [-0.0; 80];
        let ones = [1.0; 80];
        let backends = [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon];
        for backend in backends.into_iter().filter(|b| b.is_supported()) {
            for m in 1..=70 {
                for (a, b) in [
                    (&x[5..5 + m], [&x[40..], &x[41..], &x[100..], &x[300..]]),
                    (&zeros[..m], [&x[7..], &zeros[..], &ones[..], &zeros[3..]]),
                ] {
                    let (four, one) = dispatch(backend, Dot4Check { a, b });
                    for k in 0..4 {
                        assert_eq!(
                            four[k].to_bits(),
                            one[k].to_bits(),
                            "{} m={m} k={k}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_ops_match_scalar_bitwise() {
        // The elementwise ops used on bitwise paths must be exactly the
        // scalar chain per lane. Exercise every supported wide backend
        // against ScalarF64 on a (sub, mul, add, neg, max-clamp) chain.
        fn chain_scalar(x: f64, y: f64, z: f64) -> f64 {
            let v = (x - y * z) * (y + z);
            (-v).max(0.0)
        }
        fn chain_lanes<L: F64Lanes>(x: &[f64], y: &[f64], z: &[f64], out: &mut [f64]) {
            let mut i = 0;
            while i + L::LANES <= x.len() {
                // SAFETY: bounds checked by the loop condition.
                unsafe {
                    let xv = L::load(x.as_ptr().add(i));
                    let yv = L::load(y.as_ptr().add(i));
                    let zv = L::load(z.as_ptr().add(i));
                    let v = xv.sub(yv.mul(zv)).mul(yv.add(zv));
                    v.neg().max(L::splat(0.0)).store(out.as_mut_ptr().add(i));
                }
                i += L::LANES;
            }
            while i < x.len() {
                out[i] = chain_scalar(x[i], y[i], z[i]);
                i += 1;
            }
        }
        let n = 103;
        let x = series(n, 3);
        let y = series(n, 5);
        let z = series(n, 9);
        let expect: Vec<f64> = (0..n).map(|i| chain_scalar(x[i], y[i], z[i])).collect();
        let mut got = vec![0.0; n];
        chain_lanes::<ScalarF64>(&x, &y, &z, &mut got);
        for i in 0..n {
            assert_eq!(expect[i].to_bits(), got[i].to_bits(), "scalar lane {i}");
        }
        #[cfg(target_arch = "x86_64")]
        {
            chain_lanes::<SseF64>(&x, &y, &z, &mut got);
            for i in 0..n {
                assert_eq!(expect[i].to_bits(), got[i].to_bits(), "sse2 lane {i}");
            }
            if Backend::Avx2.is_supported() {
                chain_lanes::<AvxF64>(&x, &y, &z, &mut got);
                for i in 0..n {
                    assert_eq!(expect[i].to_bits(), got[i].to_bits(), "avx2 lane {i}");
                }
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            chain_lanes::<NeonF64>(&x, &y, &z, &mut got);
            for i in 0..n {
                assert_eq!(expect[i].to_bits(), got[i].to_bits(), "neon lane {i}");
            }
        }
    }

    #[test]
    fn reversed_loads_reverse_lane_order() {
        let data = [1.0f64, 2.0, 3.0, 4.0];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: data holds 4 values.
            let r = unsafe { SseF64::load_reversed(data.as_ptr()) }.to_array();
            assert_eq!(&r[..2], &[2.0, 1.0]);
            if Backend::Avx2.is_supported() {
                let r = unsafe { AvxF64::load_reversed(data.as_ptr()) }.to_array();
                assert_eq!(r, [4.0, 3.0, 2.0, 1.0]);
            }
        }
        let r = unsafe { ScalarF64::load_reversed(data.as_ptr()) }.to_array();
        assert_eq!(r[0], 1.0);
    }

    #[test]
    fn le_mask_and_reduce_min_cover_ties_and_nan() {
        #[cfg(target_arch = "x86_64")]
        {
            let a = [1.0f64, f64::NAN];
            let b = [1.0f64, 5.0];
            // SAFETY: both arrays hold 2 values.
            let (av, bv) = unsafe { (SseF64::load(a.as_ptr()), SseF64::load(b.as_ptr())) };
            // Lane 0 ties (<= true); lane 1 is NaN (compares false).
            assert_eq!(av.le_mask(bv), 0b01);
            let m = unsafe { SseF64::load(b.as_ptr()) }.reduce_min();
            assert_eq!(m, 1.0);
        }
    }
}
