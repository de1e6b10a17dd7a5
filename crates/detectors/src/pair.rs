//! The fused z-normalized pair distance shared by the discord searches
//! (MERLIN's DRAG passes and HOT SAX), and the per-backend dispatch that
//! compiles each search once per SIMD backend.
//!
//! A pair costs one dot product plus the precomputed window moments — no
//! per-pair normalization buffers. The scalar backend reproduces the
//! historical sequential sum bit for bit; the wide backends reassociate the
//! accumulation and agree with it at 1e-9 relative, which is why both
//! searches are tolerance-gated rather than bitwise-gated across backends
//! (DESIGN.md §11).

use std::marker::PhantomData;

use tsad_core::dist::dot_to_znorm_dist;
use tsad_core::simd::{self, Backend, F64Lanes};
use tsad_core::windows::WindowMoments;

/// The dot product a search is monomorphized over: the same per-pair
/// arithmetic as [`simd::dot_with`] for the matching backend.
pub(crate) trait Dot {
    fn dot(a: &[f64], b: &[f64]) -> f64;
}

/// The scalar backend's exact sequential sum.
pub(crate) struct Sequential;

impl Dot for Sequential {
    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        simd::dot_sequential(a, b)
    }
}

/// The wide backends' two-accumulator reduction over lane type `L`.
pub(crate) struct Wide<L>(PhantomData<L>);

impl<L: F64Lanes> Dot for Wide<L> {
    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        simd::dot_lanes::<L>(a, b)
    }
}

/// Z-normalized distance between the length-`m` windows at `i` and `j`.
#[inline(always)]
pub(crate) fn pair_distance<D: Dot>(
    x: &[f64],
    m: usize,
    moments: &WindowMoments,
    i: usize,
    j: usize,
) -> f64 {
    let dot = D::dot(&x[i..i + m], &x[j..j + m]);
    dot_to_znorm_dist(
        dot,
        m,
        moments.means[i],
        moments.stds[i],
        moments.means[j],
        moments.stds[j],
    )
}

/// One pass of a pair search, written once and monomorphized per [`Dot`].
pub(crate) trait PairSearch {
    type Output;
    fn run<D: Dot>(self) -> Self::Output;
}

/// AVX2 monomorphization of a [`PairSearch`]: the `target_feature` wrapper
/// is what lets the compiler inline the 256-bit dot product into the
/// search's loops instead of calling it per pair.
///
/// # Safety
/// The CPU must support AVX2 and FMA (guaranteed when dispatch chose
/// [`Backend::Avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<S: PairSearch>(search: S) -> S::Output {
    search.run::<Wide<simd::AvxF64>>()
}

/// Runs one pass under `backend`, resolved once by the caller on its own
/// thread, as `matrix_profile::fill_band` does for the STOMP bands.
pub(crate) fn dispatch<S: PairSearch>(backend: Backend, search: S) -> S::Output {
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 on a CPU that supports it.
        Backend::Avx2 => unsafe { run_avx2(search) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => search.run::<Wide<simd::SseF64>>(),
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => search.run::<Wide<simd::NeonF64>>(),
        _ => search.run::<Sequential>(),
    }
}
