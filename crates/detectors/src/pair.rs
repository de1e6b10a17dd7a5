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

use tsad_core::dist::{corr_to_znorm_dist, dot_to_znorm_dist, FLAT_STD};
use tsad_core::simd::{self, Backend, F64Lanes};
use tsad_core::windows::WindowMoments;

/// The dot product a search is monomorphized over: the same per-pair
/// arithmetic as [`simd::dot_with`] for the matching backend.
pub(crate) trait Dot {
    fn dot(a: &[f64], b: &[f64]) -> f64;

    /// `[dot(a, b[0]), …, dot(a, b[3])]`, bit for bit, with the four
    /// reductions interleaved so their dependency chains overlap. Each
    /// `b[k]` must be at least as long as `a`.
    fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4];
}

/// The scalar backend's exact sequential sum.
pub(crate) struct Sequential;

impl Dot for Sequential {
    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        simd::dot_sequential(a, b)
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

/// The wide backends' two-accumulator reduction over lane type `L`.
pub(crate) struct Wide<L>(PhantomData<L>);

impl<L: F64Lanes> Dot for Wide<L> {
    #[inline(always)]
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        simd::dot_lanes::<L>(a, b)
    }

    #[inline(always)]
    fn dot4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
        // `simd::dot_lanes` four times over, one step at a time.
        let n = a.len();
        let b = b.map(|b| &b[..n]);
        let step = 2 * L::LANES;
        let mut acc0 = [L::splat(0.0); 4];
        let mut acc1 = [L::splat(0.0); 4];
        let mut i = 0;
        while i + step <= n {
            // SAFETY: i + 2*LANES <= n bounds every load in `a` and in
            // each `b[k]`, all of length n.
            unsafe {
                let a0 = L::load(a.as_ptr().add(i));
                let a1 = L::load(a.as_ptr().add(i + L::LANES));
                for k in 0..4 {
                    let b0 = L::load(b[k].as_ptr().add(i));
                    let b1 = L::load(b[k].as_ptr().add(i + L::LANES));
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

/// Fills `out` with the `σ` each window brings to the division-free
/// distance test: its standard deviation if it is *regular*, else NaN.
///
/// A window is regular when `FLAT_STD <= σ <= 1e100` and `|μ| <= 1e100`.
/// Then every pair of regular windows has a finite correlation numerator
/// and a denominator in `[2^-60, 2^900]`, the range
/// [`tsad_core::dist::corr_cut`] certifies. A NaN `σ` makes every test
/// involving the window fail, so its pairs take the exact path.
pub(crate) fn regular_sigmas(moments: &WindowMoments, out: &mut Vec<f64>) {
    const BIG: f64 = 1e100;
    out.clear();
    out.extend(
        moments
            .means
            .iter()
            .zip(&moments.stds)
            .map(|(&mean, &std)| {
                let regular = (FLAT_STD..=BIG).contains(&std) && mean.abs() <= BIG;
                if regular {
                    std
                } else {
                    f64::NAN
                }
            }),
    );
}

/// The terms of the first window of a pair: `m·μ` and `m·σ`, the first
/// products [`tsad_core::dist::znorm_corr_parts`] forms, so [`corr_parts`]
/// reproduces its bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lead {
    m_mean: f64,
    m_sig: f64,
}

impl Lead {
    /// The lead terms of a length-`m` window with mean `mean` and
    /// [`regular_sigmas`] entry `sig`.
    #[inline(always)]
    pub(crate) fn new(m: usize, mean: f64, sig: f64) -> Lead {
        let mf = m as f64;
        Lead {
            m_mean: mf * mean,
            m_sig: mf * sig,
        }
    }
}

/// `(num, den)` of the correlation of a pair from the first window's
/// [`Lead`], the second window's mean and [`regular_sigmas`] entry, and
/// their dot product `qt`; `den` is NaN when either window is irregular.
#[inline(always)]
pub(crate) fn corr_parts(a: &Lead, mean: f64, sig: f64, qt: f64) -> (f64, f64) {
    (qt - a.m_mean * mean, a.m_sig * sig)
}

/// The exact distance of windows `a` and `b` (`a` first) from their dot
/// product and their [`corr_parts`]: bitwise what [`pair_distance`] returns.
#[inline(always)]
pub(crate) fn parts_distance(
    moments: &WindowMoments,
    a: usize,
    b: usize,
    qt: f64,
    (num, den): (f64, f64),
) -> f64 {
    let m = moments.window;
    if den.is_nan() {
        dot_to_znorm_dist(
            qt,
            m,
            moments.means[a],
            moments.stds[a],
            moments.means[b],
            moments.stds[b],
        )
    } else {
        corr_to_znorm_dist(num / den, m)
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::dist::{corr_ceiling, corr_cut};

    /// Runs `dot4` and four `dot` calls under one backend.
    struct Dot4Check<'a> {
        a: &'a [f64],
        b: [&'a [f64]; 4],
    }

    impl PairSearch for Dot4Check<'_> {
        type Output = ([f64; 4], [f64; 4]);
        fn run<D: Dot>(self) -> Self::Output {
            (D::dot4(self.a, self.b), self.b.map(|b| D::dot(self.a, b)))
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
    fn parts_distance_is_pair_distance_bitwise() {
        let mut x = noise(300, 5);
        for v in &mut x[200..] {
            *v = v.mul_add(1e-3, 1e6);
        }
        x[100..130].fill(2.5);
        let m = 20;
        let moments = WindowMoments::compute(&x, m).unwrap();
        let mut sigs = Vec::new();
        regular_sigmas(&moments, &mut sigs);
        assert!(sigs.iter().any(|s| s.is_nan()) && sigs.iter().any(|s| !s.is_nan()));
        for a in (0..moments.len()).step_by(7) {
            let lead = Lead::new(m, moments.means[a], sigs[a]);
            for b in (0..moments.len()).step_by(11) {
                let qt = Sequential::dot(&x[a..a + m], &x[b..b + m]);
                let parts = corr_parts(&lead, moments.means[b], sigs[b], qt);
                let exact = pair_distance::<Sequential>(&x, m, &moments, a, b);
                let got = parts_distance(&moments, a, b, qt, parts);
                assert_eq!(got.to_bits(), exact.to_bits(), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn filter_never_certifies_a_pair_below_the_threshold() {
        // Random, large-offset and near-repeating series. Each pair is
        // tested against its own exact distance and against a reference
        // pair's, each one ulp either side too.
        let noisy = noise(400, 11);
        let offset: Vec<f64> = noise(400, 12)
            .iter()
            .map(|v| v.mul_add(1e-2, 1e6))
            .collect();
        let repeats: Vec<f64> = (0..400).map(|t| noisy[t % 50] + 1e-9 * noisy[t]).collect();
        let m = 24;
        let mut certified = 0;
        for x in [noisy, offset, repeats] {
            let moments = WindowMoments::compute(&x, m).unwrap();
            let mut sigs = Vec::new();
            regular_sigmas(&moments, &mut sigs);
            assert!(sigs.iter().all(|s| !s.is_nan()));
            let distance = |a: usize, b: usize| {
                let qt = Sequential::dot(&x[a..a + m], &x[b..b + m]);
                let lead = Lead::new(m, moments.means[a], sigs[a]);
                let parts = corr_parts(&lead, moments.means[b], sigs[b], qt);
                (parts, parts_distance(&moments, a, b, qt, parts))
            };
            for a in (0..moments.len()).step_by(5) {
                let ((n0, d0), reference) = distance(a, (a + 97) % moments.len());
                for b in (0..moments.len()).step_by(7) {
                    let ((num, den), d) = distance(a, b);
                    for t in [d, reference] {
                        for t in [t.next_down(), t, t.next_up()] {
                            if num <= corr_cut(corr_ceiling(t, m)) * den {
                                certified += 1;
                                assert!(d >= t, "a={a} b={b}: {d} certified >= {t}");
                            } else {
                                // the guard band is narrow: a clearly
                                // farther pair is certified
                                assert!(d < t * (1.0 + 1e-6) + 1e-6, "a={a} b={b}: {d} vs {t}");
                            }
                        }
                    }
                    // Phase 2's cut, from the reference pair's correlation.
                    if num <= corr_cut(n0 / d0) * den {
                        assert!(d >= reference, "a={a} b={b}: {d} < {reference}");
                    }
                }
            }
        }
        assert!(certified > 5000, "the filter certified only {certified}");
    }
}
