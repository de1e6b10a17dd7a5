//! The fused z-normalized pair distance shared by the discord searches
//! (MERLIN's DRAG passes and HOT SAX), each written once as a
//! [`tsad_core::simd::Kernel`] and compiled per SIMD backend by
//! [`tsad_core::simd::dispatch`].
//!
//! A pair costs one dot product plus the precomputed window moments — no
//! per-pair normalization buffers. The scalar backend reproduces the
//! historical sequential sum bit for bit; the wide backends reassociate the
//! accumulation and agree with it at 1e-9 relative, which is why both
//! searches are tolerance-gated rather than bitwise-gated across backends
//! (DESIGN.md §11).

use tsad_core::dist::{corr_to_znorm_dist, dot_to_znorm_dist, FLAT_STD};
use tsad_core::simd::Isa;
use tsad_core::windows::WindowMoments;

/// Z-normalized distance between the length-`m` windows at `i` and `j`.
#[inline(always)]
pub(crate) fn pair_distance<I: Isa>(
    x: &[f64],
    m: usize,
    moments: &WindowMoments,
    i: usize,
    j: usize,
) -> f64 {
    let dot = I::dot(&x[i..i + m], &x[j..j + m]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::dist::{corr_ceiling, corr_cut};
    use tsad_core::simd::Sequential;

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
