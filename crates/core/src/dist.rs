//! Distance measures between time-series subsequences.
//!
//! Provides plain and z-normalized Euclidean distance and the MASS distance
//! profile (FFT-accelerated z-normalized Euclidean distance of a query to
//! every window of a series).

use crate::error::{CoreError, Result};
use crate::windows::WindowMoments;

/// Plain Euclidean distance between equal-length slices.
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(CoreError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// Z-normalized Euclidean distance between equal-length slices.
///
/// Degenerate cases follow the matrix-profile convention (see
/// [`dot_to_znorm_dist`]): two constant slices are at distance 0; a constant
/// slice versus a non-constant one is at the maximum z-normalized distance
/// `sqrt(2m)`.
pub fn znorm_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(CoreError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    let sa = crate::stats::std_dev(a)?;
    let sb = crate::stats::std_dev(b)?;
    let a_const = sa < FLAT_STD;
    let b_const = sb < FLAT_STD;
    if a_const && b_const {
        return Ok(0.0);
    }
    if a_const || b_const {
        return Ok((2.0 * a.len() as f64).sqrt());
    }
    let za = crate::ops::znormalize(a);
    let zb = crate::ops::znormalize(b);
    euclidean(&za, &zb)
}

/// Below this standard deviation [`dot_to_znorm_dist`] treats a window as
/// constant.
pub const FLAT_STD: f64 = 1e-9;

/// Converts a sliding dot product `qt` into a z-normalized Euclidean
/// distance, given query moments (`mq`, `sq`) and window moments
/// (`mt`, `st`), using the standard identity
/// `d² = 2m(1 − (qt − m·mq·mt) / (m·sq·st))`.
///
/// Degenerate (constant) windows are handled explicitly: two constants are
/// at distance 0; a constant versus a non-constant is at the maximum
/// z-normalized distance `sqrt(2m)` — the convention matrix-profile
/// implementations use so flat regions do not spuriously match everything.
#[inline]
pub fn dot_to_znorm_dist(qt: f64, m: usize, mq: f64, sq: f64, mt: f64, st: f64) -> f64 {
    let mf = m as f64;
    let q_const = sq < FLAT_STD;
    let t_const = st < FLAT_STD;
    if q_const && t_const {
        return 0.0;
    }
    if q_const || t_const {
        return (2.0 * mf).sqrt();
    }
    let (num, den) = znorm_corr_parts(qt, m, mq, sq, mt, st);
    corr_to_znorm_dist(num / den, m)
}

/// The numerator `qt − m·mq·mt` and denominator `m·sq·st` of the Pearson
/// correlation inside [`dot_to_znorm_dist`], rounded exactly as it rounds
/// them, so a caller that tests them without dividing shares their bits.
#[inline(always)]
pub fn znorm_corr_parts(qt: f64, m: usize, mq: f64, sq: f64, mt: f64, st: f64) -> (f64, f64) {
    let mf = m as f64;
    (qt - mf * mq * mt, mf * sq * st)
}

/// The last step of [`dot_to_znorm_dist`]: the distance `√(2m(1 − corr))`
/// of a correlation, clamped to `[−1, 1]` first. Every rounding step is
/// monotone, so the result never rises as `corr` rises.
#[inline(always)]
pub fn corr_to_znorm_dist(corr: f64, m: usize) -> f64 {
    let d2 = 2.0 * m as f64 * (1.0 - corr.clamp(-1.0, 1.0));
    d2.max(0.0).sqrt()
}

/// The largest `f64` correlation `c` whose distance is not below `t`, that
/// is `!(corr_to_znorm_dist(c, m) < t)`: `+∞` when every correlation
/// qualifies (`t <= 0`, or NaN), `−∞` when none does (`t` above the
/// maximum distance `√(4m)`). Found by bisection over the ordered bit
/// patterns of `[−1, 1]`, which is exact because the distance never rises
/// with the correlation.
pub fn corr_ceiling(t: f64, m: usize) -> f64 {
    if t.is_nan() || t <= 0.0 {
        return f64::INFINITY;
    }
    if corr_to_znorm_dist(-1.0, m) < t {
        return f64::NEG_INFINITY;
    }
    // Order-preserving map from f64 to i64 (for non-NaN values).
    let key = |c: f64| {
        let b = c.to_bits() as i64;
        if b < 0 {
            -(b & i64::MAX)
        } else {
            b
        }
    };
    let unkey = |k: i64| {
        if k < 0 {
            f64::from_bits(((-k) | i64::MIN) as u64)
        } else {
            f64::from_bits(k as u64)
        }
    };
    // Invariant: the distance at `lo` reaches `t`, the one at `hi` does
    // not (at `1.0` it is 0 < t).
    let (mut lo, mut hi) = (key(-1.0), key(1.0));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if corr_to_znorm_dist(unkey(mid), m) >= t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    unkey(lo)
}

/// A cut for the division-free test `num <= cut * den`: for every finite
/// `num` and every `den` in `[2^-60, 2^900]`, the `f64` test implies
/// `num / den <= c` in exact arithmetic, so the rounded `num / den` is at
/// most `c` too. The cut sits `|c|·2^-50 + 2^-60` below `c`, which covers
/// the rounding of the product `cut * den` and of the subtraction
/// (DESIGN.md §11 derives the band). `±∞` pass through.
#[inline]
pub fn corr_cut(c: f64) -> f64 {
    const REL: f64 = 1.0 / (1u64 << 50) as f64;
    const ABS: f64 = 1.0 / (1u64 << 60) as f64;
    if c.is_finite() {
        c - (c.abs() * REL + ABS)
    } else {
        c
    }
}

/// MASS: the z-normalized Euclidean distance from `query` to every
/// length-`|query|` window of `series`, in `O(n log n)`.
pub fn mass(query: &[f64], series: &[f64]) -> Result<Vec<f64>> {
    let m = query.len();
    let moments = WindowMoments::compute(series, m)?;
    let mut qt = Vec::new();
    let mut out = Vec::new();
    mass_with_moments(query, &moments, series, &mut qt, &mut out)?;
    Ok(out)
}

/// [`mass`] with the series moments precomputed and all buffers owned by
/// the caller: `qt_scratch` receives the sliding dot products and `out` the
/// distances (both cleared first). Loop-heavy callers (STAMP rows, MERLIN
/// candidate refinement) compute moments once and stop paying two
/// allocations plus an `O(n)` moments pass per query. Numerically identical
/// to [`mass`]: the query moments still come from `stats::mean` /
/// `stats::std_dev`.
pub fn mass_with_moments(
    query: &[f64],
    moments: &WindowMoments,
    series: &[f64],
    qt_scratch: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> Result<()> {
    let m = query.len();
    if moments.window != m || moments.len() != series.len().saturating_sub(m) + 1 {
        return Err(CoreError::BadParameter {
            name: "moments_window",
            value: moments.window as f64,
            expected: "moments computed from this series at the query length",
        });
    }
    crate::fft::sliding_dot_product_into(query, series, qt_scratch)?;
    let mq = crate::stats::mean(query)?;
    let sq = crate::stats::std_dev(query)?;
    out.clear();
    out.reserve(qt_scratch.len());
    out.extend(
        qt_scratch
            .iter()
            .enumerate()
            .map(|(i, &dot)| dot_to_znorm_dist(dot, m, mq, sq, moments.means[i], moments.stds[i])),
    );
    Ok(())
}

/// Naive `O(n·m)` distance profile — reference for MASS in tests, and faster
/// for very short series.
pub fn distance_profile_naive(query: &[f64], series: &[f64]) -> Result<Vec<f64>> {
    let m = query.len();
    if m == 0 || m > series.len() {
        return Err(CoreError::BadWindow {
            window: m,
            len: series.len(),
        });
    }
    (0..=series.len() - m)
        .map(|i| znorm_euclidean(query, &series[i..i + m]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn znorm_euclidean_is_scale_invariant() {
        let a = [1.0, 2.0, 3.0, 2.0, 1.0];
        let b: Vec<f64> = a.iter().map(|v| v * 10.0 + 100.0).collect();
        assert!(znorm_euclidean(&a, &b).unwrap() < 1e-9);
    }

    #[test]
    fn mass_matches_naive() {
        let series: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.17).sin() * 3.0 + (i as f64 * 0.03).cos())
            .collect();
        for m in [4, 16, 50] {
            let query = &series[37..37 + m];
            let fast = mass(query, &series).unwrap();
            let slow = distance_profile_naive(query, &series).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((a - b).abs() < 1e-5, "m={m} i={i}: {a} vs {b}");
            }
            // the self-match is (near) zero
            assert!(fast[37] < 1e-4);
        }
    }

    #[test]
    fn mass_with_moments_matches_mass_bitwise() {
        let series: Vec<f64> = (0..250)
            .map(|i| (i as f64 * 0.13).sin() * 2.0 + (i as f64 * 0.05).cos())
            .collect();
        let mut qt = Vec::new();
        let mut out = Vec::new();
        for m in [5usize, 20, 140] {
            let moments = WindowMoments::compute(&series, m).unwrap();
            for start in [0usize, 11, 60] {
                let query = &series[start..start + m];
                mass_with_moments(query, &moments, &series, &mut qt, &mut out).unwrap();
                let owned = mass(query, &series).unwrap();
                assert_eq!(out.len(), owned.len());
                assert!(out
                    .iter()
                    .zip(&owned)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            // moments from the wrong window length are rejected
            let wrong = WindowMoments::compute(&series, m + 1).unwrap();
            assert!(mass_with_moments(&series[..m], &wrong, &series, &mut qt, &mut out).is_err());
        }
    }

    #[test]
    fn corr_ceiling_is_the_last_correlation_at_or_beyond_the_distance() {
        for m in [1usize, 8, 24, 64] {
            let max = corr_to_znorm_dist(-1.0, m);
            assert_eq!(corr_ceiling(0.0, m), f64::INFINITY);
            assert_eq!(corr_ceiling(-3.0, m), f64::INFINITY);
            assert_eq!(corr_ceiling(f64::NAN, m), f64::INFINITY);
            assert_eq!(corr_ceiling(max.next_up(), m), f64::NEG_INFINITY);
            assert_eq!(corr_ceiling(f64::INFINITY, m), f64::NEG_INFINITY);
            for t in [1e-12, 1e-3, 0.5, 1.0, 3.3, max * 0.999, max] {
                for t in [t.next_down(), t, t.next_up()] {
                    if t > max {
                        continue;
                    }
                    let c = corr_ceiling(t, m);
                    assert!(corr_to_znorm_dist(c, m) >= t, "m={m} t={t}");
                    assert!(corr_to_znorm_dist(c.next_up(), m) < t, "m={m} t={t}");
                }
            }
        }
    }

    #[test]
    fn corr_cut_stays_below_and_passes_infinities() {
        assert_eq!(corr_cut(f64::INFINITY), f64::INFINITY);
        assert_eq!(corr_cut(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(corr_cut(f64::NAN).is_nan());
        for c in [
            -1.0, -0.3, -1e-300, 0.0, 1e-300, 2e-17, 0.25, 0.999_999, 1.0,
        ] {
            let cut = corr_cut(c);
            assert!(cut < c, "{c}");
            for den in [2f64.powi(-60), 1e-9, 1.0, 24.0, 1e12, 2f64.powi(900)] {
                assert!(cut * den < c * den, "{c} {den}");
            }
        }
    }

    #[test]
    fn mass_handles_constant_regions() {
        let mut series = vec![1.0; 50];
        for (i, v) in series.iter_mut().enumerate().skip(25) {
            *v = (i as f64 * 0.9).sin();
        }
        let flat_query = vec![1.0; 8];
        let d = mass(&flat_query, &series).unwrap();
        // flat query against flat window: distance 0
        assert!(d[0] < 1e-9);
        // flat query against wiggly window: max distance sqrt(2m)
        let max = (2.0 * 8.0_f64).sqrt();
        assert!((d[40] - max).abs() < 1e-9);
    }
}
