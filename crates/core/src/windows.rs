//! Sliding-window utilities shared by the subsequence detectors.

use crate::error::{CoreError, Result};

/// Number of length-`m` subsequences in a series of length `n`
/// (`n − m + 1`), or an error if `m` is invalid.
pub fn subsequence_count(n: usize, m: usize) -> Result<usize> {
    if m == 0 || m > n {
        return Err(CoreError::BadWindow { window: m, len: n });
    }
    Ok(n - m + 1)
}

/// Per-window mean and standard deviation (population) of every length-`m`
/// subsequence, computed in `O(n)` with mean-shifted prefix sums.
///
/// This is the precomputation step of MASS and STOMP: the z-normalized
/// Euclidean distance between subsequences is a function of their dot
/// product and these moments.
#[derive(Debug, Clone)]
pub struct WindowMoments {
    /// `means[i]` = mean of `x[i .. i + m]`.
    pub means: Vec<f64>,
    /// `stds[i]` = population standard deviation of `x[i .. i + m]`.
    pub stds: Vec<f64>,
    /// Window length the moments were computed with.
    pub window: usize,
}

/// Reusable prefix-sum buffers for [`WindowMoments::compute_with`]: callers
/// that recompute moments in a loop (MERLIN's length sweep, streaming
/// replays) keep one of these around so the two length-`m` rings of recent
/// prefix sums stop being reallocated per call.
#[derive(Debug, Default)]
pub struct MomentsScratch {
    sum: Vec<f64>,
    sumsq: Vec<f64>,
}

impl MomentsScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub const fn new() -> Self {
        Self {
            sum: Vec::new(),
            sumsq: Vec::new(),
        }
    }
}

impl WindowMoments {
    /// Computes moments for every length-`m` window of `x`.
    pub fn compute(x: &[f64], m: usize) -> Result<Self> {
        let mut scratch = MomentsScratch::new();
        let mut out = Self {
            means: Vec::new(),
            stds: Vec::new(),
            window: m,
        };
        Self::compute_with(x, m, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`WindowMoments::compute`] writing into caller-owned storage: the
    /// prefix sums live in `scratch` and the moment vectors in `out`, so a
    /// warmed-up caller allocates nothing. The arithmetic (and therefore
    /// every produced bit) is identical to `compute`; only buffer ownership
    /// differs.
    pub fn compute_with(
        x: &[f64],
        m: usize,
        scratch: &mut MomentsScratch,
        out: &mut Self,
    ) -> Result<()> {
        let count = subsequence_count(x.len(), m)?;
        let shift = x.iter().sum::<f64>() / x.len() as f64;
        // Window i is the difference of the prefix sums at i + m and at i.
        // The prefix sums are produced in order, so only the last m are
        // ever needed: `ring[k % m]` holds the one at k until k + m
        // overwrites it, and the values and their subtractions are exactly
        // those of full-length prefix arrays.
        let ring_sum = &mut scratch.sum;
        let ring_sumsq = &mut scratch.sumsq;
        ring_sum.clear();
        ring_sum.resize(m, 0.0);
        ring_sumsq.clear();
        ring_sumsq.resize(m, 0.0);
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        let mf = m as f64;
        let means = &mut out.means;
        let stds = &mut out.stds;
        means.clear();
        means.reserve(count);
        stds.clear();
        stds.reserve(count);
        // ring slot of the prefix sum at k = j + 1
        let mut slot = 1 % m;
        for (j, &v) in x.iter().enumerate() {
            let d = v - shift;
            sum += d;
            sumsq += d * d;
            if j + 1 >= m {
                let s = sum - ring_sum[slot];
                let ss = sumsq - ring_sumsq[slot];
                let mean = s / mf;
                let mut var = (ss / mf - mean * mean).max(0.0);
                // Prefix-sum cancellation leaves O(eps·magnitude²) noise in a
                // variance that is mathematically 0; `sqrt` would amplify it.
                // Clamp relative to the second moment (and exactly for m == 1,
                // where the variance of a single point is 0 by definition).
                if m == 1 || var < 1e-12 * (ss / mf + mean * mean) {
                    var = 0.0;
                }
                means.push(mean + shift);
                stds.push(var.sqrt());
            }
            ring_sum[slot] = sum;
            ring_sumsq[slot] = sumsq;
            slot = if slot + 1 == m { 0 } else { slot + 1 };
        }
        out.window = m;
        Ok(())
    }

    /// Number of windows.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.means.len()
    }
}

impl Default for WindowMoments {
    /// An empty container for [`WindowMoments::compute_with`] to fill.
    fn default() -> Self {
        Self {
            means: Vec::new(),
            stds: Vec::new(),
            window: 0,
        }
    }
}

/// Iterator over `(start_index, window_slice)` pairs of length-`m`
/// subsequences with a given hop.
pub fn sliding(x: &[f64], m: usize, hop: usize) -> Result<impl Iterator<Item = (usize, &[f64])>> {
    subsequence_count(x.len(), m)?;
    if hop == 0 {
        return Err(CoreError::BadParameter {
            name: "hop",
            value: 0.0,
            expected: "hop >= 1",
        });
    }
    Ok((0..=x.len() - m)
        .step_by(hop)
        .map(move |i| (i, &x[i..i + m])))
}

/// Extracts the length-`m` subsequence starting at `i`.
pub fn subsequence(x: &[f64], i: usize, m: usize) -> Result<&[f64]> {
    if m == 0 || i + m > x.len() {
        return Err(CoreError::BadWindow {
            window: m,
            len: x.len(),
        });
    }
    Ok(&x[i..i + m])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(subsequence_count(10, 3).unwrap(), 8);
        assert_eq!(subsequence_count(10, 10).unwrap(), 1);
        assert!(subsequence_count(10, 0).is_err());
        assert!(subsequence_count(10, 11).is_err());
    }

    #[test]
    fn moments_match_naive() {
        let x: Vec<f64> = (0..50).map(|i| ((i * 7) % 13) as f64 + 100.0).collect();
        for m in [1, 2, 5, 50] {
            let mom = WindowMoments::compute(&x, m).unwrap();
            assert_eq!(mom.len(), x.len() - m + 1);
            for i in 0..mom.len() {
                let w = &x[i..i + m];
                let mean = w.iter().sum::<f64>() / m as f64;
                let var = w.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / m as f64;
                assert!((mom.means[i] - mean).abs() < 1e-8, "m={m} i={i}");
                assert!((mom.stds[i] - var.sqrt()).abs() < 1e-6, "m={m} i={i}");
            }
        }
    }

    #[test]
    fn compute_with_is_bitwise_identical_and_reuses_buffers() {
        let x: Vec<f64> = (0..120)
            .map(|i| ((i * 11) % 31) as f64 * 0.7 - 3.0)
            .collect();
        let mut scratch = MomentsScratch::new();
        let mut out = WindowMoments::default();
        // sweep lengths through the same scratch, as MERLIN does
        for m in [40usize, 8, 25, 120] {
            WindowMoments::compute_with(&x, m, &mut scratch, &mut out).unwrap();
            let fresh = WindowMoments::compute(&x, m).unwrap();
            assert_eq!(out.window, fresh.window);
            assert!(out
                .means
                .iter()
                .zip(&fresh.means)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(out
                .stds
                .iter()
                .zip(&fresh.stds)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert!(WindowMoments::compute_with(&x, 0, &mut scratch, &mut out).is_err());
    }

    #[test]
    fn prefix_rings_match_full_prefix_arrays_bitwise() {
        // the same moments from full-length prefix arrays: the ring buffers
        // must reproduce every bit
        fn reference(x: &[f64], m: usize) -> (Vec<f64>, Vec<f64>) {
            let shift = x.iter().sum::<f64>() / x.len() as f64;
            let (mut sum, mut sumsq) = (vec![0.0], vec![0.0]);
            for (i, &v) in x.iter().enumerate() {
                let d = v - shift;
                sum.push(sum[i] + d);
                sumsq.push(sumsq[i] + d * d);
            }
            let mf = m as f64;
            (0..=x.len() - m)
                .map(|i| {
                    let s = sum[i + m] - sum[i];
                    let ss = sumsq[i + m] - sumsq[i];
                    let mean = s / mf;
                    let mut var = (ss / mf - mean * mean).max(0.0);
                    if m == 1 || var < 1e-12 * (ss / mf + mean * mean) {
                        var = 0.0;
                    }
                    (mean + shift, var.sqrt())
                })
                .unzip()
        }
        let x: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.37).sin() * 40.0 + ((i * 7) % 13) as f64 + 1e3)
            .collect();
        for m in [1usize, 2, 3, 17, 64, 299, 300] {
            let got = WindowMoments::compute(&x, m).unwrap();
            let (means, stds) = reference(&x, m);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.means), bits(&means), "m={m}");
            assert_eq!(bits(&got.stds), bits(&stds), "m={m}");
        }
    }

    #[test]
    fn sliding_iterates_with_hop() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let pairs: Vec<(usize, &[f64])> = sliding(&x, 2, 2).unwrap().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (0, &x[0..2]));
        assert_eq!(pairs[1], (2, &x[2..4]));
        assert!(sliding(&x, 2, 0).is_err());
        assert!(sliding(&x, 6, 1).is_err());
    }

    #[test]
    fn subsequence_bounds() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(subsequence(&x, 1, 2).unwrap(), &[2.0, 3.0]);
        assert!(subsequence(&x, 2, 2).is_err());
        assert!(subsequence(&x, 0, 0).is_err());
    }
}
