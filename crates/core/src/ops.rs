//! Vectorized primitive operations.
//!
//! These mirror the "basic vectorized primitive operations, such as `mean`,
//! `max`, `std`, `diff`" that Definition 1 of the paper allows in a one-line
//! solution. Windowed operations (`movmean`, `movstd`, …) follow MATLAB
//! semantics: a centered window of nominal length `k` that *shrinks* at the
//! endpoints, producing an output of the same length as the input.
//!
//! `movmean`/`movstd` evaluate each window *directly* (`O(n·k)`): the window
//! lengths used throughout this repository are small (≤ a few hundred), the
//! two-pass per-window formula is numerically stable for arbitrary offsets,
//! and — crucially — a streaming ring-buffer node that re-reduces its buffer
//! with the same [`window_mean`]/[`window_std`] helpers reproduces the batch
//! output *bitwise* (see `ops::incremental` and the `tsad-stream` crate).
//! `movmax`/`movmin` remain `O(n)` via a monotonic deque.

pub mod incremental;

use crate::error::{CoreError, Result};

/// First difference: `y[i] = x[i+1] - x[i]`. Output is one shorter than the
/// input. An input of length < 2 yields an empty vector (matching MATLAB).
pub fn diff(x: &[f64]) -> Vec<f64> {
    if x.len() < 2 {
        return Vec::new();
    }
    x.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Second difference, `diff(diff(x))`; used by the paper's frozen-signal
/// one-liner `diff(diff(TS)) == 0`.
pub fn diff2(x: &[f64]) -> Vec<f64> {
    diff(&diff(x))
}

/// Element-wise absolute value.
pub fn abs(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| v.abs()).collect()
}

/// Cumulative sum: `y[i] = x[0] + … + x[i]`.
pub fn cumsum(x: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    x.iter()
        .map(|&v| {
            acc += v;
            acc
        })
        .collect()
}

/// The centered window `[lo, hi)` that MATLAB's moving statistics use for
/// position `i` with nominal window length `k` in a series of length `n`:
/// `k/2` points before (exclusive of fractional) and `(k-1)/2` after, clipped
/// to the array bounds.
#[inline]
pub fn centered_window(i: usize, k: usize, n: usize) -> (usize, usize) {
    let before = k / 2;
    let after = (k - 1) / 2;
    let lo = i.saturating_sub(before);
    let hi = (i + after + 1).min(n);
    (lo, hi)
}

/// Mean of one window, summed left-to-right. Shared by the batch moving
/// statistics and the streaming nodes in [`incremental`]: both reduce the
/// same values in the same order, so batch and streaming agree bitwise.
#[inline]
pub fn window_mean(w: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &v in w {
        sum += v;
    }
    sum / w.len() as f64
}

/// Sample standard deviation (normalized by `N − 1`) of one window via the
/// two-pass formula, summed left-to-right. Windows shorter than 2 produce 0.
/// Shared by batch and streaming for bitwise agreement (see [`window_mean`]).
#[inline]
pub fn window_std(w: &[f64]) -> f64 {
    let m = w.len();
    if m < 2 {
        return 0.0;
    }
    let mean = window_mean(w);
    let mut acc = 0.0;
    for &v in w {
        let d = v - mean;
        acc += d * d;
    }
    (acc / (m as f64 - 1.0)).sqrt()
}

fn validate_window(k: usize) -> Result<()> {
    if k == 0 {
        return Err(CoreError::BadWindow { window: 0, len: 0 });
    }
    Ok(())
}

/// Moving mean with a centered, endpoint-shrinking window of nominal length
/// `k` (MATLAB `movmean(x, k)`). Each window is reduced directly with
/// [`window_mean`] so a streaming node holding the same window in a ring
/// buffer reproduces the output bitwise.
pub fn movmean(x: &[f64], k: usize) -> Result<Vec<f64>> {
    validate_window(k)?;
    let n = x.len();
    Ok((0..n)
        .map(|i| {
            let (lo, hi) = centered_window(i, k, n);
            window_mean(&x[lo..hi])
        })
        .collect())
}

/// Moving (sample) standard deviation with a centered, endpoint-shrinking
/// window of nominal length `k` (MATLAB `movstd(x, k)`, normalized by
/// `N - 1`). Windows of effective length 1 produce 0. Each window is reduced
/// directly with [`window_std`] (see [`movmean`] on bitwise streaming
/// agreement).
pub fn movstd(x: &[f64], k: usize) -> Result<Vec<f64>> {
    validate_window(k)?;
    let n = x.len();
    Ok((0..n)
        .map(|i| {
            let (lo, hi) = centered_window(i, k, n);
            window_std(&x[lo..hi])
        })
        .collect())
}

/// Moving maximum with a centered, endpoint-shrinking window (MATLAB
/// `movmax`). `O(n)` via a monotonic deque over window ends.
pub fn movmax(x: &[f64], k: usize) -> Result<Vec<f64>> {
    moving_extreme(x, k, true)
}

/// Moving minimum with a centered, endpoint-shrinking window (MATLAB
/// `movmin`).
pub fn movmin(x: &[f64], k: usize) -> Result<Vec<f64>> {
    moving_extreme(x, k, false)
}

fn moving_extreme(x: &[f64], k: usize, max: bool) -> Result<Vec<f64>> {
    validate_window(k)?;
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    // Monotonic deque of indices; front is the current extreme. Windows for
    // consecutive i share all but O(1) elements, so total work is O(n).
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut hi_done = 0usize; // exclusive end of pushed elements
    for i in 0..n {
        let (lo, hi) = centered_window(i, k, n);
        while hi_done < hi {
            let v = x[hi_done];
            while let Some(&b) = deque.back() {
                let keep = if max { x[b] > v } else { x[b] < v };
                if keep {
                    break;
                }
                deque.pop_back();
            }
            deque.push_back(hi_done);
            hi_done += 1;
        }
        while let Some(&f) = deque.front() {
            if f < lo {
                deque.pop_front();
            } else {
                break;
            }
        }
        out.push(x[*deque.front().expect("window is never empty")]);
    }
    Ok(out)
}

/// Element-wise `x > threshold` mask.
pub fn gt(x: &[f64], threshold: f64) -> Vec<bool> {
    x.iter().map(|&v| v > threshold).collect()
}

/// Element-wise `|x[i]| <= eps` mask — "the signal is (locally) constant",
/// as in the paper's `diff(diff(TS)) == 0` one-liner, with a tolerance for
/// floating-point inputs.
pub fn near_zero(x: &[f64], eps: f64) -> Vec<bool> {
    x.iter().map(|&v| v.abs() <= eps).collect()
}

/// Z-normalizes a slice: zero mean, unit standard deviation. A (near-)
/// constant input normalizes to all zeros rather than dividing by ~0, the
/// convention used by matrix-profile implementations.
pub fn znormalize(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mean = x.iter().sum::<f64>() / n as f64;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    let std = var.sqrt();
    if std < 1e-12 {
        return vec![0.0; n];
    }
    x.iter().map(|&v| (v - mean) / std).collect()
}

/// Pads a mask produced from a `diff`-transformed series back to the original
/// series length: position `i` in diff-space corresponds to the transition
/// `i → i+1`, so we mark index `i + 1` (the arrival point of the jump), with
/// index 0 always normal.
pub fn align_diff_mask(diff_mask: &[bool]) -> Vec<bool> {
    let mut out = vec![false; diff_mask.len() + 1];
    for (i, &m) in diff_mask.iter().enumerate() {
        if m {
            out[i + 1] = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "length mismatch: {a:?} vs {b:?}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn diff_basics() {
        assert_eq!(diff(&[1.0, 4.0, 9.0, 16.0]), vec![3.0, 5.0, 7.0]);
        assert!(diff(&[1.0]).is_empty());
        assert!(diff(&[]).is_empty());
        assert_eq!(diff2(&[1.0, 4.0, 9.0, 16.0]), vec![2.0, 2.0]);
    }

    #[test]
    fn abs_and_cumsum() {
        assert_eq!(abs(&[-1.0, 2.0, -3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(cumsum(&[1.0, 2.0, 3.0]), vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn movmean_matches_matlab() {
        // MATLAB: movmean([4 8 6 -1 -2 -3 -1 3 4 5], 3)
        //   = [6 6 4.3333 1 -2 -2 -0.3333 2 4 4.5]
        let x = [4.0, 8.0, 6.0, -1.0, -2.0, -3.0, -1.0, 3.0, 4.0, 5.0];
        let got = movmean(&x, 3).unwrap();
        let want = [
            6.0,
            6.0,
            13.0 / 3.0,
            1.0,
            -2.0,
            -2.0,
            -1.0 / 3.0,
            2.0,
            4.0,
            4.5,
        ];
        assert_close(&got, &want);
    }

    #[test]
    fn movmean_even_window_matches_matlab() {
        // MATLAB: movmean([1 2 3 4 5], 4) = [1.5 2 2.5 3.5 4]
        // (window = current + 2 before + 1 after)
        let got = movmean(&[1.0, 2.0, 3.0, 4.0, 5.0], 4).unwrap();
        assert_close(&got, &[1.5, 2.0, 2.5, 3.5, 4.0]);
    }

    #[test]
    fn movmean_window_one_is_identity() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_close(&movmean(&x, 1).unwrap(), &x);
    }

    #[test]
    fn movmean_large_offset_is_stable() {
        let x: Vec<f64> = (0..1000).map(|i| 1e9 + (i as f64 * 0.37).sin()).collect();
        let got = movmean(&x, 25).unwrap();
        for (i, g) in got.iter().enumerate() {
            let (lo, hi) = centered_window(i, 25, x.len());
            let naive = x[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            assert!((g - naive).abs() < 1e-5, "index {i}");
        }
    }

    #[test]
    #[allow(clippy::excessive_precision, clippy::approx_constant)] // MATLAB reference output, verbatim
    fn movstd_matches_matlab() {
        // MATLAB: movstd([4 8 6 -1 -2 -3], 3)
        //   = [2.8284 2.0000 4.7258 4.3589 1.0000 0.7071]
        let x = [4.0, 8.0, 6.0, -1.0, -2.0, -3.0];
        let got = movstd(&x, 3).unwrap();
        let want = [
            2.828427124746190,
            2.0,
            4.725815626252609,
            4.358898943540674,
            1.0,
            0.707106781186548,
        ];
        assert_close(&got, &want);
    }

    #[test]
    fn movstd_constant_is_zero() {
        let got = movstd(&[5.0; 20], 7).unwrap();
        assert!(got.iter().all(|&v| v == 0.0));
        // window 1: every effective window is a single point
        let got = movstd(&[1.0, 2.0, 3.0], 1).unwrap();
        assert_eq!(got, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn moving_window_rejects_zero() {
        assert!(movmean(&[1.0], 0).is_err());
        assert!(movstd(&[1.0], 0).is_err());
        assert!(movmax(&[1.0], 0).is_err());
        assert!(movmin(&[1.0], 0).is_err());
    }

    #[test]
    fn movmax_movmin_match_naive() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        for k in [1, 2, 3, 5, 8, 50, 200, 500] {
            let fast_max = movmax(&x, k).unwrap();
            let fast_min = movmin(&x, k).unwrap();
            for i in 0..x.len() {
                let (lo, hi) = centered_window(i, k, x.len());
                let m = x[lo..hi].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mn = x[lo..hi].iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(fast_max[i], m, "movmax k={k} i={i}");
                assert_eq!(fast_min[i], mn, "movmin k={k} i={i}");
            }
        }
    }

    #[test]
    fn masks() {
        assert_eq!(gt(&[1.0, 3.0, 2.0], 1.5), vec![false, true, true]);
        assert_eq!(near_zero(&[0.0, 1e-12, 0.1], 1e-9), vec![true, true, false]);
    }

    #[test]
    fn znormalize_properties() {
        let z = znormalize(&[2.0, 4.0, 6.0, 8.0]);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let var: f64 = z.iter().map(|v| v * v).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
        assert_eq!(znormalize(&[7.0; 5]), vec![0.0; 5]);
        assert!(znormalize(&[]).is_empty());
    }

    #[test]
    fn align_diff_mask_shifts_right() {
        // diff index i refers to transition i -> i+1; the anomalous *value*
        // is at i+1.
        let m = align_diff_mask(&[false, true, false]);
        assert_eq!(m, vec![false, false, true, false]);
        assert_eq!(align_diff_mask(&[]), vec![false]);
    }
}
