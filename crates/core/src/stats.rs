//! Scalar statistics, regression, and hypothesis-test helpers.
//!
//! Everything here is used by the flaw analyzers in `tsad-eval` (feature
//! tables for Fig. 6, the run-to-failure Kolmogorov–Smirnov test for
//! Fig. 10) and by the detectors (autoregression for the Telemanom
//! substitute).

use crate::error::{CoreError, Result};

/// Arithmetic mean. Errors on empty input.
pub fn mean(x: &[f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    Ok(x.iter().sum::<f64>() / x.len() as f64)
}

/// Population variance (normalized by `N`). Errors on empty input.
pub fn variance(x: &[f64]) -> Result<f64> {
    let m = mean(x)?;
    Ok(x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64)
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> Result<f64> {
    Ok(variance(x)?.sqrt())
}

/// Sample variance (normalized by `N - 1`). Errors with fewer than two
/// observations.
pub fn sample_variance(x: &[f64]) -> Result<f64> {
    if x.len() < 2 {
        return Err(CoreError::BadWindow {
            window: 2,
            len: x.len(),
        });
    }
    let m = mean(x)?;
    Ok(x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64)
}

/// Sample standard deviation (normalized by `N - 1`).
pub fn sample_std(x: &[f64]) -> Result<f64> {
    Ok(sample_variance(x)?.sqrt())
}

/// Median (linear-interpolation-free: the midpoint convention for even
/// lengths). Errors on empty input.
pub fn median(x: &[f64]) -> Result<f64> {
    quantile(x, 0.5)
}

/// Empirical quantile with linear interpolation between order statistics
/// (the "linear" / type-7 definition used by MATLAB's `quantile` for
/// `q ∈ [0, 1]` after endpoint handling is simplified).
pub fn quantile(x: &[f64], q: f64) -> Result<f64> {
    if x.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(CoreError::BadParameter {
            name: "q",
            value: q,
            expected: "0 <= q <= 1",
        });
    }
    let mut sorted = x.to_vec();
    // total_cmp keeps this panic-free on NaN input (NaNs sort last)
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Autocorrelation of `x` at `lag` (Pearson correlation of the series with
/// its lagged self, using the global mean/variance — the standard ACF
/// estimator). Returns 0 for (near-)constant input.
pub fn autocorrelation(x: &[f64], lag: usize) -> Result<f64> {
    if x.len() < lag + 2 {
        return Err(CoreError::BadWindow {
            window: lag + 2,
            len: x.len(),
        });
    }
    let m = mean(x)?;
    let denom: f64 = x.iter().map(|&v| (v - m) * (v - m)).sum();
    // a truly constant series gives exactly 0; small-amplitude but
    // structured series must not be misclassified as constant
    if denom == 0.0 {
        return Ok(0.0);
    }
    let num: f64 = (0..x.len() - lag)
        .map(|i| (x[i] - m) * (x[i + lag] - m))
        .sum();
    Ok(num / denom)
}

/// Complexity estimate `CE(x) = sqrt(Σ diff(x)²)` from the CID distance
/// (Batista et al.) — one of the features the paper tabulates when arguing
/// that Yahoo A1-Real47's "anomaly" F is statistically unremarkable (Fig 6).
pub fn complexity_estimate(x: &[f64]) -> f64 {
    x.windows(2)
        .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
        .sum::<f64>()
        .sqrt()
}

/// Solves the square linear system `A·x = b` by Gaussian elimination with
/// partial pivoting. `a` is row-major `n × n`. Used to fit autoregressive
/// forecasters (Telemanom substitute) without a linear-algebra dependency.
pub fn solve_linear_system(a: &[Vec<f64>], b: &[f64]) -> Result<Vec<f64>> {
    let n = b.len();
    if a.len() != n || a.iter().any(|row| row.len() != n) {
        return Err(CoreError::LengthMismatch {
            left: a.len(),
            right: n,
        });
    }
    let mut m: Vec<Vec<f64>> = a.to_vec();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Partial pivot: bring the largest-magnitude entry to the diagonal.
        let pivot = (col..n)
            .max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))
            .expect("non-empty range"); // invariant: col < n, so col..n is non-empty
        if m[pivot][col].abs() < 1e-12 {
            return Err(CoreError::BadParameter {
                name: "matrix",
                value: m[pivot][col],
                expected: "a non-singular system",
            });
        }
        m.swap(col, pivot);
        rhs.swap(col, pivot);
        for row in col + 1..n {
            let factor = m[row][col] / m[col][col];
            if factor == 0.0 {
                continue;
            }
            let (pivot_rows, rest) = m.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (k, cell) in rest[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot_row[k];
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for col in row + 1..n {
            acc -= m[row][col] * x[col];
        }
        x[row] = acc / m[row][row];
    }
    Ok(x)
}

/// Two-sided Kolmogorov–Smirnov statistic of a sample against the uniform
/// distribution on `[0, 1]`: `D = sup |F_n(t) − t|`.
///
/// Used for Fig. 10's run-to-failure test: under unbiased placement,
/// relative anomaly positions should be ~uniform; a large `D` (with the
/// asymptotic p-value from [`ks_p_value`]) exposes the end-of-series bias.
pub fn ks_statistic_uniform(sample: &[f64]) -> Result<f64> {
    if sample.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    let mut s = sample.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &v) in s.iter().enumerate() {
        let cdf_hi = (i + 1) as f64 / n;
        let cdf_lo = i as f64 / n;
        d = d.max((cdf_hi - v).abs()).max((v - cdf_lo).abs());
    }
    Ok(d)
}

/// Asymptotic Kolmogorov–Smirnov p-value for statistic `d` and sample size
/// `n` (the Kolmogorov distribution series, truncated at 100 terms).
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    if n == 0 || d <= 0.0 {
        return 1.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    let mut p = 0.0;
    for k in 1..=100 {
        let kf = k as f64;
        let term = (-2.0 * kf * kf * lambda * lambda).exp();
        p += if k % 2 == 1 { 2.0 * term } else { -2.0 * term };
    }
    p.clamp(0.0, 1.0)
}

/// Inverse standard normal CDF (Acklam's rational approximation; relative
/// error ~1e-9). Used to compute SAX breakpoints for any alphabet size.
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, verbatim
pub fn normal_quantile(p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) || p == 0.0 || p == 1.0 {
        return Err(CoreError::BadParameter {
            name: "p",
            value: p,
            expected: "0 < p < 1",
        });
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let p_high = 1.0 - p_low;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= p_high {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    Ok(x)
}

/// Index of the maximum value; ties resolve to the first occurrence.
pub fn argmax(x: &[f64]) -> Result<usize> {
    if x.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Index of the minimum value; ties resolve to the first occurrence.
pub fn argmin(x: &[f64]) -> Result<usize> {
    if x.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v < x[best] {
            best = i;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_variances() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&x).unwrap(), 5.0);
        assert_eq!(variance(&x).unwrap(), 4.0);
        assert_eq!(std_dev(&x).unwrap(), 2.0);
        assert!((sample_variance(&x).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert!(sample_variance(&[1.0]).is_err());
    }

    #[test]
    fn quantiles() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&x, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&x, 1.0).unwrap(), 4.0);
        assert_eq!(median(&x).unwrap(), 2.5);
        assert_eq!(quantile(&x, 0.25).unwrap(), 1.75);
        assert!(quantile(&x, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        let x: Vec<f64> = (0..400)
            .map(|i| (i as f64 * std::f64::consts::TAU / 20.0).sin())
            .collect();
        let r20 = autocorrelation(&x, 20).unwrap();
        let r10 = autocorrelation(&x, 10).unwrap();
        assert!(r20 > 0.9, "full period lag should correlate: {r20}");
        assert!(r10 < -0.9, "half period lag should anti-correlate: {r10}");
        assert_eq!(autocorrelation(&[1.0; 10], 2).unwrap(), 0.0);
        assert!(autocorrelation(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn complexity_estimate_orders_signals() {
        let smooth: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let rough: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        assert!(complexity_estimate(&rough) > complexity_estimate(&smooth));
        assert_eq!(complexity_estimate(&[5.0]), 0.0);
    }

    #[test]
    fn solves_linear_system() {
        // 2x + y = 5; x - y = 1  => x = 2, y = 1
        let a = vec![vec![2.0, 1.0], vec![1.0, -1.0]];
        let x = solve_linear_system(&a, &[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // singular
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear_system(&a, &[1.0, 2.0]).is_err());
        // needs pivoting (zero on the diagonal)
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve_linear_system(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn ks_uniform_sample_is_small_clustered_is_large() {
        let uniform: Vec<f64> = (0..200).map(|i| (i as f64 + 0.5) / 200.0).collect();
        let d_uniform = ks_statistic_uniform(&uniform).unwrap();
        assert!(d_uniform < 0.01, "{d_uniform}");
        assert!(ks_p_value(d_uniform, 200) > 0.99);

        // Everything clustered at the end of [0, 1] — the run-to-failure shape.
        let clustered: Vec<f64> = (0..200).map(|i| 0.9 + 0.1 * (i as f64 / 200.0)).collect();
        let d_clustered = ks_statistic_uniform(&clustered).unwrap();
        assert!(d_clustered > 0.85, "{d_clustered}");
        assert!(ks_p_value(d_clustered, 200) < 1e-6);
        assert!(ks_statistic_uniform(&[]).is_err());
    }

    #[test]
    fn normal_quantile_matches_published_values() {
        // Standard normal quantiles from published tables.
        for &(p, z) in &[
            (0.001, -3.090232306167813),
            (0.25, -0.6744897501960817),
            (0.5, 0.0),
            (0.975, 1.959963984540054),
        ] {
            let x = normal_quantile(p).unwrap();
            assert!((x - z).abs() < 1e-8, "p={p}: {x} vs {z}");
            assert!(
                (normal_quantile(1.0 - p).unwrap() + x).abs() < 1e-8,
                "p={p}"
            );
        }
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
    }

    #[test]
    fn argmax_argmin() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]).unwrap(), 1);
        assert_eq!(argmin(&[1.0, -3.0, -3.0, 2.0]).unwrap(), 1);
        assert!(argmax(&[]).is_err());
        assert!(argmin(&[]).is_err());
    }
}
