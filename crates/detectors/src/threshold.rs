//! Turning continuous anomaly scores into discrete predictions.

use tsad_core::error::{CoreError, Result};

/// A score peak extracted by [`top_k_peaks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index of the peak.
    pub index: usize,
    /// Score value at the peak.
    pub value: f64,
}

/// Extracts the `k` highest peaks of `score`, suppressing `±exclusion`
/// around each pick (so one broad event yields one peak).
pub fn top_k_peaks(score: &[f64], k: usize, exclusion: usize) -> Vec<Peak> {
    let mut s = score.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let Some((index, &value)) = s
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
        else {
            break;
        };
        if value == f64::NEG_INFINITY {
            break;
        }
        out.push(Peak { index, value });
        let lo = index.saturating_sub(exclusion);
        let hi = (index + exclusion + 1).min(s.len());
        for v in &mut s[lo..hi] {
            *v = f64::NEG_INFINITY;
        }
    }
    out
}

/// `score > threshold` as a boolean mask (delegates to
/// [`tsad_core::ops::gt`], the single definition of "predict above").
pub fn threshold_mask(score: &[f64], threshold: f64) -> Vec<bool> {
    tsad_core::ops::gt(score, threshold)
}

/// Threshold at the `q`-quantile of the score (e.g. `q = 0.99` flags the
/// top 1 % of points).
pub fn quantile_mask(score: &[f64], q: f64) -> Result<Vec<bool>> {
    if score.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    let t = tsad_core::stats::quantile(score, q)?;
    Ok(threshold_mask(score, t))
}

/// Discrimination ratio of a score series: peak value divided by mean value
/// — the informal "difference between the highest value and the mean
/// values" the paper reads off Fig. 13 to compare Discord and Telemanom
/// under noise. Scores are first shifted to be non-negative.
pub fn discrimination_ratio(score: &[f64]) -> Result<f64> {
    if score.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    let min = score.iter().copied().fold(f64::INFINITY, f64::min);
    let shifted: Vec<f64> = score.iter().map(|&v| v - min).collect();
    let max = shifted.iter().copied().fold(0.0f64, f64::max);
    let mean = tsad_core::stats::mean(&shifted)?;
    if mean < 1e-12 {
        return Ok(if max > 0.0 { f64::INFINITY } else { 1.0 });
    }
    Ok(max / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_peaks_orders_and_excludes() {
        let mut score = vec![0.0; 100];
        score[10] = 5.0;
        score[12] = 4.9; // should be suppressed by exclusion around 10
        score[50] = 3.0;
        score[90] = 4.0;
        let peaks = top_k_peaks(&score, 3, 5);
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![10, 90, 50]);
        assert!(peaks[0].value >= peaks[1].value && peaks[1].value >= peaks[2].value);
    }

    #[test]
    fn top_k_peaks_handles_small_input() {
        assert!(top_k_peaks(&[], 3, 1).is_empty());
        let peaks = top_k_peaks(&[1.0], 5, 10);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 0);
    }

    #[test]
    fn finds_both_anomalies_as_top_discords() {
        // Two anomalies of *different shape*, a bump and a frequency burst,
        // so z-normalized matching cannot pair them with each other.
        let x: Vec<f64> = (0..600)
            .map(|i| {
                let base = (i as f64 * std::f64::consts::TAU / 20.0).sin();
                if (200..210).contains(&i) {
                    base + 2.5
                } else if (400..410).contains(&i) {
                    (i as f64 * std::f64::consts::TAU / 5.0).sin()
                } else {
                    base
                }
            })
            .collect();
        let mp = crate::matrix_profile::stomp(&x, 20).unwrap();
        let peaks = top_k_peaks(&mp.profile, 2, 20);
        assert_eq!(peaks.len(), 2);
        // both events are surfaced, in either order: the ranking between
        // two genuine anomalies is signal-dependent
        let near = |c: usize| peaks.iter().any(|p| p.index.abs_diff(c) <= 25);
        assert!(near(200), "bump not found: {peaks:?}");
        assert!(near(400), "frequency burst not found: {peaks:?}");
    }

    #[test]
    fn masks() {
        assert_eq!(
            threshold_mask(&[0.1, 0.9, 0.5], 0.4),
            vec![false, true, true]
        );
        let m = quantile_mask(&[1.0, 2.0, 3.0, 4.0, 100.0], 0.9).unwrap();
        assert_eq!(m.iter().filter(|&&b| b).count(), 1);
        assert!(quantile_mask(&[], 0.5).is_err());
    }

    #[test]
    fn discrimination_ratio_behaviour() {
        // a sharp peak over a flat floor discriminates strongly
        let mut sharp = vec![0.1; 100];
        sharp[40] = 10.0;
        // the same peak over a noisy floor discriminates less
        let noisy: Vec<f64> = sharp
            .iter()
            .enumerate()
            .map(|(i, &v)| v + ((i * 13 % 7) as f64) * 0.5)
            .collect();
        let r_sharp = discrimination_ratio(&sharp).unwrap();
        let r_noisy = discrimination_ratio(&noisy).unwrap();
        assert!(r_sharp > r_noisy, "{r_sharp} vs {r_noisy}");
        assert!(discrimination_ratio(&[]).is_err());
        assert_eq!(discrimination_ratio(&[2.0, 2.0]).unwrap(), 1.0);
    }
}
