//! Scoring protocols for turning predictions into a single number — and
//! for demonstrating how much the choice of protocol matters (§2.3, §4.4).
//!
//! * [`pointwise_f1`] — the raw point-level F1.
//! * [`point_adjust_f1`] — the (notoriously generous) "point-adjust"
//!   protocol popularized by the OMNI paper: if any point of a true
//!   anomalous region is detected, the *whole region* counts as detected.
//! * [`tolerance_f1`] — point-wise with `slop` points of play on region
//!   boundaries, the adjustment §4.4 argues every fair evaluation needs.
//! * [`best_f1_over_thresholds`] — sweep all thresholds of a continuous
//!   score and keep the best F1, the protocol most deep-TSAD papers use.

use tsad_core::error::{CoreError, Result};
use tsad_core::Labels;

use crate::confusion::Confusion;

/// Point-wise F1 between a predicted mask and labels.
pub fn pointwise_f1(predicted: &[bool], labels: &Labels) -> Result<f64> {
    Ok(Confusion::from_masks(predicted, &labels.to_mask())?.f1())
}

/// Point-adjust F1: a predicted positive anywhere inside a true region
/// marks the whole region detected (all its points become TPs); false
/// positives remain point-wise.
pub fn point_adjust_f1(predicted: &[bool], labels: &Labels) -> Result<f64> {
    if predicted.len() != labels.len() {
        return Err(CoreError::LengthMismatch {
            left: predicted.len(),
            right: labels.len(),
        });
    }
    let mut adjusted = predicted.to_vec();
    for r in labels.regions() {
        if predicted[r.start..r.end].iter().any(|&p| p) {
            for a in &mut adjusted[r.start..r.end] {
                *a = true;
            }
        }
    }
    Ok(Confusion::from_masks(&adjusted, &labels.to_mask())?.f1())
}

/// Tolerance F1: like point-wise, but a predicted positive within `slop`
/// of a labeled region counts as a true positive (matched against the
/// dilated labels), and recall is measured per region (a region is
/// recalled if any positive lands in its dilation).
pub fn tolerance_f1(predicted: &[bool], labels: &Labels, slop: usize) -> Result<f64> {
    if predicted.len() != labels.len() {
        return Err(CoreError::LengthMismatch {
            left: predicted.len(),
            right: labels.len(),
        });
    }
    let positives: Vec<usize> = predicted
        .iter()
        .enumerate()
        .filter(|(_, &p)| p)
        .map(|(i, _)| i)
        .collect();
    let tp_points = positives
        .iter()
        .filter(|&&i| labels.contains_with_slop(i, slop))
        .count();
    let fp = positives.len() - tp_points;
    let recalled = labels
        .regions()
        .iter()
        .filter(|r| {
            let d = r.dilate(slop, labels.len());
            positives.iter().any(|&i| d.contains(i))
        })
        .count();
    let precision = if positives.is_empty() {
        0.0
    } else {
        tp_points as f64 / positives.len() as f64
    };
    let recall = if labels.region_count() == 0 {
        0.0
    } else {
        recalled as f64 / labels.region_count() as f64
    };
    let _ = fp;
    Ok(if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    })
}

/// Which F1 protocol to apply when sweeping thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F1Protocol {
    /// Raw point-wise F1.
    Pointwise,
    /// Point-adjust (whole-region credit).
    PointAdjust,
    /// Point-wise with boundary slop.
    Tolerance(usize),
}

/// Sweeps every distinct value of `score` as a threshold and returns the
/// best F1 under the chosen protocol, with the threshold that achieved it.
/// This is the "oracle threshold" evaluation most papers report.
pub fn best_f1_over_thresholds(
    score: &[f64],
    labels: &Labels,
    protocol: F1Protocol,
) -> Result<(f64, f64)> {
    if score.len() != labels.len() {
        return Err(CoreError::LengthMismatch {
            left: score.len(),
            right: labels.len(),
        });
    }
    if score.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    tsad_core::series::ensure_finite(score)?;
    let mut distinct = score.to_vec();
    distinct.sort_by(|a, b| a.total_cmp(b)); // non-finite rejected above
    distinct.dedup();
    // Cap the sweep: for long scores, evaluate ~256 quantile-spaced
    // thresholds (each F1 evaluation is O(n); a full sweep would be
    // O(n²)) — but always include the top 64 distinct values exactly.
    // Anomalies are rare, so the decisive thresholds sit at the very top
    // of the score distribution, where a stride would skip them.
    let step = (distinct.len() / 256).max(1);
    let top_start = distinct.len().saturating_sub(64);
    // NEG_INFINITY makes the all-positive operating point reachable: with a
    // strict `>` comparison, thresholds drawn from the data alone can never
    // predict the minimum-scoring points positive.
    let candidates: Vec<f64> = std::iter::once(f64::NEG_INFINITY)
        .chain(distinct.iter().copied().step_by(step))
        .chain(distinct[top_start..].iter().copied())
        .collect();
    let mut best = (0.0f64, f64::NAN);
    for t in candidates.iter() {
        // predict strictly above the threshold
        let mask: Vec<bool> = score.iter().map(|&v| v > *t).collect();
        let f1 = match protocol {
            F1Protocol::Pointwise => pointwise_f1(&mask, labels)?,
            F1Protocol::PointAdjust => point_adjust_f1(&mask, labels)?,
            F1Protocol::Tolerance(slop) => tolerance_f1(&mask, labels, slop)?,
        };
        if f1 > best.0 || best.1.is_nan() {
            best = (f1, *t);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::Region;

    fn labels_1020(len: usize) -> Labels {
        Labels::single(len, Region::new(10, 20).unwrap()).unwrap()
    }

    #[test]
    fn pointwise_vs_point_adjust_generosity() {
        let labels = labels_1020(100);
        // detect a single point of the 10-point region
        let mut pred = vec![false; 100];
        pred[15] = true;
        let pw = pointwise_f1(&pred, &labels).unwrap();
        let pa = point_adjust_f1(&pred, &labels).unwrap();
        assert!(pw < 0.2, "point-wise is strict: {pw}");
        assert_eq!(pa, 1.0, "point-adjust credits the whole region");
    }

    #[test]
    fn tolerance_f1_allows_boundary_misses() {
        let labels = labels_1020(100);
        let mut pred = vec![false; 100];
        pred[8] = true; // 2 points early
        assert_eq!(tolerance_f1(&pred, &labels, 0).unwrap(), 0.0);
        assert_eq!(tolerance_f1(&pred, &labels, 2).unwrap(), 1.0);
    }

    #[test]
    fn tolerance_f1_penalizes_far_positives() {
        let labels = labels_1020(100);
        let mut pred = vec![false; 100];
        pred[15] = true;
        pred[80] = true; // far false positive
        let f1 = tolerance_f1(&pred, &labels, 2).unwrap();
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12, "{f1}");
    }

    #[test]
    fn empty_predictions_score_zero() {
        let labels = labels_1020(50);
        let pred = vec![false; 50];
        assert_eq!(pointwise_f1(&pred, &labels).unwrap(), 0.0);
        assert_eq!(point_adjust_f1(&pred, &labels).unwrap(), 0.0);
        assert_eq!(tolerance_f1(&pred, &labels, 3).unwrap(), 0.0);
    }

    #[test]
    fn best_threshold_finds_separating_value() {
        let labels = labels_1020(100);
        let score: Vec<f64> = (0..100)
            .map(|i| if (10..20).contains(&i) { 5.0 } else { 1.0 })
            .collect();
        let (f1, t) = best_f1_over_thresholds(&score, &labels, F1Protocol::Pointwise).unwrap();
        assert_eq!(f1, 1.0);
        assert!((1.0..5.0).contains(&t), "threshold {t}");
    }

    #[test]
    fn best_threshold_validates() {
        let labels = labels_1020(100);
        assert!(best_f1_over_thresholds(&[1.0; 5], &labels, F1Protocol::Pointwise).is_err());
        let empty = Labels::empty(0);
        assert!(best_f1_over_thresholds(&[], &empty, F1Protocol::Pointwise).is_err());
    }

    #[test]
    fn constant_score_reaches_the_all_positive_point() {
        // a constant score can still be thresholded below its value
        let labels = Labels::single(100, Region::new(0, 90).unwrap()).unwrap();
        let (f1, t) = best_f1_over_thresholds(&[1.0; 100], &labels, F1Protocol::Pointwise).unwrap();
        assert!((f1 - 2.0 * 90.0 / 190.0).abs() < 1e-12, "{f1}");
        assert!(t.is_infinite() && t < 0.0);
        // non-finite scores are rejected, not mis-sorted
        let mut bad = vec![1.0; 100];
        bad[5] = f64::NAN;
        assert!(best_f1_over_thresholds(&bad, &labels, F1Protocol::Pointwise).is_err());
    }

    #[test]
    fn point_adjust_inflates_even_random_scores() {
        // the §2 critique in action: on long anomalous regions, point-adjust
        // makes nearly any scorer look good
        let labels = Labels::single(200, Region::new(50, 150).unwrap()).unwrap();
        // a "detector" that fires on 2% of points spread evenly
        let pred: Vec<bool> = (0..200).map(|i| i % 50 == 0).collect();
        let pw = pointwise_f1(&pred, &labels).unwrap();
        let pa = point_adjust_f1(&pred, &labels).unwrap();
        assert!(pa > 0.9, "point-adjust: {pa}");
        assert!(pw < 0.1, "point-wise: {pw}");
    }
}
