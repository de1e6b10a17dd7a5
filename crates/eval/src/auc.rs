//! Threshold-free metrics: ROC-AUC and PR-AUC (average precision) of a
//! continuous anomaly score against point labels.
//!
//! These complete the §2.6 protocol zoo — several of the papers the study
//! critiques report AUCs instead of F1, and the flaws distort them just as
//! badly (an end-biased benchmark hands the naive last-point detector a
//! respectable AUC for free).

use tsad_core::error::{CoreError, Result};
use tsad_core::Labels;

/// Sorts indices by descending score (ties keep index order, which makes
/// the metrics deterministic).
fn ranked_indices(score: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..score.len()).collect();
    idx.sort_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));
    idx
}

fn validate(score: &[f64], labels: &Labels) -> Result<(usize, usize)> {
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
    let positives = labels.anomalous_points();
    let negatives = score.len() - positives;
    Ok((positives, negatives))
}

/// ROC-AUC: the probability that a random anomalous point outranks a
/// random normal point. Ties contribute half. Errors when either class is
/// empty (the metric is undefined).
pub fn roc_auc(score: &[f64], labels: &Labels) -> Result<f64> {
    let (positives, negatives) = validate(score, labels)?;
    if positives == 0 || negatives == 0 {
        return Err(CoreError::BadParameter {
            name: "classes",
            value: positives as f64,
            expected: "at least one anomalous and one normal point",
        });
    }
    // rank-sum (Mann–Whitney) formulation with midranks for ties
    let idx = ranked_indices(score);
    let mask = labels.to_mask();
    let n = score.len();
    let mut rank_sum = 0.0; // sum of (descending) ranks of positives
    let mut i = 0;
    while i < n {
        // find tie group [i, j)
        let mut j = i + 1;
        while j < n && score[idx[j]] == score[idx[i]] {
            j += 1;
        }
        let midrank = (i + 1 + j) as f64 / 2.0; // average of ranks i+1..=j
        for &k in &idx[i..j] {
            if mask[k] {
                rank_sum += midrank;
            }
        }
        i = j;
    }
    // With descending ranks, U = P·N + P(P+1)/2 − rank_sum counts pairs
    // where the positive ranks *better* (smaller rank number).
    let p = positives as f64;
    let nn = negatives as f64;
    let u = p * nn + p * (p + 1.0) / 2.0 - rank_sum;
    Ok(u / (p * nn))
}

/// PR-AUC via average precision: `Σ (R_k − R_{k−1}) · P_k` walking down
/// the ranked list. Errors when there are no positives.
pub fn pr_auc(score: &[f64], labels: &Labels) -> Result<f64> {
    let (positives, _) = validate(score, labels)?;
    if positives == 0 {
        return Err(CoreError::BadParameter {
            name: "positives",
            value: 0.0,
            expected: "at least one anomalous point",
        });
    }
    let idx = ranked_indices(score);
    let mask = labels.to_mask();
    let mut tp = 0usize;
    let mut ap = 0.0;
    let mut i = 0;
    let n = score.len();
    // process tie groups atomically (a threshold can only sit between
    // distinct score values)
    while i < n {
        let mut j = i + 1;
        while j < n && score[idx[j]] == score[idx[i]] {
            j += 1;
        }
        let group_tp = idx[i..j].iter().filter(|&&k| mask[k]).count();
        if group_tp > 0 {
            let prev_recall = tp as f64 / positives as f64;
            tp += group_tp;
            let recall = tp as f64 / positives as f64;
            let precision = tp as f64 / j as f64;
            ap += (recall - prev_recall) * precision;
        }
        i = j;
    }
    Ok(ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::Region;

    fn labels(len: usize, r: (usize, usize)) -> Labels {
        Labels::single(len, Region::new(r.0, r.1).unwrap()).unwrap()
    }

    #[test]
    fn perfect_scorer_gets_auc_one() {
        let l = labels(10, (7, 10));
        let score: Vec<f64> = (0..10)
            .map(|i| if i >= 7 { 10.0 + i as f64 } else { i as f64 })
            .collect();
        assert!((roc_auc(&score, &l).unwrap() - 1.0).abs() < 1e-12);
        assert!((pr_auc(&score, &l).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_scorer_gets_roc_zero() {
        let l = labels(10, (7, 10));
        let score: Vec<f64> = (0..10).map(|i| -(i as f64)).collect();
        assert!(roc_auc(&score, &l).unwrap() < 1e-12);
    }

    #[test]
    fn constant_score_is_chance_level() {
        let l = labels(100, (90, 100));
        let score = vec![1.0; 100];
        let roc = roc_auc(&score, &l).unwrap();
        assert!((roc - 0.5).abs() < 1e-12, "{roc}");
        // PR-AUC at chance equals the positive rate
        let pr = pr_auc(&score, &l).unwrap();
        assert!((pr - 0.1).abs() < 1e-12, "{pr}");
    }

    #[test]
    fn roc_matches_naive_pair_count() {
        // brute-force check on a small mixed example with ties
        let l = Labels::from_mask(&[false, true, false, true, false, true]);
        let score = [0.1, 0.9, 0.5, 0.5, 0.2, 0.8];
        let mask = l.to_mask();
        let mut wins = 0.0;
        let mut total = 0.0;
        for i in 0..6 {
            for j in 0..6 {
                if mask[i] && !mask[j] {
                    total += 1.0;
                    if score[i] > score[j] {
                        wins += 1.0;
                    } else if score[i] == score[j] {
                        wins += 0.5;
                    }
                }
            }
        }
        let expected = wins / total;
        let got = roc_auc(&score, &l).unwrap();
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn validates_inputs() {
        let l = labels(10, (5, 6));
        assert!(roc_auc(&[1.0; 9], &l).is_err());
        assert!(roc_auc(&[], &Labels::empty(0)).is_err());
        let all_normal = Labels::empty(10);
        assert!(roc_auc(&[1.0; 10], &all_normal).is_err());
        assert!(pr_auc(&[1.0; 10], &all_normal).is_err());
        let mut with_nan = vec![1.0; 10];
        with_nan[3] = f64::NAN;
        assert!(roc_auc(&with_nan, &l).is_err());
    }

    #[test]
    fn end_biased_benchmark_gifts_auc_to_position_scores() {
        // §2.5 consequence: on a benchmark whose anomalies sit at the end,
        // the "score = position" pseudo-detector gets high AUC
        let mut mask = vec![false; 1000];
        for m in mask.iter_mut().skip(950) {
            *m = true;
        }
        let l = Labels::from_mask(&mask);
        let position_score: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let auc = roc_auc(&position_score, &l).unwrap();
        assert!(auc > 0.97, "{auc}");
    }
}
