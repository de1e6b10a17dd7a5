//! The Numenta Anomaly Benchmark (NAB) scoring function.
//!
//! NAB rewards early detection inside an *anomaly window* via a sigmoid
//! weight and penalizes false positives by their sigmoidal distance past
//! the window. The paper (§2.3) notes the resulting score "is exceedingly
//! difficult to interpret, and almost no one uses this" — we implement it
//! so the scoring-function-disagreement experiment can show *why*.
//!
//! This follows the published scheme: for a detection at relative position
//! `p` within a window (−1 = window start, 0 = window end), the weight is
//! `2·sigmoid(−5·p) − 1`; only the earliest detection per window counts;
//! each false positive outside every window contributes a negative weight
//! that decays with distance from the preceding window. The raw score is
//! normalized against the "detect nothing" baseline per the NAB convention.

use tsad_core::error::{CoreError, Result};
use tsad_core::{Labels, Region};

/// The application-profile weights of NAB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NabProfile {
    /// Reward for a true positive (per window, scaled by the sigmoid).
    pub a_tp: f64,
    /// Penalty for a false positive.
    pub a_fp: f64,
    /// Penalty for a missed window.
    pub a_fn: f64,
}

impl NabProfile {
    /// The NAB "standard" profile.
    pub fn standard() -> Self {
        Self {
            a_tp: 1.0,
            a_fp: -0.11,
            a_fn: -1.0,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Scaled sigmoid weight for a detection at relative position `p` in
/// `[-1, 0]` of a window (earlier = higher), or `p > 0` for a false
/// positive trailing the window. Matches NAB's `scaledSigmoid`.
fn scaled_sigmoid(p: f64) -> f64 {
    2.0 * sigmoid(-5.0 * p) - 1.0
}

/// NAB windows: each labeled region, dilated so the *total* window budget
/// is 10 % of the series length split across the windows (each window gets
/// `len / 10 / window_count`), as the NAB harness constructs them.
pub fn nab_windows(labels: &Labels) -> Vec<Region> {
    let len = labels.len();
    let count = labels.region_count().max(1);
    let extent = len / 10 / count;
    let mut dilated: Vec<Region> = labels
        .regions()
        .iter()
        .map(|r| {
            let pad = extent.saturating_sub(r.len()) / 2;
            r.dilate(pad, len)
        })
        .collect();
    // Dilation can make neighboring windows overlap; NAB merges them so a
    // detection is attributed to exactly one window.
    dilated.sort();
    let mut merged: Vec<Region> = Vec::with_capacity(dilated.len());
    for w in dilated {
        match merged.last_mut() {
            Some(last) if w.start <= last.end => last.end = last.end.max(w.end),
            _ => merged.push(w),
        }
    }
    merged
}

/// Computes the normalized NAB score of a set of detections (indices where
/// the detector fired) against labels, under a profile.
///
/// Returns a score where 100 = perfect (earliest possible detection in
/// every window, no false positives) and 0 = the "detect nothing"
/// baseline; negative scores are worse than detecting nothing.
pub fn nab_score(detections: &[usize], labels: &Labels, profile: NabProfile) -> Result<f64> {
    let len = labels.len();
    if len == 0 {
        return Err(CoreError::EmptySeries);
    }
    if let Some(&bad) = detections.iter().find(|&&i| i >= len) {
        return Err(CoreError::BadRegion {
            start: bad,
            end: bad + 1,
            len,
        });
    }
    let windows = nab_windows(labels);
    let mut sorted: Vec<usize> = detections.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let mut raw = 0.0;
    let mut detected = vec![false; windows.len()];
    for &d in &sorted {
        // find the window containing d, if any
        if let Some((wi, w)) = windows.iter().enumerate().find(|(_, w)| w.contains(d)) {
            if !detected[wi] {
                detected[wi] = true;
                // relative position: -1 at window start, 0 at window end
                let p = (d as f64 - (w.end - 1) as f64) / w.len().max(1) as f64;
                raw += profile.a_tp * scaled_sigmoid(p.clamp(-1.0, 0.0));
            }
            // additional detections inside a detected window are ignored
        } else {
            // false positive: weight decays with distance past the nearest
            // preceding window end (NAB convention); far-from-any-window
            // FPs get the full -1 weight
            let dist = windows
                .iter()
                .filter(|w| w.end <= d)
                .map(|w| d - w.end)
                .min()
                .map(|g| g as f64 / (len as f64 / 10.0))
                .unwrap_or(f64::INFINITY);
            // scaled_sigmoid of a positive distance is in (-1, 0]: a FP just
            // past a window is penalized lightly, a distant one fully. FPs
            // preceding every window take the full -1 weight.
            let weight = if dist.is_finite() {
                scaled_sigmoid(dist)
            } else {
                -1.0
            };
            raw += profile.a_fp.abs() * weight;
        }
    }
    // missed windows
    for (wi, _) in windows.iter().enumerate() {
        if !detected[wi] {
            raw += profile.a_fn;
        }
    }

    // normalize: 0 = detect-nothing baseline, 100 = perfect
    let baseline = profile.a_fn * windows.len() as f64;
    let perfect = profile.a_tp * scaled_sigmoid(-1.0) * windows.len() as f64;
    if (perfect - baseline).abs() < 1e-12 {
        return Ok(0.0);
    }
    Ok(100.0 * (raw - baseline) / (perfect - baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Labels {
        Labels::new(
            1000,
            vec![
                Region::new(300, 310).unwrap(),
                Region::new(700, 710).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn windows_are_dilated_regions() {
        let w = nab_windows(&labels());
        assert_eq!(w.len(), 2);
        // 10% of 1000 split across 2 windows: ~50 points each
        assert!(w[0].len() >= 45 && w[0].len() <= 60, "{:?}", w[0]);
        assert!(w[0].contains(300) && w[0].contains(309));
    }

    #[test]
    fn perfect_early_detection_scores_near_100() {
        let l = labels();
        let w = nab_windows(&l);
        let detections = vec![w[0].start, w[1].start];
        let s = nab_score(&detections, &l, NabProfile::standard()).unwrap();
        assert!(s > 95.0, "{s}");
    }

    #[test]
    fn detecting_nothing_scores_zero() {
        let s = nab_score(&[], &labels(), NabProfile::standard()).unwrap();
        assert!(s.abs() < 1e-9, "{s}");
    }

    #[test]
    fn late_detection_scores_less_than_early() {
        let l = labels();
        let w = nab_windows(&l);
        let early = nab_score(&[w[0].start, w[1].start], &l, NabProfile::standard()).unwrap();
        let late = nab_score(&[w[0].end - 1, w[1].end - 1], &l, NabProfile::standard()).unwrap();
        assert!(early > late, "{early} vs {late}");
        assert!(late > 0.0, "late detection still beats nothing: {late}");
    }

    #[test]
    fn false_positives_go_negative() {
        let l = labels();
        let s = nab_score(&[50, 100, 150, 500, 550], &l, NabProfile::standard()).unwrap();
        assert!(s < 0.0, "pure false positives are worse than nothing: {s}");
    }

    #[test]
    fn fp_penalty_profile_matters() {
        let l = labels();
        let w = nab_windows(&l);
        let detections = vec![w[0].start, w[1].start, 50, 100];
        let std = nab_score(&detections, &l, NabProfile::standard()).unwrap();
        // NAB's "reward low FP" profile: twice the standard FP penalty.
        let low_fp = NabProfile {
            a_tp: 1.0,
            a_fp: -0.22,
            a_fn: -1.0,
        };
        let low_fp = nab_score(&detections, &l, low_fp).unwrap();
        assert!(low_fp < std, "{low_fp} vs {std}");
    }

    #[test]
    fn validates_inputs() {
        let l = labels();
        assert!(nab_score(&[2000], &l, NabProfile::standard()).is_err());
        assert!(nab_score(&[], &Labels::empty(0), NabProfile::standard()).is_err());
    }

    #[test]
    fn duplicate_detections_do_not_double_count() {
        let l = labels();
        let w = nab_windows(&l);
        let once = nab_score(&[w[0].start], &l, NabProfile::standard()).unwrap();
        let thrice = nab_score(
            &[w[0].start, w[0].start + 1, w[0].start + 2],
            &l,
            NabProfile::standard(),
        )
        .unwrap();
        assert!((once - thrice).abs() < 1e-9, "{once} vs {thrice}");
    }
}
