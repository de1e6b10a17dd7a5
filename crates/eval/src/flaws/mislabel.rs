//! Flaw 3 — Mislabeled ground truth (§2.4).
//!
//! Two automated detectors for the mislabeling patterns the paper
//! documents:
//!
//! * **Twin detector** ([`find_unlabeled_twins`]): for each labeled
//!   anomalous subsequence, scan the *unlabeled* data for subsequences that
//!   are (near-)identical. Fig. 5's unlabeled twin dropout `D` and Fig. 9's
//!   two unlabeled frozen regions are exactly such twins — if a region is
//!   anomalous, an indistinguishable region elsewhere should be too, so
//!   each twin is a suspected false negative.
//! * **Unremarkable-label detector** ([`find_unremarkable_labels`]): a
//!   labeled region whose subsequence is *closer* to the unlabeled data
//!   than typical unlabeled subsequences are to each other (Fig. 6's
//!   region `F`) is a suspected false positive.

use tsad_core::dist::{mass, mass_with_moments};
use tsad_core::error::Result;
use tsad_core::windows::WindowMoments;
use tsad_core::{Dataset, Region};

/// A suspected false negative: an unlabeled region nearly identical to a
/// labeled anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspectedTwin {
    /// The labeled anomaly it matches.
    pub labeled: Region,
    /// Start of the matching unlabeled window.
    pub twin_start: usize,
    /// Z-normalized distance between the two (≈ 0 for true twins).
    pub distance: f64,
}

/// Finds unlabeled subsequences that match labeled anomalies within
/// `threshold` z-normalized distance. `threshold` is expressed as a
/// fraction of `sqrt(2m)` (the maximum possible distance); 0.1–0.25 works
/// well in practice.
pub fn find_unlabeled_twins(dataset: &Dataset, threshold: f64) -> Result<Vec<SuspectedTwin>> {
    let x = dataset.values();
    let labels = dataset.labels();
    let mut out = Vec::new();
    for r in labels.regions() {
        // Use the labeled span itself when it is long enough to carry
        // shape; extend *short* regions (point anomalies) to a centered
        // 16-point context window — a z-normalized 3-point window matches
        // half the series by shape alone.
        let (m, start) = if r.len() >= 8 {
            (
                r.len().min(x.len() / 2),
                r.start.min(x.len() - r.len().min(x.len() / 2)),
            )
        } else {
            let m = 16.min(x.len() / 2);
            (m, r.center().saturating_sub(m / 2).min(x.len() - m))
        };
        let query = &x[start..start + m];
        let dists = mass(query, x)?;
        let abs_threshold = threshold * (2.0 * m as f64).sqrt();
        for (j, &d) in dists.iter().enumerate() {
            // skip windows overlapping ANY labeled region (with slop m)
            let overlaps_label = labels.regions().iter().any(|lr| {
                lr.dilate(m, labels.len()).overlaps(&Region {
                    start: j,
                    end: j + m,
                })
            });
            if overlaps_label {
                continue;
            }
            if d <= abs_threshold {
                out.push(SuspectedTwin {
                    labeled: *r,
                    twin_start: j,
                    distance: d,
                });
            }
        }
    }
    // collapse runs of adjacent matches to their best representative
    out.sort_by_key(|a| (a.labeled, a.twin_start));
    let mut collapsed: Vec<SuspectedTwin> = Vec::new();
    for t in out {
        match collapsed.last_mut() {
            Some(last)
                if last.labeled == t.labeled
                    && t.twin_start - last.twin_start <= t.labeled.len().max(3) =>
            {
                if t.distance < last.distance {
                    *last = t;
                }
            }
            _ => collapsed.push(t),
        }
    }
    Ok(collapsed)
}

/// A suspected false positive: a labeled region statistically
/// indistinguishable from the unlabeled data.
#[derive(Debug, Clone, PartialEq)]
pub struct UnremarkableLabel {
    /// The suspicious labeled region.
    pub labeled: Region,
    /// Its nearest-neighbor distance to unlabeled data.
    pub nn_distance: f64,
    /// The median nearest-neighbor distance among unlabeled subsequences
    /// of the same length (the "background" discordance).
    pub background_nn: f64,
}

impl UnremarkableLabel {
    /// A labeled anomaly should stand out: its NN distance should exceed
    /// the background. Ratio ≤ 1 means it is no more unusual than normal
    /// data — a suspected mislabel.
    pub fn discord_ratio(&self) -> f64 {
        if self.background_nn < 1e-12 {
            // perfectly self-similar normal data: a label whose own NN
            // distance is also ~0 is maximally unremarkable (ratio 1);
            // any real novelty is infinitely remarkable
            return if self.nn_distance < 1e-12 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.nn_distance / self.background_nn
    }
}

/// Checks each labeled region's nearest-neighbor distance against the
/// background NN distance of unlabeled subsequences. Regions with
/// `discord_ratio <= ratio_threshold` are returned as suspected false
/// positives (Fig. 6's `F` has ratio ≈ 1).
pub fn find_unremarkable_labels(
    dataset: &Dataset,
    ratio_threshold: f64,
) -> Result<Vec<UnremarkableLabel>> {
    let x = dataset.values();
    let labels = dataset.labels();
    let mut out = Vec::new();
    for r in labels.regions() {
        // Short regions get a *centered* context window: a window that
        // starts at a point anomaly reads "one outlier + flat", which
        // z-normalizes to the same shape at any outlier depth and matches
        // every step edge in the data. Context on both sides keeps the
        // shape informative.
        let (m, start) = if r.len() >= 8 {
            let m = r.len().min(x.len() / 4);
            (m, r.start.min(x.len() - m))
        } else {
            let m = 24.min(x.len() / 4);
            (m, r.center().saturating_sub(m / 2).min(x.len() - m))
        };
        // one moments pass over the series and one pair of buffers serve
        // this query and every background query below (bitwise equal to
        // `mass`)
        let moments = WindowMoments::compute(x, m)?;
        let (mut qt, mut d) = (Vec::new(), Vec::new());
        mass_with_moments(&x[start..start + m], &moments, x, &mut qt, &mut d)?;
        let excl = m.max(r.len());
        let nn = d
            .iter()
            .enumerate()
            .filter(|(j, _)| {
                Region {
                    start: *j,
                    end: *j + m,
                }
                .distance_to(r.center())
                .max(r.distance_to(*j))
                    > excl
            })
            .map(|(_, &d)| d)
            .fold(f64::INFINITY, f64::min);

        // background: NN distances of a sample of unlabeled windows
        let mut background = Vec::new();
        let hop = (x.len() / 64).max(1);
        let mut j = 0;
        while j + m <= x.len() {
            let w_region = Region {
                start: j,
                end: j + m,
            };
            let overlaps_label = labels
                .regions()
                .iter()
                .any(|lr| lr.dilate(m, labels.len()).overlaps(&w_region));
            if !overlaps_label {
                mass_with_moments(&x[j..j + m], &moments, x, &mut qt, &mut d)?;
                let w_nn = d
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| k.abs_diff(j) > m)
                    .map(|(_, &v)| v)
                    .fold(f64::INFINITY, f64::min);
                if w_nn.is_finite() {
                    background.push(w_nn);
                }
            }
            j += hop;
        }
        if background.is_empty() || !nn.is_finite() {
            continue;
        }
        let background_nn = tsad_core::stats::median(&background)?;
        let candidate = UnremarkableLabel {
            labeled: *r,
            nn_distance: nn,
            background_nn,
        };
        if candidate.discord_ratio() <= ratio_threshold {
            out.push(candidate);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::{Labels, TimeSeries};

    /// A periodic signal with two identical dropouts, only one labeled
    /// (the Fig. 5 construction).
    fn twin_dataset() -> Dataset {
        let n = 1200;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 40.0).sin())
            .collect();
        x[300] = -6.0;
        x[900] = -6.0;
        let labels = Labels::single(n, Region::point(900)).unwrap();
        Dataset::unsupervised(TimeSeries::new("twin", x).unwrap(), labels).unwrap()
    }

    #[test]
    fn finds_the_unlabeled_twin() {
        let twins = find_unlabeled_twins(&twin_dataset(), 0.2).unwrap();
        assert!(!twins.is_empty(), "the unlabeled dropout must be found");
        // some twin window must cover the unlabeled dropout at index 300
        assert!(
            twins
                .iter()
                .any(|t| (t.twin_start..t.twin_start + 16).contains(&300)),
            "{twins:?}"
        );
    }

    #[test]
    fn no_twins_for_unique_anomaly() {
        let n = 1200;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 40.0).sin())
            .collect();
        x[900] = -6.0; // only one dropout
        let labels = Labels::single(n, Region::point(900)).unwrap();
        let d = Dataset::unsupervised(TimeSeries::new("unique", x).unwrap(), labels).unwrap();
        let twins = find_unlabeled_twins(&d, 0.2).unwrap();
        assert!(twins.is_empty(), "{twins:?}");
    }

    #[test]
    fn unremarkable_label_is_flagged() {
        // labeled region on pristine periodic data: its NN distance is as
        // small as anyone's (a clear mislabel)
        let n = 1600;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 40.0).sin())
            .collect();
        let labels = Labels::single(n, Region::new(800, 840).unwrap()).unwrap();
        let d = Dataset::unsupervised(TimeSeries::new("bland", x).unwrap(), labels).unwrap();
        let suspects = find_unremarkable_labels(&d, 1.5).unwrap();
        assert_eq!(suspects.len(), 1);
        assert!(suspects[0].discord_ratio() <= 1.5);
    }

    #[test]
    fn genuine_anomaly_is_not_flagged() {
        let n = 1600;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 40.0).sin())
            .collect();
        // a genuinely unique shape: one-off frequency burst
        for (k, v) in x.iter_mut().enumerate().skip(800).take(40) {
            *v = (k as f64 * 0.9).sin() * 1.5;
        }
        let labels = Labels::single(n, Region::new(800, 840).unwrap()).unwrap();
        let d = Dataset::unsupervised(TimeSeries::new("genuine", x).unwrap(), labels).unwrap();
        let suspects = find_unremarkable_labels(&d, 1.5).unwrap();
        assert!(suspects.is_empty(), "{suspects:?}");
    }
}
