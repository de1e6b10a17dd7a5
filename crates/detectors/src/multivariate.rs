//! Multivariate detection over [`MultiSeries`] — the shape the OMNI/SMD
//! benchmark actually has (38 channels per machine).
//!
//! The paper's Fig. 1 deliberately studies a *single* dimension; real
//! deployments score all channels and aggregate. This module runs any
//! univariate [`Detector`] per channel (each channel's score is first
//! rank-normalized so loud channels cannot drown quiet ones) and combines
//! with a chosen aggregation.

use tsad_core::error::{CoreError, Result};
use tsad_core::MultiSeries;

use crate::Detector;

/// How per-channel scores are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// Point-wise maximum across channels (one bad channel suffices).
    #[default]
    Max,
    /// Point-wise mean (consensus).
    Mean,
    /// Point-wise k-th largest (robust consensus: at least k channels
    /// agree).
    KthLargest(usize),
}

/// Rank-normalizes a score series into `[0, 1]` (fraction of points with a
/// strictly smaller score). Robust to arbitrary per-channel scales.
pub fn rank_normalize(score: &[f64]) -> Vec<f64> {
    let n = score.len();
    if n <= 1 {
        return vec![0.0; n];
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then(a.cmp(&b)));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && score[idx[j]] == score[idx[i]] {
            j += 1;
        }
        // ties share the rank of the group start
        let rank = i as f64 / (n - 1) as f64;
        for &k in &idx[i..j] {
            out[k] = rank;
        }
        i = j;
    }
    out
}

/// Scores every channel of `series` with `detector` and aggregates.
///
/// Channels on which the detector errors (e.g. a constant channel breaking
/// a fit) are skipped; at least one channel must succeed.
pub fn score_multivariate(
    detector: &dyn Detector,
    series: &MultiSeries,
    train_len: usize,
    aggregation: Aggregation,
) -> Result<Vec<f64>> {
    if series.is_empty() {
        return Err(CoreError::EmptySeries);
    }
    let mut per_channel: Vec<Vec<f64>> = Vec::with_capacity(series.dims());
    for dim in 0..series.dims() {
        let channel = series.dimension(dim)?;
        if let Ok(score) = detector.score(&channel, train_len) {
            per_channel.push(rank_normalize(&score));
        }
    }
    if per_channel.is_empty() {
        return Err(CoreError::BadParameter {
            name: "channels",
            value: 0.0,
            expected: "at least one channel the detector can score",
        });
    }
    let n = series.len();
    let mut out = Vec::with_capacity(n);
    let mut column = Vec::with_capacity(per_channel.len());
    for i in 0..n {
        column.clear();
        column.extend(per_channel.iter().map(|c| c[i]));
        let v = match aggregation {
            Aggregation::Max => column.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Mean => column.iter().sum::<f64>() / column.len() as f64,
            Aggregation::KthLargest(k) => {
                let k = k.clamp(1, column.len());
                column.sort_by(|a, b| b.total_cmp(a));
                column[k - 1]
            }
        };
        out.push(v);
    }
    Ok(out)
}

/// OmniAnomaly-style reconstruction scorer (Su et al., KDD 2019, reduced
/// to its decision rule): score each point by the negative log-likelihood
/// of the observation under an online one-step predictive model, then
/// aggregate channels by rank-normalized consensus ([`score_multivariate`]
/// with [`Aggregation::Mean`]: OmniAnomaly sums channel likelihoods, and
/// after rank normalization the sum and the mean rank identically).
///
/// The original uses a stochastic RNN's reconstruction density; this
/// dependency-free stand-in keeps the *scoring pipeline* — per-channel
/// predictive NLL, robust cross-channel aggregation — with an EWMA
/// Gaussian as the predictive density. The model is causal (the density
/// for `x[t]` only sees `x[..t]`), so the batch→streaming adapter changes
/// nothing about its semantics.
#[derive(Debug, Clone, Copy)]
pub struct OmniScorer {
    /// EWMA smoothing factor for the predictive mean and variance.
    pub alpha: f64,
}

impl Default for OmniScorer {
    fn default() -> Self {
        Self { alpha: 0.05 }
    }
}

impl OmniScorer {
    /// Per-point Gaussian negative log-likelihood of one channel under the
    /// running EWMA predictive density.
    pub fn channel_nll(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.is_empty() {
            return Err(CoreError::EmptySeries);
        }
        if !(0.0 < self.alpha && self.alpha <= 1.0) {
            return Err(CoreError::BadParameter {
                name: "alpha",
                value: self.alpha,
                expected: "0 < alpha <= 1",
            });
        }
        // warm-start the moments from a short prefix — a cold var of 1.0
        // makes the log-variance term rank the entire warm-up region as
        // the most anomalous part of the channel
        let warm = &x[..x.len().min(32)];
        let mut mu = warm.iter().sum::<f64>() / warm.len() as f64;
        let mut var =
            (warm.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / warm.len() as f64).max(1e-12);
        let mut out = Vec::with_capacity(x.len());
        for &v in x {
            let var_safe = var.max(1e-12);
            let e = v - mu;
            out.push(0.5 * (std::f64::consts::TAU * var_safe).ln() + e * e / (2.0 * var_safe));
            mu += self.alpha * e;
            var = (1.0 - self.alpha) * var + self.alpha * e * e;
        }
        Ok(out)
    }
}

impl Detector for OmniScorer {
    fn name(&self) -> &'static str {
        crate::registry::display::OMNI_NLL
    }
    fn score(&self, ts: &tsad_core::TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        self.channel_nll(ts.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{GlobalZScore, MovingAvgResidual};
    use crate::most_anomalous_point;

    #[test]
    fn rank_normalize_properties() {
        let r = rank_normalize(&[3.0, 1.0, 2.0]);
        assert_eq!(r, vec![1.0, 0.0, 0.5]);
        // ties share ranks
        let r = rank_normalize(&[1.0, 1.0, 5.0]);
        assert_eq!(r[0], r[1]);
        assert!(r[2] > r[0]);
        assert_eq!(rank_normalize(&[7.0]), vec![0.0]);
        assert!(rank_normalize(&[]).is_empty());
    }

    #[test]
    fn smd_machine_incident_found_by_consensus_aggregations() {
        let machine = tsad_synth::omni::smd_machine(42);
        let region = machine.labels.regions()[0];
        let det = GlobalZScore;
        // Max is deliberately excluded: a single channel's unrelated
        // extreme hijacks it (see the next test) — which is exactly why
        // consensus aggregations exist.
        for agg in [Aggregation::Mean, Aggregation::KthLargest(5)] {
            let score = score_multivariate(&det, &machine.series, 0, agg).unwrap();
            assert_eq!(score.len(), machine.series.len());
            let peak = tsad_core::stats::argmax(&score).unwrap();
            assert!(
                region.dilate(30, score.len()).contains(peak),
                "{agg:?}: peak {peak} vs {region:?}"
            );
        }
    }

    #[test]
    fn consensus_beats_max_on_single_channel_glitches() {
        // a machine where one channel has a huge *normal* glitch outside
        // the incident: Max is fooled, Mean (consensus) is not
        let n = 1200;
        let incident = tsad_core::Region {
            start: 800,
            end: 850,
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut channels = Vec::new();
        for c in 0..6usize {
            let mut ch: Vec<f64> = (0..n)
                .map(|i| {
                    (std::f64::consts::TAU * i as f64 / 60.0 + c as f64).sin() * 0.2
                        + 0.02 * rng.gen_range(-1.0..1.0)
                })
                .collect();
            // all channels react to the incident
            for v in &mut ch[incident.start..incident.end] {
                *v += 1.0;
            }
            channels.push(ch);
        }
        // channel 0 has an unrelated single-channel glitch, much larger
        channels[0][300] += 50.0;
        let series = tsad_core::MultiSeries::new("m", channels).unwrap();
        let det = GlobalZScore;
        let mean_score = score_multivariate(&det, &series, 0, Aggregation::Mean).unwrap();
        let peak = tsad_core::stats::argmax(&mean_score).unwrap();
        assert!(
            incident.dilate(25, n).contains(peak),
            "consensus peak {peak} should be the incident"
        );
        let max_score = score_multivariate(&det, &series, 0, Aggregation::Max).unwrap();
        // with Max, the glitch is at least competitive with the incident
        assert!(max_score[300] >= 0.99, "{}", max_score[300]);
    }

    #[test]
    fn omni_scorer_finds_the_smd_incident() {
        let machine = tsad_synth::omni::smd_machine(42);
        let region = machine.labels.regions()[0];
        let score = score_multivariate(
            &OmniScorer::default(),
            &machine.series,
            0,
            Aggregation::Mean,
        )
        .unwrap();
        assert_eq!(score.len(), machine.series.len());
        let peak = tsad_core::stats::argmax(&score).unwrap();
        assert!(
            region.dilate(30, score.len()).contains(peak),
            "peak {peak} vs {region:?}"
        );
    }

    #[test]
    fn omni_univariate_nll_peaks_at_a_spike() {
        let mut x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin() * 0.3).collect();
        x[400] += 6.0;
        let ts = tsad_core::TimeSeries::new("omni", x).unwrap();
        let det = OmniScorer::default();
        assert_eq!(most_anomalous_point(&det, &ts, 0).unwrap(), 400);
        // deterministic + validated
        assert_eq!(det.score(&ts, 0).unwrap(), det.score(&ts, 0).unwrap());
        assert!(OmniScorer { alpha: 0.0 }.channel_nll(&[1.0]).is_err());
        assert!(det.channel_nll(&[]).is_err());
    }

    #[test]
    fn empty_series_errors() {
        let empty = tsad_core::MultiSeries::new("e", vec![]).unwrap();
        let det = MovingAvgResidual::new(5);
        assert!(score_multivariate(&det, &empty, 0, Aggregation::Max).is_err());
    }

    #[test]
    fn erroring_channels_are_skipped() {
        // SubsequenceKnn needs a train prefix of 2·window: with train_len
        // 10 it errors on every channel → the aggregate call must error
        let series =
            tsad_core::MultiSeries::new("m", vec![vec![0.0; 100], vec![1.0; 100]]).unwrap();
        let knn = crate::baselines::SubsequenceKnn::new(30);
        assert!(score_multivariate(&knn, &series, 10, Aggregation::Mean).is_err());
    }
}
