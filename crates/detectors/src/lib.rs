//! # tsad-detectors
//!
//! Anomaly detectors for the reproduction of Wu & Keogh (ICDE 2022):
//!
//! * [`oneliner`] — the paper's "one-line-of-code" detectors (equations
//!   (1)–(6)) as a small vectorized expression engine, plus the brute-force
//!   parameter search used to produce Table 1.
//! * [`matrix_profile`] — STOMP and STAMP self-join matrix profiles; the
//!   matrix profile *is* the "time series discord score" plotted in the
//!   paper's Fig. 8 and Fig. 13.
//! * [`threshold`] — top-k score peaks with exclusion zones (the discord
//!   picks of Fig. 8) and score-to-prediction thresholds.
//! * [`hotsax`] — the classic HOT SAX heuristic discord search.
//! * [`merlin`] — MERLIN-style parameter-free discovery of arbitrary-length
//!   discords (DRAG candidate selection + refinement).
//! * [`telemanom`] — a Telemanom substitute: autoregressive least-squares
//!   forecaster feeding the *actual* nonparametric dynamic-thresholding and
//!   pruning pipeline of Hundman et al. (KDD 2018).
//! * [`cusum`] — Page's (1957) CUSUM, the paper's first reference and the
//!   canonical level-shift detector.
//! * [`spectral`] — the Spectral Residual saliency detector behind
//!   production KPI monitors.
//! * [`seasonal`] — seasonal-profile detector with automatic period
//!   estimation, the classical method for calendar-driven data like the
//!   NYC taxi series.
//! * [`multivariate`] — per-channel scoring + rank-normalized aggregation
//!   for OMNI/SMD-shaped data.
//! * [`ensemble`] — scale-free rank-aggregation across heterogeneous
//!   detectors.
//! * [`baselines`] — the deliberately-dumb detectors the paper uses to make
//!   its point (naive last-point for the run-to-failure flaw, global
//!   z-score, moving-average residual, subsequence 1-NN, quantile/IQR,
//!   random).
//! * [`spot`] — streaming peaks-over-threshold with an EVT/GPD tail fit
//!   (Siffer et al., KDD 2017).
//! * [`esd`] — Twitter's seasonal-hybrid ESD on robust residuals.
//! * [`calibrated`] — the calibrate-then-step model ([`PrefixCalibrated`])
//!   that z-score, CUSUM and SPOT implement once for batch and streaming.
//! * [`iforest`] — isolation forest over sliding-window shape features.
//!
//! All detectors implement [`Detector`], which maps a series (with an
//! optional train prefix) to a per-point anomaly score, and every one of
//! them is listed in [`registry::DetectorRegistry`] — the single table
//! that docs generation, the streaming factory, the fleet, and the
//! catalog benchmark resolve from.

pub mod baselines;
pub mod calibrated;
pub mod cusum;
pub mod ensemble;
pub mod esd;
pub mod hotsax;
pub mod iforest;
pub mod matrix_profile;
pub mod merlin;
pub mod multivariate;
pub mod oneliner;
mod pair;
pub mod registry;
pub mod seasonal;
pub mod spectral;
pub mod spot;
pub mod telemanom;
pub mod threshold;

pub use calibrated::{score_calibrated, PrefixCalibrated};
pub use registry::{DetectorRegistry, Params};

use tsad_core::{Result, TimeSeries};

/// A time-series anomaly detector.
///
/// `score` returns one value per input point; **higher means more
/// anomalous**. `train_len` is the length of the anomaly-free prefix the
/// detector may fit on (the UCR-archive convention); unsupervised detectors
/// ignore it. Scores inside the train prefix are implementation-defined but
/// must not exceed the test-region maximum for a correctly functioning
/// detector, so evaluation by arg-max over the test region is meaningful.
///
/// `locate` answers the archive contest's question — the one most anomalous
/// test point — and must return exactly what its default body returns: the
/// first arg-max of `score` over `train_len..`. A detector overrides it
/// only when it can find that point without every score, as the discord
/// detectors and subsequence 1-NN do with a certified top-1 search
/// ([`matrix_profile::DiscordDetector`], [`baselines::SubsequenceKnn`]).
pub trait Detector {
    /// Short, stable identifier (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Per-point anomaly score, same length as `ts`.
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>>;

    /// Location of the single most anomalous test point: the first
    /// arg-max of [`Detector::score`] over `train_len..`. An error when
    /// the test region is empty or the scores are misaligned with `ts`.
    fn locate(&self, ts: &TimeSeries, train_len: usize) -> Result<usize> {
        score_argmax(self, ts, train_len)
    }
}

/// The default [`Detector::locate`]: the first arg-max of the detector's
/// score over `train_len..`, for overrides to fall back on.
pub(crate) fn score_argmax<D: Detector + ?Sized>(
    detector: &D,
    ts: &TimeSeries,
    train_len: usize,
) -> Result<usize> {
    let score = detector.score(ts, train_len)?;
    if score.len() != ts.len() {
        // enforce the Detector contract rather than argmax-ing a
        // misaligned (e.g. window-aligned) score vector
        return Err(tsad_core::CoreError::LengthMismatch {
            left: score.len(),
            right: ts.len(),
        });
    }
    let test = &score[train_len..];
    let rel = tsad_core::stats::argmax(test)?;
    Ok(train_len + rel)
}

/// Boxed detectors are detectors, so registry-built
/// `Box<dyn Detector + Send + Sync>` values slot into anything generic
/// over `D: Detector` (ensembles, the streaming batch adapter).
impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn score(&self, ts: &TimeSeries, train_len: usize) -> Result<Vec<f64>> {
        (**self).score(ts, train_len)
    }
    fn locate(&self, ts: &TimeSeries, train_len: usize) -> Result<usize> {
        (**self).locate(ts, train_len)
    }
}

/// Location of the single most anomalous point according to a detector:
/// the arg-max of its score over the test region (`train_len..`), as
/// [`Detector::locate`] finds it.
///
/// This is the primitive the UCR archive evaluation uses: with exactly one
/// anomaly per dataset, a detector only needs to return the most likely
/// *location* (§2.3 of the paper).
pub fn most_anomalous_point(
    detector: &dyn Detector,
    ts: &TimeSeries,
    train_len: usize,
) -> Result<usize> {
    detector.locate(ts, train_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Spike;
    impl Detector for Spike {
        fn name(&self) -> &'static str {
            "spike"
        }
        fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
            Ok(ts.values().to_vec())
        }
    }

    #[test]
    fn most_anomalous_point_respects_train_prefix() {
        let ts = TimeSeries::new("t", vec![9.0, 1.0, 2.0, 7.0, 3.0]).unwrap();
        // unsupervised argmax would be 0; with train prefix 1 it must be 3
        assert_eq!(most_anomalous_point(&Spike, &ts, 0).unwrap(), 0);
        assert_eq!(most_anomalous_point(&Spike, &ts, 1).unwrap(), 3);
    }

    #[test]
    fn most_anomalous_point_errors_on_empty_test() {
        let ts = TimeSeries::new("t", vec![1.0, 2.0]).unwrap();
        assert!(most_anomalous_point(&Spike, &ts, 2).is_err());
    }

    #[test]
    fn boxed_detectors_forward_locate() {
        // a locate that differs from the arg-max shows which body ran
        struct Fixed;
        impl Detector for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn score(&self, ts: &TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
                Ok(ts.values().to_vec())
            }
            fn locate(&self, _ts: &TimeSeries, _train_len: usize) -> Result<usize> {
                Ok(4)
            }
        }
        let ts = TimeSeries::new("t", vec![9.0, 1.0, 2.0, 7.0, 3.0]).unwrap();
        let boxed: Box<dyn Detector + Send + Sync> = Box::new(Fixed);
        assert_eq!(most_anomalous_point(&boxed, &ts, 0).unwrap(), 4);
        assert_eq!(most_anomalous_point(&Spike, &ts, 0).unwrap(), 0);
    }

    #[test]
    fn most_anomalous_point_rejects_misaligned_scores() {
        struct Short;
        impl Detector for Short {
            fn name(&self) -> &'static str {
                "short"
            }
            fn score(&self, ts: &TimeSeries, _t: usize) -> Result<Vec<f64>> {
                Ok(vec![0.0; ts.len() - 1]) // violates the contract
            }
        }
        let ts = TimeSeries::new("t", vec![1.0; 10]).unwrap();
        assert!(most_anomalous_point(&Short, &ts, 0).is_err());
    }
}
