//! Machine-checked batch ↔ stream equivalence.
//!
//! The crate's central claim — a streaming port computes *the same scores*
//! as its batch counterpart — is cheap to state and easy to silently
//! break. This module turns it into a harness: feed the same series to
//! both, align by [`score_offset`](crate::StreamingDetector::score_offset),
//! and compare every position.
//!
//! Two modes:
//!
//! * [`EquivalenceMode::Bitwise`] — `f64::to_bits` equality. Holds for the
//!   z-score, CUSUM, SPOT, moving-average-residual, and compiled one-liner
//!   ports, which reuse the batch arithmetic verbatim (the first three run
//!   the very same calibrate-then-step model as their batch detectors).
//! * [`EquivalenceMode::Tolerance`] — `|a − b| ≤ tol` per position. Used
//!   for the left-discord port, whose diagonal dot-product seeds and window
//!   moments are computed by different (equally valid) summations than the
//!   batch FFT/prefix-sum path.

use std::fmt;

use tsad_core::error::{CoreError, Result};

use crate::StreamingDetector;

/// How strictly batch and stream scores must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EquivalenceMode {
    /// Exact `to_bits` equality.
    Bitwise,
    /// `|batch − stream| ≤ tol` at every compared position.
    Tolerance(f64),
}

/// Outcome of one batch ↔ stream comparison.
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// Streaming detector name.
    pub detector: String,
    /// Dataset label (for table rendering).
    pub dataset: String,
    /// Number of positions compared (`series len − score_offset`).
    pub compared: usize,
    /// Score offset skipped at the front (batch-side non-causal padding).
    pub offset: usize,
    /// Largest `|batch − stream|` over compared positions.
    pub max_abs_diff: f64,
    /// First disagreeing position (series index), if any.
    pub first_mismatch: Option<usize>,
    /// Mode the comparison ran under.
    pub mode: EquivalenceMode,
    /// Verdict.
    pub passed: bool,
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            EquivalenceMode::Bitwise => "bitwise".to_string(),
            EquivalenceMode::Tolerance(t) => format!("tol {t:.0e}"),
        };
        let verdict = if self.passed { "PASS" } else { "FAIL" };
        write!(
            f,
            "{verdict} [{mode}] {} on {}: {} positions, max |Δ| = {:.3e}",
            self.detector, self.dataset, self.compared, self.max_abs_diff
        )?;
        if let Some(i) = self.first_mismatch {
            write!(f, ", first mismatch at {i}")?;
        }
        Ok(())
    }
}

/// Streams `xs` through `det` (after a `reset`) and compares against the
/// batch scores position by position.
///
/// `batch_scores` must cover the whole series; the first
/// `det.score_offset()` positions are skipped (the batch pads them with
/// non-causal values no stream can reproduce).
pub fn check_equivalence(
    dataset: &str,
    batch_scores: &[f64],
    det: &mut dyn StreamingDetector,
    xs: &[f64],
    mode: EquivalenceMode,
) -> Result<EquivalenceReport> {
    if batch_scores.len() != xs.len() {
        return Err(CoreError::LengthMismatch {
            left: batch_scores.len(),
            right: xs.len(),
        });
    }
    det.reset();
    let stream = det.score_stream(xs);
    let offset = det.score_offset();
    let expected = xs.len() - offset.min(xs.len());
    if stream.len() != expected {
        return Err(CoreError::LengthMismatch {
            left: stream.len(),
            right: expected,
        });
    }

    let mut max_abs_diff = 0.0f64;
    let mut first_mismatch = None;
    for (t, (&a, &b)) in batch_scores[offset..].iter().zip(&stream).enumerate() {
        let agree = match mode {
            EquivalenceMode::Bitwise => a.to_bits() == b.to_bits(),
            EquivalenceMode::Tolerance(tol) => (a - b).abs() <= tol,
        };
        let diff = (a - b).abs();
        if diff.is_nan() || diff > max_abs_diff {
            max_abs_diff = if diff.is_nan() { f64::NAN } else { diff };
        }
        if !agree && first_mismatch.is_none() {
            first_mismatch = Some(offset + t);
        }
    }
    Ok(EquivalenceReport {
        detector: det.name(),
        dataset: dataset.to_string(),
        compared: stream.len(),
        offset,
        max_abs_diff,
        first_mismatch,
        mode,
        passed: first_mismatch.is_none(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingGlobalZScore;
    use tsad_core::TimeSeries;
    use tsad_detectors::baselines::GlobalZScore;
    use tsad_detectors::Detector;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.3).sin() * (1.0 + i as f64 * 1e-3))
            .collect()
    }

    #[test]
    fn bitwise_pass_and_report_fields() {
        let xs = series(200);
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let batch = GlobalZScore.score(&ts, 40).unwrap();
        let mut det = StreamingGlobalZScore::new(40).unwrap();
        let r = check_equivalence("synthetic", &batch, &mut det, &xs, EquivalenceMode::Bitwise)
            .unwrap();
        assert!(r.passed, "{r}");
        assert_eq!(r.compared, 200);
        assert_eq!(r.offset, 0);
        assert_eq!(r.max_abs_diff, 0.0);
        assert!(r.to_string().contains("PASS"));
    }

    #[test]
    fn detects_a_mismatch() {
        let xs = series(100);
        let ts = TimeSeries::from_values(xs.clone()).unwrap();
        let mut batch = GlobalZScore.score(&ts, 40).unwrap();
        batch[57] += 1e-9;
        let mut det = StreamingGlobalZScore::new(40).unwrap();
        let bitwise =
            check_equivalence("synthetic", &batch, &mut det, &xs, EquivalenceMode::Bitwise)
                .unwrap();
        assert!(!bitwise.passed);
        assert_eq!(bitwise.first_mismatch, Some(57));
        assert!(bitwise.to_string().contains("FAIL"));
        // …but a tolerance pass absorbs it
        let tol = check_equivalence(
            "synthetic",
            &batch,
            &mut det,
            &xs,
            EquivalenceMode::Tolerance(1e-6),
        )
        .unwrap();
        assert!(tol.passed);
        assert!(tol.max_abs_diff > 0.0);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let xs = series(50);
        let mut det = StreamingGlobalZScore::new(10).unwrap();
        assert!(
            check_equivalence("bad", &xs[..49], &mut det, &xs, EquivalenceMode::Bitwise).is_err()
        );
    }
}
