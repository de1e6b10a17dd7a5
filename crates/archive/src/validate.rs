//! Archive invariants (§3): the checks every dataset must pass before it
//! ships in the archive.
//!
//! * exactly **one** labeled anomaly (§2.3's "ideal number … is exactly
//!   one");
//! * the anomaly lies strictly after the train prefix, with a margin so
//!   windowed detectors fitting on the prefix cannot touch it;
//! * the train prefix is plausibly anomaly-free: its maximum discord
//!   (matrix-profile peak) is not an outlier relative to the prefix's own
//!   discord distribution;
//! * behavior modes present in the test region also appear in the train
//!   region (the paper's gait turnaround requirement) — checked as: the
//!   worst 1-NN distance from test windows (outside the anomaly) to the
//!   train prefix stays within a factor of the train's internal NN
//!   distances.

use tsad_core::dist::mass_with_moments;
use tsad_core::windows::{subsequence_count, WindowMoments};
use tsad_core::Dataset;

use crate::error::{ArchiveError, Result};

/// Validation configuration.
#[derive(Debug, Clone)]
pub struct ValidationConfig {
    /// Window length used for the similarity checks.
    pub window: usize,
    /// Margin (points) required between train end and anomaly start.
    pub margin: usize,
    /// Allowed ratio of test-window novelty to train-internal novelty for
    /// *normal* test windows.
    pub novelty_ratio: f64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            window: 64,
            margin: 32,
            novelty_ratio: 2.5,
        }
    }
}

/// One validation failure (datasets can fail several checks at once).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Not exactly one labeled region.
    NotSingleAnomaly { regions: usize },
    /// The anomaly starts too close to (or inside) the train prefix.
    AnomalyTooEarly { start: usize, required: usize },
    /// A normal test window has no similar counterpart in the train data.
    UncoveredTestMode {
        window_start: usize,
        distance: f64,
        allowed: f64,
    },
    /// The series is too short for the checks.
    TooShort { len: usize, needed: usize },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotSingleAnomaly { regions } => {
                write!(f, "expected exactly 1 labeled region, found {regions}")
            }
            Violation::AnomalyTooEarly { start, required } => {
                write!(f, "anomaly starts at {start}, required >= {required}")
            }
            Violation::UncoveredTestMode { window_start, distance, allowed } => write!(
                f,
                "test window at {window_start} is novel (distance {distance:.2} > allowed {allowed:.2}) but unlabeled"
            ),
            Violation::TooShort { len, needed } => {
                write!(f, "series length {len} below the {needed} the checks need")
            }
        }
    }
}

/// Runs all archive checks; returns the violations (empty = valid).
pub fn validate(dataset: &Dataset, config: &ValidationConfig) -> Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let labels = dataset.labels();
    if labels.region_count() != 1 {
        violations.push(Violation::NotSingleAnomaly {
            regions: labels.region_count(),
        });
        return Ok(violations);
    }
    let anomaly = labels.regions()[0];
    let train_len = dataset.train_len();
    let x = dataset.values();
    let m = config.window;

    let needed = train_len + 3 * m;
    if x.len() < needed || subsequence_count(train_len.max(1), m.min(train_len.max(1))).is_err() {
        violations.push(Violation::TooShort {
            len: x.len(),
            needed,
        });
        return Ok(violations);
    }

    if anomaly.start < train_len + config.margin {
        violations.push(Violation::AnomalyTooEarly {
            start: anomaly.start,
            required: train_len + config.margin,
        });
    }

    // Train-internal novelty scale: NN distance of sampled train windows to
    // the rest of the train prefix.
    let train = &x[..train_len];
    // One moments pass over the train prefix and one pair of buffers serve
    // every sampled MASS query below (bitwise equal to `mass`).
    let Ok(moments) = WindowMoments::compute(train, m) else {
        // a window longer than the prefix samples no train window
        violations.push(Violation::TooShort {
            len: train_len,
            needed: 2 * m,
        });
        return Ok(violations);
    };
    let (mut qt, mut d) = (Vec::new(), Vec::new());
    let mut internal = Vec::new();
    let hop = (train_len / 32).max(1);
    let mut i = 0;
    while i + m <= train_len {
        mass_with_moments(&train[i..i + m], &moments, train, &mut qt, &mut d)?;
        let nn = d
            .iter()
            .enumerate()
            .filter(|(j, _)| j.abs_diff(i) >= m)
            .map(|(_, &v)| v)
            .fold(f64::INFINITY, f64::min);
        if nn.is_finite() {
            internal.push(nn);
        }
        i += hop;
    }
    if internal.is_empty() {
        violations.push(Violation::TooShort {
            len: train_len,
            needed: 2 * m,
        });
        return Ok(violations);
    }
    let scale = tsad_core::stats::quantile(&internal, 0.95)?;
    let allowed = (scale * config.novelty_ratio).max(1e-6);

    // Every *normal* test window must have a counterpart in the train data.
    let mut j = train_len;
    let hop_test = (x.len() - train_len).div_ceil(128).max(1);
    while j + m <= x.len() {
        let near_anomaly = anomaly.dilate(m, x.len()).overlaps(&tsad_core::Region {
            start: j,
            end: j + m,
        });
        if !near_anomaly {
            mass_with_moments(&x[j..j + m], &moments, train, &mut qt, &mut d)?;
            let nn = d.iter().copied().fold(f64::INFINITY, f64::min);
            if nn.is_finite() && nn > allowed {
                violations.push(Violation::UncoveredTestMode {
                    window_start: j,
                    distance: nn,
                    allowed,
                });
            }
        }
        j += hop_test;
    }
    Ok(violations)
}

/// Convenience: validate and convert violations into an error.
pub fn validate_strict(dataset: &Dataset, config: &ValidationConfig) -> Result<()> {
    let violations = validate(dataset, config)?;
    if violations.is_empty() {
        return Ok(());
    }
    let reason = violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("; ");
    Err(ArchiveError::InvalidDataset {
        name: dataset.name().to_string(),
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_core::{Labels, Region, TimeSeries};

    fn periodic_with_anomaly(n: usize, train: usize, at: usize) -> Dataset {
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 50.0).sin())
            .collect();
        for (k, v) in x.iter_mut().enumerate().skip(at).take(25) {
            *v = 1.5 + (k as f64 * 0.5).sin() * 0.2;
        }
        let ts = TimeSeries::new("v", x).unwrap();
        let labels = Labels::single(
            n,
            Region {
                start: at,
                end: at + 25,
            },
        )
        .unwrap();
        Dataset::new(ts, labels, train).unwrap()
    }

    #[test]
    fn clean_dataset_validates() {
        let d = periodic_with_anomaly(3000, 1000, 2000);
        let v = validate(&d, &ValidationConfig::default()).unwrap();
        assert!(v.is_empty(), "{v:?}");
        assert!(validate_strict(&d, &ValidationConfig::default()).is_ok());
    }

    #[test]
    fn multi_anomaly_fails() {
        let ts = TimeSeries::new("m", vec![0.0; 4000]).unwrap();
        let labels = Labels::new(
            4000,
            vec![
                Region::new(2000, 2010).unwrap(),
                Region::new(3000, 3010).unwrap(),
            ],
        )
        .unwrap();
        let d = Dataset::new(ts, labels, 1000).unwrap();
        let v = validate(&d, &ValidationConfig::default()).unwrap();
        assert_eq!(v, vec![Violation::NotSingleAnomaly { regions: 2 }]);
        assert!(validate_strict(&d, &ValidationConfig::default()).is_err());
    }

    #[test]
    fn anomaly_too_close_to_train_fails() {
        let d = periodic_with_anomaly(3000, 1000, 1005);
        let v = validate(&d, &ValidationConfig::default()).unwrap();
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::AnomalyTooEarly { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn uncovered_test_mode_fails() {
        // test region contains an unlabeled novel mode (a square wave) the
        // train prefix never shows
        let n = 3000;
        let mut x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * std::f64::consts::TAU / 50.0).sin())
            .collect();
        // labeled anomaly at 2000
        for (k, v) in x.iter_mut().enumerate().skip(2000).take(25) {
            *v = 1.5 + (k as f64 * 0.5).sin() * 0.2;
        }
        // unlabeled novel mode at 2500..2800
        for (k, v) in x.iter_mut().enumerate().skip(2500).take(300) {
            *v = if (k / 10) % 2 == 0 { 1.0 } else { -1.0 };
        }
        let ts = TimeSeries::new("u", x).unwrap();
        let labels = Labels::single(
            n,
            Region {
                start: 2000,
                end: 2025,
            },
        )
        .unwrap();
        let d = Dataset::new(ts, labels, 1000).unwrap();
        let v = validate(&d, &ValidationConfig::default()).unwrap();
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::UncoveredTestMode { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn too_short_fails() {
        let ts = TimeSeries::new("s", vec![0.0; 120]).unwrap();
        let labels = Labels::single(120, Region::new(100, 105).unwrap()).unwrap();
        let d = Dataset::new(ts, labels, 50).unwrap();
        let v = validate(&d, &ValidationConfig::default()).unwrap();
        assert!(
            v.iter().any(|x| matches!(x, Violation::TooShort { .. })),
            "{v:?}"
        );
    }
}
