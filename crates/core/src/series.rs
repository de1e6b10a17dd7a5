//! Time-series containers.
//!
//! [`TimeSeries`] is the fundamental univariate container used everywhere in
//! this workspace; [`MultiSeries`] is a thin multivariate wrapper (used by the
//! OMNI/SMD simulator, whose exemplars are 38-dimensional).

use crate::error::{CoreError, Result};

/// Rejects the first non-finite value of `values` as
/// [`CoreError::NonFinite`]. Series construction and score validation use
/// it, and so do the raw-slice entry points of the kernels built on prefix
/// sums (window moments), where one NaN would poison every later window
/// and score as distance 0.
pub fn ensure_finite(values: &[f64]) -> Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(CoreError::NonFinite { index }),
        None => Ok(()),
    }
}

/// A univariate, regularly sampled time series.
///
/// Values are stored as `f64`. Construction validates that every value is
/// finite — anomaly-score arithmetic downstream (moving statistics, matrix
/// profiles) silently corrupts with NaN/Inf inputs, so we reject them at the
/// boundary instead.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a new series, validating that all values are finite.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Result<Self> {
        ensure_finite(&values)?;
        Ok(Self {
            name: name.into(),
            values,
        })
    }

    /// Creates a series without a meaningful name.
    pub fn from_values(values: Vec<f64>) -> Result<Self> {
        Self::new("", values)
    }

    /// The series name (dataset identifier, e.g. `"A1-Real1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of observations.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read-only view of the raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series and returns the raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Returns the `[start, end)` slice of the series as a new series.
    pub fn slice(&self, start: usize, end: usize) -> Result<TimeSeries> {
        if start > end || end > self.values.len() {
            return Err(CoreError::BadRegion {
                start,
                end,
                len: self.values.len(),
            });
        }
        Ok(TimeSeries {
            name: format!("{}[{start}..{end}]", self.name),
            values: self.values[start..end].to_vec(),
        })
    }

    /// Minimum value. Errors on an empty series.
    pub fn min(&self) -> Result<f64> {
        self.values
            .iter()
            .copied()
            .reduce(f64::min)
            .ok_or(CoreError::EmptySeries)
    }

    /// Maximum value. Errors on an empty series.
    pub fn max(&self) -> Result<f64> {
        self.values
            .iter()
            .copied()
            .reduce(f64::max)
            .ok_or(CoreError::EmptySeries)
    }

    /// Renames the series in place and returns it (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl AsRef<[f64]> for TimeSeries {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

/// A multivariate series: `dims` equal-length channels.
///
/// Only the small amount of structure the OMNI simulator and the paper's
/// Fig. 1 need: channel access by index and per-channel extraction as a
/// [`TimeSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSeries {
    name: String,
    channels: Vec<Vec<f64>>,
    len: usize,
}

impl MultiSeries {
    /// Creates a multivariate series from equal-length channels.
    pub fn new(name: impl Into<String>, channels: Vec<Vec<f64>>) -> Result<Self> {
        let len = channels.first().map_or(0, Vec::len);
        for ch in &channels {
            if ch.len() != len {
                return Err(CoreError::LengthMismatch {
                    left: len,
                    right: ch.len(),
                });
            }
            ensure_finite(ch)?;
        }
        Ok(Self {
            name: name.into(),
            channels,
            len,
        })
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of channels (dimensions).
    pub fn dims(&self) -> usize {
        self.channels.len()
    }

    /// Number of observations per channel.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no observations (or no channels).
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.channels.is_empty()
    }

    /// Borrow channel `dim` (0-based).
    pub fn channel(&self, dim: usize) -> Option<&[f64]> {
        self.channels.get(dim).map(Vec::as_slice)
    }

    /// Extract channel `dim` as an owned, named univariate series.
    pub fn dimension(&self, dim: usize) -> Result<TimeSeries> {
        let ch = self.channels.get(dim).ok_or(CoreError::BadRegion {
            start: dim,
            end: dim + 1,
            len: self.channels.len(),
        })?;
        TimeSeries::new(format!("{}:dim{}", self.name, dim), ch.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_non_finite() {
        let err = TimeSeries::new("x", vec![1.0, f64::NAN, 2.0]).unwrap_err();
        assert_eq!(err, CoreError::NonFinite { index: 1 });
        let err = TimeSeries::new("x", vec![f64::INFINITY]).unwrap_err();
        assert_eq!(err, CoreError::NonFinite { index: 0 });
    }

    #[test]
    fn basic_accessors() {
        let ts = TimeSeries::new("demo", vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(ts.name(), "demo");
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.values(), &[3.0, 1.0, 2.0]);
        assert_eq!(ts.min().unwrap(), 1.0);
        assert_eq!(ts.max().unwrap(), 3.0);
    }

    #[test]
    fn empty_series_min_max_error() {
        let ts = TimeSeries::from_values(vec![]).unwrap();
        assert!(ts.is_empty());
        assert_eq!(ts.min().unwrap_err(), CoreError::EmptySeries);
        assert_eq!(ts.max().unwrap_err(), CoreError::EmptySeries);
    }

    #[test]
    fn slice_and_split() {
        let ts = TimeSeries::new("s", (0..10).map(|i| i as f64).collect()).unwrap();
        let mid = ts.slice(2, 5).unwrap();
        assert_eq!(mid.values(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_rejects_bad_bounds() {
        let ts = TimeSeries::from_values(vec![1.0, 2.0]).unwrap();
        assert!(ts.slice(1, 0).is_err());
        assert!(ts.slice(0, 3).is_err());
    }

    #[test]
    fn multiseries_validates_lengths() {
        let ok = MultiSeries::new("m", vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.dims(), 2);
        assert_eq!(ok.len(), 2);
        let err = MultiSeries::new("m", vec![vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert_eq!(err, CoreError::LengthMismatch { left: 2, right: 1 });
    }

    #[test]
    fn multiseries_dimension_extraction() {
        let m = MultiSeries::new("mach", vec![vec![1.0, 2.0], vec![5.0, 6.0]]).unwrap();
        let d1 = m.dimension(1).unwrap();
        assert_eq!(d1.values(), &[5.0, 6.0]);
        assert_eq!(d1.name(), "mach:dim1");
        assert!(m.dimension(2).is_err());
        assert_eq!(m.channel(0).unwrap(), &[1.0, 2.0]);
        assert!(m.channel(9).is_none());
    }
}
