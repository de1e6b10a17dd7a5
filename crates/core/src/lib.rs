//! # tsad-core
//!
//! Time-series primitives for the reproduction of Wu & Keogh, *"Current Time
//! Series Anomaly Detection Benchmarks are Flawed and are Creating the
//! Illusion of Progress"* (ICDE 2022).
//!
//! This crate is deliberately dependency-free: it provides the containers
//! ([`TimeSeries`], [`MultiSeries`], [`Labels`]), the vectorized primitives
//! the paper's "one-line-of-code" detectors are built from ([`ops`]), the
//! statistics the flaw analyzers need ([`stats`]), an FFT and the MASS
//! distance profile for matrix-profile detectors ([`fft`], [`dist`]), and
//! PAA/SAX symbolization for HOT SAX ([`sax`]).
//!
//! ## Quick example
//!
//! ```
//! use tsad_core::{ops, TimeSeries, Labels};
//!
//! // A flat signal with one spike...
//! let mut values = vec![0.0; 100];
//! values[60] = 10.0;
//! let ts = TimeSeries::new("demo", values).unwrap();
//!
//! // ...is "solved" by the paper's canonical one-liner shape:
//! // abs(diff(TS)) > b
//! let mask = ops::align_diff_mask(&ops::gt(&ops::abs(&ops::diff(ts.values())), 5.0));
//! let predicted = Labels::from_mask(&mask);
//! assert!(predicted.contains(60));
//! ```

pub mod ckpt;
pub mod dataset;
pub mod dist;
pub mod error;
pub mod fft;
pub mod labels;
pub mod ops;
pub mod prefetch;
pub mod sax;
pub mod series;
pub mod simd;
pub mod stats;
pub mod windows;

pub use dataset::Dataset;
pub use error::{CoreError, Result};
pub use labels::{Labels, Region};
pub use series::{MultiSeries, TimeSeries};
