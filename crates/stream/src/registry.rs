//! Streaming side of the detector registry: spawn-by-id from one table.
//!
//! `tsad_detectors::registry` is the single catalog — names, schemas,
//! costs, and the [`StreamingSupport`] plan. This module executes that
//! plan: entries marked [`StreamingSupport::Native`] get their handwritten
//! bitwise-equivalent port, everything else is wrapped in a
//! [`BatchAdapter`] with the chunk geometry the catalog chose for the
//! entry's cost class. [`RegistryFactory`] then makes any catalog id a
//! [`DetectorFactory`], so `tsad-fleet` shards, TSCK fingerprints, and the
//! replay harness all resolve detectors from the same table as the batch
//! experiments and the generated `DETECTORS.md`.

use tsad_core::error::{CoreError, Result};
use tsad_detectors::cusum::Cusum;
use tsad_detectors::matrix_profile::{exclusion_zone, ProfileMetric};
use tsad_detectors::oneliner::{equation, Equation};
use tsad_detectors::registry::{DetectorRegistry, Params, StreamingSupport};
use tsad_detectors::spot::Spot;

use crate::adapter::BatchAdapter;
use crate::calibrated::{StreamingCusum, StreamingGlobalZScore, StreamingSpot};
use crate::detectors::StreamingMovingAvgResidual;
use crate::discord::StreamingLeftDiscord;
use crate::oneliner::StreamingOneLiner;
use crate::StreamingDetector;

// Re-exported here so one `use tsad_stream::registry::*`-style import gives
// callers the whole spawn-by-id surface; the fleet resolves through this
// module rather than reaching into `factory` directly.
pub use crate::factory::{DetectorFactory, FnFactory};

/// Deployment-side knobs the catalog schema deliberately does not carry:
/// how much history a port may treat as its training prefix and how far
/// back the left-discord horizon reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHints {
    /// Training-prefix length forwarded to prefix-calibrated ports
    /// (z-score, CUSUM, SPOT) and to every [`BatchAdapter`] chunk.
    pub train_len: usize,
    /// Retained-window horizon for the streaming left discord (clamped up
    /// to the exclusion zone of the entry's subsequence length).
    pub horizon: usize,
}

impl Default for StreamHints {
    fn default() -> Self {
        Self {
            train_len: 200,
            horizon: 256,
        }
    }
}

/// Builds streaming detectors from [`DetectorRegistry`] entries.
#[derive(Debug)]
pub struct StreamRegistry {
    batch: DetectorRegistry,
}

impl Default for StreamRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl StreamRegistry {
    /// The streaming view of the standard catalog.
    pub fn standard() -> Self {
        Self {
            batch: DetectorRegistry::standard(),
        }
    }

    /// The underlying batch catalog (ids, schemas, metadata).
    pub fn catalog(&self) -> &DetectorRegistry {
        &self.batch
    }

    /// Builds the streaming form of catalog entry `id`: the native port
    /// when one exists, otherwise a [`BatchAdapter`] with the catalog's
    /// chunk geometry for that entry. Parameter overrides are validated
    /// against the same schema as the batch build.
    pub fn build(
        &self,
        id: &str,
        params: &Params,
        hints: &StreamHints,
    ) -> Result<Box<dyn StreamingDetector + Send + Sync>> {
        let entry = self.batch.get(id)?;
        match entry.streaming {
            StreamingSupport::Adapted { window, every } => {
                let det = entry.build(params)?;
                Ok(Box::new(BatchAdapter::new(
                    det,
                    window,
                    every,
                    hints.train_len,
                )?))
            }
            StreamingSupport::Native => {
                let p = entry.resolve(params)?;
                Ok(match entry.id {
                    "global-zscore" => Box::new(StreamingGlobalZScore::new(hints.train_len)?),
                    "moving-avg-residual" => {
                        Box::new(StreamingMovingAvgResidual::new(p.usize("window"))?)
                    }
                    "cusum" => Box::new(StreamingCusum::new(
                        Cusum {
                            allowance: p.f64("allowance"),
                            decay: p.f64("decay"),
                        },
                        hints.train_len,
                    )?),
                    "oneliner" => Box::new(StreamingOneLiner::compile(&equation(
                        Equation::Eq5,
                        p.usize("k"),
                        p.f64("c"),
                        p.f64("b"),
                    ))?),
                    "left-discord" => {
                        let m = p.usize("window");
                        Box::new(StreamingLeftDiscord::new(
                            m,
                            ProfileMetric::ZNormalized,
                            hints.horizon.max(exclusion_zone(m)),
                        )?)
                    }
                    "spot" => Box::new(StreamingSpot::new(
                        Spot {
                            level: p.f64("level"),
                            risk: p.f64("risk"),
                        },
                        hints.train_len,
                    )?),
                    other => {
                        // a Native entry must have an arm above; reaching
                        // here means the catalog and this module diverged
                        return Err(CoreError::Unknown {
                            what: "native streaming port",
                            name: other.to_string(),
                        });
                    }
                })
            }
        }
    }
}

/// A [`DetectorFactory`] that spawns one catalog entry with fixed
/// parameters — the bridge from the registry to `tsad-fleet`.
///
/// Construction builds the detector once, so a bad id or parameter set
/// fails *before* the factory reaches a fleet; `spawn` can then be
/// infallible as the trait requires.
#[derive(Debug)]
pub struct RegistryFactory {
    registry: StreamRegistry,
    id: String,
    params: Params,
    hints: StreamHints,
    fingerprint: String,
}

impl RegistryFactory {
    /// Creates a factory for catalog entry `id`, validating the
    /// configuration eagerly by building a probe detector.
    pub fn new(id: &str, params: Params, hints: StreamHints) -> Result<Self> {
        let registry = StreamRegistry::standard();
        let probe = registry.build(id, &params, &hints)?;
        Ok(Self {
            registry,
            id: id.to_string(),
            params,
            hints,
            fingerprint: probe.name(),
        })
    }

    /// The catalog id this factory spawns.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl DetectorFactory for RegistryFactory {
    type Detector = Box<dyn StreamingDetector + Send + Sync>;

    fn spawn(&self, _id: u64) -> Self::Detector {
        self.registry
            .build(&self.id, &self.params, &self.hints)
            .expect("configuration validated at construction")
    }

    fn fingerprint(&self) -> String {
        self.fingerprint.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let noise = (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                    / (1u64 << 24) as f64)
                    - 0.5;
                (i as f64 * 0.05).sin() + 0.3 * noise + if i == 400 { 6.0 } else { 0.0 }
            })
            .collect()
    }

    #[test]
    fn every_catalog_entry_builds_a_streaming_detector() {
        let reg = StreamRegistry::standard();
        let hints = StreamHints::default();
        let xs = series(600);
        for entry in reg.catalog().entries() {
            let mut det = reg
                .build(entry.id, &Params::new(), &hints)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.id));
            let scores = det.score_stream(&xs);
            assert!(
                scores.len() + det.score_offset() == xs.len() || scores.is_empty(),
                "{}: {} scores for {} points (offset {})",
                entry.id,
                scores.len(),
                xs.len(),
                det.score_offset()
            );
            assert!(
                scores.iter().all(|s| s.is_finite()),
                "{}: non-finite score",
                entry.id
            );
        }
    }

    #[test]
    fn native_entries_bypass_the_adapter() {
        let reg = StreamRegistry::standard();
        let hints = StreamHints::default();
        let adapter_prefix = tsad_detectors::registry::display::BATCH_ADAPTER;
        for entry in reg.catalog().entries() {
            let det = reg.build(entry.id, &Params::new(), &hints).unwrap();
            let is_adapted = matches!(entry.streaming, StreamingSupport::Adapted { .. });
            assert_eq!(
                det.name().starts_with(adapter_prefix),
                is_adapted,
                "{}: name {:?} vs plan {:?}",
                entry.id,
                det.name(),
                entry.streaming
            );
        }
    }

    #[test]
    fn overrides_flow_through_to_native_ports() {
        let reg = StreamRegistry::standard();
        let hints = StreamHints::default();
        let det = reg
            .build(
                "moving-avg-residual",
                &Params::new().set_int("window", 9),
                &hints,
            )
            .unwrap();
        assert!(det.name().contains("k=9"), "{}", det.name());
        let err = reg
            .build("spot", &Params::new().set_f64("nope", 1.0), &hints)
            .err()
            .expect("unknown parameter must fail");
        assert!(err.to_string().contains("unknown parameter"), "{err}");
    }

    #[test]
    fn factory_spawns_identical_detectors_and_fingerprints_them() {
        let factory = RegistryFactory::new("cusum", Params::new(), StreamHints::default()).unwrap();
        let xs = series(500);
        let mut a = factory.spawn(1);
        let mut b = factory.spawn(2);
        let sa = a.score_stream(&xs);
        assert_eq!(sa, b.score_stream(&xs));
        assert_eq!(factory.fingerprint(), a.name());
        assert!(RegistryFactory::new("no-such", Params::new(), StreamHints::default()).is_err());
    }
}
