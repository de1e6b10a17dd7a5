//! Spawn hooks that let any [`StreamingDetector`] be fleet-hosted.
//!
//! A multi-tenant engine (`tsad-fleet`) manages one detector instance per
//! series and must be able to construct, evict, and re-construct them on
//! demand — at registration, and again when restoring a sharded
//! checkpoint. [`DetectorFactory`] is that constructor: a `Sync` recipe
//! mapping a raw series key to a freshly configured detector.
//!
//! The [`fingerprint`](DetectorFactory::fingerprint) doubles as the
//! fleet-level configuration check, exactly like the per-detector `name()`
//! fingerprint in [`checkpoint`](crate::checkpoint()): a sharded checkpoint
//! records the producing factory's fingerprint and restore refuses to load
//! it through a differently-configured factory.
//!
//! Closures are factories too, via [`FnFactory`]:
//!
//! ```
//! use tsad_stream::{DetectorFactory, FnFactory, StreamingDetector, StreamingGlobalZScore};
//!
//! let factory = FnFactory(|_id: u64| StreamingGlobalZScore::new(32).unwrap());
//! let det = factory.spawn(7);
//! assert_eq!(factory.fingerprint(), det.name());
//! ```

use crate::StreamingDetector;

/// A recipe for constructing identically-configured streaming detectors,
/// one per series.
///
/// `spawn` may vary configuration *by series id* (per-tenant windows,
/// per-metric thresholds); the per-entry `name()` fingerprint recorded in
/// checkpoints keeps that honest, because a restored entry is always
/// spawned through the same factory with the same id before its state is
/// rehydrated.
pub trait DetectorFactory: Sync {
    /// The detector type this factory produces.
    type Detector: StreamingDetector + Send;

    /// Constructs the detector for series `id`, in its freshly-reset
    /// state.
    fn spawn(&self, id: u64) -> Self::Detector;

    /// Configuration fingerprint for checkpoint envelopes. The default —
    /// the name of the detector spawned for id 0 — is right whenever
    /// `spawn` ignores the id; id-dependent factories should override
    /// this with something that captures the whole mapping.
    fn fingerprint(&self) -> String {
        self.spawn(0).name()
    }
}

/// Adapter making any `Fn(u64) -> D` closure a [`DetectorFactory`].
#[derive(Debug, Clone, Copy)]
pub struct FnFactory<F>(pub F);

impl<D, F> DetectorFactory for FnFactory<F>
where
    D: StreamingDetector + Send,
    F: Fn(u64) -> D + Sync,
{
    type Detector = D;

    fn spawn(&self, id: u64) -> D {
        (self.0)(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrated::StreamingGlobalZScore;

    #[test]
    fn closure_factory_spawns_fresh_detectors() {
        let factory = FnFactory(|_id| StreamingGlobalZScore::new(4).unwrap());
        let mut a = factory.spawn(1);
        let mut b = factory.spawn(2);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(a.score_stream(&xs), b.score_stream(&xs));
        assert_eq!(factory.fingerprint(), factory.spawn(9).name());
    }

    #[test]
    fn id_dependent_factories_vary_configuration() {
        let factory =
            FnFactory(|id: u64| StreamingGlobalZScore::new(2 + (id % 3) as usize).unwrap());
        assert_ne!(factory.spawn(0).name(), factory.spawn(1).name());
        // the default fingerprint only sees id 0 — id-dependent factories
        // are expected to override it; this pins the documented default
        assert_eq!(factory.fingerprint(), factory.spawn(0).name());
    }
}
