//! # tsad-fleet — a sharded, multi-tenant detector fleet
//!
//! `tsad-stream` runs *one* detector on *one* series. A deployment runs
//! millions — one detector per user/host/metric — and feeds them from a
//! single firehose of `(series, value)` points. This crate is that
//! engine:
//!
//! * **Sharded registry.** Series ids route to one of `N` shards by a
//!   fixed 64-bit mix, each shard owning slab storage for its detectors
//!   plus an intrusive LRU list. Scores are a pure function of each
//!   series' own point sequence, so results are **shard-count- and
//!   thread-count-invariant** (verified bitwise by the determinism
//!   tests).
//! * **Batched ingestion.** [`Fleet::push_batch`] groups a
//!   `&[(SeriesId, f64)]` batch by shard and fans the shards out over
//!   `tsad-parallel`. All working memory is reused: in steady state (no
//!   new series, budgets respected) ingest performs **zero heap
//!   allocations** at one effective thread — gated by the workspace's
//!   alloc-tracking benches.
//! * **Memory budgets.** Each shard carries a byte budget; admitting a
//!   new series evicts least-recently-fed ones first, and
//!   [`Fleet::evict_idle`] sweeps series that have gone quiet. Eviction
//!   order is deterministic (LRU order is a pure function of the ingest
//!   history).
//! * **Sharded checkpoint/restore.** [`Fleet::checkpoint`] serializes
//!   every shard into its own sealed TSCK-style segment behind a sealed
//!   [`tsad_core::ckpt::SegmentManifest`] recording each
//!   segment's length and FNV-1a/64 digest. [`Fleet::restore`] verifies
//!   manifest, fingerprints, and digests, rehydrates every detector, and
//!   resumes **bitwise identically** to the uninterrupted run; restoring
//!   into a smaller budget evicts deterministically in checkpoint
//!   recency order.
//! * **Hostile input.** Non-finite samples are quarantined at the gate
//!   (reported per batch in [`BatchOutput::quarantined`], never silently
//!   dropped) or passed through to `Sanitized` detectors, per
//!   [`BatchNanPolicy`].
//!
//! ```
//! use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
//! use tsad_stream::{FnFactory, StreamingGlobalZScore};
//!
//! let factory = FnFactory(|_id| StreamingGlobalZScore::new(2).unwrap());
//! let mut fleet = Fleet::new(factory, FleetConfig::default());
//! let mut out = BatchOutput::new();
//! fleet.push_batch(
//!     &[
//!         (SeriesId(7), 1.0),
//!         (SeriesId(9), 0.5),
//!         (SeriesId(7), 1.1),
//!     ],
//!     &mut out,
//! );
//! assert_eq!(fleet.series_active(), 2);
//! assert_eq!(out.points, 3);
//! ```

pub mod checkpoint;
mod index;
mod shard;

pub use checkpoint::{FleetCheckpoint, FLEET_VERSION};
pub use shard::{entry_bytes, ENTRY_OVERHEAD_BYTES};

use tsad_core::ckpt::{corrupt, SegmentEntry, SegmentManifest};
use tsad_core::error::Result;
use tsad_obs::{Counter, Gauge, Span};
use tsad_parallel::{par_each_mut, par_map_indexed};
use tsad_stream::DetectorFactory;

use checkpoint::FLEET_META_WORDS;
use shard::{InPoint, Shard};

/// Points ingested across all shards (quarantined points excluded).
static FLEET_POINTS: Counter = Counter::new("fleet.points");
/// Detectors spawned for previously-unseen series.
static FLEET_SPAWNED: Counter = Counter::new("fleet.spawned");
/// Series evicted (budget pressure, idle sweeps, and budget-shrinking
/// restores combined).
static FLEET_EVICTIONS: Counter = Counter::new("fleet.evictions");
/// Non-finite points quarantined at the fleet gate.
static FLEET_QUARANTINED: Counter = Counter::new("fleet.quarantined");
/// Currently resident series, maintained incrementally.
static FLEET_SERIES_ACTIVE: Gauge = Gauge::new("fleet.series_active");
/// Accounted bytes per resident series (mean, recomputed per batch).
static FLEET_BYTES_PER_SERIES: Gauge = Gauge::new("fleet.bytes_per_series");
/// High-water resident-series count of the fullest shard.
static FLEET_SHARD_FILL_MAX: Gauge = Gauge::new("fleet.shard_fill_max");
/// Wall-clock time per `push_batch` call.
static FLEET_PUSH_BATCH_NS: Span = Span::new("fleet.push_batch_ns");

/// Opaque series key (user id, host id, metric hash — the caller's
/// namespace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u64);

/// What the fleet does with a non-finite sample *before* it reaches a
/// detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchNanPolicy {
    /// Withhold it: the detector never sees the point; the batch report
    /// lists it under [`BatchOutput::quarantined`]. The right default for
    /// plain detectors.
    Quarantine,
    /// Feed it through: for fleets of `Sanitized` detectors that carry
    /// their own per-series [`NanPolicy`](tsad_stream::NanPolicy).
    Propagate,
}

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Shard count (clamped to at least 1). Scores do not depend on it;
    /// it sets fan-out granularity and checkpoint segmentation.
    pub shards: usize,
    /// Byte budget per shard ([`usize::MAX`] = unbounded). Admission of a
    /// new series evicts least-recently-fed residents until the shard
    /// fits; the admitted series itself is never refused.
    pub shard_budget_bytes: usize,
    /// Non-finite handling at the ingest gate.
    pub nan_policy: BatchNanPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 16,
            shard_budget_bytes: usize::MAX,
            nan_policy: BatchNanPolicy::Quarantine,
        }
    }
}

/// One emitted score: the batch position of the push that emitted it, the
/// series it belongs to, and the score value. Detector lag applies *per
/// series*: the score emitted at `batch_index` may describe an earlier
/// point of the same series, exactly as
/// [`StreamingDetector::push`](tsad_stream::StreamingDetector::push)
/// defines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchScore {
    /// Index into the `push_batch` input slice.
    pub batch_index: usize,
    /// The series the score belongs to.
    pub id: SeriesId,
    /// The detector's score.
    pub score: f64,
}

/// A point withheld from its detector by [`BatchNanPolicy::Quarantine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedPoint {
    /// Index into the `push_batch` input slice.
    pub batch_index: usize,
    /// The series the point addressed.
    pub id: SeriesId,
}

/// Reusable per-batch results. Allocate once, pass to every
/// [`Fleet::push_batch`] call; the buffers are cleared and refilled, so a
/// steady-state caller never allocates for output.
#[derive(Debug, Default, Clone)]
pub struct BatchOutput {
    /// Emitted scores, sorted by `batch_index` (deterministic at every
    /// shard and thread count).
    pub scores: Vec<BatchScore>,
    /// Quarantined non-finite points, sorted by `batch_index` — reported,
    /// never silently dropped.
    pub quarantined: Vec<QuarantinedPoint>,
    /// Series evicted by budget pressure while admitting this batch's new
    /// series, in shard order then eviction order.
    pub evicted: Vec<SeriesId>,
    /// Detectors spawned for previously-unseen series.
    pub spawned: u64,
    /// Points fed to detectors (total minus quarantined).
    pub points: u64,
}

impl BatchOutput {
    /// Empty output buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.scores.clear();
        self.quarantined.clear();
        self.evicted.clear();
        self.spawned = 0;
        self.points = 0;
    }
}

/// What a [`Fleet::restore`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Series resident after the restore (post-eviction).
    pub series: usize,
    /// Series evicted because the restoring fleet's budget is smaller
    /// than the checkpointing fleet's, in shard order then checkpoint
    /// recency order (stable across runs).
    pub evicted: Vec<SeriesId>,
}

/// Murmur3 finalizer: the fixed series→shard mix. Deterministic across
/// processes and platforms, so checkpoints route identically forever.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A sharded multi-tenant detector fleet. See the crate docs.
pub struct Fleet<F: DetectorFactory> {
    factory: F,
    cfg: FleetConfig,
    shards: Vec<Shard<F::Detector>>,
    /// Batches ingested so far — the recency clock for idle eviction.
    batches: u64,
}

impl<F: DetectorFactory> Fleet<F> {
    /// An empty fleet. `cfg.shards` is clamped to at least 1.
    pub fn new(factory: F, mut cfg: FleetConfig) -> Self {
        cfg.shards = cfg.shards.max(1);
        let shards = (0..cfg.shards)
            .map(|_| Shard::new(cfg.shard_budget_bytes))
            .collect();
        Self {
            factory,
            cfg,
            shards,
            batches: 0,
        }
    }

    /// The construction parameters (shard count already clamped).
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The spawn recipe.
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// The shard a series routes to.
    pub fn shard_of(&self, id: SeriesId) -> usize {
        (mix64(id.0) % self.cfg.shards as u64) as usize
    }

    /// True when the series currently has a resident detector.
    pub fn contains(&self, id: SeriesId) -> bool {
        self.shards[self.shard_of(id)].contains(id.0)
    }

    /// Currently resident series across all shards.
    pub fn series_active(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Accounted bytes across all resident series.
    pub fn bytes_in_use(&self) -> usize {
        self.shards.iter().map(Shard::bytes_in_use).sum()
    }

    /// Mean accounted bytes per resident series (0 when empty).
    pub fn bytes_per_series(&self) -> usize {
        self.bytes_in_use()
            .checked_div(self.series_active())
            .unwrap_or(0)
    }

    /// Resident-series count of the emptiest and fullest shard — the
    /// routing balance at a glance.
    pub fn shard_fill(&self) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0;
        for s in &self.shards {
            lo = lo.min(s.len());
            hi = hi.max(s.len());
        }
        if self.shards.is_empty() {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Ingests one multi-series batch: routes points to shards (input
    /// order preserved per series), fans shards out over `tsad-parallel`,
    /// and merges results into `out` sorted by batch index.
    ///
    /// Determinism: per-shard processing is sequential in batch order and
    /// the merge sorts by batch index, so `out` is bitwise identical at
    /// every shard count and thread count. In steady state — every series
    /// already resident, no evictions — this performs zero heap
    /// allocations at one effective thread.
    pub fn push_batch(&mut self, batch: &[(SeriesId, f64)], out: &mut BatchOutput) {
        let _t = FLEET_PUSH_BATCH_NS.start();
        out.clear();
        self.batches += 1;
        let batch_no = self.batches;
        let nshards = self.cfg.shards as u64;
        for (i, &(id, value)) in batch.iter().enumerate() {
            let s = (mix64(id.0) % nshards) as usize;
            self.shards[s].inbox.push(InPoint {
                batch_index: i,
                id: id.0,
                value,
            });
        }
        let factory = &self.factory;
        let policy = self.cfg.nan_policy;
        par_each_mut(&mut self.shards, |_, shard| {
            shard.process(factory, policy, batch_no);
        });
        // merge in shard order, then restore batch order; batch indices
        // are unique, so the unstable sort is deterministic
        for shard in &mut self.shards {
            for sp in shard.scores.drain(..) {
                out.scores.push(BatchScore {
                    batch_index: sp.batch_index,
                    id: SeriesId(sp.id),
                    score: sp.score,
                });
            }
            for (batch_index, id) in shard.quarantined.drain(..) {
                out.quarantined.push(QuarantinedPoint {
                    batch_index,
                    id: SeriesId(id),
                });
            }
            for id in shard.evicted.drain(..) {
                out.evicted.push(SeriesId(id));
            }
            out.spawned += shard.tally.spawned;
            out.points += shard.tally.points;
            shard.tally = Default::default();
        }
        out.scores.sort_unstable_by_key(|s| s.batch_index);
        out.quarantined.sort_unstable_by_key(|q| q.batch_index);

        FLEET_POINTS.add(out.points);
        FLEET_SPAWNED.add(out.spawned);
        FLEET_SERIES_ACTIVE.add(out.spawned);
        FLEET_SERIES_ACTIVE.sub(out.evicted.len() as u64);
        FLEET_EVICTIONS.add(out.evicted.len() as u64);
        FLEET_QUARANTINED.add(out.quarantined.len() as u64);
        FLEET_BYTES_PER_SERIES.set(self.bytes_per_series() as u64);
        FLEET_SHARD_FILL_MAX.set_max(self.shard_fill().1 as u64);
    }

    /// Evicts every series that has not received a point in more than
    /// `max_idle` batches. Returns the evicted ids in shard order then
    /// recency order (deterministic).
    pub fn evict_idle(&mut self, max_idle: u64) -> Vec<SeriesId> {
        let now = self.batches;
        let mut out = Vec::new();
        for shard in &mut self.shards {
            shard.evict_idle(now, max_idle, &mut out);
        }
        FLEET_EVICTIONS.add(out.len() as u64);
        FLEET_SERIES_ACTIVE.sub(out.len() as u64);
        out
    }

    /// Drops every resident series and restarts the batch clock. The
    /// configuration and factory stay.
    pub fn reset(&mut self) {
        for shard in &mut self.shards {
            *shard = Shard::new(self.cfg.shard_budget_bytes);
        }
        self.batches = 0;
        FLEET_SERIES_ACTIVE.set(0);
    }

    /// Serializes the fleet into a sharded checkpoint: one sealed segment
    /// per shard (entries in LRU order) behind a sealed manifest carrying
    /// per-segment digests. Segments are produced in parallel over
    /// `tsad-parallel`; the bytes are identical at every thread count.
    ///
    /// Checkpointing a fleet, restoring it, and checkpointing again
    /// yields bitwise-identical bytes — recency order survives the round
    /// trip.
    pub fn checkpoint(&self) -> FleetCheckpoint
    where
        F::Detector: Sync,
    {
        let segments: Vec<Vec<u8>> =
            par_map_indexed(&self.shards, |i, shard| shard.segment_bytes(i));
        let manifest = SegmentManifest {
            fingerprint: self.factory.fingerprint(),
            meta: vec![
                FLEET_VERSION,
                self.cfg.shards as u64,
                self.series_active() as u64,
                self.batches,
            ],
            segments: segments.iter().map(|s| SegmentEntry::describe(s)).collect(),
        };
        FleetCheckpoint {
            manifest: manifest.to_bytes(),
            segments,
        }
    }

    /// Rehydrates the fleet from a checkpoint produced by an
    /// identically-configured fleet (same factory fingerprint, same shard
    /// count; budgets may differ). On success the fleet's subsequent
    /// scores are bitwise identical to the uninterrupted run. On any
    /// error — bad manifest, fingerprint mismatch, segment digest
    /// mismatch, truncation, malformed state — the fleet is left *reset*
    /// (empty but usable) and the error is returned.
    ///
    /// If this fleet's shard budget is smaller than the checkpointed
    /// fleet's footprint, least-recently-fed series are evicted per shard
    /// in checkpoint recency order — a deterministic, stable order —
    /// and reported in the [`RestoreReport`].
    pub fn restore(&mut self, ckpt: &FleetCheckpoint) -> Result<RestoreReport> {
        let result = self.try_restore(ckpt);
        if result.is_err() {
            self.reset();
        }
        result
    }

    fn try_restore(&mut self, ckpt: &FleetCheckpoint) -> Result<RestoreReport> {
        let manifest = ckpt.parse_manifest()?;
        let fingerprint = self.factory.fingerprint();
        if manifest.fingerprint != fingerprint {
            return Err(corrupt(format!(
                "fleet fingerprint mismatch: checkpoint is for `{}`, factory \
                 spawns `{fingerprint}`",
                manifest.fingerprint
            )));
        }
        if manifest.meta.len() != FLEET_META_WORDS {
            return Err(corrupt(format!(
                "fleet manifest carries {} meta words, expected {FLEET_META_WORDS}",
                manifest.meta.len()
            )));
        }
        let version = manifest.meta[0];
        if version != FLEET_VERSION {
            return Err(corrupt(format!(
                "unsupported fleet checkpoint version {version}, this build reads \
                 {FLEET_VERSION}"
            )));
        }
        let shard_count = manifest.meta[1];
        if shard_count != self.cfg.shards as u64 {
            return Err(corrupt(format!(
                "checkpoint has {shard_count} shards, fleet is configured for {}",
                self.cfg.shards
            )));
        }
        if manifest.segments.len() != self.cfg.shards || ckpt.segments.len() != self.cfg.shards {
            return Err(corrupt(format!(
                "manifest declares {} segments, checkpoint carries {}, fleet \
                 expects {}",
                manifest.segments.len(),
                ckpt.segments.len(),
                self.cfg.shards
            )));
        }
        self.reset();
        let nshards = self.cfg.shards as u64;
        for (i, (entry, segment)) in manifest.segments.iter().zip(&ckpt.segments).enumerate() {
            entry.verify(segment)?;
            self.shards[i].load_segment(&self.factory, i, segment, |id| {
                (mix64(id) % nshards) as usize
            })?;
        }
        let restored = self.series_active();
        if restored as u64 != manifest.meta[2] {
            return Err(corrupt(format!(
                "manifest declares {} series, segments carried {restored}",
                manifest.meta[2]
            )));
        }
        self.batches = manifest.meta[3];
        let mut evicted = Vec::new();
        for shard in &mut self.shards {
            shard.evict_to_budget(&mut evicted);
        }
        FLEET_EVICTIONS.add(evicted.len() as u64);
        FLEET_SERIES_ACTIVE.set(self.series_active() as u64);
        Ok(RestoreReport {
            series: self.series_active(),
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_stream::{FnFactory, StreamingDetector, StreamingGlobalZScore};

    fn zscore_fleet(
        cfg: FleetConfig,
    ) -> Fleet<FnFactory<impl Fn(u64) -> StreamingGlobalZScore + Sync>> {
        Fleet::new(FnFactory(|_id| StreamingGlobalZScore::new(3).unwrap()), cfg)
    }

    #[test]
    fn fleet_scores_match_a_standalone_detector() {
        let mut fleet = zscore_fleet(FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        });
        let mut out = BatchOutput::new();
        let xs = [1.0, 2.0, 4.0, 3.0, 2.5, 9.0];
        // interleave two series carrying the same values
        let mut per_series = Vec::new();
        for &x in &xs {
            per_series.push((SeriesId(1), x));
            per_series.push((SeriesId(2), x));
        }
        let mut collected: Vec<f64> = Vec::new();
        fleet.push_batch(&per_series, &mut out);
        for s in &out.scores {
            if s.id == SeriesId(1) {
                collected.push(s.score);
            }
        }
        let mut reference = StreamingGlobalZScore::new(3).unwrap();
        let expected: Vec<f64> = xs.iter().filter_map(|&x| reference.push(x)).collect();
        assert_eq!(collected.len(), expected.len());
        for (a, b) in collected.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fleet.series_active(), 2);
        assert_eq!(out.spawned, 2);
        assert_eq!(out.points, per_series.len() as u64);
    }

    #[test]
    fn scores_are_sorted_by_batch_index() {
        let mut fleet = zscore_fleet(FleetConfig::default());
        let mut out = BatchOutput::new();
        let batch: Vec<(SeriesId, f64)> = (0..64u64)
            .map(|i| (SeriesId(i % 8), (i as f64).sin()))
            .collect();
        fleet.push_batch(&batch, &mut out);
        for w in out.scores.windows(2) {
            assert!(w[0].batch_index < w[1].batch_index);
        }
    }

    #[test]
    fn quarantine_reports_non_finite_points() {
        let mut fleet = zscore_fleet(FleetConfig::default());
        let mut out = BatchOutput::new();
        fleet.push_batch(
            &[
                (SeriesId(1), 1.0),
                (SeriesId(1), f64::NAN),
                (SeriesId(2), f64::INFINITY),
                (SeriesId(1), 2.0),
            ],
            &mut out,
        );
        assert_eq!(out.points, 2);
        assert_eq!(
            out.quarantined,
            vec![
                QuarantinedPoint {
                    batch_index: 1,
                    id: SeriesId(1)
                },
                QuarantinedPoint {
                    batch_index: 2,
                    id: SeriesId(2)
                },
            ]
        );
        // series 2 saw only a quarantined point: no detector was spawned
        assert!(!fleet.contains(SeriesId(2)));
    }

    #[test]
    fn budget_evicts_least_recently_fed_first() {
        let per_entry = entry_bytes(&StreamingGlobalZScore::new(3).unwrap());
        let mut fleet = zscore_fleet(FleetConfig {
            shards: 1,
            shard_budget_bytes: per_entry * 2,
            ..FleetConfig::default()
        });
        let mut out = BatchOutput::new();
        fleet.push_batch(&[(SeriesId(1), 0.0)], &mut out);
        fleet.push_batch(&[(SeriesId(2), 0.0)], &mut out);
        // touch 1 so 2 becomes least recent
        fleet.push_batch(&[(SeriesId(1), 0.5)], &mut out);
        fleet.push_batch(&[(SeriesId(3), 0.0)], &mut out);
        assert_eq!(out.evicted, vec![SeriesId(2)]);
        assert!(fleet.contains(SeriesId(1)));
        assert!(!fleet.contains(SeriesId(2)));
        assert!(fleet.contains(SeriesId(3)));
        assert_eq!(fleet.series_active(), 2);
    }

    #[test]
    fn evict_idle_sweeps_quiet_series() {
        let mut fleet = zscore_fleet(FleetConfig::default());
        let mut out = BatchOutput::new();
        fleet.push_batch(&[(SeriesId(1), 0.0), (SeriesId(2), 0.0)], &mut out);
        fleet.push_batch(&[(SeriesId(1), 0.1)], &mut out);
        fleet.push_batch(&[(SeriesId(1), 0.2)], &mut out);
        let evicted = fleet.evict_idle(1);
        assert_eq!(evicted, vec![SeriesId(2)]);
        assert_eq!(fleet.series_active(), 1);
        assert!(fleet.evict_idle(1).is_empty());
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let fleet = zscore_fleet(FleetConfig {
            shards: 7,
            ..FleetConfig::default()
        });
        for id in 0..1000u64 {
            let s = fleet.shard_of(SeriesId(id));
            assert!(s < 7);
            assert_eq!(s, fleet.shard_of(SeriesId(id)));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let fleet = zscore_fleet(FleetConfig {
            shards: 0,
            ..FleetConfig::default()
        });
        assert_eq!(fleet.config().shards, 1);
        assert_eq!(fleet.shard_of(SeriesId(42)), 0);
    }
}
