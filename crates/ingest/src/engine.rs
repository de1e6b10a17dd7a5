//! The serving engine: shared, bounded access to one [`Fleet`].
//!
//! Worker threads hand parsed batches to [`Engine::submit`], which
//! enforces **backpressure** (a cap on in-flight points — requests over
//! the cap are refused immediately with [`SubmitError::Busy`], which the
//! transports translate to HTTP 503 / a binary `RETRY` frame, never an
//! unbounded queue) and then feeds the fleet under its mutex. The fleet
//! call runs under [`with_threads`]`(1)` — request batches are small, so
//! one thread keeps the request path free of scoped thread spawns (a
//! spawn costs tens of microseconds, which would blow the per-request
//! overhead budget a hundredfold).
//!
//! Accounting lives in two places on purpose: `ingest.*` observability
//! metrics (subject to the `TSAD_OBS` kill switch) and the engine's own
//! [`EngineTotals`] atomics, which the hostile-client suites use to
//! reconcile server-side counts against the fleet's quarantine reports
//! even when observability is off.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use tsad_fleet::{BatchOutput, Fleet, SeriesId};
use tsad_parallel::with_threads;
use tsad_stream::DetectorFactory;

use crate::{INGEST_POINTS, INGEST_PUSH_NS, INGEST_REJECTED, INGEST_ROUTE_NS};

/// Engine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Largest accepted batch per request; larger requests are refused
    /// with [`SubmitError::TooLarge`] (HTTP 413).
    pub max_batch_points: usize,
    /// Cap on points admitted but not yet pushed across all workers.
    /// Admission over the cap refuses with [`SubmitError::Busy`].
    pub max_inflight_points: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch_points: 65_536,
            max_inflight_points: 262_144,
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The in-flight cap is reached: shed load, retry later.
    Busy,
    /// The batch exceeds `max_batch_points`.
    TooLarge,
    /// The durability hook ([`BatchLog::append`]) failed, or an earlier
    /// batch panicked inside the fleet and poisoned it. The batch was
    /// **not** applied: a batch the log did not accept must never move
    /// detector state, or replay-after-crash would diverge from what
    /// clients were told.
    Internal,
}

/// Monotonic totals since engine construction (independent of the
/// `TSAD_OBS` kill switch, so accounting tests hold unconditionally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTotals {
    /// Batches admitted and pushed.
    pub batches: u64,
    /// Points fed to detectors (quarantined points excluded).
    pub points: u64,
    /// Scores emitted back to clients.
    pub scores: u64,
    /// Detectors spawned for new series.
    pub spawned: u64,
    /// Non-finite points quarantined at the fleet gate.
    pub quarantined: u64,
    /// Series evicted by budget pressure during admitted batches.
    pub evicted: u64,
    /// Submits refused by backpressure.
    pub rejected: u64,
    /// Submits aborted because the durability hook failed.
    pub wal_errors: u64,
}

#[derive(Debug, Default)]
struct Stats {
    batches: AtomicU64,
    points: AtomicU64,
    scores: AtomicU64,
    spawned: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
    rejected: AtomicU64,
    wal_errors: AtomicU64,
}

/// Per-submit stage timings, in nanoseconds (zero when observability is
/// disabled — the clocks are not even read then).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitTiming {
    /// Admission: validation + backpressure accounting.
    pub route_ns: u64,
    /// Fleet access: lock wait + `push_batch`.
    pub push_ns: u64,
}

/// Durability hook the engine drives under the fleet lock, *before* the
/// batch touches detectors (log-then-apply). An `Err` aborts the submit
/// with [`SubmitError::Internal`], so the fleet never holds state a
/// post-crash replay could not reproduce. `Mutex<tsad_wal::Wal<_>>`
/// implements it (see [`crate::durable`]); the default [`NoLog`] keeps
/// the non-durable serving path zero-cost.
pub trait BatchLog: Send + Sync {
    /// Appends one batch; returns its log sequence number.
    fn append(&self, batch: &[(SeriesId, f64)]) -> std::io::Result<u64>;

    /// Time-driven maintenance, run by an idle server worker before it
    /// waits; returns when it next needs to run, and the worker wakes by
    /// then even if no socket is ready. Group-commit WALs use it to
    /// enforce their age bound when appends stop arriving
    /// ([`tsad_wal::Wal::tick`]). The default does nothing and needs no
    /// wake.
    fn tick(&self) -> Option<Instant> {
        None
    }

    /// Whether the log can still accept appends; `GET /healthz` answers
    /// 503 while it cannot, so a load balancer drains the node. The
    /// default is always healthy.
    fn healthy(&self) -> bool {
        true
    }
}

/// The default hook: no durability, every append is a free no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLog;

impl BatchLog for NoLog {
    #[inline]
    fn append(&self, _batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
        Ok(0)
    }
}

/// Shared, bounded access to one fleet. See the module docs.
pub struct Engine<F: DetectorFactory, L: BatchLog = NoLog> {
    cfg: EngineConfig,
    fleet: Mutex<Fleet<F>>,
    log: L,
    inflight: AtomicUsize,
    stats: Stats,
}

impl<F: DetectorFactory> Engine<F> {
    /// Wraps a fleet for serving, without durability.
    pub fn new(fleet: Fleet<F>, cfg: EngineConfig) -> Self {
        Self::with_log(fleet, cfg, NoLog)
    }
}

impl<F: DetectorFactory, L: BatchLog> Engine<F, L> {
    /// Wraps a fleet for serving with a durability hook: every admitted
    /// batch is appended to `log` before it is applied.
    pub fn with_log(fleet: Fleet<F>, cfg: EngineConfig, log: L) -> Self {
        Self {
            cfg,
            fleet: Mutex::new(fleet),
            log,
            inflight: AtomicUsize::new(0),
            stats: Stats::default(),
        }
    }

    /// The durability hook.
    pub fn log(&self) -> &L {
        &self.log
    }

    /// The fleet lock for the paths that change or persist fleet state;
    /// `None` once a panic inside `push_batch` poisoned it. That batch's
    /// WAL entry is already appended while the fleet holds it only in
    /// part, so serving on would ACK scores, and a checkpoint persist
    /// state, that no replay reproduces.
    pub(crate) fn lock_fleet(&self) -> Option<MutexGuard<'_, Fleet<F>>> {
        self.fleet.lock().ok()
    }

    /// Whether the engine can still apply batches: the fleet is not
    /// poisoned and the log accepts appends. `GET /healthz` answers 503
    /// while it cannot, so a load balancer drains the node.
    pub fn healthy(&self) -> bool {
        !self.fleet.is_poisoned() && self.log.healthy()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Current totals.
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            batches: self.stats.batches.load(Ordering::Relaxed),
            points: self.stats.points.load(Ordering::Relaxed),
            scores: self.stats.scores.load(Ordering::Relaxed),
            spawned: self.stats.spawned.load(Ordering::Relaxed),
            quarantined: self.stats.quarantined.load(Ordering::Relaxed),
            evicted: self.stats.evicted.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            wal_errors: self.stats.wal_errors.load(Ordering::Relaxed),
        }
    }

    /// Admits and pushes one batch. On success `out` holds the fleet's
    /// batch report (scores, quarantined, evicted, spawned) and `timing`
    /// the route/push stage nanoseconds (when observability is on).
    pub fn submit(
        &self,
        batch: &[(SeriesId, f64)],
        out: &mut BatchOutput,
        timing: &mut SubmitTiming,
    ) -> Result<(), SubmitError> {
        *timing = SubmitTiming::default();
        let obs = tsad_obs::enabled();
        let t_route = obs.then(Instant::now);

        if batch.len() > self.cfg.max_batch_points {
            return Err(SubmitError::TooLarge);
        }
        let n = batch.len();
        let prev = self.inflight.fetch_add(n, Ordering::AcqRel);
        if prev + n > self.cfg.max_inflight_points {
            self.inflight.fetch_sub(n, Ordering::AcqRel);
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            INGEST_REJECTED.inc();
            return Err(SubmitError::Busy);
        }
        if let Some(t) = t_route {
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            timing.route_ns = ns;
            INGEST_ROUTE_NS.record(ns);
        }

        let t_push = obs.then(Instant::now);
        {
            let Some(mut fleet) = self.lock_fleet() else {
                self.inflight.fetch_sub(n, Ordering::AcqRel);
                return Err(SubmitError::Internal);
            };
            // Log-then-apply, both under the fleet lock: the WAL sequence
            // and the fleet's batch counter advance in lockstep, so a
            // checkpoint taken under the same lock names a WAL position.
            if self.log.append(batch).is_err() {
                drop(fleet);
                self.inflight.fetch_sub(n, Ordering::AcqRel);
                self.stats.wal_errors.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Internal);
            }
            with_threads(1, || fleet.push_batch(batch, out));
        }
        self.inflight.fetch_sub(n, Ordering::AcqRel);
        if let Some(t) = t_push {
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            timing.push_ns = ns;
            INGEST_PUSH_NS.record(ns);
        }

        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.points.fetch_add(out.points, Ordering::Relaxed);
        self.stats
            .scores
            .fetch_add(out.scores.len() as u64, Ordering::Relaxed);
        self.stats.spawned.fetch_add(out.spawned, Ordering::Relaxed);
        self.stats
            .quarantined
            .fetch_add(out.quarantined.len() as u64, Ordering::Relaxed);
        self.stats
            .evicted
            .fetch_add(out.evicted.len() as u64, Ordering::Relaxed);
        INGEST_POINTS.add(out.points);
        Ok(())
    }

    /// Residency lookup: `(resident, shard)` for a series.
    pub fn query(&self, id: SeriesId) -> (bool, usize) {
        let fleet = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
        (fleet.contains(id), fleet.shard_of(id))
    }

    /// `(resident series, accounted bytes, batches ingested)`.
    pub fn fleet_stats(&self) -> (usize, usize, u64) {
        let fleet = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
        (fleet.series_active(), fleet.bytes_in_use(), fleet.batches())
    }

    /// Checkpoints the fleet and reports `(total bytes, segments,
    /// series)`. Runs under the fleet lock; not a steady-state path (it
    /// allocates the checkpoint buffers).
    pub fn snapshot_info(&self) -> (usize, usize, usize)
    where
        F::Detector: Sync,
    {
        let fleet = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
        let ckpt = fleet.checkpoint();
        (
            ckpt.total_bytes(),
            ckpt.segments.len(),
            fleet.series_active(),
        )
    }

    /// Runs `f` with the locked fleet (tests and harnesses; the serving
    /// paths use the typed methods above).
    pub fn with_fleet<R>(&self, f: impl FnOnce(&mut Fleet<F>) -> R) -> R {
        let mut fleet = self.fleet.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsad_fleet::FleetConfig;
    use tsad_stream::{FnFactory, StreamingGlobalZScore};

    type TestFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

    fn engine(cfg: EngineConfig) -> Engine<TestFactory> {
        fn spawn(_id: u64) -> StreamingGlobalZScore {
            StreamingGlobalZScore::new(2).unwrap()
        }
        Engine::new(
            Fleet::new(
                FnFactory(spawn as fn(u64) -> StreamingGlobalZScore),
                FleetConfig {
                    shards: 4,
                    ..FleetConfig::default()
                },
            ),
            cfg,
        )
    }

    #[test]
    fn submit_pushes_and_accounts() {
        let e = engine(EngineConfig::default());
        let mut out = BatchOutput::new();
        let mut t = SubmitTiming::default();
        e.submit(
            &[
                (SeriesId(1), 1.0),
                (SeriesId(2), f64::NAN),
                (SeriesId(1), 2.0),
            ],
            &mut out,
            &mut t,
        )
        .unwrap();
        assert_eq!(out.points, 2);
        assert_eq!(out.quarantined.len(), 1);
        let totals = e.totals();
        assert_eq!(totals.batches, 1);
        assert_eq!(totals.points, 2);
        assert_eq!(totals.quarantined, 1);
        assert_eq!(totals.spawned, 1);
        assert_eq!(totals.rejected, 0);
        assert!(e.query(SeriesId(1)).0);
        assert!(!e.query(SeriesId(2)).0);
    }

    #[test]
    fn oversized_batches_are_refused() {
        let e = engine(EngineConfig {
            max_batch_points: 2,
            ..EngineConfig::default()
        });
        let mut out = BatchOutput::new();
        let mut t = SubmitTiming::default();
        let batch = vec![(SeriesId(1), 0.0); 3];
        assert_eq!(
            e.submit(&batch, &mut out, &mut t),
            Err(SubmitError::TooLarge)
        );
        assert_eq!(e.totals().batches, 0);
    }

    #[test]
    fn inflight_cap_sheds_load_instead_of_queueing() {
        let e = engine(EngineConfig {
            max_inflight_points: 0,
            ..EngineConfig::default()
        });
        let mut out = BatchOutput::new();
        let mut t = SubmitTiming::default();
        assert_eq!(
            e.submit(&[(SeriesId(1), 0.0)], &mut out, &mut t),
            Err(SubmitError::Busy)
        );
        assert_eq!(e.totals().rejected, 1);
        // the permit was returned: an empty batch still goes through
        assert_eq!(e.submit(&[], &mut out, &mut t), Ok(()));
    }

    #[test]
    fn a_failing_log_aborts_the_submit_and_returns_the_permit() {
        struct FailLog;
        impl BatchLog for FailLog {
            fn append(&self, _batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        fn spawn(_id: u64) -> StreamingGlobalZScore {
            StreamingGlobalZScore::new(2).unwrap()
        }
        let e = Engine::with_log(
            Fleet::new(
                FnFactory(spawn as fn(u64) -> StreamingGlobalZScore),
                FleetConfig::default(),
            ),
            EngineConfig {
                max_inflight_points: 1,
                ..EngineConfig::default()
            },
            FailLog,
        );
        let mut out = BatchOutput::new();
        let mut t = SubmitTiming::default();
        for _ in 0..3 {
            // Internal (not Busy) every time: the permit came back, and
            // the batch never reached the fleet
            assert_eq!(
                e.submit(&[(SeriesId(1), 1.0)], &mut out, &mut t),
                Err(SubmitError::Internal)
            );
        }
        let totals = e.totals();
        assert_eq!(totals.batches, 0);
        assert_eq!(totals.points, 0);
        assert_eq!(totals.wal_errors, 3);
        assert!(!e.query(SeriesId(1)).0, "un-logged batch must not apply");
    }

    #[test]
    fn snapshot_reports_checkpoint_geometry() {
        let e = engine(EngineConfig::default());
        let mut out = BatchOutput::new();
        let mut t = SubmitTiming::default();
        let batch: Vec<_> = (0..32u64).map(|i| (SeriesId(i), 0.5)).collect();
        e.submit(&batch, &mut out, &mut t).unwrap();
        let (bytes, segments, series) = e.snapshot_info();
        assert!(bytes > 0);
        assert_eq!(segments, 4);
        assert_eq!(series, 32);
    }
}
