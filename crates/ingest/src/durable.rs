//! Durable serving: the WAL-backed engine and its crash-recovery glue.
//!
//! The non-durable [`Engine`] ACKs a batch the moment the
//! fleet has scored it; a `kill -9` then silently forgets every ACKed
//! point. [`DurableEngine`] closes that gap by logging each admitted
//! batch to a [`tsad_wal::Wal`] *before* it touches detector state
//! (log-then-apply, both under the fleet lock), so:
//!
//! * the WAL sequence number and [`Fleet::batches`] advance in lockstep —
//!   a checkpoint taken under the same lock names an exact WAL position;
//! * [`recover_engine`] rebuilds the exact pre-crash fleet: restore the
//!   newest checkpoint, replay the WAL tail, resume the log — bitwise
//!   identical to an uncrashed run over the surviving prefix (proven
//!   byte-by-byte in `crates/faults/tests/wal_crash.rs`);
//! * the WAL fingerprint is always derived from the detector factory, so
//!   a log recorded under one registry configuration is **refused** when
//!   replayed into another ([`WalError::FingerprintMismatch`]) instead of
//!   silently producing nonsense scores.

use std::sync::Mutex;
use std::time::Instant;

use tsad_fleet::{Fleet, FleetCheckpoint, FleetConfig, SeriesId};
use tsad_parallel::with_threads;
use tsad_stream::DetectorFactory;
use tsad_wal::{recover, Wal, WalConfig, WalDir, WalError};

use crate::engine::{BatchLog, Engine, EngineConfig};

/// The engine's WAL hook: one append (and, per policy, one fsync) per
/// admitted batch, serialized by the WAL's own mutex. The engine already
/// holds the fleet lock when it calls this, so the lock order is always
/// fleet → WAL ([`checkpoint_now`] uses the same order).
impl<D: WalDir> BatchLog for Mutex<Wal<D>> {
    fn append(&self, batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
        let mut wal = self.lock().unwrap_or_else(|e| e.into_inner());
        wal.append(batch.iter().map(|&(id, v)| (id.0, v)))
    }

    /// Enforces the group-commit age bound while the server is idle and
    /// returns the next one ([`Wal::sync_deadline`]); a no-op under the
    /// other fsync policies. A failed sync poisons the log, which
    /// [`BatchLog::healthy`] and the next append report.
    fn tick(&self) -> Option<Instant> {
        let mut wal = self.lock().unwrap_or_else(|e| e.into_inner());
        let _ = wal.tick();
        wal.sync_deadline()
    }

    fn healthy(&self) -> bool {
        !self.lock().unwrap_or_else(|e| e.into_inner()).is_poisoned()
    }
}

/// An engine whose durability hook is a write-ahead log.
pub type DurableEngine<F, D> = Engine<F, Mutex<Wal<D>>>;

/// What [`recover_engine`] rebuilt.
pub struct RecoveredEngine<F: DetectorFactory, D: WalDir> {
    /// The serving engine, fleet state bitwise-equal to the uncrashed
    /// run over the recovered prefix, WAL resumed for appending.
    pub engine: DurableEngine<F, D>,
    /// Checkpoint sequence the fleet was restored from (`None`: replayed
    /// from an empty fleet).
    pub checkpoint_seq: Option<u64>,
    /// WAL-tail batches replayed on top of the checkpoint.
    pub replayed_batches: u64,
    /// What the WAL scan found and fixed (torn tail, dropped markers…).
    pub report: tsad_wal::RecoveryReport,
}

/// Scans the WAL in `dir`, rebuilds the fleet (checkpoint restore + tail
/// replay), and returns a serving engine resumed onto that log.
///
/// `wal_cfg`'s fingerprint is **always replaced** with
/// `factory.fingerprint()`: recovery must refuse a log recorded under a
/// different detector configuration, and letting callers pass a stale
/// fingerprint through would defeat exactly that check.
pub fn recover_engine<F, D>(
    dir: D,
    factory: F,
    mut wal_cfg: WalConfig,
    fleet_cfg: FleetConfig,
    engine_cfg: EngineConfig,
) -> tsad_wal::Result<RecoveredEngine<F, D>>
where
    F: DetectorFactory,
    F::Detector: Sync,
    D: WalDir,
{
    wal_cfg.fingerprint = factory.fingerprint();
    let rec = recover(&dir, &wal_cfg)?;

    let mut fleet = Fleet::new(factory, fleet_cfg);
    let checkpoint_seq = match &rec.checkpoint {
        Some((seq, payload)) => {
            // The marker passed the WAL digest, so a decode failure here
            // means the payload was written corrupt — refuse, precisely.
            let ckpt = FleetCheckpoint::from_bytes(payload).map_err(|e| ckpt_corrupt(*seq, &e))?;
            fleet.restore(&ckpt).map_err(|e| ckpt_corrupt(*seq, &e))?;
            Some(*seq)
        }
        None => None,
    };
    // replay on one thread, as `Engine::submit` applies batches; outside
    // `with_threads` every batch would fan out at the process default
    with_threads(1, || {
        let mut out = tsad_fleet::BatchOutput::new();
        let mut scratch: Vec<(SeriesId, f64)> = Vec::new();
        for batch in &rec.batches {
            scratch.clear();
            scratch.extend(batch.points.iter().map(|&(id, v)| (SeriesId(id), v)));
            fleet.push_batch(&scratch, &mut out);
        }
    });
    let replayed_batches = rec.batches.len() as u64;

    let wal = Wal::resume(dir, wal_cfg, &rec)?;
    Ok(RecoveredEngine {
        engine: Engine::with_log(fleet, engine_cfg, Mutex::new(wal)),
        checkpoint_seq,
        replayed_batches,
        report: rec.report,
    })
}

fn ckpt_corrupt(seq: u64, err: &impl std::fmt::Display) -> WalError {
    WalError::Corrupt {
        segment: format!("ckpt-{seq:020}.tsck"),
        offset: 0,
        detail: format!("fleet checkpoint payload refused: {err}"),
    }
}

/// One durable checkpoint: `(sequence, payload bytes, storage bytes
/// reclaimed by truncating covered segments)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// WAL sequence the checkpoint covers (the fleet's batch counter).
    pub seq: u64,
    /// Serialized fleet checkpoint size in bytes.
    pub payload_bytes: usize,
    /// Log bytes reclaimed (covered segments + stale markers deleted).
    pub reclaimed_bytes: u64,
}

/// Checkpoints the fleet into the WAL and truncates covered segments.
///
/// Runs under the fleet lock (then the WAL lock — same order as the
/// submit path), so the stored sequence is exactly the number of batches
/// both the fleet and the log have seen: recovery from this checkpoint
/// plus the WAL tail is bitwise-equal to full-log replay. Refused with an
/// error once a panicked batch has poisoned the fleet: its state may be
/// half-applied and must not be persisted.
pub fn checkpoint_now<F, D>(engine: &DurableEngine<F, D>) -> std::io::Result<CheckpointStats>
where
    F: DetectorFactory,
    F::Detector: Sync,
    D: WalDir,
{
    let fleet = engine
        .lock_fleet()
        .ok_or_else(|| std::io::Error::other("fleet poisoned by a panicked batch"))?;
    let seq = fleet.batches();
    let payload = fleet.checkpoint().to_bytes();
    let mut wal = engine.log().lock().unwrap_or_else(|e| e.into_inner());
    let reclaimed_bytes = wal.store_checkpoint(seq, &payload)?;
    Ok(CheckpointStats {
        seq,
        payload_bytes: payload.len(),
        reclaimed_bytes,
    })
}
