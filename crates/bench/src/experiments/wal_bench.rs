//! `wal` — durable-ingest cost and recovery fidelity (`BENCH_wal.json`).
//!
//! Measures what the write-ahead log charges the serving path under each
//! [`FsyncPolicy`] (append wall time, fsync count, bytes written,
//! allocations on the warm path) against real files, and proves the
//! recovery contract in the same document: a log with a deliberately torn
//! tail must recover to a **bitwise-identical** fleet state over the
//! surviving prefix. CI regenerates this document and gates it against
//! the committed `BENCH_wal.json` with `repro -- gate`: the
//! wall-time ratio is gated for the fsync-free policy only (fsync latency
//! is hardware, not code), while the allocation count and the recovery
//! booleans are exact contracts on every run.

use std::fmt::Write as _;
use std::sync::Mutex;

use tsad_faults::SplitMix64;
use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_stream::{FnFactory, StreamingGlobalZScore};
use tsad_wal::{recover, FsDir, FsyncPolicy, MemDir, Wal, WalConfig, WalDir};

use crate::alloc_track::{count_allocs, counting_allocator_active};

/// Workload shape for the WAL measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalBenchConfig {
    /// Batches appended per policy in the timed loop.
    pub batches: u64,
    /// Points per batch.
    pub batch_points: usize,
    /// Segment size for the timed loop (small enough to exercise
    /// rotation, large enough that appends dominate).
    pub segment_bytes: u64,
}

impl WalBenchConfig {
    /// The committed-baseline shape (what `BENCH_wal.json` holds).
    pub fn ci() -> Self {
        Self {
            batches: 2_000,
            batch_points: 64,
            segment_bytes: 1 << 20,
        }
    }

    /// A fast shape for tests.
    pub fn smoke() -> Self {
        Self {
            batches: 100,
            batch_points: 16,
            segment_bytes: 16 * 1024,
        }
    }
}

/// One fsync policy's measured costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRow {
    /// Policy label (`per-batch`, `group`, `off`).
    pub policy: &'static str,
    /// Mean append wall time per batch, nanoseconds.
    pub wall_ns_per_batch: u64,
    /// Points appended per second at that rate.
    pub points_per_sec: u64,
    /// fsync calls the whole run issued (appends + seals).
    pub fsyncs: u64,
    /// Bytes the log wrote (records + headers + seals).
    pub bytes_written: u64,
    /// Heap allocations per warm append window (contract: 0); `None`
    /// when the counting allocator is not installed in this process.
    pub allocs_per_batch: Option<u64>,
}

/// The recovery-fidelity half of the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCheck {
    /// Recovered fleet state is bitwise-equal to an uncrashed run over
    /// the surviving prefix.
    pub bitwise: bool,
    /// Batches the torn log still replays.
    pub replayed_batches: u64,
    /// Bytes recovery cut off the torn tail.
    pub truncated_bytes: u64,
    /// The scan reported the torn tail (repair, not refusal).
    pub torn_tail_truncated: bool,
}

/// Everything `BENCH_wal.json` holds.
#[derive(Debug, Clone)]
pub struct WalBench {
    /// Seed the workload values were generated from.
    pub seed: u64,
    /// Workload shape.
    pub cfg: WalBenchConfig,
    /// One row per fsync policy.
    pub rows: Vec<PolicyRow>,
    /// Torn-tail recovery fidelity.
    pub recovery: RecoveryCheck,
    /// `wal.*` observability counters recorded during the run.
    pub obs: tsad_obs::Snapshot,
}

/// Serializes runs within one process: the observability registry is
/// global (same pattern as the kernel, fleet, and ingest benches).
static RUN_LOCK: Mutex<()> = Mutex::new(());

const FP: &str = "wal-bench-zscore-w4";

type ZFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

fn spawn_z(_id: u64) -> StreamingGlobalZScore {
    StreamingGlobalZScore::new(4).expect("window >= 2")
}

fn factory() -> ZFactory {
    FnFactory(spawn_z as fn(u64) -> StreamingGlobalZScore)
}

fn new_fleet() -> Fleet<ZFactory> {
    Fleet::new(
        factory(),
        FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        },
    )
}

/// Deterministic workload batch `i` as raw `(id, value)` pairs.
fn batch(rng: &mut SplitMix64, points: usize) -> Vec<(u64, f64)> {
    (0..points as u64)
        .map(|j| (j % 257, rng.next_f64() * 4.0 - 2.0))
        .collect()
}

/// The three policies a row is measured for.
fn policies() -> [(&'static str, FsyncPolicy); 3] {
    [
        ("per-batch", FsyncPolicy::PerBatch),
        (
            "group",
            FsyncPolicy::GroupCommit {
                batches: 8,
                max_pending_micros: 500,
            },
        ),
        ("off", FsyncPolicy::Off),
    ]
}

/// A unique scratch directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tsad-wal-bench-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times one policy against real files and measures the warm append path.
fn measure_policy(
    seed: u64,
    cfg: &WalBenchConfig,
    label: &'static str,
    policy: FsyncPolicy,
) -> std::io::Result<PolicyRow> {
    let tmp = TempDir::new(label)?;
    let dir = FsDir::open(&tmp.0)?;
    let wal_cfg = WalConfig {
        segment_bytes: cfg.segment_bytes,
        policy,
        ..WalConfig::new(FP)
    };
    let mut wal = Wal::create(dir, wal_cfg).map_err(std::io::Error::other)?;
    let mut rng = SplitMix64::new(seed);

    // warm-up: scratch buffers grow to their high-water mark here
    for _ in 0..16 {
        let b = batch(&mut rng, cfg.batch_points);
        wal.append(b.iter().copied())?;
    }

    let t0 = std::time::Instant::now();
    for _ in 0..cfg.batches {
        let b = batch(&mut rng, cfg.batch_points);
        wal.append(b.iter().copied())?;
    }
    let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let wall_ns_per_batch = wall_ns / cfg.batches.max(1);
    let points = cfg.batches * cfg.batch_points as u64;
    let points_per_sec = if wall_ns == 0 {
        0
    } else {
        ((points as f64) * 1e9 / wall_ns as f64).round() as u64
    };

    // the allocation window: warm appends only (the batch itself is
    // built outside the counted closure; rotation is excluded by
    // measuring far fewer bytes than one segment holds)
    let allocs_per_batch = counting_allocator_active().then(|| {
        let b = batch(&mut rng, cfg.batch_points);
        count_allocs(|| {
            for _ in 0..8 {
                wal.append(b.iter().copied()).expect("warm append");
            }
        })
    });

    Ok(PolicyRow {
        policy: label,
        wall_ns_per_batch,
        points_per_sec,
        fsyncs: wal.fsyncs(),
        bytes_written: wal.bytes_written(),
        allocs_per_batch,
    })
}

/// Builds a log in memory, tears its tail mid-record, and checks that
/// recovery lands bitwise on an uncrashed prefix.
fn check_recovery(seed: u64, cfg: &WalBenchConfig) -> RecoveryCheck {
    let dir = MemDir::new();
    let wal_cfg = WalConfig {
        segment_bytes: 2048,
        ..WalConfig::new(FP)
    };
    let mut wal = Wal::create(dir.clone(), wal_cfg.clone()).expect("mem create");
    let mut rng = SplitMix64::new(seed);
    let n = 64u64;
    let points = cfg.batch_points.clamp(4, 64);

    // reference states: fleet checkpoint bytes after each prefix
    let mut refs = Vec::with_capacity(n as usize + 1);
    let mut fleet = new_fleet();
    let mut out = BatchOutput::new();
    refs.push(fleet.checkpoint().to_bytes());
    for _ in 0..n {
        let b = batch(&mut rng, points);
        wal.append(b.iter().copied()).expect("mem append");
        let converted: Vec<(SeriesId, f64)> = b.iter().map(|&(id, v)| (SeriesId(id), v)).collect();
        fleet.push_batch(&converted, &mut out);
        refs.push(fleet.checkpoint().to_bytes());
    }
    drop(wal);

    // tear the tail: cut 7 bytes off the last segment (always lands
    // inside the final record's digest trailer)
    let survivor = dir.survivor();
    let mut segs: Vec<String> = survivor
        .list()
        .expect("list")
        .into_iter()
        .filter(|f| f.starts_with("wal-"))
        .collect();
    segs.sort();
    let tail = segs.last().expect("at least one segment").clone();
    let mut bytes = survivor.file(&tail).expect("tail bytes");
    let cut = 7.min(bytes.len());
    bytes.truncate(bytes.len() - cut);
    survivor.put(&tail, bytes);

    let rec = match recover(&survivor, &wal_cfg) {
        Ok(rec) => rec,
        Err(_) => {
            return RecoveryCheck {
                bitwise: false,
                replayed_batches: 0,
                truncated_bytes: 0,
                torn_tail_truncated: false,
            }
        }
    };
    let mut fleet = new_fleet();
    for b in &rec.batches {
        let converted: Vec<(SeriesId, f64)> =
            b.points.iter().map(|&(id, v)| (SeriesId(id), v)).collect();
        fleet.push_batch(&converted, &mut out);
    }
    let replayed = rec.batches.len() as u64;
    let bitwise = replayed < n && fleet.checkpoint().to_bytes() == refs[replayed as usize];
    RecoveryCheck {
        bitwise,
        replayed_batches: replayed,
        truncated_bytes: rec.report.truncated_bytes,
        torn_tail_truncated: rec.report.torn_tail.is_some(),
    }
}

/// Runs the WAL measurement.
pub fn run(seed: u64, cfg: &WalBenchConfig) -> std::io::Result<WalBench> {
    let _serialize = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tsad_obs::reset_all();

    let mut rows = Vec::new();
    for (label, policy) in policies() {
        rows.push(measure_policy(seed, cfg, label, policy)?);
    }
    let recovery = check_recovery(seed, cfg);
    Ok(WalBench {
        seed,
        cfg: *cfg,
        rows,
        recovery,
        obs: tsad_obs::snapshot(),
    })
}

/// Renders the human-readable table (`repro -- wal`).
pub fn render(b: &WalBench) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WAL durability: {} batches x {} points, {} B segments (seed {})",
        b.cfg.batches, b.cfg.batch_points, b.cfg.segment_bytes, b.seed
    );
    let _ = writeln!(
        out,
        "{:<10} {:>16} {:>14} {:>8} {:>14} {:>12}",
        "policy", "ns/batch", "points/s", "fsyncs", "bytes", "allocs"
    );
    for r in &b.rows {
        let _ = writeln!(
            out,
            "{:<10} {:>16} {:>14} {:>8} {:>14} {:>12}",
            r.policy,
            r.wall_ns_per_batch,
            r.points_per_sec,
            r.fsyncs,
            r.bytes_written,
            r.allocs_per_batch
                .map_or_else(|| "not measured".to_string(), |a| a.to_string()),
        );
    }
    let _ = writeln!(
        out,
        "recovery: bitwise={} replayed={} truncated_bytes={} torn_tail={}",
        b.recovery.bitwise,
        b.recovery.replayed_batches,
        b.recovery.truncated_bytes,
        b.recovery.torn_tail_truncated
    );
    out
}

/// Renders the machine-readable document (`BENCH_wal.json`).
pub fn render_json(b: &WalBench) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tsad-bench-wal/v1\",");
    let _ = writeln!(out, "  \"seed\": {},", b.seed);
    let _ = writeln!(out, "  \"batches\": {},", b.cfg.batches);
    let _ = writeln!(out, "  \"batch_points\": {},", b.cfg.batch_points);
    let _ = writeln!(out, "  \"segment_bytes\": {},", b.cfg.segment_bytes);
    out.push_str("  \"policies\": [\n");
    for (i, r) in b.rows.iter().enumerate() {
        let allocs = r
            .allocs_per_batch
            .map_or_else(|| "null".to_string(), |a| a.to_string());
        let _ = writeln!(
            out,
            "    {{\"policy\": \"{}\", \"wall_ns_per_batch\": {}, \"points_per_sec\": {}, \
             \"fsyncs\": {}, \"bytes_written\": {}, \"allocs_per_batch\": {}}}{}",
            r.policy,
            r.wall_ns_per_batch,
            r.points_per_sec,
            r.fsyncs,
            r.bytes_written,
            allocs,
            if i + 1 < b.rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"recovery\": {{\"bitwise\": {}, \"replayed_batches\": {}, \"truncated_bytes\": {}, \
         \"torn_tail_truncated\": {}}},",
        b.recovery.bitwise,
        b.recovery.replayed_batches,
        b.recovery.truncated_bytes,
        b.recovery.torn_tail_truncated
    );
    let _ = writeln!(out, "  \"obs\": {}", tsad_obs::render_json(&b.obs, 2));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minijson::{parse, JsonValue};

    #[test]
    fn the_smoke_run_holds_the_durability_contracts() {
        let b = run(7, &WalBenchConfig::smoke()).expect("wal bench");
        assert_eq!(b.rows.len(), 3);
        // per-batch syncs at least once per append; off only on seals
        let per_batch = &b.rows[0];
        let off = &b.rows[2];
        assert!(per_batch.fsyncs >= b.cfg.batches);
        assert!(off.fsyncs < per_batch.fsyncs);
        assert!(per_batch.bytes_written > 0);
        // recovery fidelity is not optional
        assert!(b.recovery.bitwise);
        assert!(b.recovery.torn_tail_truncated);
        assert!(b.recovery.truncated_bytes > 0);
        assert!(b.recovery.replayed_batches > 0);
    }

    #[test]
    fn the_json_document_parses_with_the_expected_shape() {
        let b = run(7, &WalBenchConfig::smoke()).expect("wal bench");
        let doc = parse(&render_json(&b)).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("tsad-bench-wal/v1")
        );
        let rows = doc
            .get("policies")
            .and_then(JsonValue::as_arr)
            .expect("policies array");
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0].get("policy").and_then(JsonValue::as_str),
            Some("per-batch")
        );
        let rec = doc.get("recovery").expect("recovery object");
        assert_eq!(rec.get("bitwise").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            rec.get("torn_tail_truncated").and_then(JsonValue::as_bool),
            Some(true)
        );
        // without the counting allocator the alloc column is null, and
        // minijson must surface that as an absent u64
        assert_eq!(
            rows[0].get("allocs_per_batch").and_then(JsonValue::as_u64),
            None
        );
    }
}
