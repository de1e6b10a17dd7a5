//! `fleet` / `fleet-json` — the million-series fleet engine, end to end.
//!
//! Drives a [`tsad_fleet::Fleet`] of `Sanitized<StreamingCusum>` detectors
//! through batched multi-series ingestion and reports:
//!
//! * **Throughput** — median wall time per full round (one point to every
//!   series, delivered in `batch_points`-sized batches) at 1 thread and at
//!   [`PAR_THREADS`] threads, plus the derived aggregate points/second.
//! * **Steady-state allocations** — heap allocations of one warm round at
//!   a single effective thread with observability ON, counted by
//!   [`crate::alloc_track`] when the host binary installs it (the `repro`
//!   driver does; under `cargo test` the field is honestly `null`). The
//!   contract is **zero**: slab storage, reused batch buffers, and
//!   allocation-free detector pushes mean a resident fleet ingests without
//!   touching the allocator.
//! * **Suspend/resume** — the fleet is checkpointed (sharded TSCK
//!   segments + manifest), restored into a fresh fleet, and both are
//!   driven one further round: the scores must match **bitwise**, and the
//!   checkpoint bytes themselves must be identical when produced at 1
//!   thread and at [`PAR_THREADS`] threads.
//! * **Footprint** — accounted bytes per resident series and the total
//!   checkpoint size.
//!
//! `fleet-json` renders the same run as `BENCH_fleet.json` (schema
//! `tsad-bench-fleet/v2`), which CI gates via `repro -- gate`:
//! wall time relatively (like the kernel gate), allocations and the
//! bitwise bit exactly. Schema v2 adds the SIMD dispatch the run resolved
//! to — `"dispatch"` (the backend name) and `"lane_width"` (f64 lanes per
//! vector), both from [`tsad_core::simd::current`] at measure time — so a
//! wall-time drift on a machine that dispatched differently (or under a
//! `TSAD_SIMD` override) is attributable instead of mysterious.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use tsad_core::error::Result;
use tsad_detectors::cusum::Cusum;
use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_parallel::with_threads;
use tsad_stream::{FnFactory, NanPolicy, Sanitized, StreamingCusum, StreamingDetector};

use crate::alloc_track::{count_allocs, counting_allocator_active};

/// Thread count used for the parallel column (matches the kernel panel).
pub const PAR_THREADS: usize = 4;

/// Sizes for one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetBenchConfig {
    /// Number of distinct series in the fleet.
    pub series: u64,
    /// Shard count.
    pub shards: usize,
    /// Points per `push_batch` call.
    pub batch_points: usize,
    /// Warm-up rounds (detector calibration + buffer high-water marks)
    /// before anything is counted or timed.
    pub warm_rounds: usize,
    /// Timed rounds per thread count (median reported).
    pub iters: usize,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        // the acceptance-scale run: one million resident detectors
        Self {
            series: 1_000_000,
            shards: 64,
            batch_points: 65_536,
            warm_rounds: 10,
            iters: 3,
        }
    }
}

impl FleetBenchConfig {
    /// The CI-scale run backing the committed `BENCH_fleet.json` and the
    /// `fleet-smoke` job: large enough to exercise every shard, small
    /// enough for a debug-build runner.
    pub fn ci() -> Self {
        Self {
            series: 100_000,
            ..Self::default()
        }
    }

    /// A tiny configuration for debug-mode tests.
    pub fn smoke() -> Self {
        Self {
            series: 2_000,
            shards: 8,
            batch_points: 512,
            warm_rounds: 3,
            iters: 2,
        }
    }
}

/// One complete fleet measurement.
#[derive(Debug, Clone)]
pub struct FleetBench {
    /// Seed the point values were generated from.
    pub seed: u64,
    /// The configuration measured.
    pub cfg: FleetBenchConfig,
    /// Detector fingerprint (every series spawns this configuration).
    pub detector: String,
    /// Points fed per round (= `cfg.series`; values are always finite).
    pub points_per_round: u64,
    /// Median ns per round at 1 thread.
    pub median_ns_1t: u128,
    /// Median ns per round at [`PAR_THREADS`] threads.
    pub median_ns_nt: u128,
    /// Heap allocations in one warm single-threaded round, or `None` when
    /// the counting allocator is not installed in this process.
    pub steady_allocs: Option<u64>,
    /// Accounted bytes per resident series after the run.
    pub bytes_per_series: usize,
    /// Total checkpoint size (manifest + all segments).
    pub checkpoint_bytes: usize,
    /// Checkpoint bytes identical at 1 and [`PAR_THREADS`] threads, AND
    /// the restored fleet's next-round scores bitwise equal to the
    /// original's.
    pub suspend_resume_bitwise: bool,
    /// SIMD backend the run dispatched to (`avx2`, `sse2`, `neon`, or
    /// `scalar`), resolved at measure time via [`tsad_core::simd::current`].
    pub dispatch: &'static str,
    /// f64 lanes per vector of that backend.
    pub lane_width: usize,
    /// Observability snapshot covering the whole run.
    pub obs: tsad_obs::Snapshot,
}

impl FleetBench {
    /// Aggregate throughput at 1 thread, points per second.
    pub fn points_per_sec_1t(&self) -> f64 {
        points_per_sec(self.points_per_round, self.median_ns_1t)
    }

    /// Aggregate throughput at [`PAR_THREADS`] threads, points per second.
    pub fn points_per_sec_nt(&self) -> f64 {
        points_per_sec(self.points_per_round, self.median_ns_nt)
    }

    /// Steady-state allocations per ingested point, rounded up so any
    /// nonzero round count reads as a violation (`Some(0)` iff the round
    /// was allocation-free).
    pub fn allocs_per_point(&self) -> Option<u64> {
        self.steady_allocs
            .map(|a| a.div_ceil(self.points_per_round.max(1)))
    }
}

fn points_per_sec(points: u64, ns: u128) -> f64 {
    if ns == 0 {
        0.0
    } else {
        points as f64 * 1e9 / ns as f64
    }
}

type FleetDetector = Sanitized<StreamingCusum>;
type FleetFactory = FnFactory<fn(u64) -> FleetDetector>;

fn spawn_detector(_id: u64) -> FleetDetector {
    let cusum = StreamingCusum::new(Cusum::default(), 8).expect("valid CUSUM parameters");
    Sanitized::new(cusum, NanPolicy::Skip)
}

fn new_fleet(cfg: &FleetBenchConfig) -> Fleet<FleetFactory> {
    Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> FleetDetector),
        FleetConfig {
            shards: cfg.shards,
            ..FleetConfig::default()
        },
    )
}

/// Deterministic finite value for (series, round).
fn value(seed: u64, id: u64, round: u64) -> f64 {
    let mut x = seed
        .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % 4000) as f64 / 100.0 - 20.0
}

/// Feeds one point to every series, in `batch_points`-sized batches.
/// Returns the per-round score log as `(series, score bits)` pairs when
/// `log` is requested (the bitwise resume check needs it).
fn drive_round(
    fleet: &mut Fleet<FleetFactory>,
    cfg: &FleetBenchConfig,
    seed: u64,
    round: u64,
    batch: &mut Vec<(SeriesId, f64)>,
    out: &mut BatchOutput,
    mut log: Option<&mut Vec<(u64, u64)>>,
) {
    let mut id = 0u64;
    while id < cfg.series {
        batch.clear();
        let end = (id + cfg.batch_points as u64).min(cfg.series);
        for i in id..end {
            batch.push((SeriesId(i), value(seed, i, round)));
        }
        fleet.push_batch(batch, out);
        if let Some(log) = log.as_deref_mut() {
            for s in &out.scores {
                log.push((s.id.0, s.score.to_bits()));
            }
        }
        id = end;
    }
}

/// Serializes [`run`] calls within one process (the observability registry
/// is global; see `bench_json` for the same pattern).
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Runs the fleet measurement.
pub fn run(seed: u64, cfg: &FleetBenchConfig) -> Result<FleetBench> {
    let _serialize = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tsad_obs::reset_all();

    let mut fleet = new_fleet(cfg);
    let mut out = BatchOutput::new();
    let mut batch = Vec::with_capacity(cfg.batch_points);
    let mut round = 0u64;

    // warm-up: spawn every series, calibrate detectors, grow every
    // reusable buffer to its high-water mark
    for _ in 0..cfg.warm_rounds.max(1) {
        drive_round(&mut fleet, cfg, seed, round, &mut batch, &mut out, None);
        round += 1;
    }

    // steady-state allocation count, single-threaded, obs ON
    let steady_allocs = with_threads(1, || {
        drive_round(&mut fleet, cfg, seed, round, &mut batch, &mut out, None);
        round += 1;
        counting_allocator_active().then(|| {
            let allocs = count_allocs(|| {
                drive_round(&mut fleet, cfg, seed, round, &mut batch, &mut out, None);
            });
            round += 1;
            allocs
        })
    });

    // timing columns (medians over cfg.iters rounds each)
    let median_ns_1t = with_threads(1, || {
        median_round_ns(&mut fleet, cfg, seed, &mut round, &mut batch, &mut out)
    });
    let median_ns_nt = with_threads(PAR_THREADS, || {
        median_round_ns(&mut fleet, cfg, seed, &mut round, &mut batch, &mut out)
    });

    // suspend/resume: thread-count-invariant checkpoint bytes, then a
    // bitwise-identical continuation from the restored fleet
    let ckpt_1t = with_threads(1, || fleet.checkpoint());
    let ckpt_nt = with_threads(PAR_THREADS, || fleet.checkpoint());
    let mut resumed = new_fleet(cfg);
    let report = resumed.restore(&ckpt_1t)?;
    let mut log_a = Vec::new();
    let mut log_b = Vec::new();
    drive_round(
        &mut fleet,
        cfg,
        seed,
        round,
        &mut batch,
        &mut out,
        Some(&mut log_a),
    );
    drive_round(
        &mut resumed,
        cfg,
        seed,
        round,
        &mut batch,
        &mut out,
        Some(&mut log_b),
    );
    let suspend_resume_bitwise = ckpt_1t.to_bytes() == ckpt_nt.to_bytes()
        && report.series as u64 == cfg.series
        && report.evicted.is_empty()
        && !log_a.is_empty()
        && log_a == log_b;

    let backend = tsad_core::simd::current();
    Ok(FleetBench {
        seed,
        cfg: *cfg,
        detector: spawn_detector(0).name(),
        points_per_round: cfg.series,
        median_ns_1t,
        median_ns_nt,
        steady_allocs,
        bytes_per_series: fleet.bytes_per_series(),
        checkpoint_bytes: ckpt_1t.total_bytes(),
        suspend_resume_bitwise,
        dispatch: backend.name(),
        lane_width: backend.lane_width(),
        obs: tsad_obs::snapshot(),
    })
}

fn median_round_ns(
    fleet: &mut Fleet<FleetFactory>,
    cfg: &FleetBenchConfig,
    seed: u64,
    round: &mut u64,
    batch: &mut Vec<(SeriesId, f64)>,
    out: &mut BatchOutput,
) -> u128 {
    let mut samples: Vec<u128> = (0..cfg.iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            drive_round(fleet, cfg, seed, *round, batch, out, None);
            *round += 1;
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Renders the human-readable report for `repro -- fleet`.
pub fn render(b: &FleetBench) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet: {} series x {} shards, {} detector",
        b.cfg.series, b.cfg.shards, b.detector
    );
    let _ = writeln!(
        out,
        "  dispatch:   {} ({} f64 lanes)",
        b.dispatch, b.lane_width
    );
    let _ = writeln!(
        out,
        "  ingest:     {:>12.0} points/s at 1 thread ({} ns/round)",
        b.points_per_sec_1t(),
        b.median_ns_1t
    );
    let _ = writeln!(
        out,
        "              {:>12.0} points/s at {} threads ({} ns/round)",
        b.points_per_sec_nt(),
        PAR_THREADS,
        b.median_ns_nt
    );
    let _ = writeln!(
        out,
        "  steady-state allocations/round: {}",
        b.steady_allocs
            .map_or_else(|| "not measured".to_string(), |a| a.to_string())
    );
    let _ = writeln!(out, "  bytes/series (accounted): {}", b.bytes_per_series);
    let _ = writeln!(
        out,
        "  checkpoint: {} bytes across {} shard segments",
        b.checkpoint_bytes, b.cfg.shards
    );
    let _ = writeln!(
        out,
        "  suspend/resume bitwise (1 vs {} threads): {}",
        PAR_THREADS,
        if b.suspend_resume_bitwise {
            "PASS"
        } else {
            "FAIL"
        }
    );
    out
}

/// Renders the machine-readable document (`BENCH_fleet.json`).
pub fn render_json(b: &FleetBench) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tsad-bench-fleet/v2\",");
    let _ = writeln!(out, "  \"seed\": {},", b.seed);
    let _ = writeln!(out, "  \"series\": {},", b.cfg.series);
    let _ = writeln!(out, "  \"shards\": {},", b.cfg.shards);
    let _ = writeln!(out, "  \"dispatch\": \"{}\",", b.dispatch);
    let _ = writeln!(out, "  \"lane_width\": {},", b.lane_width);
    let _ = writeln!(out, "  \"batch_points\": {},", b.cfg.batch_points);
    let _ = writeln!(out, "  \"threads\": {PAR_THREADS},");
    let _ = writeln!(
        out,
        "  \"host_threads\": {},",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let _ = writeln!(out, "  \"detector\": \"{}\",", b.detector);
    let _ = writeln!(out, "  \"points_per_round\": {},", b.points_per_round);
    let _ = writeln!(
        out,
        "  \"median_ns_per_round_1_thread\": {},",
        b.median_ns_1t
    );
    let _ = writeln!(
        out,
        "  \"median_ns_per_round_{PAR_THREADS}_threads\": {},",
        b.median_ns_nt
    );
    let _ = writeln!(
        out,
        "  \"points_per_sec_1_thread\": {:.0},",
        b.points_per_sec_1t()
    );
    let _ = writeln!(
        out,
        "  \"points_per_sec_{PAR_THREADS}_threads\": {:.0},",
        b.points_per_sec_nt()
    );
    match b.steady_allocs {
        Some(n) => {
            let _ = writeln!(out, "  \"steady_state_allocs\": {n},");
        }
        None => out.push_str("  \"steady_state_allocs\": null,\n"),
    }
    match b.allocs_per_point() {
        Some(n) => {
            let _ = writeln!(out, "  \"allocs_per_point\": {n},");
        }
        None => out.push_str("  \"allocs_per_point\": null,\n"),
    }
    let _ = writeln!(out, "  \"bytes_per_series\": {},", b.bytes_per_series);
    let _ = writeln!(out, "  \"checkpoint_bytes\": {},", b.checkpoint_bytes);
    let _ = writeln!(
        out,
        "  \"suspend_resume_bitwise\": {},",
        b.suspend_resume_bitwise
    );
    let _ = writeln!(out, "  \"obs\": {}", tsad_obs::render_json(&b.obs, 2));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_and_resumes_bitwise() {
        let b = run(42, &FleetBenchConfig::smoke()).unwrap();
        assert_eq!(b.points_per_round, 2_000);
        assert!(b.median_ns_1t > 0 && b.median_ns_nt > 0);
        assert!(b.points_per_sec_1t() > 0.0);
        assert!(b.bytes_per_series > 0);
        assert!(b.checkpoint_bytes > 0);
        assert!(b.suspend_resume_bitwise, "resume diverged");
        // library tests run under the system allocator: honestly unmeasured
        assert_eq!(b.steady_allocs, None);
        assert_eq!(b.allocs_per_point(), None);
    }

    #[test]
    fn smoke_json_is_wellformed_and_parses() {
        let b = run(42, &FleetBenchConfig::smoke()).unwrap();
        let json = render_json(&b);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let doc = crate::minijson::parse(&json).expect("fleet json parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("tsad-bench-fleet/v2")
        );
        assert_eq!(
            doc.get("dispatch").and_then(|v| v.as_str()),
            Some(tsad_core::simd::current().name())
        );
        assert_eq!(
            doc.get("lane_width").and_then(|v| v.as_u64()),
            Some(tsad_core::simd::current().lane_width() as u64)
        );
        assert_eq!(
            doc.get("suspend_resume_bitwise").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert!(doc
            .get("median_ns_per_round_1_thread")
            .and_then(|v| v.as_u64())
            .is_some());
        assert!(json.contains("\"allocs_per_point\": null"));
        assert!(!json.contains(",\n}"));
        let human = render(&b);
        assert!(human.contains("points/s"));
        assert!(human.contains("PASS"));
    }

    #[test]
    fn forced_scalar_reports_scalar_dispatch() {
        use tsad_core::simd::{self, Backend};
        let b = simd::with_backend(Backend::Scalar, || {
            run(11, &FleetBenchConfig::smoke()).unwrap()
        });
        assert_eq!(b.dispatch, "scalar");
        assert_eq!(b.lane_width, 1);
    }

    #[test]
    fn allocs_per_point_rounds_up_violations() {
        let b = run(7, &FleetBenchConfig::smoke()).unwrap();
        let mut with_allocs = b.clone();
        with_allocs.steady_allocs = Some(0);
        assert_eq!(with_allocs.allocs_per_point(), Some(0));
        with_allocs.steady_allocs = Some(1); // 1 alloc over 2000 points
        assert_eq!(with_allocs.allocs_per_point(), Some(1), "must not hide");
    }
}
