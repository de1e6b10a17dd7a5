//! `ingest-json` / `loadgen` — the wire-protocol front-end, measured.
//!
//! Three views of the same serving path, reported as `BENCH_ingest.json`
//! (schema `tsad-bench-ingest/v1`) and gated by `repro -- gate`:
//!
//! * **Per-stage latency** — a warm in-memory [`Conn`] is fed pre-rendered
//!   HTTP requests (no sockets, no scheduler) and the crate's own stage
//!   histograms (`parse`, `route`, `push`, `respond`, `request`,
//!   `overhead`) are read back via [`tsad_ingest::stage_stats`]. The
//!   gate compares each p99 **absolutely** against the crate's budgets
//!   ([`tsad_ingest::BUDGET_PARSE_NS`] and friends): these are contracts,
//!   not baselines, so a regression cannot be grandfathered in by
//!   regenerating the committed document.
//! * **Steady-state allocations** — heap allocations across warm requests
//!   with observability ON, counted by [`crate::alloc_track`] when the
//!   host binary installs it (`repro` does; under `cargo test` the field
//!   is honestly `null`). The contract is **zero** per request: reused
//!   connection buffers mean a warm request path never touches the
//!   allocator.
//! * **Loopback throughput** — a real server on `127.0.0.1:0` driven by
//!   the built-in load generator over both transports; requests/second is
//!   gated relatively with a wide margin (socket numbers are noisy) and
//!   errors exactly to zero.
//!
//! The raw-fleet column (`raw_push_ns_per_batch`) times `push_batch`
//! directly on an equally warmed fleet, so the `overhead` stage — request
//! minus push — can be read against what the fleet alone costs.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tsad_core::error::Result;
use tsad_detectors::cusum::Cusum;
use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
use tsad_ingest::loadgen::{LoadGenConfig, LoadReport, Transport};
use tsad_ingest::{Conn, ConnConfig, Engine, EngineConfig, ServerConfig, StageStats};
use tsad_parallel::with_threads;
use tsad_stream::{FnFactory, NanPolicy, Sanitized, StreamingCusum, StreamingDetector};

use crate::alloc_track::{count_allocs, counting_allocator_active};

/// Sizes for one ingest measurement.
#[derive(Debug, Clone, Copy)]
pub struct IngestBenchConfig {
    /// Series-id space the generated points cycle through.
    pub series: u64,
    /// Points per request.
    pub batch_points: usize,
    /// Warm-up requests (detector calibration + buffer high-water marks)
    /// before anything is counted or timed.
    pub warm_requests: usize,
    /// Measured in-memory requests (the stage histograms cover these).
    pub requests: usize,
    /// Requests per transport for the loopback loadgen phase.
    pub loadgen_requests: u64,
    /// Loadgen client connections.
    pub conns: usize,
    /// Multiplier applied to the latency budgets the document carries.
    /// `1` is the real contract (release builds — the `ingest-smoke` CI
    /// job); [`Self::smoke`] widens it so debug-build tests exercise the
    /// gating machinery without asserting release-grade latency.
    pub budget_scale: u64,
}

impl Default for IngestBenchConfig {
    fn default() -> Self {
        Self {
            series: 4_096,
            // 32 points keeps per-request text parse comfortably inside
            // the 5 μs p99 budget; larger bodies amortize better but sit
            // on the budget's histogram-bucket boundary.
            batch_points: 32,
            warm_requests: 512,
            requests: 2_048,
            loadgen_requests: 2_000,
            conns: 4,
            budget_scale: 1,
        }
    }
}

impl IngestBenchConfig {
    /// The configuration backing the committed `BENCH_ingest.json` and the
    /// `ingest-smoke` CI job (currently the default).
    pub fn ci() -> Self {
        Self::default()
    }

    /// A tiny configuration for debug-mode tests. The budgets are widened
    /// (`budget_scale`): per-stage latency is a release-build contract,
    /// and a debug build misses it by an order of magnitude for reasons
    /// the gate is not meant to catch.
    pub fn smoke() -> Self {
        Self {
            series: 256,
            batch_points: 16,
            warm_requests: 32,
            requests: 128,
            loadgen_requests: 60,
            conns: 2,
            budget_scale: 1_000,
        }
    }
}

/// One complete ingest measurement.
#[derive(Debug, Clone)]
pub struct IngestBench {
    /// Seed the point values were generated from.
    pub seed: u64,
    /// The configuration measured.
    pub cfg: IngestBenchConfig,
    /// Detector fingerprint (every series spawns this configuration).
    pub detector: String,
    /// SIMD backend the run dispatched to.
    pub dispatch: &'static str,
    /// f64 lanes per vector of that backend.
    pub lane_width: usize,
    /// Median ns per `push_batch` of one request's points on a raw fleet
    /// (no protocol, no server) at 1 thread.
    pub raw_push_ns: u64,
    /// Stage quantiles over the measured in-memory requests.
    pub stages: Vec<StageStats>,
    /// Heap allocations across [`Self::alloc_requests`] warm requests, or
    /// `None` when the counting allocator is not installed.
    pub steady_allocs: Option<u64>,
    /// Requests the allocation count covers.
    pub alloc_requests: u64,
    /// Loopback loadgen results per transport.
    pub loadgen: Vec<(Transport, LoadReport)>,
    /// Observability snapshot covering the whole run.
    pub obs: tsad_obs::Snapshot,
}

impl IngestBench {
    /// Steady-state allocations per request, rounded up so any nonzero
    /// count over the window reads as a violation.
    pub fn allocs_per_request(&self) -> Option<u64> {
        self.steady_allocs
            .map(|a| a.div_ceil(self.alloc_requests.max(1)))
    }
}

type IngestDetector = Sanitized<StreamingCusum>;
type IngestFactory = FnFactory<fn(u64) -> IngestDetector>;

fn spawn_detector(_id: u64) -> IngestDetector {
    let cusum = StreamingCusum::new(Cusum::default(), 8).expect("valid CUSUM parameters");
    Sanitized::new(cusum, NanPolicy::Skip)
}

fn new_engine(cfg: &IngestBenchConfig) -> Engine<IngestFactory> {
    let shards = (cfg.series / 1024).clamp(4, 64) as usize;
    let fleet = Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> IngestDetector),
        FleetConfig {
            shards,
            ..FleetConfig::default()
        },
    );
    Engine::new(fleet, EngineConfig::default())
}

/// Deterministic finite value for (series, round) — same construction as
/// the fleet bench, so raw-fleet and through-the-wire runs see identical
/// data shapes.
fn value(seed: u64, id: u64, round: u64) -> f64 {
    let mut x = seed
        .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % 4000) as f64 / 100.0 - 20.0
}

/// Fills `batch` with request `round`'s points (ids cycle the series
/// space).
fn fill_batch(cfg: &IngestBenchConfig, seed: u64, round: u64, batch: &mut Vec<(SeriesId, f64)>) {
    batch.clear();
    let base = round * cfg.batch_points as u64;
    for i in 0..cfg.batch_points as u64 {
        let id = (base + i) % cfg.series;
        batch.push((SeriesId(id), value(seed, id, round)));
    }
}

/// Renders request `round` as a complete HTTP/1.1 `POST /ingest` into
/// `out` (cleared first).
fn render_request(
    cfg: &IngestBenchConfig,
    seed: u64,
    round: u64,
    batch: &mut Vec<(SeriesId, f64)>,
    body: &mut String,
    out: &mut Vec<u8>,
) {
    fill_batch(cfg, seed, round, batch);
    body.clear();
    for (id, v) in batch.iter() {
        let _ = writeln!(body, "{} {}", id.0, v);
    }
    out.clear();
    {
        use std::io::Write as _;
        let _ = write!(
            out,
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
    }
    out.extend_from_slice(body.as_bytes());
}

/// Feeds one pre-rendered request and asserts a 200; the response bytes
/// are consumed in place so the connection buffers stay warm.
fn feed_request(conn: &mut Conn, engine: &Engine<IngestFactory>, request: &[u8]) {
    conn.feed(request, engine);
    debug_assert!(
        conn.output().starts_with(b"HTTP/1.1 200"),
        "unexpected response: {}",
        String::from_utf8_lossy(conn.output())
    );
    let n = conn.output().len();
    conn.consume_output(n);
}

/// Parsed `repro -- loadgen` options.
#[derive(Debug, Clone, Default)]
pub struct LoadGenCli {
    /// Drive an already-running server at this address instead of
    /// self-hosting one on a loopback port.
    pub addr: Option<String>,
    /// The load shape (the CLI seed overrides `cfg.seed`).
    pub cfg: LoadGenConfig,
}

/// Renders one loadgen report for the CLI.
pub fn render_loadgen(transport: Transport, r: &LoadReport) -> String {
    format!(
        "loadgen {}: {:.0} req/s, {:.0} points/s\n  \
         latency p50 {} ns, p95 {} ns, p99 {} ns, max {} ns\n  \
         {} ok, {} retried, {} backoff resends, {} errors in {:.2}s\n",
        transport.name(),
        r.rps(),
        r.points_per_sec(),
        r.p50_ns,
        r.p95_ns,
        r.p99_ns,
        r.max_ns,
        r.requests,
        r.retried,
        r.retries,
        r.errors,
        r.elapsed_ns as f64 / 1e9
    )
}

/// Runs the load generator for `repro -- loadgen`, self-hosting a loopback
/// server (default engine, default detector) when no `--addr` was given.
pub fn run_loadgen(cli: &LoadGenCli, seed: u64) -> std::result::Result<String, String> {
    use std::net::ToSocketAddrs;
    let cfg = LoadGenConfig { seed, ..cli.cfg };
    let (addr, server) = match &cli.addr {
        Some(a) => {
            let addr = a
                .to_socket_addrs()
                .map_err(|e| format!("bad --addr {a}: {e}"))?
                .next()
                .ok_or_else(|| format!("--addr {a} resolved to no address"))?;
            (addr, None)
        }
        None => {
            let engine = Arc::new(new_engine(&IngestBenchConfig::default()));
            let handle = tsad_ingest::start(engine, ServerConfig::default(), "127.0.0.1:0")
                .map_err(|e| format!("cannot self-host a loopback server: {e}"))?;
            (handle.addr(), Some(handle))
        }
    };
    let report = tsad_ingest::loadgen::run(addr, &cfg);
    if let Some(handle) = server {
        handle
            .stop()
            .map_err(|e| format!("server shutdown failed: {e}"))?;
    }
    Ok(render_loadgen(cfg.transport, &report))
}

/// Serializes [`run`] calls within one process (the observability registry
/// is global; same pattern as the kernel and fleet benches).
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Runs the ingest measurement.
pub fn run(seed: u64, cfg: &IngestBenchConfig) -> Result<IngestBench> {
    let _serialize = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tsad_obs::reset_all();

    let engine = new_engine(cfg);
    let mut conn = Conn::new(ConnConfig::default());
    let mut batch = Vec::with_capacity(cfg.batch_points);
    let mut body = String::with_capacity(cfg.batch_points * 32);
    let mut request = Vec::with_capacity(cfg.batch_points * 32 + 128);
    let mut round = 0u64;

    // warm-up: spawn every series, calibrate detectors, grow every
    // reusable buffer (connection and fleet) to its high-water mark
    for _ in 0..cfg.warm_requests.max(1) {
        render_request(cfg, seed, round, &mut batch, &mut body, &mut request);
        feed_request(&mut conn, &engine, &request);
        round += 1;
    }

    // steady-state allocation count with obs ON: requests are rendered
    // *before* counting so only the server-side path is measured
    let alloc_requests = 64u64.min(cfg.requests as u64).max(1);
    let rendered: Vec<Vec<u8>> = (0..alloc_requests)
        .map(|i| {
            render_request(cfg, seed, round + i, &mut batch, &mut body, &mut request);
            request.clone()
        })
        .collect();
    let steady_allocs = counting_allocator_active().then(|| {
        count_allocs(|| {
            for req in &rendered {
                feed_request(&mut conn, &engine, req);
            }
        })
    });
    round += alloc_requests;

    // measured window: reset the histograms so the stage quantiles cover
    // exactly these requests, none of the warm-up
    tsad_obs::reset_all();
    for _ in 0..cfg.requests.max(1) {
        render_request(cfg, seed, round, &mut batch, &mut body, &mut request);
        feed_request(&mut conn, &engine, &request);
        round += 1;
    }
    let stages = tsad_ingest::stage_stats();

    // raw-fleet baseline: the same batches pushed straight into an equally
    // warmed fleet, no protocol in the way
    let raw_push_ns = with_threads(1, || {
        let mut fleet = Fleet::new(
            FnFactory(spawn_detector as fn(u64) -> IngestDetector),
            FleetConfig {
                shards: (cfg.series / 1024).clamp(4, 64) as usize,
                ..FleetConfig::default()
            },
        );
        let mut out = BatchOutput::new();
        for r in 0..(cfg.warm_requests.max(1) as u64) {
            fill_batch(cfg, seed, r, &mut batch);
            fleet.push_batch(&batch, &mut out);
        }
        let mut samples: Vec<u64> = (0..cfg.requests.max(1) as u64)
            .map(|r| {
                fill_batch(cfg, seed, r + cfg.warm_requests as u64, &mut batch);
                let t0 = Instant::now();
                fleet.push_batch(&batch, &mut out);
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    });

    // loopback throughput: a real server, both transports, fresh engine so
    // loadgen traffic does not sit on the in-memory engine's series
    let server_engine = Arc::new(new_engine(cfg));
    // a failed loopback bind is a broken environment, not a measurement
    let handle = tsad_ingest::start(
        Arc::clone(&server_engine),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut loadgen = Vec::new();
    for transport in [Transport::Http, Transport::Tcp] {
        let report = tsad_ingest::loadgen::run(
            handle.addr(),
            &LoadGenConfig {
                series: cfg.series,
                conns: cfg.conns,
                batch_points: cfg.batch_points,
                requests: cfg.loadgen_requests,
                transport,
                seed,
                ..LoadGenConfig::default()
            },
        );
        loadgen.push((transport, report));
    }
    handle.stop().expect("clean shutdown");

    let backend = tsad_core::simd::current();
    Ok(IngestBench {
        seed,
        cfg: *cfg,
        detector: spawn_detector(0).name(),
        dispatch: backend.name(),
        lane_width: backend.lane_width(),
        raw_push_ns,
        stages,
        steady_allocs,
        alloc_requests,
        loadgen,
        obs: tsad_obs::snapshot(),
    })
}

/// Renders the human-readable report for `repro -- ingest-json` (and the
/// tail of `repro -- loadgen`).
pub fn render(b: &IngestBench) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ingest: {} pts/request over {} series, {} detector, dispatch {} ({} lanes)",
        b.cfg.batch_points, b.cfg.series, b.detector, b.dispatch, b.lane_width
    );
    let _ = writeln!(
        out,
        "  raw fleet push_batch: {} ns/batch (median, 1 thread)",
        b.raw_push_ns
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50 ns", "p95 ns", "p99 ns", "max ns"
    );
    for s in &b.stages {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            s.stage, s.count, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns
        );
    }
    let _ = writeln!(
        out,
        "  allocations/request (warm, obs on): {}",
        b.allocs_per_request()
            .map_or_else(|| "not measured".to_string(), |a| a.to_string())
    );
    for (transport, r) in &b.loadgen {
        let _ = writeln!(
            out,
            "  loadgen {:<5} {:>8.0} req/s  {:>12.0} pts/s  p99 {} ns  \
             ({} ok, {} retried, {} resends, {} errors)",
            transport.name(),
            r.rps(),
            r.points_per_sec(),
            r.p99_ns,
            r.requests,
            r.retried,
            r.retries,
            r.errors
        );
    }
    out
}

/// Renders the machine-readable document (`BENCH_ingest.json`).
pub fn render_json(b: &IngestBench) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tsad-bench-ingest/v1\",");
    let _ = writeln!(out, "  \"seed\": {},", b.seed);
    let _ = writeln!(out, "  \"series\": {},", b.cfg.series);
    let _ = writeln!(out, "  \"batch_points\": {},", b.cfg.batch_points);
    let _ = writeln!(out, "  \"requests\": {},", b.cfg.requests);
    // The *effective* worker count (TSAD_THREADS-aware): loopback rps
    // is only gateable against a baseline with the same worker count.
    let _ = writeln!(
        out,
        "  \"host_threads\": {},",
        tsad_parallel::current_threads()
    );
    let _ = writeln!(out, "  \"detector\": \"{}\",", b.detector);
    let _ = writeln!(out, "  \"dispatch\": \"{}\",", b.dispatch);
    let _ = writeln!(out, "  \"lane_width\": {},", b.lane_width);
    let _ = writeln!(
        out,
        "  \"budget_parse_ns\": {},",
        tsad_ingest::BUDGET_PARSE_NS * b.cfg.budget_scale
    );
    let _ = writeln!(
        out,
        "  \"budget_route_ns\": {},",
        tsad_ingest::BUDGET_ROUTE_NS * b.cfg.budget_scale
    );
    let _ = writeln!(
        out,
        "  \"budget_overhead_ns\": {},",
        tsad_ingest::BUDGET_OVERHEAD_NS * b.cfg.budget_scale
    );
    let _ = writeln!(out, "  \"raw_push_ns_per_batch\": {},", b.raw_push_ns);
    out.push_str("  \"stages\": [\n");
    for (i, s) in b.stages.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"stage\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}}{}",
            s.stage,
            s.count,
            s.p50_ns,
            s.p95_ns,
            s.p99_ns,
            s.max_ns,
            if i + 1 < b.stages.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    match b.steady_allocs {
        Some(n) => {
            let _ = writeln!(out, "  \"steady_state_allocs\": {n},");
        }
        None => out.push_str("  \"steady_state_allocs\": null,\n"),
    }
    let _ = writeln!(out, "  \"alloc_requests\": {},", b.alloc_requests);
    match b.allocs_per_request() {
        Some(n) => {
            let _ = writeln!(out, "  \"allocs_per_request\": {n},");
        }
        None => out.push_str("  \"allocs_per_request\": null,\n"),
    }
    out.push_str("  \"loadgen\": [\n");
    for (i, (transport, r)) in b.loadgen.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"transport\": \"{}\", \"requests\": {}, \"retried\": {}, \"retries\": {}, \
             \"errors\": {}, \"points\": {}, \"rps\": {}, \"points_per_sec\": {}, \"p50_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}}{}",
            transport.name(),
            r.requests,
            r.retried,
            r.retries,
            r.errors,
            r.points,
            r.rps().round() as u64,
            r.points_per_sec().round() as u64,
            r.p50_ns,
            r.p99_ns,
            r.max_ns,
            if i + 1 < b.loadgen.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"obs\": {}", tsad_obs::render_json(&b.obs, 2));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_measures_every_stage_and_both_transports() {
        let b = run(42, &IngestBenchConfig::smoke()).unwrap();
        assert_eq!(b.stages.len(), 6);
        for s in &b.stages {
            assert_eq!(s.count, 128, "{}", s.stage);
            assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns, "{}", s.stage);
        }
        assert!(b.raw_push_ns > 0);
        assert_eq!(b.loadgen.len(), 2);
        for (t, r) in &b.loadgen {
            assert_eq!(r.errors, 0, "{t:?}: {r:?}");
            assert_eq!(r.requests, 60, "{t:?}: {r:?}");
        }
        // library tests run under the system allocator: honestly unmeasured
        assert_eq!(b.steady_allocs, None);
        assert_eq!(b.allocs_per_request(), None);
    }

    #[test]
    fn smoke_json_is_wellformed_and_parses() {
        let b = run(42, &IngestBenchConfig::smoke()).unwrap();
        let json = render_json(&b);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let doc = crate::minijson::parse(&json).expect("ingest json parses");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("tsad-bench-ingest/v1")
        );
        let stages = doc.get("stages").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(stages.len(), 6);
        let loadgen = doc.get("loadgen").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(loadgen.len(), 2);
        assert!(json.contains("\"allocs_per_request\": null"));
        assert!(!json.contains(",\n}"));
        let human = render(&b);
        assert!(human.contains("loadgen http"));
        assert!(human.contains("parse"));
    }

    #[test]
    fn allocs_per_request_rounds_up_violations() {
        let b = run(7, &IngestBenchConfig::smoke()).unwrap();
        let mut forged = b.clone();
        forged.steady_allocs = Some(0);
        assert_eq!(forged.allocs_per_request(), Some(0));
        forged.steady_allocs = Some(1); // 1 alloc over the whole window
        assert_eq!(forged.allocs_per_request(), Some(1), "must not hide");
    }
}
