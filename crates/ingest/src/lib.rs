//! # tsad-ingest — the wire in front of the fleet
//!
//! `tsad-fleet` ingests millions of series, but until this crate nothing
//! could *reach* it without linking the workspace: end-to-end ingest
//! latency was unmeasured and ungated — exactly the "illusion of
//! progress" failure mode the source paper documents for benchmarks,
//! applied to our own serving path. This crate is the dependency-free
//! front-end:
//!
//! * **Two transports, one port.** A minimal HTTP/1.1 server (incremental
//!   request parsing, keep-alive, bounded head/body) and a length-prefixed
//!   binary framing for bulk batches. The first byte of a connection
//!   selects the protocol: [`frame::FRAME_MAGIC`] (`0xB5`) is not a valid
//!   HTTP method byte, so sniffing is unambiguous.
//! * **Sans-IO core.** All protocol logic lives in [`Conn::feed`]: bytes
//!   in, response bytes out, no sockets. The socket layer just shovels.
//!   That is what makes the request path testable byte-by-byte (slowloris
//!   is "feed one byte at a time"), fuzzable without a network, and
//!   alloc-countable in isolation. Each request runs decode → handle →
//!   encode: each transport decodes its framing into one request, one
//!   handler answers it for both (the only [`Engine::submit`] call, and
//!   the one place `ingest.requests`/`ingest.errors` move; a 503/`RETRY`
//!   is never an error), and a writer per transport encodes the outcome.
//!   HTTP closes on 400/413/500, after a fatal parse error and on
//!   `Connection: close`; binary closes on every `ERROR` frame.
//! * **Thread-per-core accept/worker loop.** [`server::serve`] sizes its
//!   worker set from [`tsad_parallel::current_threads`] (so `TSAD_THREADS`
//!   governs the server like every other subsystem) and runs one
//!   accept+poll loop per worker over scoped threads. Workers never block
//!   on a single connection, so a hostile dribbling client cannot stall
//!   the accept loop.
//! * **Zero-allocation steady state.** Every connection owns reusable
//!   input/output/batch buffers that grow to their high-water mark and
//!   stay; warm request handling performs **zero heap allocations** with
//!   observability ON (gated by `crates/bench/tests/ingest_gates.rs` and
//!   the committed `BENCH_ingest.json`).
//! * **Backpressure, not queues.** [`Engine`] caps in-flight points; a
//!   request over the cap is answered `503` (HTTP) or a `RETRY` frame
//!   (binary) immediately instead of queueing unboundedly.
//! * **Per-stage latency budgets.** Each request is timed through parse →
//!   route → push → respond stages into `ingest.*` histograms, and the
//!   budgets ([`BUDGET_PARSE_NS`], [`BUDGET_ROUTE_NS`],
//!   [`BUDGET_OVERHEAD_NS`]) are enforced in CI by
//!   `repro -- gate` against the committed `BENCH_ingest.json`.
//!
//! ## Stage semantics
//!
//! | stage     | histogram            | covers                                             | budget (p99) |
//! |-----------|----------------------|----------------------------------------------------|--------------|
//! | parse     | `ingest.parse_ns`    | head/frame parse + body decode into the batch      | < 5 µs       |
//! | route     | `ingest.route_ns`    | batch admission; other requests' handler           | < 10 µs      |
//! | push      | `ingest.push_ns`     | fleet lock + [`tsad_fleet::Fleet::push_batch`]     | (fleet time) |
//! | respond   | `ingest.respond_ns`  | formatting the response bytes                      | —            |
//! | request   | `ingest.request_ns`  | everything above for one request                   | —            |
//! | overhead  | `ingest.overhead_ns` | `request − push`: what the wire adds over the raw fleet | < 100 µs |
//!
//! Budgets are checked against histogram p99 values, which are log2
//! bucket upper bounds — [`budget_bound`] maps a budget to the bucket
//! bound that contains it, so the gate is exact and portable.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use tsad_fleet::{Fleet, FleetConfig};
//! use tsad_ingest::{Engine, EngineConfig, ServerConfig};
//! use tsad_stream::{FnFactory, StreamingGlobalZScore};
//!
//! let factory = FnFactory(|_id| StreamingGlobalZScore::new(8).unwrap());
//! let fleet = Fleet::new(factory, FleetConfig::default());
//! let engine = Arc::new(Engine::new(fleet, EngineConfig::default()));
//! let server = tsad_ingest::start(engine, ServerConfig::default(), "127.0.0.1:0").unwrap();
//! println!("listening on {}", server.addr());
//! // ... drive it with tsad_ingest::loadgen, curl, or the binary framing ...
//! server.stop().unwrap();
//! ```

pub mod conn;
pub mod durable;
pub mod engine;
pub mod frame;
pub mod http;
pub mod loadgen;
pub mod server;

pub use conn::{Conn, ConnConfig};
pub use durable::{
    checkpoint_now, recover_engine, CheckpointStats, DurableEngine, RecoveredEngine,
};
pub use engine::{BatchLog, Engine, EngineConfig, EngineTotals, NoLog, SubmitError};
pub use loadgen::{LoadGenConfig, LoadReport, Transport};
pub use server::{serve, start, ServerConfig, ServerHandle, Shutdown};

use tsad_obs::{bucket_index, bucket_upper_bound, Counter, Gauge, Histogram};

/// p99 budget for the parse stage (head/frame parse + body decode).
pub const BUDGET_PARSE_NS: u64 = 5_000;
/// p99 budget for the route stage (dispatch + validation + admission).
pub const BUDGET_ROUTE_NS: u64 = 10_000;
/// p99 budget for per-request overhead: everything the wire adds on top of
/// the raw [`tsad_fleet::Fleet::push_batch`] call.
pub const BUDGET_OVERHEAD_NS: u64 = 100_000;

/// The histogram-bucket upper bound that contains `budget_ns`. Histogram
/// quantiles are log2 bucket bounds, so a p99 gate must compare against
/// the bound of the bucket the budget falls in (e.g. 5 µs → 8191 ns).
pub fn budget_bound(budget_ns: u64) -> u64 {
    bucket_upper_bound(bucket_index(budget_ns))
}

/// Requests fully processed (any response, including errors).
pub(crate) static INGEST_REQUESTS: Counter = Counter::new("ingest.requests");
/// Points accepted into the fleet across all requests.
pub(crate) static INGEST_POINTS: Counter = Counter::new("ingest.points");
/// Requests rejected by backpressure (503 / RETRY).
pub(crate) static INGEST_REJECTED: Counter = Counter::new("ingest.rejected");
/// Requests refused with an error (parse failures, bad frames, oversized
/// bodies, unknown endpoints, durability failures); backpressure is not
/// one.
pub(crate) static INGEST_ERRORS: Counter = Counter::new("ingest.errors");
/// Currently open connections across all workers.
pub(crate) static INGEST_CONNS: Gauge = Gauge::new("ingest.connections");
/// Connections closed for dribbling a request past the idle deadline.
pub(crate) static INGEST_TIMEOUTS: Counter = Counter::new("ingest.timeouts");
/// Parse stage: head/frame parse + body decode into the point batch.
pub(crate) static INGEST_PARSE_NS: Histogram = Histogram::new("ingest.parse_ns", "ns");
/// Route stage: a batch's validation and backpressure admission, or the
/// handler of any other request.
pub(crate) static INGEST_ROUTE_NS: Histogram = Histogram::new("ingest.route_ns", "ns");
/// Push stage: fleet lock acquisition + `push_batch`.
pub(crate) static INGEST_PUSH_NS: Histogram = Histogram::new("ingest.push_ns", "ns");
/// Respond stage: response formatting into the connection's out buffer.
pub(crate) static INGEST_RESPOND_NS: Histogram = Histogram::new("ingest.respond_ns", "ns");
/// Whole-request server time (excludes network waits between feeds).
pub(crate) static INGEST_REQUEST_NS: Histogram = Histogram::new("ingest.request_ns", "ns");
/// `request − push`: the wire's per-request overhead over the raw fleet.
pub(crate) static INGEST_OVERHEAD_NS: Histogram = Histogram::new("ingest.overhead_ns", "ns");

/// Summary of one `ingest.*` stage histogram (quantiles are log2 bucket
/// upper bounds, like every tsad-obs histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name (`parse`, `route`, `push`, `respond`, `request`,
    /// `overhead`).
    pub stage: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Median, 95th and 99th percentile, and exact max, in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile (bucket upper bound).
    pub p95_ns: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_ns: u64,
    /// Exact largest recorded sample.
    pub max_ns: u64,
}

/// Reads the per-stage latency histograms. Stages with no samples report
/// zeros (recording may be disabled via `TSAD_OBS=0`).
pub fn stage_stats() -> Vec<StageStats> {
    let stages: [(&'static str, &'static Histogram); 6] = [
        ("parse", &INGEST_PARSE_NS),
        ("route", &INGEST_ROUTE_NS),
        ("push", &INGEST_PUSH_NS),
        ("respond", &INGEST_RESPOND_NS),
        ("request", &INGEST_REQUEST_NS),
        ("overhead", &INGEST_OVERHEAD_NS),
    ];
    stages
        .iter()
        .map(|&(stage, h)| StageStats {
            stage,
            count: h.count(),
            p50_ns: h.quantile(0.50),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_bounds_round_up_to_bucket_edges() {
        assert_eq!(budget_bound(BUDGET_PARSE_NS), 8_191);
        assert_eq!(budget_bound(BUDGET_ROUTE_NS), 16_383);
        assert_eq!(budget_bound(BUDGET_OVERHEAD_NS), 131_071);
        // a budget already on a bucket edge stays on it
        assert_eq!(budget_bound(8_191), 8_191);
    }

    #[test]
    fn stage_stats_report_all_six_stages() {
        let stats = stage_stats();
        let names: Vec<&str> = stats.iter().map(|s| s.stage).collect();
        assert_eq!(
            names,
            ["parse", "route", "push", "respond", "request", "overhead"]
        );
    }
}
