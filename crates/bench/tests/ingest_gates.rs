//! Serving-path gates for `tsad-ingest`, run with a counting allocator
//! installed in *this* binary (like `repro` does):
//!
//! * a warm request path allocates **zero** heap memory per request, on
//!   both transports, with observability ON — batches and the non-batch
//!   requests alike, since every request runs through the same handler;
//!   a snapshot allocates only what the fleet checkpoint itself does;
//! * disabling observability (`TSAD_OBS=0`, here via the thread-scoped
//!   [`tsad_obs::with_enabled`]) keeps the path allocation-free and leaves
//!   the response bytes **bitwise identical** — the kill switch changes
//!   cost, never behavior;
//! * after traffic, the global metric registry carries the `ingest.*`
//!   family, so `repro --obs-summary` includes the serving path.

#[global_allocator]
static ALLOC: tsad_bench::alloc_track::CountingAlloc = tsad_bench::alloc_track::CountingAlloc;

use std::fmt::Write as _;

use tsad_bench::alloc_track::{count_allocs, counting_allocator_active};
use tsad_fleet::{Fleet, FleetConfig};
use tsad_ingest::{frame, Conn, ConnConfig, Engine, EngineConfig};
use tsad_parallel::with_threads;
use tsad_stream::{FnFactory, StreamingGlobalZScore};

type TestFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

fn spawn_detector(_id: u64) -> StreamingGlobalZScore {
    StreamingGlobalZScore::new(4).expect("window >= 2")
}

fn new_engine() -> Engine<TestFactory> {
    let fleet = Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> StreamingGlobalZScore),
        FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        },
    );
    Engine::new(fleet, EngineConfig::default())
}

/// Deterministic finite value for (id, round).
fn value(id: u64, round: u64) -> f64 {
    let mut x = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(round.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 31;
    (x % 4000) as f64 / 100.0 - 20.0
}

const POINTS: u64 = 32;
const SERIES: u64 = 256;

/// One round's `POST /ingest` request.
fn http_request(round: u64) -> Vec<u8> {
    let mut body = String::new();
    for i in 0..POINTS {
        let id = (round * POINTS + i) % SERIES;
        let _ = writeln!(body, "{} {}", id, value(id, round));
    }
    format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One round's binary `INGEST` frame.
fn binary_request(round: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    for i in 0..POINTS {
        let id = (round * POINTS + i) % SERIES;
        frame::write_point(&mut payload, id, value(id, round));
    }
    let mut req = Vec::new();
    frame::write_frame(&mut req, frame::T_INGEST, &payload);
    req
}

/// One binary frame with an 8-byte id payload (`QUERY`) or none.
fn binary_frame(ftype: u8, payload: &[u8]) -> Vec<u8> {
    let mut req = Vec::new();
    frame::write_frame(&mut req, ftype, payload);
    req
}

/// The HTTP requests besides batches that a warm connection answers
/// without allocating: a query hit and miss, stats and health.
fn http_non_batch() -> Vec<Vec<u8>> {
    [
        "GET /query?id=3 HTTP/1.1\r\n\r\n",
        "GET /query?id=999999 HTTP/1.1\r\n\r\n",
        "GET /stats HTTP/1.1\r\n\r\n",
        "GET /healthz HTTP/1.1\r\n\r\n",
    ]
    .iter()
    .map(|r| r.as_bytes().to_vec())
    .collect()
}

/// The binary counterpart: a query hit and miss, and a ping.
fn binary_non_batch() -> Vec<Vec<u8>> {
    vec![
        binary_frame(frame::T_QUERY, &3u64.to_le_bytes()),
        binary_frame(frame::T_QUERY, &999_999u64.to_le_bytes()),
        binary_frame(frame::T_PING, &[]),
    ]
}

/// Interleaves `extra` after every eighth batch request.
fn with_non_batch(batches: Vec<Vec<u8>>, extra: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (i, req) in batches.into_iter().enumerate() {
        out.push(req);
        if i % 8 == 7 {
            out.extend(extra.iter().cloned());
        }
    }
    out
}

/// Feeds one request and returns a copy of the response (consuming it from
/// the connection so buffers stay warm).
fn roundtrip(conn: &mut Conn, engine: &Engine<TestFactory>, request: &[u8]) -> Vec<u8> {
    conn.feed(request, engine);
    let resp = conn.output().to_vec();
    assert!(!resp.is_empty(), "request got no response");
    let n = conn.output().len();
    conn.consume_output(n);
    resp
}

/// Feeds one request and drops the response without copying it (the
/// counted path — `to_vec` would itself allocate).
fn roundtrip_counted(conn: &mut Conn, engine: &Engine<TestFactory>, request: &[u8]) {
    conn.feed(request, engine);
    let n = conn.output().len();
    conn.consume_output(n);
}

fn assert_zero_alloc_warm(requests: &[Vec<u8>]) {
    assert!(
        counting_allocator_active(),
        "this test binary must install CountingAlloc"
    );
    let engine = new_engine();
    let mut conn = Conn::new(ConnConfig::default());
    // warm: spawn all series, grow every reusable buffer
    for req in requests {
        roundtrip(&mut conn, &engine, req);
    }
    let allocs = count_allocs(|| {
        for req in requests {
            roundtrip_counted(&mut conn, &engine, req);
        }
    });
    assert_eq!(
        allocs,
        0,
        "warm request path allocated ({} requests)",
        requests.len()
    );
}

#[test]
fn warm_http_request_path_is_allocation_free_with_obs_on() {
    let requests = with_non_batch((0..48).map(http_request).collect(), &http_non_batch());
    assert_zero_alloc_warm(&requests);
}

#[test]
fn warm_binary_request_path_is_allocation_free_with_obs_on() {
    let requests = with_non_batch((0..48).map(binary_request).collect(), &binary_non_batch());
    assert_zero_alloc_warm(&requests);
}

#[test]
fn a_warm_snapshot_request_allocates_only_the_checkpoint() {
    // a snapshot serializes the fleet, which allocates the checkpoint
    // buffers; the request around it (parse, handle, respond) must add
    // nothing. One thread, so the checkpoint's own count is exact.
    with_threads(1, || {
        let http = b"POST /snapshot HTTP/1.1\r\n\r\n".to_vec();
        let binary = binary_frame(frame::T_SNAPSHOT, &[]);
        let batch: [fn(u64) -> Vec<u8>; 2] = [http_request, binary_request];
        for (snapshot, batch) in [http, binary].into_iter().zip(batch) {
            let engine = new_engine();
            let mut conn = Conn::new(ConnConfig::default());
            for round in 0..8 {
                roundtrip(&mut conn, &engine, &batch(round));
            }
            for _ in 0..2 {
                roundtrip(&mut conn, &engine, &snapshot);
            }
            let direct = count_allocs(|| {
                std::hint::black_box(engine.snapshot_info());
            });
            let served = count_allocs(|| roundtrip_counted(&mut conn, &engine, &snapshot));
            assert!(direct > 0, "the checkpoint allocates its buffers");
            assert_eq!(served, direct, "the snapshot request path allocated");
        }
    });
}

#[test]
fn obs_kill_switch_is_zero_alloc_and_bitwise_invisible() {
    // two identical engines fed identical traffic, one with recording off:
    // every response byte must match. One connection speaks one protocol
    // (the transport is sniffed from the first byte), so each transport
    // gets its own on/off connection pair.
    let mut http_reqs: Vec<Vec<u8>> = (0..24).map(http_request).collect();
    http_reqs.push(b"GET /stats HTTP/1.1\r\n\r\n".to_vec());
    http_reqs.push(b"GET /query?id=3 HTTP/1.1\r\n\r\n".to_vec());
    http_reqs.push(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec());
    let bin_reqs: Vec<Vec<u8>> = (0..24).map(binary_request).collect();

    for reqs in [&http_reqs, &bin_reqs] {
        let engine_on = new_engine();
        let mut conn_on = Conn::new(ConnConfig::default());
        let responses_on: Vec<Vec<u8>> = reqs
            .iter()
            .map(|r| roundtrip(&mut conn_on, &engine_on, r))
            .collect();

        tsad_obs::with_enabled(false, || {
            let engine_off = new_engine();
            let mut conn_off = Conn::new(ConnConfig::default());
            for (i, req) in reqs.iter().enumerate() {
                let resp = roundtrip(&mut conn_off, &engine_off, req);
                assert_eq!(
                    resp, responses_on[i],
                    "response {i} differs with observability disabled"
                );
            }
            // and the warm path stays allocation-free with recording off
            let warm: Vec<Vec<u8>> = (100..132).map(http_request).collect();
            if reqs[0].starts_with(b"POST") {
                for req in &warm {
                    roundtrip(&mut conn_off, &engine_off, req);
                }
                let allocs = count_allocs(|| {
                    for req in &warm {
                        roundtrip_counted(&mut conn_off, &engine_off, req);
                    }
                });
                assert_eq!(allocs, 0, "obs-off warm path allocated");
            }
        });
    }
}

#[test]
fn obs_registry_carries_the_ingest_family_after_traffic() {
    let engine = new_engine();
    let mut conn = Conn::new(ConnConfig::default());
    for round in 0..8 {
        roundtrip(&mut conn, &engine, &http_request(round));
    }
    let summary = tsad_obs::render_summary(&tsad_obs::snapshot());
    for metric in [
        "ingest.requests",
        "ingest.points",
        "ingest.parse_ns",
        "ingest.route_ns",
        "ingest.push_ns",
        "ingest.respond_ns",
        "ingest.request_ns",
        "ingest.overhead_ns",
    ] {
        assert!(
            summary.contains(metric),
            "summary missing {metric}:\n{summary}"
        );
    }
    // the same stats surface through the typed stage view
    let stages = tsad_ingest::stage_stats();
    assert_eq!(stages.len(), 6);
    assert!(stages.iter().all(|s| s.count > 0));
}
