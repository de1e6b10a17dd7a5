//! Replays the checked-in fuzz corpus (`tests/corpus/*.bin`) through the
//! sans-IO connection state machine.
//!
//! The corpus pins the adversarial shapes the proptest suites discover
//! probabilistically — torn frames, lying length headers, hostile HTTP
//! bodies, raw garbage — so every CI run exercises them deterministically
//! (the property tests draw fresh cases; the corpus never forgets old
//! ones). Each input is fed twice: as one contiguous slice, and one byte
//! at a time, which drives every resumable state in the parser. The only
//! assertions are liveness ones: no panic, and the connection either
//! produces output or asks to close — it must never wedge silently with
//! unconsumed garbage accepted forever.
//!
//! A third test pins what each input is *told*: a digest of the whole
//! response, the close decision, the request count and the
//! `ingest.errors` delta, so a change to the request path that moves one
//! response byte, one close or one error count fails here. The fourth
//! pins the error accounting of the engine's refusals, which no corpus
//! input can reach on a default engine.

use std::sync::{Mutex, MutexGuard};

use tsad_core::ckpt::digest64;
use tsad_fleet::{Fleet, FleetConfig, SeriesId};
use tsad_ingest::frame::{self, T_INGEST};
use tsad_ingest::{BatchLog, Conn, ConnConfig, Engine, EngineConfig};
use tsad_stream::{FnFactory, StreamingGlobalZScore};

type TestFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

fn spawn_detector(_id: u64) -> StreamingGlobalZScore {
    StreamingGlobalZScore::new(4).expect("window >= 2")
}

fn new_fleet() -> Fleet<TestFactory> {
    Fleet::new(
        FnFactory(spawn_detector as fn(u64) -> StreamingGlobalZScore),
        FleetConfig {
            shards: 4,
            ..FleetConfig::default()
        },
    )
}

fn new_engine() -> Engine<TestFactory> {
    Engine::new(new_fleet(), EngineConfig::default())
}

/// `ingest.errors` is process-global: every test in this binary feeds
/// connections under this lock, so the error deltas below are exact.
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The current `ingest.errors` count (0 before the first error).
fn ingest_errors() -> u64 {
    tsad_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == "ingest.errors")
        .map_or(0, |c| c.value)
}

fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus");
    let mut inputs: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("corpus file"))
        })
        .collect();
    inputs.sort();
    assert!(
        inputs.len() >= 10,
        "corpus shrank to {} files — inputs must be added, never deleted",
        inputs.len()
    );
    inputs
}

#[test]
fn every_corpus_input_fed_whole_leaves_the_connection_live_or_closing() {
    let _serial = serialize();
    for (name, bytes) in corpus() {
        let engine = new_engine();
        let mut conn = Conn::new(ConnConfig::default());
        conn.feed(&bytes, &engine);
        // drain whatever came back; the contract is only "no panic, no
        // silent wedge": hostile input must surface as output bytes, a
        // close request, or an honest still-waiting parser state.
        let n = conn.output().len();
        conn.consume_output(n);
        let _ = conn.wants_close();
        drop((conn, engine)); // engine teardown must survive too: {name}
        let _ = name;
    }
}

#[test]
fn every_corpus_input_fed_byte_by_byte_matches_the_whole_feed() {
    let _serial = serialize();
    for (name, bytes) in corpus() {
        let engine_whole = new_engine();
        let mut whole = Conn::new(ConnConfig::default());
        whole.feed(&bytes, &engine_whole);

        let engine_split = new_engine();
        let mut split = Conn::new(ConnConfig::default());
        for b in &bytes {
            split.feed(std::slice::from_ref(b), &engine_split);
            if split.wants_close() {
                break;
            }
        }
        // chunking must not change what the client is told (responses may
        // be cut short after a close request, so compare the prefix)
        let w = whole.output();
        let s = split.output();
        let shared = w.len().min(s.len());
        assert_eq!(
            &w[..shared],
            &s[..shared],
            "{name}: byte-by-byte feed diverged from the whole feed"
        );
        assert_eq!(
            whole.wants_close() && w.len() == shared,
            split.wants_close() && s.len() == shared,
            "{name}: close decision diverged"
        );
    }
}

/// Per corpus input, fed whole into a fresh default engine:
/// `(file, digest64 of the output bytes, wants_close, requests, ingest.errors delta)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, bool, u64, u64)] = &[
    ("bin-bad-reserved.bin", 0xbd3a71c0063e683f, true, 1, 1),
    ("bin-bad-version.bin", 0x5174f97eeb5a3d1a, true, 1, 1),
    ("bin-ping-payload.bin", 0x114327b66657e84a, true, 1, 1),
    ("bin-ping.bin", 0x4d9085f72f111045, false, 2, 0),
    ("bin-query-bad-len.bin", 0x7e822cb5e6ae2477, true, 1, 1),
    ("bin-query.bin", 0x3c9ee6935feed3c0, false, 3, 0),
    ("bin-score.bin", 0x94b7612aa938d977, false, 2, 0),
    ("bin-snapshot.bin", 0x327315a5ab267427, false, 2, 0),
    ("garbage.bin", 0xcbf29ce484222325, false, 0, 0),
    ("http-404.bin", 0xa77c68e9db8d89fb, false, 2, 1),
    ("http-405.bin", 0xcc3e31f46f492059, false, 3, 2),
    ("http-431.bin", 0x44f814cbed1177bf, true, 1, 1),
    ("http-505.bin", 0x1eb219be9d3b0cfb, true, 1, 1),
    ("http-bad-request-line.bin", 0x1eb219be9d3b0cfb, true, 1, 1),
    ("http-body-decode-400.bin", 0xf361d448fd55354e, true, 1, 1),
    ("http-connection-close.bin", 0xb9222f5e6e117928, true, 1, 0),
    ("http-healthz.bin", 0x66a9fda00259ea22, true, 2, 0),
    ("http-huge-content-length.bin", 0x38c8579288315722, true, 1, 1),
    ("http-ingest.bin", 0x61acdfff089300f8, false, 1, 0),
    ("http-no-content-length.bin", 0x780fa7988557d192, false, 1, 0),
    ("http-post-odd-body.bin", 0xdb089602a00b3796, true, 1, 1),
    ("http-query-bad-id.bin", 0x0dbf3893e968f36c, true, 1, 1),
    ("http-query-hit.bin", 0x885a4cee922f1b62, false, 2, 0),
    ("http-query-miss.bin", 0x519b7fa44074a1c0, false, 2, 0),
    ("http-score.bin", 0x557a37ab86ec8985, false, 2, 0),
    ("http-snapshot.bin", 0x9ce6f834a6cfee4e, false, 2, 0),
    ("http-split-keepalive.bin", 0x6e24e00840b0ebe0, false, 3, 0),
    ("http-stats.bin", 0x7f6c50a7bf092f07, false, 2, 0),
    ("huge-len-frame.bin", 0xc40428fe3aead88f, true, 1, 1),
    ("magic-then-garbage.bin", 0x5174f97eeb5a3d1a, true, 1, 1),
    ("nul-bytes.bin", 0xcbf29ce484222325, false, 0, 0),
    ("ping-then-garbage.bin", 0x4e550f58e14525de, true, 2, 1),
    ("ragged-ingest-frame.bin", 0x53ab67d0eef41d1b, true, 1, 1),
    ("truncated-frame.bin", 0xcbf29ce484222325, false, 0, 0),
    ("unknown-type-frame.bin", 0x266929cae746e936, true, 1, 1),
    ("valid-ingest-frame.bin", 0xd126201756b4b8bf, false, 1, 0),
    ("zero-len-frame.bin", 0xe51a3ab78bf120d2, false, 1, 0),
];

/// Feeds every corpus input whole into a fresh default engine, in the
/// shape of [`GOLDEN`].
fn replay_corpus() -> Vec<(String, u64, bool, u64, u64)> {
    corpus()
        .into_iter()
        .map(|(name, bytes)| {
            let engine = new_engine();
            let mut conn = Conn::new(ConnConfig::default());
            let errors_before = ingest_errors();
            conn.feed(&bytes, &engine);
            let errors = ingest_errors() - errors_before;
            let (digest, close) = (digest64(conn.output()), conn.wants_close());
            (name, digest, close, conn.requests(), errors)
        })
        .collect()
}

#[test]
fn every_corpus_input_gets_its_pinned_response() {
    let _serial = serialize();
    // bytes, closes and request counts must not depend on recording
    // (`TSAD_OBS=0`); the error counter moves only while it is on
    for on in [true, false] {
        let got = tsad_obs::with_enabled(on, replay_corpus);
        let pinned: Vec<_> = GOLDEN
            .iter()
            .map(|&(n, d, c, r, e)| (n.to_string(), d, c, r, if on { e } else { 0 }))
            .collect();
        let table: String = got
            .iter()
            .map(|(n, d, c, r, e)| format!("    (\"{n}\", {d:#018x}, {c}, {r}, {e}),\n"))
            .collect();
        assert_eq!(
            got, pinned,
            "responses moved (recording {on}); the current table is:\n{table}"
        );
    }
}

/// A log that refuses every append (the engine answers `Internal`).
struct FailLog;

impl BatchLog for FailLog {
    fn append(&self, _batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
        Err(std::io::Error::other("disk gone"))
    }
}

#[test]
fn engine_refusals_count_as_errors_except_backpressure() {
    let _serial = serialize();
    let http = b"POST /ingest HTTP/1.1\r\nContent-Length: 12\r\n\r\n1 0.5\n2 1.5\n".to_vec();
    let mut payload = Vec::new();
    frame::write_point(&mut payload, 1, 0.5);
    frame::write_point(&mut payload, 2, 1.5);
    let mut binary = Vec::new();
    frame::write_frame(&mut binary, T_INGEST, &payload);

    let busy = EngineConfig {
        max_inflight_points: 0,
        ..EngineConfig::default()
    };
    let too_large = EngineConfig {
        max_batch_points: 1,
        ..EngineConfig::default()
    };
    tsad_obs::with_enabled(true, || {
        for request in [&http, &binary] {
            // (refusal, errors counted, connection closed)
            for (cfg, errors, close) in [(busy, 0, false), (too_large, 1, true)] {
                let engine = Engine::new(new_fleet(), cfg);
                let mut conn = Conn::new(ConnConfig::default());
                let before = ingest_errors();
                conn.feed(request, &engine);
                assert_eq!(ingest_errors() - before, errors, "{cfg:?}");
                assert_eq!(conn.wants_close(), close, "{cfg:?}");
                assert_eq!(conn.requests(), 1);
            }
            let engine = Engine::with_log(new_fleet(), EngineConfig::default(), FailLog);
            let mut conn = Conn::new(ConnConfig::default());
            let before = ingest_errors();
            conn.feed(request, &engine);
            assert_eq!(ingest_errors() - before, 1, "internal");
            assert!(conn.wants_close());
            assert_eq!(conn.requests(), 1);
        }
    });
}
