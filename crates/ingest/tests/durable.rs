//! End-to-end durability: WAL-backed engines crash, recover, and refuse
//! foreign logs.
//!
//! The byte-exhaustive crash matrix lives in
//! `crates/faults/tests/wal_crash.rs`; this suite covers the serving
//! glue above it — [`recover_engine`] / [`checkpoint_now`] round-trips,
//! the [`SubmitError::Internal`] wire mapping, and the registry
//! fingerprint refusal (a log recorded under one catalog detector id
//! must never replay into a fleet spawned from a different id), the
//! served log's health and idle group-commit deadline, and the engine
//! stopping after a batch panics inside the fleet.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsad_core::ckpt::{CkptReader, CkptWriter};
use tsad_detectors::registry::Params;
use tsad_fleet::{BatchOutput, FleetConfig, SeriesId};
use tsad_ingest::engine::{BatchLog, SubmitTiming};
use tsad_ingest::{
    checkpoint_now, recover_engine, Conn, ConnConfig, DurableEngine, Engine, EngineConfig,
    ServerConfig, SubmitError,
};
use tsad_stream::{
    DetectorFactory, FnFactory, RegistryFactory, StreamHints, StreamingDetector,
    StreamingGlobalZScore,
};
use tsad_wal::{FsyncPolicy, MemDir, MemFile, Wal, WalConfig, WalDir, WalError, WalFile};

type ZFactory = FnFactory<fn(u64) -> StreamingGlobalZScore>;

fn spawn_z(_id: u64) -> StreamingGlobalZScore {
    StreamingGlobalZScore::new(4).expect("window >= 2")
}

fn zfactory() -> ZFactory {
    FnFactory(spawn_z as fn(u64) -> StreamingGlobalZScore)
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        shards: 4,
        ..FleetConfig::default()
    }
}

/// Small segments so a handful of batches spans several files.
fn wal_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 256,
        // the fingerprint is replaced by recover_engine; prove that by
        // passing a wrong one on purpose
        ..WalConfig::new("ignored-and-replaced")
    }
}

fn batch(i: u64) -> Vec<(SeriesId, f64)> {
    (0..6u64)
        .map(|j| (SeriesId(j % 5), ((i * 7 + j) as f64 * 0.37).sin()))
        .collect()
}

fn submit_n(engine: &DurableEngine<ZFactory, MemDir>, from: u64, n: u64) {
    let mut out = BatchOutput::new();
    let mut t = SubmitTiming::default();
    for i in from..from + n {
        engine.submit(&batch(i), &mut out, &mut t).expect("submit");
    }
}

fn state_of<F, L>(engine: &Engine<F, L>) -> Vec<u8>
where
    F: DetectorFactory,
    F::Detector: Sync,
    L: BatchLog,
{
    engine.with_fleet(|fleet| fleet.checkpoint().to_bytes())
}

#[test]
fn acked_batches_survive_a_crash_bitwise() {
    let dir = MemDir::new();
    let rec = recover_engine(
        dir.clone(),
        zfactory(),
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .expect("empty dir starts a fresh log");
    assert_eq!(rec.replayed_batches, 0);
    submit_n(&rec.engine, 0, 7);
    let expected = state_of(&rec.engine);
    let expected_totals = rec.engine.totals();
    drop(rec); // crash: no flush, no shutdown path

    let again = recover_engine(
        dir.survivor(),
        zfactory(),
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .expect("recovery");
    assert_eq!(again.checkpoint_seq, None);
    assert_eq!(again.replayed_batches, 7);
    assert_eq!(
        state_of(&again.engine),
        expected,
        "recovered fleet diverges from the pre-crash state"
    );
    assert_eq!(again.engine.with_fleet(|f| f.batches()), 7);
    assert_eq!(expected_totals.batches, 7);
    assert_eq!(expected_totals.wal_errors, 0);

    // the resumed log keeps sequencing where the crash left off
    submit_n(&again.engine, 7, 1);
    let wal = again.engine.log().lock().unwrap();
    assert_eq!(wal.next_seq(), 9);
}

#[test]
fn checkpoint_plus_wal_tail_equals_pre_crash_state() {
    let dir = MemDir::new();
    let rec = recover_engine(
        dir.clone(),
        zfactory(),
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .unwrap();
    submit_n(&rec.engine, 0, 5);
    let stats = checkpoint_now(&rec.engine).expect("checkpoint");
    assert_eq!(stats.seq, 5, "seq must equal the fleet batch counter");
    assert!(stats.payload_bytes > 0);
    assert!(
        stats.reclaimed_bytes > 0,
        "5 batches over 256-byte segments must seal (and so reclaim) something"
    );
    submit_n(&rec.engine, 5, 3);
    let expected = state_of(&rec.engine);
    drop(rec);

    // recovery replays on one thread; that the fleet's result does not
    // depend on the thread count is `crates/fleet/tests/determinism.rs`'s
    let again = recover_engine(
        dir.survivor(),
        zfactory(),
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .unwrap();
    assert_eq!(again.checkpoint_seq, Some(5));
    assert_eq!(again.replayed_batches, 3);
    assert_eq!(again.engine.with_fleet(|f| f.batches()), 8);
    assert_eq!(state_of(&again.engine), expected);
}

#[test]
fn a_log_recorded_under_one_catalog_id_is_refused_by_another() {
    let cusum = RegistryFactory::new("cusum", Params::new(), StreamHints::default()).unwrap();
    let cusum_fp = cusum.fingerprint();
    let dir = MemDir::new();
    let rec = recover_engine(
        dir.clone(),
        cusum,
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .unwrap();
    submit_n_registry(&rec.engine, 2);
    drop(rec);

    // same catalog, different detector id: replay must be refused, not
    // silently scored by the wrong detector
    let zscore =
        RegistryFactory::new("global-zscore", Params::new(), StreamHints::default()).unwrap();
    let zscore_fp = zscore.fingerprint();
    match recover_engine(
        dir.survivor(),
        zscore,
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    ) {
        Err(WalError::FingerprintMismatch {
            expected, found, ..
        }) => {
            assert_eq!(expected, zscore_fp);
            assert_eq!(found, cusum_fp);
        }
        Ok(_) => panic!("a foreign log must not replay"),
        Err(other) => panic!("expected FingerprintMismatch, got {other}"),
    }

    // a factory with the *same* id recovers fine
    let cusum2 = RegistryFactory::new("cusum", Params::new(), StreamHints::default()).unwrap();
    let again = recover_engine(
        dir.survivor(),
        cusum2,
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .expect("same-id recovery");
    assert_eq!(again.replayed_batches, 2);
}

fn submit_n_registry(engine: &DurableEngine<RegistryFactory, MemDir>, n: u64) {
    let mut out = BatchOutput::new();
    let mut t = SubmitTiming::default();
    for i in 0..n {
        engine.submit(&batch(i), &mut out, &mut t).expect("submit");
    }
}

#[test]
fn wal_failure_maps_to_http_500_and_closes() {
    struct FailLog;
    impl BatchLog for FailLog {
        fn append(&self, _batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
            Err(std::io::Error::other("disk gone"))
        }
    }
    let engine = Engine::with_log(
        tsad_fleet::Fleet::new(zfactory(), fleet_cfg()),
        EngineConfig::default(),
        FailLog,
    );
    let mut conn = Conn::new(ConnConfig::default());
    let body = "1 0.5\n2 1.5\n";
    let req = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    conn.feed(req.as_bytes(), &engine);
    let out = String::from_utf8_lossy(conn.output()).into_owned();
    assert!(
        out.starts_with("HTTP/1.1 500 Internal Server Error"),
        "got: {out}"
    );
    assert!(conn.wants_close(), "durability failures must close");
    assert_eq!(engine.totals().wal_errors, 1);
    assert_eq!(engine.totals().batches, 0);
    assert!(!engine.query(SeriesId(1)).0, "batch must not have applied");
}

#[test]
fn wal_failure_maps_to_a_binary_error_frame() {
    struct FailLog;
    impl BatchLog for FailLog {
        fn append(&self, _batch: &[(SeriesId, f64)]) -> std::io::Result<u64> {
            Err(std::io::Error::other("disk gone"))
        }
    }
    let engine = Engine::with_log(
        tsad_fleet::Fleet::new(zfactory(), fleet_cfg()),
        EngineConfig::default(),
        FailLog,
    );
    let mut conn = Conn::new(ConnConfig::default());
    let mut req = Vec::new();
    let mut payload = Vec::new();
    tsad_ingest::frame::write_point(&mut payload, 1, 0.5);
    tsad_ingest::frame::write_frame(&mut req, tsad_ingest::frame::T_INGEST, &payload);
    conn.feed(&req, &engine);
    let out = conn.output();
    assert!(out.len() > tsad_ingest::frame::HEADER_LEN + 2);
    assert_eq!(out[0], tsad_ingest::frame::FRAME_MAGIC);
    assert_eq!(out[2], tsad_ingest::frame::T_ERROR);
    // the error payload leads with the status code, little-endian
    let code = u16::from_le_bytes([
        out[tsad_ingest::frame::HEADER_LEN],
        out[tsad_ingest::frame::HEADER_LEN + 1],
    ]);
    assert_eq!(code, 500);
    // mirror the HTTP path: a durability failure closes the connection…
    assert!(conn.wants_close(), "durability failures must close");
    // …and a closing connection reads nothing more: a pipelined PING
    // after the failed ingest must not produce a PONG
    let before = conn.output().len();
    let mut ping = Vec::new();
    tsad_ingest::frame::write_frame(&mut ping, tsad_ingest::frame::T_PING, &[]);
    conn.feed(&ping, &engine);
    assert_eq!(conn.output().len(), before, "closed conn answered a frame");
    assert_eq!(engine.totals().wal_errors, 1);
}

/// A [`MemDir`] that counts file syncs and can tear its next append:
/// after [`Faulty::tear_next`], the next append writes half its bytes
/// and fails, then the device works again.
#[derive(Clone, Default)]
struct Faulty {
    inner: MemDir,
    tear: Arc<AtomicBool>,
    syncs: Arc<AtomicU64>,
}

impl Faulty {
    fn tear_next(&self) {
        self.tear.store(true, Ordering::SeqCst);
    }

    fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::SeqCst)
    }

    fn wrap(&self, inner: MemFile) -> FaultyFile {
        FaultyFile {
            inner,
            tear: Arc::clone(&self.tear),
            syncs: Arc::clone(&self.syncs),
        }
    }
}

struct FaultyFile {
    inner: MemFile,
    tear: Arc<AtomicBool>,
    syncs: Arc<AtomicU64>,
}

impl WalFile for FaultyFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.tear.swap(false, Ordering::SeqCst) {
            self.inner.append(&buf[..buf.len() / 2])?;
            return Err(io::Error::other("transient device error (torn write)"));
        }
        self.inner.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        self.inner.sync()
    }
}

impl WalDir for Faulty {
    type File = FaultyFile;

    fn create(&self, name: &str) -> io::Result<FaultyFile> {
        Ok(self.wrap(self.inner.create(name)?))
    }

    fn open_append(&self, name: &str) -> io::Result<FaultyFile> {
        Ok(self.wrap(self.inner.open_append(name)?))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.inner.size(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }
}

fn faulty_engine(dir: &Faulty, policy: FsyncPolicy) -> DurableEngine<ZFactory, Faulty> {
    let cfg = WalConfig {
        policy,
        ..WalConfig::new(zfactory().fingerprint())
    };
    let wal = Wal::create(dir.clone(), cfg).expect("fresh log");
    Engine::with_log(
        tsad_fleet::Fleet::new(zfactory(), fleet_cfg()),
        EngineConfig::default(),
        Mutex::new(wal),
    )
}

fn healthz<F, L>(engine: &Engine<F, L>) -> String
where
    F: DetectorFactory,
    F::Detector: Sync,
    L: BatchLog,
{
    let mut conn = Conn::new(ConnConfig::default());
    conn.feed(b"GET /healthz HTTP/1.1\r\n\r\n", engine);
    String::from_utf8_lossy(conn.output()).into_owned()
}

#[test]
fn healthz_answers_503_while_the_wal_is_poisoned() {
    let dir = Faulty::default();
    let engine = faulty_engine(&dir, FsyncPolicy::PerBatch);
    let ok = healthz(&engine);
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "healthy log: {ok}");

    dir.tear_next();
    let mut out = BatchOutput::new();
    let mut t = SubmitTiming::default();
    assert_eq!(
        engine.submit(&batch(0), &mut out, &mut t),
        Err(SubmitError::Internal)
    );
    assert!(engine.log().lock().unwrap().is_poisoned());

    let down = healthz(&engine);
    assert!(
        down.starts_with("HTTP/1.1 503 Service Unavailable"),
        "poisoned log: {down}"
    );
}

#[test]
fn an_idle_server_syncs_a_pending_group_commit_at_its_deadline() {
    let dir = Faulty::default();
    let engine = Arc::new(faulty_engine(
        &dir,
        FsyncPolicy::GroupCommit {
            batches: 1_000,
            max_pending_micros: 2_000,
        },
    ));
    let server = tsad_ingest::start(
        Arc::clone(&engine),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // One INGEST far below the group size, then silence on a kept-alive
    // connection: only the log's own deadline can wake the worker.
    let before = dir.syncs();
    let body = "1 0.5\n2 1.5\n";
    let req = format!(
        "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut resp = Vec::new();
    let mut chunk = [0u8; 1024];
    while !resp.ends_with(b"}") {
        let n = stream.read(&mut chunk).expect("response");
        assert!(n > 0, "closed early");
        resp.extend_from_slice(&chunk[..n]);
    }
    assert!(resp.starts_with(b"HTTP/1.1 200 OK"));
    let acked = Instant::now();

    while dir.syncs() == before {
        assert!(
            acked.elapsed() < Duration::from_millis(50),
            "no group-commit sync within 50 ms of going idle"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(!engine.log().lock().unwrap().is_poisoned());
    server.stop().expect("clean shutdown");
}

/// The value on which [`PanicsOnSentinel`] panics.
const SENTINEL: f64 = 666.0;

/// A z-score detector with a bug: it panics on [`SENTINEL`], so a batch
/// carrying it dies inside `push_batch` after its WAL entry is appended.
struct PanicsOnSentinel(StreamingGlobalZScore);

impl StreamingDetector for PanicsOnSentinel {
    fn name(&self) -> String {
        self.0.name()
    }
    fn push(&mut self, x: f64) -> Option<f64> {
        assert!(x != SENTINEL, "detector bug on the sentinel value");
        self.0.push(x)
    }
    fn finish(&mut self) -> Vec<f64> {
        self.0.finish()
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn score_offset(&self) -> usize {
        self.0.score_offset()
    }
    fn lag(&self) -> usize {
        self.0.lag()
    }
    fn memory_bound(&self) -> usize {
        self.0.memory_bound()
    }
    fn save_state(&self, w: &mut CkptWriter) {
        self.0.save_state(w)
    }
    fn load_state(&mut self, r: &mut CkptReader<'_>) -> tsad_core::Result<()> {
        self.0.load_state(r)
    }
}

#[test]
fn a_batch_that_panics_in_the_fleet_stops_the_engine() {
    fn spawn(id: u64) -> PanicsOnSentinel {
        PanicsOnSentinel(spawn_z(id))
    }
    let rec = recover_engine(
        MemDir::new(),
        FnFactory(spawn as fn(u64) -> PanicsOnSentinel),
        wal_cfg(),
        fleet_cfg(),
        EngineConfig::default(),
    )
    .expect("fresh log");
    let engine = rec.engine;
    let mut out = BatchOutput::new();
    let mut t = SubmitTiming::default();
    engine
        .submit(&batch(0), &mut out, &mut t)
        .expect("clean batch");
    checkpoint_now(&engine).expect("checkpoint of a clean fleet");
    let ok = healthz(&engine);
    assert!(ok.starts_with("HTTP/1.1 200 OK"), "clean fleet: {ok}");

    let bad = [
        (SeriesId(1), 0.5),
        (SeriesId(2), SENTINEL),
        (SeriesId(3), 0.5),
    ];
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        let _ = engine.submit(&bad, &mut out, &mut t);
    }));
    assert!(panicked.is_err(), "the sentinel panics inside push_batch");
    let logged = engine.log().lock().unwrap().next_seq();

    // the fleet may hold the panicked batch in part: refuse to serve on
    // it or persist it, and drain the node
    assert_eq!(
        engine.submit(&batch(1), &mut out, &mut t),
        Err(SubmitError::Internal)
    );
    assert_eq!(
        engine.log().lock().unwrap().next_seq(),
        logged,
        "a refused batch must not be logged"
    );
    assert!(
        checkpoint_now(&engine).is_err(),
        "a poisoned fleet must not be checkpointed"
    );
    let down = healthz(&engine);
    assert!(
        down.starts_with("HTTP/1.1 503 Service Unavailable"),
        "poisoned fleet: {down}"
    );
}
