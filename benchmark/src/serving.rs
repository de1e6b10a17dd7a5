//! The serving workloads: a real loopback server (`tsad_ingest::start`,
//! one worker) driven by the benchmark's generator.
//!
//! Each process: set up (engine, server, connections, warm pass) twice and
//! keep the last; settle every detector past its training; saturate
//! (closed loop); for the durable workload checkpoint; paced (open loop);
//! then check outputs and, for the durable workload, recover from the log
//! and compare fleets.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsad_fleet::{Fleet, FleetCheckpoint, FleetConfig, SeriesId};
use tsad_ingest::{BatchLog, Engine, EngineConfig, ServerConfig, ServerHandle};
use tsad_obs::Snapshot;
use tsad_stream::{DetectorFactory, StreamingDetector};
use tsad_wal::{FsDir, FsyncPolicy, Wal, WalConfig, WalDir};

use crate::checks;
use crate::gen::{self, Done, Gen, Ids, Load, Wire, CONNS, ORDERED_ROUNDS};
use crate::metrics::{median, quantile, Report};
use crate::pin::Pinned;
use crate::trace::{IoStats, TimedDir, Tracer, ROOT};
use crate::{factory, Factory};

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServingSpec {
    /// Wire format.
    pub wire: Wire,
    /// Series across both connections.
    pub series: u64,
    /// Points per request.
    pub batch: usize,
    /// Id order after the warm pass.
    pub ids: Ids,
    /// Requests each connection keeps outstanding while saturating.
    pub depth: usize,
    /// Open-loop rate, requests/s across both connections.
    pub rate: f64,
    /// Share of the measuring budget the saturate phase takes; the paced
    /// phase takes the rest.
    pub saturate_share: f64,
    /// Log every batch to a WAL on disk, then recover from it.
    pub durable: bool,
    /// Requests per connection whose scores are checked (HTTP only).
    pub keep: usize,
    /// Whether the committed seed-42 outputs apply (full scale only).
    pub full_scale: bool,
}

impl ServingSpec {
    fn load(&self, seed: u64) -> Load {
        Load {
            wire: self.wire,
            series: self.series,
            batch: self.batch,
            ids: self.ids,
            seed,
        }
    }

    fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            shards: (self.series / 1024).clamp(4, 64) as usize,
            ..FleetConfig::default()
        }
    }
}

/// Width of the time slices the saturate phase is counted in.
const SLICE: Duration = Duration::from_millis(250);

/// Set-ups per process; `setup_s` is their median.
const SETUPS: usize = 2;

/// The durable workload's WAL settings. Recovery reads one whole segment
/// at a time, so the segment size bounds how much of the peak RSS
/// depends on where the checkpoint happened to fall.
///
/// A group commit covers 64 batches or 2 ms. With 8 batches or 500 µs,
/// saturated ingest spent about half of the worker's time in `fsync`, so
/// its throughput followed the shared disk's latency: it fell from 1.69 M
/// to 1.14 M points/s between two back-to-back runs of the same seed,
/// while at 64 batches it moved from 2.57 M to 2.40 M.
fn wal_config() -> WalConfig {
    WalConfig {
        segment_bytes: 4 << 20,
        policy: FsyncPolicy::GroupCommit {
            batches: 64,
            max_pending_micros: 2_000,
        },
        ..WalConfig::new(factory().fingerprint())
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// A server under load: its engine, its handle and the generator, with
/// the server and the calling (generator) thread on separate cores.
struct Live<L: BatchLog> {
    engine: Arc<Engine<Factory, L>>,
    server: ServerHandle,
    gen: Gen,
    warm_s: f64,
    pinned: Pinned,
}

impl<L: BatchLog + 'static> Live<L> {
    fn start(spec: &ServingSpec, seed: u64, engine: Engine<Factory, L>) -> io::Result<Self> {
        let engine = Arc::new(engine);
        let (pinned, server) = Pinned::around(|| {
            tsad_ingest::start(Arc::clone(&engine), server_config(), "127.0.0.1:0")
        })?;
        let mut gen = Gen::connect(server.addr(), spec.load(seed), spec.keep)?;
        let t = Instant::now();
        gen.warm()?;
        let warm_s = t.elapsed().as_secs_f64();
        Ok(Self {
            engine,
            server,
            gen,
            warm_s,
            pinned,
        })
    }

    /// Stops the server and unpins the calling thread; returns the engine
    /// and the generator's tally.
    fn stop(self) -> io::Result<(Arc<Engine<Factory, L>>, Gen)> {
        self.server.stop()?;
        drop(self.pinned);
        Ok((self.engine, self.gen))
    }
}

/// Sets up [`SETUPS`] times, timing each; keeps the last.
fn set_up<L: BatchLog + 'static>(
    spec: &ServingSpec,
    seed: u64,
    report: &mut Report,
    tracer: &mut Tracer,
    mut engine: impl FnMut(usize) -> io::Result<Engine<Factory, L>>,
    mut discard: impl FnMut(usize),
) -> io::Result<Live<L>> {
    let mut times = Vec::new();
    let mut live: Option<Live<L>> = None;
    for i in 0..SETUPS {
        if let Some(prev) = live.take() {
            let (engine, gen) = prev.stop()?;
            drop(engine);
            tally(report, &gen);
            discard(i - 1);
        }
        let span = tracer.begin("setup", ROOT);
        let t = Instant::now();
        live = Some(Live::start(spec, seed, engine(i)?)?);
        times.push(t.elapsed().as_secs_f64());
        tracer.end(span);
    }
    report.e2e.insert("setup_s".into(), median(&times));
    report.info.push(format!("setup_s samples: {times:.4?}"));
    let live = live.expect("at least one set-up");
    report.info.push(match live.pinned.cores {
        Some((g, s)) => format!("generator pinned to cpu {g}, server worker to cpu {s}"),
        None => "fewer than two usable cores: threads not pinned".into(),
    });
    Ok(live)
}

fn tally(report: &mut Report, gen: &Gen) {
    report.attempted += gen.tally.attempted;
    report.failed += gen.tally.failed;
    for f in &gen.tally.failures {
        report.fail(format!("request failed: {f}"));
    }
}

/// Saturate, run `between`, then the paced phase; fills the end-to-end
/// latency and throughput metrics and the layer metrics the obs registry
/// gives. Returns the paced requests and the obs snapshot over them.
fn measure<L: BatchLog + 'static>(
    live: &mut Live<L>,
    spec: &ServingSpec,
    phases: (Duration, Duration),
    report: &mut Report,
    tracer: &mut Tracer,
    between: impl FnOnce(&Engine<Factory, L>, &mut Report, &mut Tracer) -> io::Result<()>,
) -> io::Result<(Vec<Done>, Snapshot)> {
    let t = Instant::now();
    tracer.span("settle", ROOT, || live.gen.settle(spec.depth))?;
    report.info.push(format!(
        "settle: every series brought to {ORDERED_ROUNDS} points in {:.3} s",
        t.elapsed().as_secs_f64()
    ));

    let span = tracer.begin("saturate", ROOT);
    let acks = live.gen.saturate(phases.0, spec.depth)?;
    tracer.end(span);
    let slice = phases.0.min(SLICE);
    let mut slices = vec![0.0; (phases.0.as_nanos() / slice.as_nanos()) as usize];
    for a in acks {
        if let Some(s) = slices.get_mut((a / slice.as_nanos() as u64) as usize) {
            *s += spec.batch as f64 / slice.as_secs_f64();
        }
    }
    report.e2e.insert("points_per_s".into(), median(&slices));
    report
        .info
        .push(format!("saturate points/s per slice: {slices:.0?}"));

    between(&live.engine, report, tracer)?;

    tsad_obs::reset_all();
    let span = tracer.begin("paced", ROOT);
    let done = live.gen.paced(phases.1, spec.rate)?;
    tracer.end(span);
    let obs = tsad_obs::snapshot();
    tracer.add_requests(span, tracer.offset_of(live.gen.epoch()), &done);

    let mut lat: Vec<f64> = done.iter().map(|d| (d.acked - d.sched) as f64).collect();
    lat.sort_by(f64::total_cmp);
    let mut lag: Vec<f64> = done.iter().map(|d| (d.sent - d.sched) as f64).collect();
    lag.sort_by(f64::total_cmp);
    let ms = |q: f64| quantile(&lat, q) / 1e6;
    report.e2e.insert("latency_p50_ms".into(), ms(0.5));
    report.info.push(format!(
        "paced {:.0} req/s: {} samples, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms, \
         p99.9 {:.4} ms, max {:.4} ms; send lag p99 {:.2} us",
        spec.rate,
        lat.len(),
        ms(0.5),
        ms(0.9),
        ms(0.99),
        ms(0.999),
        ms(1.0),
        quantile(&lag, 0.99) / 1e3
    ));
    // Latency counts from the scheduled send, so generator lag is inside
    // it, never hidden; lag above a tenth of the median is flagged.
    let lag_p99 = quantile(&lag, 0.99);
    if lag_p99 >= 0.1 * quantile(&lat, 0.5) {
        report.info.push(format!(
            "WARNING generator send lag p99 {:.1} us is not under 10% of the p50 latency",
            lag_p99 / 1e3
        ));
    }

    let mean_us = |name: &str| {
        let (s, c) = hist(&obs, name);
        if c > 0.0 {
            s / c / 1e3
        } else {
            0.0
        }
    };
    let ack_mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64 / 1e3;
    let request = mean_us("ingest.request_ns");
    let (push_sum, pushes) = hist(&obs, "ingest.push_ns");
    let (wal_sum, _) = hist(&obs, "wal.append_ns");
    let (fleet_sum, _) = hist(&obs, "fleet.push_batch_ns");
    let fleet_points = obs.counter("fleet.points").unwrap_or(0) as f64;
    let l = &mut report.layers;
    l.insert("client.ack_mean_us".into(), ack_mean);
    l.insert("client.gen_lag_p99_us".into(), lag_p99 / 1e3);
    l.insert("server.remainder_mean_us".into(), ack_mean - request);
    l.insert("conn.request_mean_us".into(), request);
    l.insert("conn.parse_mean_us".into(), mean_us("ingest.parse_ns"));
    l.insert("conn.route_mean_us".into(), mean_us("ingest.route_ns"));
    l.insert("conn.respond_mean_us".into(), mean_us("ingest.respond_ns"));
    l.insert("engine.push_mean_us".into(), mean_us("ingest.push_ns"));
    l.insert(
        "engine.lock_other_mean_us".into(),
        if pushes > 0.0 {
            (push_sum - wal_sum - fleet_sum) / pushes / 1e3
        } else {
            0.0
        },
    );
    l.insert("wal.append_mean_us".into(), mean_us("wal.append_ns"));
    l.insert(
        "fleet.push_ns_per_point".into(),
        if fleet_points > 0.0 {
            fleet_sum / fleet_points
        } else {
            0.0
        },
    );
    l.insert("fleet.warm_s".into(), live.warm_s);
    l.insert(
        "fleet.bytes_per_series".into(),
        live.engine.with_fleet(|f| f.bytes_per_series()) as f64,
    );
    Ok((done, obs))
}

fn hist(obs: &Snapshot, name: &str) -> (f64, f64) {
    obs.histogram(name)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
}

/// Checks every serving workload shares: nothing refused, quarantined or
/// evicted; every series spawned exactly once.
fn check_engine<L: BatchLog>(spec: &ServingSpec, engine: &Engine<Factory, L>, report: &mut Report) {
    let t = engine.totals();
    let series = engine.fleet_stats().0 as u64;
    report.check(
        "engine: no refusals, quarantines, evictions or WAL errors; every series resident",
        if t.rejected + t.quarantined + t.evicted + t.wal_errors == 0
            && series == spec.series
            && t.spawned == spec.series
        {
            Ok(())
        } else {
            Err(format!("{t:?}, {series} series resident"))
        },
    );
}

/// Times one warm detector's `push` over this workload's values: the
/// arithmetic floor under the fleet's per-point cost.
fn stream_push_ns(seed: u64) -> f64 {
    const N: u64 = 1 << 20;
    let values: Vec<f64> = (0..N).map(|k| gen::value(seed, 0, k)).collect();
    let mut det = crate::spawn_detector(0);
    for &v in &values[..64] {
        det.push(v);
    }
    let t = Instant::now();
    for &v in &values {
        std::hint::black_box(det.push(std::hint::black_box(v)));
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Runs one serving workload.
pub fn run(
    spec: &ServingSpec,
    seed: u64,
    phases: (Duration, Duration),
    tmp: &Path,
    tracer: &mut Tracer,
) -> io::Result<Report> {
    let mut report = Report::default();
    if spec.durable {
        let stats = Arc::new(IoStats::default());
        if tracer.on() {
            let s = Arc::clone(&stats);
            let open = move |p: &Path| FsDir::open(p).map(|d| TimedDir::new(d, Arc::clone(&s)));
            run_durable(
                spec,
                seed,
                phases,
                tmp,
                tracer,
                &mut report,
                open,
                Some(&stats),
            )?;
        } else {
            let open = |p: &Path| FsDir::open(p);
            run_durable(spec, seed, phases, tmp, tracer, &mut report, open, None)?;
        }
    } else {
        run_nolog(spec, seed, phases, tracer, &mut report)?;
    }
    if tracer.on() {
        let s = tracer.span("stream.push", ROOT, || stream_push_ns(seed));
        report.layers.insert("stream.push_ns_per_point".into(), s);
    }
    Ok(report)
}

fn run_nolog(
    spec: &ServingSpec,
    seed: u64,
    phases: (Duration, Duration),
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let new_engine = |_| {
        Ok(Engine::new(
            Fleet::new(factory(), spec.fleet_config()),
            EngineConfig::default(),
        ))
    };
    let mut live = set_up(spec, seed, report, tracer, new_engine, |_| ())?;
    measure(&mut live, spec, phases, report, tracer, |_, _, _| Ok(()))?;
    let (engine, gen) = live.stop()?;
    tally(report, &gen);
    check_engine(spec, &engine, report);
    if spec.wire == Wire::Http {
        let span = tracer.begin("check.scores", ROOT);
        check_http_scores(spec, seed, &gen, report);
        tracer.end(span);
    }
    Ok(())
}

/// Every returned score of the first `keep` requests per connection
/// equals a directly driven detector's, bit for bit.
fn check_http_scores(spec: &ServingSpec, seed: u64, gen: &Gen, report: &mut Report) {
    for conn in 0..CONNS {
        let bodies = gen.kept(conn);
        let want = checks::expected_scores(&spec.load(seed), conn, bodies.len());
        let result = checks::check_scores(&want, bodies).and_then(|digest| {
            let digest = format!("{digest:016x}");
            report.info.push(format!(
                "conn {conn}: {} requests' scores match the direct detectors, digest {digest}",
                bodies.len()
            ));
            report
                .outputs
                .insert(format!("scores.conn{conn}"), digest.clone());
            let committed = checks::expected_value(checks::EXPECTED_SCORES, &format!("conn{conn}"));
            match committed {
                Some(c)
                    if seed == 42
                        && spec.full_scale
                        && bodies.len() == spec.keep
                        && c != digest =>
                {
                    Err(format!("digest {digest} differs from the committed {c}"))
                }
                _ => Ok(()),
            }
        });
        report.check(&format!("scores on connection {conn}"), result);
    }
}

/// Removes a directory tree when dropped, so the log goes away even when
/// a check fails or the run errors out.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_durable<D: WalDir + 'static>(
    spec: &ServingSpec,
    seed: u64,
    phases: (Duration, Duration),
    tmp: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
    open: impl Fn(&Path) -> io::Result<D>,
    io_stats: Option<&Arc<IoStats>>,
) -> io::Result<()> {
    let dirs: Vec<RemoveOnDrop> = (0..SETUPS)
        .map(|i| RemoveOnDrop(tmp.join(format!("wal-{i}"))))
        .collect();
    let new_engine = |i: usize| {
        let wal = Wal::create(open(&dirs[i].0)?, wal_config()).map_err(io::Error::other)?;
        Ok(Engine::with_log(
            Fleet::new(factory(), spec.fleet_config()),
            EngineConfig::default(),
            Mutex::new(wal),
        ))
    };
    let discard = |i: usize| {
        let _ = std::fs::remove_dir_all(&dirs[i].0);
    };
    let mut live = set_up(spec, seed, report, tracer, new_engine, discard)?;
    let dir = &dirs[dirs.len() - 1].0;

    let warm_digest = live
        .engine
        .with_fleet(|f| tsad_core::ckpt::digest64(&f.checkpoint().to_bytes()));
    let warm_digest = format!("{warm_digest:016x}");
    report
        .info
        .push(format!("fleet after the warm pass: digest {warm_digest}"));
    report
        .outputs
        .insert("warm_checkpoint".into(), warm_digest.clone());
    if seed == 42 && spec.full_scale {
        let committed = checks::expected_value(checks::EXPECTED_WARM, "warm_checkpoint");
        report.check(
            "fleet after the warm pass equals the committed seed-42 state",
            match committed {
                Some(c) if c == warm_digest => Ok(()),
                other => Err(format!("digest {warm_digest}, committed {other:?}")),
            },
        );
    }

    let bytes_before = std::cell::Cell::new(0u64);
    let io_before = std::cell::Cell::new(Default::default());
    let (done, _) = measure(
        &mut live,
        spec,
        phases,
        report,
        tracer,
        |engine, report, tracer| {
            let t = Instant::now();
            let stats = tracer.span("checkpoint", ROOT, || tsad_ingest::checkpoint_now(engine))?;
            report.layers.insert(
                "fleet.checkpoint_ms".into(),
                t.elapsed().as_secs_f64() * 1e3,
            );
            report.info.push(format!(
                "checkpoint at batch {}: {} bytes, {} log bytes reclaimed",
                stats.seq, stats.payload_bytes, stats.reclaimed_bytes
            ));
            bytes_before.set(engine.log().lock().expect("wal lock").bytes_written());
            if let Some(s) = io_stats {
                io_before.set(s.snapshot());
            }
            Ok(())
        },
    )?;

    let engine = &live.engine;
    let wal_bytes = engine.log().lock().expect("wal lock").bytes_written() - bytes_before.get();
    let paced_points = (done.len() * spec.batch) as f64;
    report.layers.insert(
        "wal.bytes_per_point".into(),
        wal_bytes as f64 / paced_points,
    );
    if let Some(s) = io_stats {
        let io = s.snapshot().since(&io_before.get());
        let per = |ns: u64, n: u64| {
            if n > 0 {
                ns as f64 / n as f64 / 1e3
            } else {
                0.0
            }
        };
        let l = &mut report.layers;
        l.insert("wal.write_mean_us".into(), per(io.write_ns, io.writes));
        l.insert("wal.sync_mean_us".into(), per(io.sync_ns, io.syncs));
        l.insert(
            "wal.syncs_per_kbatch".into(),
            io.syncs as f64 * 1000.0 / done.len().max(1) as f64,
        );
    }

    engine.log().lock().expect("wal lock").flush()?;
    let (engine, gen) = live.stop()?;
    tally(report, &gen);
    check_engine(spec, &engine, report);
    let live_state = engine.with_fleet(|f| f.checkpoint().to_bytes());
    drop(engine);

    let span = tracer.begin("recover", ROOT);
    let t = Instant::now();
    let rec = tsad_ingest::recover_engine(
        open(dir)?,
        factory(),
        wal_config(),
        spec.fleet_config(),
        EngineConfig::default(),
    )
    .map_err(io::Error::other)?;
    let recover_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    report.layers.insert("recover.total_s".into(), recover_s);
    report.info.push(format!(
        "recover_engine: {recover_s:.3} s, {} tail batches replayed onto checkpoint {:?}",
        rec.replayed_batches, rec.checkpoint_seq
    ));
    let recovered_state = rec.engine.with_fleet(|f| f.checkpoint().to_bytes());
    drop(rec);
    report.check(
        "recovered fleet equals the live fleet bit for bit",
        checks::check_recovered(&live_state, &recovered_state),
    );

    if let Some(s) = io_stats {
        recover_by_stage(open(dir)?, s, report, tracer, spec)?;
    }
    Ok(())
}

/// Repeats recovery one public call at a time to split its time into
/// scan (with the reads inside it), checkpoint restore and tail replay.
fn recover_by_stage<D: WalDir>(
    dir: D,
    stats: &IoStats,
    report: &mut Report,
    tracer: &mut Tracer,
    spec: &ServingSpec,
) -> io::Result<()> {
    let parent = tracer.begin("recover.by_stage", ROOT);
    let before = stats.snapshot();
    let t = Instant::now();
    let rec = tracer
        .span("recover.scan", parent, || {
            tsad_wal::recover(&dir, &wal_config())
        })
        .map_err(io::Error::other)?;
    let scan_s = t.elapsed().as_secs_f64();
    let read_s = stats.snapshot().since(&before).read_ns as f64 / 1e9;

    let t = Instant::now();
    let mut fleet = Fleet::new(factory(), spec.fleet_config());
    tracer.span("recover.restore", parent, || -> io::Result<()> {
        if let Some((_, payload)) = &rec.checkpoint {
            let ckpt = FleetCheckpoint::from_bytes(payload).map_err(io::Error::other)?;
            fleet.restore(&ckpt).map_err(io::Error::other)?;
        }
        Ok(())
    })?;
    let restore_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    tracer.span("recover.replay", parent, || {
        let mut out = tsad_fleet::BatchOutput::new();
        let mut batch: Vec<(SeriesId, f64)> = Vec::new();
        for b in &rec.batches {
            batch.clear();
            batch.extend(b.points.iter().map(|&(id, v)| (SeriesId(id), v)));
            fleet.push_batch(&batch, &mut out);
        }
    });
    let replay_s = t.elapsed().as_secs_f64();
    tracer.end(parent);
    let l = &mut report.layers;
    l.insert("recover.scan_s".into(), scan_s);
    l.insert("recover.read_s".into(), read_s);
    l.insert("recover.restore_s".into(), restore_s);
    l.insert("recover.replay_s".into(), replay_s);
    Ok(())
}
