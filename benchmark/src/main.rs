//! End-to-end benchmark of the serving path and the paper's experiments.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs each workload (all five by default) in [`PROCESSES`] fresh child
//! processes — re-execs of this binary — each measuring an equal share of
//! `--seconds`, so the observability registry, FFT plan caches and peak
//! RSS never carry over, and each end-to-end metric is the median over the
//! processes. With `--trace 1` one more, traced process follows, and the
//! per-layer metrics come from it; spans are written to `.bench_trace/`.
//! After each workload one JSON line is printed:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod checks;
mod gen;
mod metrics;
mod pin;
mod research;
mod serving;
mod trace;

use std::collections::BTreeMap;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tsad_bench::minijson::{self, JsonValue};
use tsad_detectors::cusum::Cusum;
use tsad_stream::{FnFactory, NanPolicy, Sanitized, StreamingCusum};

use crate::gen::{Ids, Wire};
use crate::metrics::{Report, END_TO_END};
use crate::research::{Job, ResearchSpec};
use crate::serving::ServingSpec;
use crate::trace::Tracer;

/// The detector every series runs: the one the fleet and ingest benches
/// use.
pub type Detector = Sanitized<StreamingCusum>;
/// The fleet's detector factory.
pub type Factory = FnFactory<fn(u64) -> Detector>;

/// Training points of every detector.
pub const TRAIN: usize = 8;

/// A fresh detector (CUSUM, [`TRAIN`] training points, NaN skipped).
pub fn spawn_detector(_id: u64) -> Detector {
    let cusum = StreamingCusum::new(Cusum::default(), TRAIN).expect("valid CUSUM parameters");
    Sanitized::new(cusum, NanPolicy::Skip)
}

/// The factory spawning [`spawn_detector`].
pub fn factory() -> Factory {
    FnFactory(spawn_detector as fn(u64) -> Detector)
}

/// Workload names, in the order a full run takes them.
pub const WORKLOADS: &[&str] = &[
    "ingest-durable",
    "score-http",
    "ingest-wide",
    "catalog-grid",
    "archive-contest",
];

/// Processes one run of a workload is split across. Heap and stack
/// layout (ASLR) and the physical pages a process gets differ from
/// process to process, and moved a whole run's numbers by up to ±10% on
/// the 2-core sizing VM even with identical inputs; the median over a few
/// processes does not move with them.
const PROCESSES: usize = 3;

/// Longest a workload child may run before it is killed. A traced run
/// takes `PROCESSES + 1` children, and the whole invocation must end
/// within 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(40);

enum Spec {
    Serving(ServingSpec),
    Research(ResearchSpec),
}

/// The workload `name` at full scale, or at the tiny scale the self-test
/// runs.
fn spec(name: &str, full: bool) -> Option<Spec> {
    let serving = ServingSpec {
        wire: Wire::Binary,
        series: 0,
        batch: 0,
        ids: Ids::RoundRobin,
        depth: 4,
        rate: 0.0,
        saturate_share: 5.0 / 12.0,
        durable: false,
        keep: 0,
        full_scale: full,
    };
    let research = ResearchSpec {
        job: Job::Catalog { per_family: 0 },
        setups: if full { 8 } else { 2 },
        min_reps: 2,
        full_scale: full,
    };
    Some(match name {
        "ingest-durable" => Spec::Serving(ServingSpec {
            series: if full { 16_384 } else { 512 },
            batch: if full { 64 } else { 16 },
            rate: if full { 8_000.0 } else { 2_000.0 },
            // Throughput is the noisier metric here, and a shorter paced
            // phase leaves a shorter tail to recover.
            saturate_share: 2.0 / 3.0,
            durable: true,
            ..serving
        }),
        "score-http" => Spec::Serving(ServingSpec {
            wire: Wire::Http,
            series: if full { 4_096 } else { 256 },
            batch: if full { 32 } else { 8 },
            rate: if full { 20_000.0 } else { 2_000.0 },
            keep: if full { 2_000 } else { 50 },
            ..serving
        }),
        "ingest-wide" => Spec::Serving(ServingSpec {
            series: if full { 1 << 20 } else { 2_048 },
            batch: if full { 4_096 } else { 256 },
            ids: Ids::Random,
            depth: 2,
            rate: if full { 150.0 } else { 200.0 },
            ..serving
        }),
        "catalog-grid" => Spec::Research(ResearchSpec {
            job: Job::Catalog {
                per_family: if full { 4 } else { 1 },
            },
            ..research
        }),
        "archive-contest" => Spec::Research(ResearchSpec {
            job: Job::Contest {
                datasets: if full { 3 } else { 1 },
            },
            setups: if full { 3 } else { 2 },
            min_reps: 1,
            ..research
        }),
        _ => return None,
    })
}

/// Runs workload `name` in this process. `seconds` is the measuring
/// budget: the serving phases split it between saturate and paced by the
/// spec's `saturate_share`; the research workloads repeat their job until
/// it is spent.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    tmp: &Path,
    tracer: &mut Tracer,
    full: bool,
) -> io::Result<Report> {
    let spec =
        spec(name, full).ok_or_else(|| io::Error::other(format!("unknown workload {name}")))?;
    let budget = Duration::from_secs_f64(seconds);
    let mut report = match spec {
        Spec::Serving(s) => {
            let saturate = budget.mul_f64(s.saturate_share);
            let phases = (saturate, budget - saturate);
            serving::run(&s, seed, phases, tmp, tracer)?
        }
        Spec::Research(r) => research::run(&r, seed, budget, tracer)?,
    };
    report
        .e2e
        .insert("peak_rss_mb".into(), metrics::peak_rss_mib()?);
    report.fill_missing_layers();
    for (name, v) in report.e2e.iter().chain(&report.layers) {
        if !v.is_finite() || (report.e2e.contains_key(name) && *v <= 0.0) {
            report
                .failures
                .push(format!("metric {name} = {v} is not a measurement"));
        }
    }
    Ok(report)
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a workload child: the scratch directory it may use.
    child_tmp: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 16.0,
        trace: false,
        child_tmp: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workloads.push(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--child-tmp" => args.child_tmp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// Formats a value as JSON (every digit Rust's shortest round-trip form
/// keeps).
fn num(v: f64) -> String {
    format!("{v}")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric of `units` as `{"value", "unit"}`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<String, f64>,
    units: &[(String, &str)],
) -> String {
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(f64::NAN);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn end_to_end_units() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

fn map_json(values: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The child's report to the parent, on its last stdout line.
fn child_main(args: &Args, tmp: &Path) -> io::Result<()> {
    let name = &args.workloads[0];
    let mut tracer = Tracer::new(args.trace);
    let report = run_workload(name, args.seed, args.seconds, tmp, &mut tracer, true)?;
    for line in &report.info {
        println!("  {line}");
    }
    for f in &report.failures {
        println!("  FAILED {f}");
    }
    if args.trace {
        let path = PathBuf::from(".bench_trace").join(format!("{name}-seed{}.tsv", args.seed));
        tracer.write(&path)?;
        println!("  spans: {} written to {}", tracer.len(), path.display());
    }
    let outputs: Vec<String> = report
        .outputs
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "RESULT {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"e2e\": {}, \"layers\": {}, \
         \"outputs\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        map_json(&report.e2e),
        map_json(&report.layers),
        outputs.join(", ")
    );
    Ok(())
}

/// What a workload child reported.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    outputs: BTreeMap<String, String>,
}

fn parse_child(line: &str) -> Result<ChildResult, String> {
    let doc = minijson::parse(line).map_err(|e| format!("child result: {e:?}"))?;
    let object = |key: &str| match doc.get(key) {
        Some(JsonValue::Obj(m)) => Ok(m),
        _ => Err(format!("child result lacks {key}")),
    };
    let numbers = |key: &str| -> Result<BTreeMap<String, f64>, String> {
        object(key)?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|v| (k.clone(), v))
                    .ok_or(format!("{k} is not a number"))
            })
            .collect()
    };
    Ok(ChildResult {
        correct: doc
            .get("correct")
            .and_then(JsonValue::as_bool)
            .ok_or("no correct")?,
        attempted: doc
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .ok_or("no attempted")?,
        failed: doc
            .get("failed")
            .and_then(JsonValue::as_u64)
            .ok_or("no failed")?,
        e2e: numbers("e2e")?,
        layers: numbers("layers")?,
        outputs: object("outputs")?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|v| (k.clone(), v.to_string()))
                    .ok_or(format!("{k} is not a string"))
            })
            .collect::<Result<_, _>>()?,
    })
}

/// Runs process `index` of one workload run and waits for it, killing it
/// past [`CHILD_TIMEOUT`]. It measures for a [`PROCESSES`]-th of
/// `--seconds`. The child's scratch directory is removed however it ends.
fn run_child(
    args: &Args,
    workload: &str,
    index: usize,
    trace: bool,
) -> Result<ChildResult, String> {
    let seconds = args.seconds / PROCESSES as f64;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let root = std::env::current_dir()
        .map_err(|e| format!("current_dir: {e}"))?
        .join(".bench_tmp");
    let tmp = root.join(format!(
        "{workload}-{}-{index}-{}",
        std::process::id(),
        u8::from(trace)
    ));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let result = (|| {
        let mut child = Command::new(exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--child-tmp")
            .arg(&tmp)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let mut stdout = child.stdout.take().expect("piped stdout");
        let reader = std::thread::spawn(move || {
            let mut s = String::new();
            stdout.read_to_string(&mut s).map(|_| s)
        });
        let started = Instant::now();
        let status = loop {
            match child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) => break status,
                None if started.elapsed() > CHILD_TIMEOUT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = reader.join();
                    return Err(format!("{workload} exceeded {CHILD_TIMEOUT:?}"));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let out = reader
            .join()
            .map_err(|_| "stdout reader panicked".to_string())?
            .map_err(|e| format!("read child stdout: {e}"))?;
        let mut result_line = None;
        for line in out.lines() {
            match line.strip_prefix("RESULT ") {
                Some(r) => result_line = Some(r.to_string()),
                None => println!("{line}"),
            }
        }
        if !status.success() {
            return Err(format!("{workload} child exited with {status}"));
        }
        parse_child(&result_line.ok_or("child printed no result")?)
    })();
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(&root);
    result
}

/// One untraced run: [`PROCESSES`] children. Each end-to-end metric is
/// the median over the children; every child must pass its checks and
/// produce the same outputs.
fn run_untraced(args: &Args, workload: &str) -> Result<ChildResult, String> {
    let runs = (0..PROCESSES)
        .map(|i| {
            println!("-- process {}/{PROCESSES}", i + 1);
            run_child(args, workload, i, false)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut correct = runs.iter().all(|r| r.correct);
    for (key, value) in &runs[0].outputs {
        if let Some(r) = runs.iter().find(|r| r.outputs.get(key) != Some(value)) {
            println!(
                "  FAILED {key} differs between processes: {value} vs {:?}",
                r.outputs.get(key)
            );
            correct = false;
        }
    }
    let e2e = END_TO_END
        .iter()
        .map(|&(n, _)| {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.e2e.get(n).copied().unwrap_or(f64::NAN))
                .collect();
            (n.to_string(), metrics::median(&values))
        })
        .collect();
    Ok(ChildResult {
        correct,
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        e2e,
        layers: BTreeMap::new(),
        outputs: runs
            .into_iter()
            .next()
            .map(|r| r.outputs)
            .unwrap_or_default(),
    })
}

/// Relative change of each end-to-end metric from `base` to `traced`.
fn overhead(base: &ChildResult, traced: &ChildResult) -> String {
    END_TO_END
        .iter()
        .filter(|(n, _)| *n != "peak_rss_mb")
        .map(|(n, _)| {
            let (b, t) = (base.e2e[*n], traced.e2e[*n]);
            format!("{n} {:+.1}%", (t - b) / b * 100.0)
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn parent_main(args: &Args) -> Result<bool, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut all_correct = true;
    for workload in &args.workloads {
        println!(
            "== {workload} (seed {}, {} s over {PROCESSES} processes, {threads} cores, TSAD_THREADS={})",
            args.seed,
            args.seconds,
            std::env::var("TSAD_THREADS").unwrap_or_else(|_| "unset".into())
        );
        let base = run_untraced(args, workload)?;
        let units = end_to_end_units();
        for (n, u) in &units {
            println!("  {n:<16} {:>16.4} {u}", base.e2e[n]);
        }
        let line = if args.trace {
            println!("-- traced process");
            let traced = run_child(args, workload, 0, true)?;
            let layers = metrics::per_layer();
            for (n, u) in &layers {
                println!("  {n:<32} {:>16.4} {u}", traced.layers[n]);
            }
            println!(
                "  trace overhead (traced process vs untraced median): {}",
                overhead(&base, &traced)
            );
            let correct = base.correct && traced.correct;
            all_correct &= correct;
            result_line(
                correct,
                base.attempted + traced.attempted,
                base.failed + traced.failed,
                &traced.layers,
                &layers,
            )
        } else {
            all_correct &= base.correct;
            result_line(base.correct, base.attempted, base.failed, &base.e2e, &units)
        };
        println!("{line}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(tmp) = args.child_tmp.clone() {
        return match child_main(&args, &tmp) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parent_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use tsad_fleet::{Fleet, FleetConfig};
    use tsad_ingest::{Engine, EngineConfig, ServerConfig};

    use super::*;
    use crate::gen::{Gen, Load};

    /// The observability registry is process-global: one workload at a
    /// time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn names_and_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_and_workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = minijson::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            names_and_units(&doc, "end_to_end"),
            owned(end_to_end_units())
        );
        assert_eq!(
            names_and_units(&doc, "per_layer"),
            owned(metrics::per_layer())
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    fn run_tiny(name: &str, trace: bool) -> Report {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let tmp =
            std::env::temp_dir().join(format!("tsad-e2e-{}-{name}-{trace}", std::process::id()));
        let mut tracer = Tracer::new(trace);
        let report = run_workload(name, 7, 0.6, &tmp, &mut tracer, false);
        let _ = std::fs::remove_dir_all(&tmp);
        report.expect("tiny run")
    }

    /// Parses a result line and returns its `(name, unit)` pairs.
    fn printed(line: &str) -> Vec<(String, String)> {
        let doc = minijson::parse(line).expect("result line is JSON");
        assert!(doc.get("correct").and_then(JsonValue::as_bool).is_some());
        assert!(doc
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .is_some_and(|a| a >= 1));
        match doc.get("metrics") {
            Some(JsonValue::Obj(m)) => m
                .iter()
                .map(|(name, v)| {
                    assert!(
                        v.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{name}"
                    );
                    (
                        name.clone(),
                        v.get("unit")
                            .and_then(JsonValue::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect(),
            _ => panic!("no metrics object in {line}"),
        }
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    #[test]
    fn every_workload_runs_at_tiny_scale_prints_every_metric_and_passes_its_checks() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let r = run_tiny(name, trace);
                assert!(
                    r.failures.is_empty(),
                    "{name} trace={trace}: {:?}",
                    r.failures
                );
                assert!(
                    r.info.iter().any(|l| l.starts_with("check ")),
                    "{name}: no check ran"
                );
                let (units, values) = if trace {
                    (metrics::per_layer(), &r.layers)
                } else {
                    (end_to_end_units(), &r.e2e)
                };
                let line = result_line(true, r.attempted, r.failed, values, &units);
                let want = units
                    .iter()
                    .map(|(n, u)| (n.clone(), u.to_string()))
                    .collect();
                assert_eq!(sorted(printed(&line)), sorted(want), "{name} trace={trace}");
                for (n, _) in END_TO_END {
                    assert!(r.e2e[*n] > 0.0, "{name}: {n} = {}", r.e2e[*n]);
                }
                if trace && spec(name, false).is_some_and(|s| matches!(s, Spec::Serving(_))) {
                    let l = &r.layers;
                    let sum = l["conn.request_mean_us"] + l["server.remainder_mean_us"];
                    assert!(
                        (sum - l["client.ack_mean_us"]).abs() < 1e-6,
                        "{name}: layers do not add up"
                    );
                    assert!(
                        l["conn.request_mean_us"] > 0.0,
                        "{name}: no server-side time"
                    );
                }
            }
        }
    }

    #[test]
    fn a_flipped_score_bit_fails_the_score_check() {
        let load = Load {
            wire: Wire::Http,
            series: 64,
            batch: 8,
            ids: Ids::RoundRobin,
            seed: 3,
        };
        let engine = Arc::new(Engine::new(
            Fleet::new(factory(), FleetConfig::default()),
            EngineConfig::default(),
        ));
        let server_cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = tsad_ingest::start(engine, server_cfg, "127.0.0.1:0").unwrap();
        let mut gen = Gen::connect(server.addr(), load, 40).unwrap();
        gen.warm().unwrap();
        gen.saturate(Duration::from_millis(200), 2).unwrap();
        server.stop().unwrap();

        let mut bodies = gen.kept(0).to_vec();
        let want = checks::expected_scores(&load, 0, bodies.len());
        assert!(checks::check_scores(&want, &bodies).is_ok());
        let (req, &(_, _, score)) = want
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.first().map(|x| (i, x)))
            .expect("some request returned a score");
        let text = String::from_utf8(bodies[req].clone()).unwrap();
        let flipped = f64::from_bits(score.to_bits() ^ 1);
        bodies[req] = text
            .replacen(
                &format!("\"score\":{score}"),
                &format!("\"score\":{flipped}"),
                1,
            )
            .into_bytes();
        assert!(checks::check_scores(&want, &bodies).is_err());
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "score-http",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workloads.len(), a.seed, a.seconds, a.trace),
            (1, 7, 10.0, true)
        );
        assert_eq!(args(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
