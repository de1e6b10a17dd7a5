//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--seed N] [--obs-summary] <experiment>...
//! repro all                             # everything (table1 takes ~1 min in release)
//! repro table1 fig8 fig13               # a subset
//! repro --out /tmp/fresh.json bench-json
//! repro gate --baseline BENCH_kernels.json --fresh /tmp/fresh.json
//! ```

use std::process::ExitCode;

use tsad_bench::experiments::*;
use tsad_bench::{gate, DEFAULT_SEED};

// Count allocations in this binary so `bench-json` can report
// `allocs_per_iter` honestly; library consumers never see this allocator.
#[global_allocator]
static ALLOC: tsad_bench::alloc_track::CountingAlloc = tsad_bench::alloc_track::CountingAlloc;

/// Wall-clock time per experiment (one sample per `run_one` call).
static EXPERIMENT_NS: tsad_obs::Span = tsad_obs::Span::new("repro.experiment_ns");

/// The paper's experiments, in the order `repro all` runs them.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig13",
    "density",
    "summary",
    "contest",
    "invariances",
    "protocols",
    "gallery",
    "triviality",
    "audit",
    "stream",
    "faults",
    "catalog",
];

/// Run only when named: `fig12` (printed with `fig11`), the document
/// generators, the gate, and the serving and durability demos.
const TOOLS: &[&str] = &[
    "fig12",
    "bench-json",
    "faults-json",
    "catalog-json",
    "fleet-json",
    "ingest-json",
    "wal-json",
    "detectors-md",
    "gate",
    "fleet",
    "loadgen",
    "wal",
    "write-archive",
];

fn usage() -> String {
    format!(
        "usage: repro [--seed N] [--obs-summary] [--out PATH] [--baseline PATH] \
         [--fresh PATH] <experiment>...\n       \
         repro all\nexperiments: {}\nalso: {}\n\
         --obs-summary     print the tsad-obs metric summary to stderr at exit\n\
         --out PATH        where *-json / detectors-md write (default: the committed file)\n\
         --fresh PATH      gate: the freshly generated document (required)\n\
         --baseline PATH   gate: the committed baseline (default: the file the fresh schema names)\n\
         --fleet-series N  fleet / fleet-json: series count (defaults: fleet 1000000, fleet-json 100000)\n\
         --addr HOST:PORT  loadgen: drive an already-running server (default: self-hosted on 127.0.0.1:0)\n\
         --series N        loadgen: series-id space (default 10000)\n\
         --rps N           loadgen: target requests/second, 0 = unpaced (default 0)\n\
         --conns C         loadgen: concurrent client connections (default 4)\n\
         --transport T     loadgen: http or tcp (default http)\n\
         --requests N      loadgen: total requests, 0 = run for --duration-ms (default 10000)\n\
         --duration-ms N   loadgen: run length when --requests 0 (default 5000)\n\
         --batch-points N  loadgen: points per request (default 64)",
        EXPERIMENTS.join(", "),
        TOOLS.join(", ")
    )
}

/// Parsed command-line options (everything but the experiment list).
struct Options {
    seed: u64,
    obs_summary: bool,
    out: Option<String>,
    baseline: Option<String>,
    fresh: Option<String>,
    fleet_series: Option<u64>,
    loadgen: ingest_bench::LoadGenCli,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            seed: DEFAULT_SEED,
            obs_summary: false,
            out: None,
            baseline: None,
            fresh: None,
            fleet_series: None,
            loadgen: ingest_bench::LoadGenCli::default(),
        }
    }
}

/// Writes a rendered `BENCH_*.json` document to `--out`, by default the
/// committed file its schema names; returns the path written.
fn write_doc(opts: &Options, json: &str) -> Result<String, Box<dyn std::error::Error>> {
    let path = match &opts.out {
        Some(path) => path.clone(),
        None => gate::schema_of(json)?.file.to_string(),
    };
    std::fs::write(&path, json)?;
    Ok(path)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run_one(name: &str, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let seed = opts.seed;
    let _timer = EXPERIMENT_NS.start();
    println!("════════ {name} (seed {seed}) ════════");
    match name {
        "table1" => {
            let t = table1::run(seed, None)?;
            println!("Table 1 — brute-force one-liner results on the simulated Yahoo benchmark");
            println!("(paper: A1 65.7%, A2 97.0%, A3 98.0%, A4 77.0%, total 86.1%)");
            println!("{}", t.render());
        }
        "fig1" => print!("{}", oneliners::render_fig1(&oneliners::fig1(seed)?)),
        "fig2" => print!("{}", oneliners::render_fig2(&oneliners::fig2(seed)?)),
        "fig3" => print!("{}", oneliners::render_fig3(&oneliners::fig3(seed)?)),
        "fig4" => {
            let f = mislabels::fig4(seed)?;
            println!(
                "Fig. 4 — constant-region mislabel: value at A ({}) = {:.4}, at B ({}) = {:.4}",
                f.a, f.value_a, f.b, f.value_b
            );
            println!(
                "  A labeled: {}, B labeled: {} — yet nothing changed from A to B",
                f.dataset.labels().contains(f.a),
                f.dataset.labels().contains(f.b)
            );
            println!(
                "  twin analyzer surfaces B as a suspected false negative: {}",
                f.twin_found
            );
        }
        "fig5" => {
            let f = mislabels::fig5(seed)?;
            println!(
                "Fig. 5 — twin dropouts: C at {} (labeled), D at {} (unlabeled)",
                f.c, f.d
            );
            match f.twin_distance {
                Some(d) => println!("  analyzer finds D with z-norm distance {d:.4} to C"),
                None => println!("  analyzer FAILED to find D"),
            }
        }
        "fig6" => print!("{}", mislabels::render_fig6(&mislabels::fig6(seed)?)),
        "fig7" => {
            let f = mislabels::fig7(seed)?;
            println!("Fig. 7 — over-precise toggling labels:");
            println!(
                "  given labels: {} regions toggling after the change point",
                f.dataset.labels().region_count()
            );
            println!(
                "  oracle (whole changed suffix) F1 vs toggling labels: {:.3}; vs proposed contiguous label: {:.3}",
                f.oracle_vs_toggling, f.oracle_vs_proposed
            );
        }
        "fig8" => print!("{}", taxi::render(&taxi::fig8(seed, 1)?)),
        "fig9" => {
            let f = mislabels::fig9(seed)?;
            println!(
                "Fig. 9 — frozen telemetry: {} frozen regions at {:?}, 1 labeled",
                f.frozen.len(),
                f.frozen.iter().map(|r| r.start).collect::<Vec<_>>()
            );
            println!(
                "  twin analyzer surfaces {} of 2 unlabeled freezes as suspected false negatives",
                f.unlabeled_freezes_found
            );
        }
        "fig10" => print!("{}", position::render(&position::fig10(seed, None)?)),
        "fig11" | "fig12" => {
            let f11 = ucr_figs::fig11(seed)?;
            let f12 = ucr_figs::fig12(seed)?;
            print!("{}", ucr_figs::render(&f11, &f12));
        }
        "fig13" => {
            let f = fig13::run(seed, &[0.0, 0.25, 0.5, 0.75, 1.0])?;
            print!("{}", fig13::render(&f));
        }
        "density" => print!("{}", density::render(&density::run(seed)?)),
        "summary" => print!("{}", summary::render(&summary::run(seed, 25)?)),
        "contest" => print!("{}", contest::render(&contest::run(seed, 30)?)),
        "invariances" => print!("{}", invariances::render(&invariances::run(seed, 12_000)?)),
        "protocols" => print!("{}", protocols::render(&protocols::run(seed)?)),
        "gallery" => print!("{}", gallery::render(&gallery::run(seed)?)),
        "triviality" => print!(
            "{}",
            triviality_all::render(&triviality_all::run(seed, 38)?)
        ),
        "audit" => print!("{}", audit_exp::render(&audit_exp::run(seed, 10, 21)?)),
        "stream" => print!("{}", stream::render(&stream::run(seed)?)),
        "faults" => print!("{}", faults::render(&faults::run(seed)?)),
        "faults-json" => {
            let exp = faults::run(seed)?;
            let path = write_doc(opts, &faults::render_json(&exp))?;
            println!("wrote {path} ({} rows)", exp.rows.len());
        }
        "catalog" => print!(
            "{}",
            catalog::render(&catalog::run(seed, &catalog::CatalogConfig::ci())?)
        ),
        "catalog-json" => {
            let exp = catalog::run(seed, &catalog::CatalogConfig::ci())?;
            let path = write_doc(opts, &catalog::render_json(&exp))?;
            println!("wrote {path} ({} rows)", exp.rows.len());
        }
        "detectors-md" => {
            let md = catalog::detectors_md();
            let path = opts.out.as_deref().unwrap_or("DETECTORS.md");
            std::fs::write(path, &md)?;
            println!("wrote {path} ({} bytes)", md.len());
        }
        "bench-json" => {
            let doc = bench_json::run(seed, &bench_json::BenchConfig::default())?;
            let json = bench_json::render(&doc);
            let path = write_doc(opts, &json)?;
            println!("wrote {path} ({} kernels):", doc.kernels.len());
            print!("{json}");
        }
        "fleet" => {
            // the acceptance-scale demo: a million resident detectors
            let mut cfg = fleet::FleetBenchConfig::default();
            if let Some(n) = opts.fleet_series {
                cfg.series = n;
            }
            print!("{}", fleet::render(&fleet::run(seed, &cfg)?));
        }
        "fleet-json" => {
            // CI scale by default, so the committed baseline regenerates
            // quickly on any machine
            let mut cfg = fleet::FleetBenchConfig::ci();
            if let Some(n) = opts.fleet_series {
                cfg.series = n;
            }
            let b = fleet::run(seed, &cfg)?;
            let json = fleet::render_json(&b);
            let path = write_doc(opts, &json)?;
            println!("wrote {path} ({} series):", b.cfg.series);
            print!("{json}");
        }
        "loadgen" => match ingest_bench::run_loadgen(&opts.loadgen, seed) {
            Ok(report) => print!("{report}"),
            Err(e) => return Err(e.into()),
        },
        "ingest-json" => {
            let b = ingest_bench::run(seed, &ingest_bench::IngestBenchConfig::ci())?;
            let path = write_doc(opts, &ingest_bench::render_json(&b))?;
            println!(
                "wrote {path} ({} stages, {} transports):",
                b.stages.len(),
                b.loadgen.len()
            );
            print!("{}", ingest_bench::render(&b));
        }
        "wal" => print!(
            "{}",
            wal_bench::render(&wal_bench::run(seed, &wal_bench::WalBenchConfig::ci())?)
        ),
        "wal-json" => {
            let b = wal_bench::run(seed, &wal_bench::WalBenchConfig::ci())?;
            let path = write_doc(opts, &wal_bench::render_json(&b))?;
            println!("wrote {path} ({} policies):", b.rows.len());
            print!("{}", wal_bench::render(&b));
        }
        "gate" => {
            let fresh_path = opts
                .fresh
                .as_deref()
                .ok_or_else(|| format!("gate needs --fresh PATH\n{}", usage()))?;
            let fresh = read(fresh_path)?;
            let baseline_path = match &opts.baseline {
                Some(path) => path.clone(),
                None => gate::schema_of(&fresh)?.file.to_string(),
            };
            let report = gate::compare(&read(&baseline_path)?, &fresh)?;
            print!("{}", gate::render(&report));
            if !report.passed() {
                return Err(format!("{fresh_path} fails the gate against {baseline_path}").into());
            }
        }
        "write-archive" => {
            let dir = std::env::temp_dir().join("tsad-ucr-archive");
            let rows = tsad_archive::manifest::build_and_write(&dir, seed, 30)?;
            println!(
                "wrote {} datasets + MANIFEST.tsv + README.md to {}",
                rows.len(),
                dir.display()
            );
        }
        other => {
            eprintln!("unknown experiment {other:?}\n{}", usage());
            return Err("unknown experiment".into());
        }
    }
    println!();
    Ok(())
}

/// Removes `--flag VALUE` from `args`, returning the value if present.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn parse_options(args: &mut Vec<String>) -> Result<Options, String> {
    let mut opts = Options::default();
    if let Some(v) = take_value_flag(args, "--seed")? {
        opts.seed = v.parse().map_err(|e| format!("bad seed: {e}"))?;
    }
    if let Some(pos) = args.iter().position(|a| a == "--obs-summary") {
        args.remove(pos);
        opts.obs_summary = true;
    }
    opts.out = take_value_flag(args, "--out")?;
    opts.baseline = take_value_flag(args, "--baseline")?;
    opts.fresh = take_value_flag(args, "--fresh")?;
    if let Some(v) = take_value_flag(args, "--fleet-series")? {
        opts.fleet_series = Some(v.parse().map_err(|e| format!("bad fleet series: {e}"))?);
    }
    opts.loadgen.addr = take_value_flag(args, "--addr")?;
    if let Some(v) = take_value_flag(args, "--series")? {
        opts.loadgen.cfg.series = v.parse().map_err(|e| format!("bad series: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--rps")? {
        opts.loadgen.cfg.rps = v.parse().map_err(|e| format!("bad rps: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--conns")? {
        opts.loadgen.cfg.conns = v.parse().map_err(|e| format!("bad conns: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--transport")? {
        opts.loadgen.cfg.transport = v.parse()?;
    }
    if let Some(v) = take_value_flag(args, "--requests")? {
        opts.loadgen.cfg.requests = v.parse().map_err(|e| format!("bad requests: {e}"))?;
    }
    if let Some(v) = take_value_flag(args, "--duration-ms")? {
        let ms: u64 = v.parse().map_err(|e| format!("bad duration: {e}"))?;
        opts.loadgen.cfg.duration = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = take_value_flag(args, "--batch-points")? {
        opts.loadgen.cfg.batch_points = v.parse().map_err(|e| format!("bad batch points: {e}"))?;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&mut args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let list: Vec<String> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for name in &list {
        if let Err(e) = run_one(name, &opts) {
            eprintln!("experiment {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.obs_summary {
        eprint!("{}", tsad_obs::render_summary(&tsad_obs::snapshot()));
    }
    ExitCode::SUCCESS
}
