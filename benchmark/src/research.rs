//! The research workloads: the paper's Table-1 grid over the whole
//! detector registry, and its §3 archive contest. No serving layer runs.
//!
//! A repetition is one call of the experiment as `repro` makes it; the
//! run repeats it until the time budget is spent. Set-up (registry and
//! input synthesis) is timed separately, from outside.

use std::io;
use std::time::{Duration, Instant};

use tsad_archive::builder::build_archive;
use tsad_archive::contest::{run_contest, ContestResult};
use tsad_bench::experiments::{catalog, contest};
use tsad_core::Dataset;
use tsad_detectors::baselines::{GlobalZScore, NaiveLastPoint, RandomDetector, SubsequenceKnn};
use tsad_detectors::matrix_profile::{DiscordDetector, OnlineDiscordDetector};
use tsad_detectors::registry::DetectorRegistry;
use tsad_detectors::seasonal::SeasonalDetector;
use tsad_detectors::telemanom::Telemanom;
use tsad_parallel::Task;
use tsad_synth::yahoo::{self, Family, SERIES_LEN};

use crate::checks;
use crate::metrics::{median, quantile, Report, DETECTOR_IDS, PANEL_IDS};
use crate::trace::{Tracer, ROOT};

/// Which experiment a research workload repeats.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// `catalog::run` with this many series per Yahoo family.
    Catalog {
        /// Series per family.
        per_family: usize,
    },
    /// `contest::run` over an archive of this many datasets.
    Contest {
        /// Archive size.
        datasets: usize,
    },
}

/// One research workload.
#[derive(Debug, Clone, Copy)]
pub struct ResearchSpec {
    /// The experiment.
    pub job: Job,
    /// Set-ups per process; `setup_s` is their median.
    pub setups: usize,
    /// Repetitions run even when the time budget is spent.
    pub min_reps: usize,
    /// Whether the committed seed-42 outputs apply (full scale only).
    pub full_scale: bool,
}

fn err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

fn digest(text: &str) -> String {
    format!("{:016x}", tsad_core::ckpt::digest64(text.as_bytes()))
}

/// Runs one research workload for at least `budget`.
pub fn run(
    spec: &ResearchSpec,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> io::Result<Report> {
    let mut report = Report::default();
    match spec.job {
        Job::Catalog { per_family } => {
            run_catalog(spec, per_family, seed, budget, tracer, &mut report)?
        }
        Job::Contest { datasets } => {
            run_contest_job(spec, datasets, seed, budget, tracer, &mut report)?
        }
    }
    let reps = report.attempted.max(1) as f64;
    let obs = tsad_obs::snapshot();
    let hist_ms = |name: &str| {
        obs.histogram(name)
            .map_or(0.0, |h| h.sum as f64 / 1e6 / reps)
    };
    let count = |name: &str| obs.counter(name).unwrap_or(0) as f64;
    let l = &mut report.layers;
    l.insert(
        "core.stomp_band_ms".into(),
        hist_ms("detectors.stomp.band_ns"),
    );
    l.insert("core.fft_plan_miss".into(), count("core.fft.plan_miss"));
    l.insert(
        "detectors.merlin_drag_passes".into(),
        count("detectors.merlin.drag_passes") / reps,
    );
    l.insert(
        "parallel.busy_ms".into(),
        hist_ms("parallel.worker.busy_ns"),
    );
    l.insert(
        "parallel.queue_wait_ms".into(),
        hist_ms("parallel.queue.wait_ns"),
    );
    Ok(report)
}

/// Times `setups` calls of `f`; returns the median seconds.
fn time_setups(setups: usize, tracer: &mut Tracer, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..setups.max(1))
        .map(|_| {
            let t = Instant::now();
            tracer.span("setup", ROOT, &mut f);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Repeats `job` until `budget` is spent and `min_reps` are done; records
/// the end-to-end metrics from the repetition walls.
fn repeat<R>(
    spec: &ResearchSpec,
    budget: Duration,
    points_per_rep: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    mut job: impl FnMut(&mut Tracer, usize) -> io::Result<R>,
) -> io::Result<Vec<R>> {
    tsad_obs::reset_all();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut out = Vec::new();
    // Stop before a repetition that would overrun the budget.
    let fits = |walls: &[f64]| {
        walls
            .last()
            .is_some_and(|w| start.elapsed().as_secs_f64() + w <= budget.as_secs_f64())
    };
    while out.len() < spec.min_reps.max(1) || fits(&walls) {
        let span = tracer.begin("repetition", ROOT);
        let t = Instant::now();
        out.push(job(tracer, span)?);
        walls.push(t.elapsed().as_secs_f64());
        tracer.end(span);
    }
    report.attempted = out.len() as u64;
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = quantile(&sorted, 0.5);
    report
        .e2e
        .insert("points_per_s".into(), points_per_rep / p50);
    report.e2e.insert("latency_p50_ms".into(), p50 * 1e3);
    report
        .info
        .push(format!("repetition walls (s): {walls:.4?}"));
    Ok(out)
}

fn run_catalog(
    spec: &ResearchSpec,
    per_family: usize,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let mut synth = Vec::new();
    let setup = time_setups(spec.setups, tracer, || {
        std::hint::black_box(DetectorRegistry::standard());
        let t = Instant::now();
        for family in Family::all() {
            for index in 1..=per_family.min(family.size()) {
                std::hint::black_box(yahoo::generate(seed, family, index));
            }
        }
        synth.push(t.elapsed().as_secs_f64());
    });
    report.e2e.insert("setup_s".into(), setup);
    report
        .layers
        .insert("synth.generate_ms".into(), median(&synth) * 1e3);

    let cfg = catalog::CatalogConfig { per_family };
    let series: usize = Family::all().iter().map(|f| per_family.min(f.size())).sum();
    let points = (series * SERIES_LEN * DETECTOR_IDS.len()) as f64;
    let reps = repeat(spec, budget, points, tracer, report, |_, _| {
        catalog::run(seed, &cfg).map(|e| e.rows).map_err(err)
    })?;

    for id in DETECTOR_IDS {
        let ns: u64 = reps
            .iter()
            .flatten()
            .filter(|r| r.detector == *id)
            .map(|r| r.wall_ns)
            .sum();
        report.layers.insert(
            format!("detectors.{id}_ms"),
            ns as f64 / 1e6 / reps.len() as f64,
        );
    }
    report
        .outputs
        .insert("catalog".into(), digest(&checks::catalog_tsv(&reps[0])));
    let expected = (seed == 42 && spec.full_scale).then_some(checks::EXPECTED_CATALOG);
    report.check(
        "catalog hits agree across repetitions and with the committed seed-42 grid",
        checks::check_catalog(&reps, expected),
    );
    Ok(())
}

/// `contest::run` one panel detector at a time, each timed: the same
/// archive and the same panel in the same order, so its outcomes must
/// match the untimed run's.
fn contest_timed(
    seed: u64,
    datasets: usize,
    tracer: &mut Tracer,
    parent: usize,
) -> io::Result<(Vec<ContestResult>, Vec<f64>)> {
    let archive = build_archive(seed, datasets).map_err(err)?;
    let data: Vec<Dataset> = archive.iter().map(|e| e.dataset.clone()).collect();
    let d = &data;
    fn timed<'a>(
        f: impl FnOnce() -> tsad_archive::Result<ContestResult> + Send + 'a,
    ) -> Task<'a, (tsad_archive::Result<ContestResult>, Instant, Instant)> {
        Box::new(move || {
            let t = Instant::now();
            let r = f();
            (r, t, Instant::now())
        })
    }
    let tasks = vec![
        timed(move || run_contest(&DiscordDetector::new(128), d)),
        timed(move || run_contest(&OnlineDiscordDetector::new(128), d)),
        timed(move || run_contest(&Telemanom::default(), d)),
        timed(move || run_contest(&SubsequenceKnn::new(128), d)),
        timed(move || run_contest(&SeasonalDetector::auto(20, 300), d)),
        timed(move || run_contest(&GlobalZScore, d)),
        timed(move || run_contest(&NaiveLastPoint, d)),
        timed(move || run_contest(&RandomDetector::new(seed), d)),
    ];
    let mut results = Vec::new();
    let mut ms = Vec::new();
    for ((r, start, end), id) in tsad_parallel::par_invoke(tasks).into_iter().zip(PANEL_IDS) {
        results.push(r.map_err(err)?);
        ms.push((end - start).as_secs_f64() * 1e3);
        tracer.add(&format!("contest.{id}"), parent, start, end);
    }
    Ok((results, ms))
}

fn run_contest_job(
    spec: &ResearchSpec,
    datasets: usize,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let mut points = 0;
    let setup = time_setups(spec.setups, tracer, || {
        let archive = build_archive(seed, datasets).expect("archive builds for every seed");
        points = archive
            .iter()
            .map(|e| e.dataset.series().len())
            .sum::<usize>();
    });
    report.e2e.insert("setup_s".into(), setup);
    report.layers.insert("archive.build_ms".into(), setup * 1e3);

    let points = (points * PANEL_IDS.len()) as f64;
    let traced = tracer.on();
    let mut panel_ms = vec![Vec::new(); PANEL_IDS.len()];
    let reps = repeat(spec, budget, points, tracer, report, |tracer, span| {
        if traced {
            let (results, ms) = contest_timed(seed, datasets, tracer, span)?;
            for (acc, m) in panel_ms.iter_mut().zip(ms) {
                acc.push(m);
            }
            Ok(results)
        } else {
            contest::run(seed, datasets).map(|c| c.results).map_err(err)
        }
    })?;
    for (id, ms) in PANEL_IDS.iter().zip(&panel_ms) {
        if !ms.is_empty() {
            report.layers.insert(format!("contest.{id}_ms"), median(ms));
        }
    }
    report
        .outputs
        .insert("contest".into(), digest(&checks::contest_tsv(&reps[0])));
    let expected = (seed == 42 && spec.full_scale).then_some(checks::EXPECTED_CONTEST);
    report.check(
        "contest hit/miss per panel detector and dataset agrees across repetitions \
         and with the committed seed-42 outcomes",
        checks::check_contest(&reps, expected),
    );
    Ok(())
}
