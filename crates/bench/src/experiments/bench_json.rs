//! `bench-json` — machine-readable kernel baselines.
//!
//! Times the four parallelized kernels (STOMP, MERLIN, the sliding dot
//! product, and a streaming replay) at 1 thread and at [`PAR_THREADS`]
//! threads via `tsad_parallel::with_threads`, and renders the medians as a
//! small, dependency-free JSON document (`BENCH_kernels.json`). Alongside
//! each median the document records `allocs_per_iter`: the number of heap
//! allocations one warm single-threaded iteration performs, counted by the
//! [`crate::alloc_track`] allocator when the host binary installs it (the
//! `repro` driver does; under `cargo test` the field is honestly `null`).
//!
//! The timings are a *baseline*, not a pass/fail gate — absolute numbers
//! are machine-specific. The allocation counts, in contrast, are exact and
//! portable, so CI does gate on `allocs_per_iter == 0` for the three
//! kernels with allocation-free contracts (`sliding_dot_product`, `stomp`,
//! `merlin`); the wall-clock columns are gated *relatively* by
//! `repro -- gate` (fresh run vs the committed baseline; rules in
//! [`crate::gate::SCHEMAS`]).
//!
//! Since schema v3 every kernel entry embeds a per-kernel `tsad-obs`
//! snapshot (`"obs"`, schema `tsad-obs/v1`): FFT plan-cache hit rates,
//! STOMP band timings, MERLIN prune counts, worker utilization, replay
//! throughput. The registry is reset before each kernel, so the block
//! describes that kernel alone.
//!
//! Schema v4 adds the SIMD dispatch the run resolved to: every kernel
//! entry carries `"dispatch"` (the backend name — `avx2`, `sse2`, `neon`,
//! or `scalar`) and `"lane_width"` (f64 lanes per vector). Both come from
//! `tsad_core::simd::current()` at measure time, so a `TSAD_SIMD=0` run is
//! self-describing in the committed baseline.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use tsad_core::error::Result;
use tsad_core::fft::sliding_dot_product_into;
use tsad_core::Labels;
use tsad_detectors::matrix_profile::{
    stomp_metric_with, MatrixProfile, ProfileMetric, StompWorkspace,
};
use tsad_detectors::merlin::merlin_into;
use tsad_parallel::with_threads;
use tsad_stream::{replay, ReplayConfig, StreamingLeftDiscord};

use crate::alloc_track::{count_allocs, counting_allocator_active};

/// Thread count used for the parallel column.
pub const PAR_THREADS: usize = 4;

/// Sizes for one timing run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Series length for STOMP.
    pub stomp_n: usize,
    /// STOMP window.
    pub stomp_m: usize,
    /// Series length for MERLIN.
    pub merlin_n: usize,
    /// MERLIN length range (inclusive).
    pub merlin_lengths: (usize, usize),
    /// Series length for the sliding dot product.
    pub sdp_n: usize,
    /// Query length for the sliding dot product (past the FFT crossover).
    pub sdp_m: usize,
    /// Series length for the streaming replay.
    pub replay_n: usize,
    /// Left-discord window for the streaming replay.
    pub replay_m: usize,
    /// Timed repetitions per kernel per thread count (median reported).
    pub iters: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            stomp_n: 4096,
            stomp_m: 128,
            merlin_n: 800,
            merlin_lengths: (24, 40),
            sdp_n: 65_536,
            sdp_m: 512,
            replay_n: 6000,
            replay_m: 32,
            iters: 5,
        }
    }
}

impl BenchConfig {
    /// A tiny configuration for debug-mode tests.
    pub fn smoke() -> Self {
        Self {
            stomp_n: 300,
            stomp_m: 16,
            merlin_n: 200,
            merlin_lengths: (8, 10),
            sdp_n: 2048,
            sdp_m: 256,
            replay_n: 400,
            replay_m: 8,
            iters: 2,
        }
    }
}

/// Median wall-clock per iteration for one kernel at both thread counts,
/// plus the warm-iteration allocation count.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel label.
    pub name: &'static str,
    /// Human-readable size note.
    pub params: String,
    /// Timed repetitions per thread count.
    pub iters: usize,
    /// Median ns/iter at 1 thread.
    pub median_ns_1t: u128,
    /// Median ns/iter at [`PAR_THREADS`] threads.
    pub median_ns_nt: u128,
    /// Heap allocations in one warm single-threaded iteration, or `None`
    /// when the counting allocator is not installed in this process.
    pub allocs_per_iter: Option<u64>,
    /// SIMD backend the run dispatched to (`avx2`, `sse2`, `neon`, or
    /// `scalar`), resolved at measure time via `tsad_core::simd::current()`.
    pub dispatch: &'static str,
    /// f64 lanes per vector on that backend (1 for scalar).
    pub lane_width: usize,
    /// Observability snapshot covering this kernel's warm-up, allocation
    /// count, and both timing columns (the registry is reset before each
    /// kernel, so the snapshot is per-kernel, not cumulative).
    pub obs: tsad_obs::Snapshot,
}

impl KernelTiming {
    /// `1-thread / N-thread` wall-clock ratio (> 1 means the pool helped),
    /// or `None` when the host cannot actually run [`PAR_THREADS`] workers
    /// concurrently — on a single-CPU host the ratio measures scheduler
    /// thrash, not parallel speedup, so the document refuses to report one.
    pub fn speedup(&self, host_threads: usize) -> Option<f64> {
        if host_threads <= 1 || self.median_ns_nt == 0 {
            None
        } else {
            Some(self.median_ns_1t as f64 / self.median_ns_nt as f64)
        }
    }
}

/// The full baseline document.
#[derive(Debug, Clone)]
pub struct BenchJson {
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Thread count of the parallel column.
    pub threads: usize,
    /// Host parallelism the override competed against.
    pub host_threads: usize,
    /// Per-kernel medians.
    pub kernels: Vec<KernelTiming>,
}

fn series(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * 0.12).sin() + 0.2 * noise
        })
        .collect()
}

fn median_ns(iters: usize, f: &mut dyn FnMut()) -> u128 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_at_threads(iters: usize, threads: usize, f: &mut dyn FnMut()) -> u128 {
    with_threads(threads, || median_ns(iters, f))
}

/// Warms the kernel once at 1 effective thread (populating plan caches,
/// thread-local scratch, and pooled band buffers on *this* thread), counts
/// the allocations of a second warm iteration, then times both thread
/// columns. The count is taken single-threaded because the per-call scoped
/// worker spawns at higher thread counts allocate by construction.
///
/// The global metric registry is reset on entry and snapshotted on exit,
/// so each kernel's `obs` block covers exactly its own activity.
fn measure(name: &'static str, params: String, iters: usize, f: &mut dyn FnMut()) -> KernelTiming {
    tsad_obs::reset_all();
    let allocs_per_iter = with_threads(1, || {
        f();
        counting_allocator_active().then(|| count_allocs(&mut *f))
    });
    let median_ns_1t = time_at_threads(iters, 1, f);
    let median_ns_nt = time_at_threads(iters, PAR_THREADS, f);
    let backend = tsad_core::simd::current();
    KernelTiming {
        name,
        params,
        iters,
        median_ns_1t,
        median_ns_nt,
        allocs_per_iter,
        dispatch: backend.name(),
        lane_width: backend.lane_width(),
        obs: tsad_obs::snapshot(),
    }
}

/// Serializes [`run`] calls within one process: the observability registry
/// is global, so two concurrent runs (e.g. unit tests on the default
/// multi-threaded test runner) would reset and snapshot through each other.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Runs the kernel panel and collects the timings.
pub fn run(seed: u64, cfg: &BenchConfig) -> Result<BenchJson> {
    let _serialize = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut kernels = Vec::new();

    // STOMP through the caller-owned-buffer entry point: the workspace and
    // output profile persist across iterations, so warm iterations are
    // allocation-free.
    let x = series(cfg.stomp_n, seed);
    let m = cfg.stomp_m;
    let mut ws = StompWorkspace::default();
    let mut mp = MatrixProfile {
        profile: Vec::new(),
        index: Vec::new(),
        window: m,
    };
    kernels.push(measure(
        "stomp",
        format!("n={}, m={}", cfg.stomp_n, cfg.stomp_m),
        cfg.iters,
        &mut || {
            stomp_metric_with(&x, m, ProfileMetric::ZNormalized, &mut ws, &mut mp).expect("stomp");
        },
    ));

    // MERLIN through the caller-owned-buffer entry point: the output list
    // persists across iterations (cleared, not dropped), the per-chunk
    // partials come from a scratch pool, and the DRAG buffers are
    // thread-local — so warm iterations are allocation-free.
    let x = series(cfg.merlin_n, seed + 1);
    let (lo, hi) = cfg.merlin_lengths;
    let mut discords = Vec::new();
    kernels.push(measure(
        "merlin",
        format!("n={}, lengths={lo}..={hi}", cfg.merlin_n),
        cfg.iters,
        &mut || {
            discords.clear();
            merlin_into(&x, lo, hi, &mut discords).expect("merlin");
        },
    ));

    // The sliding dot product into a persistent output buffer; the FFT
    // scratch lives in plan-cache-adjacent thread-locals.
    let x = series(cfg.sdp_n, seed + 2);
    let q = series(cfg.sdp_m, seed + 3);
    let mut dots = Vec::new();
    kernels.push(measure(
        "sliding_dot_product",
        format!("n={}, m={}", cfg.sdp_n, cfg.sdp_m),
        cfg.iters,
        &mut || {
            sliding_dot_product_into(&q, &x, &mut dots).expect("sliding_dot_product");
        },
    ));

    let x = series(cfg.replay_n, seed + 4);
    let labels = Labels::new(x.len(), vec![])?;
    let replay_cfg = ReplayConfig {
        chunk_size: 64,
        threshold: f64::INFINITY,
        slop: 0,
    };
    kernels.push(measure(
        "streaming_replay_left_discord",
        format!("n={}, m={}", cfg.replay_n, cfg.replay_m),
        cfg.iters,
        &mut || {
            let mut det = StreamingLeftDiscord::new(cfg.replay_m, Default::default(), x.len())
                .expect("detector");
            replay(&mut det, &x, &labels, &replay_cfg).expect("replay");
        },
    ));

    Ok(BenchJson {
        seed,
        threads: PAR_THREADS,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        kernels,
    })
}

/// Renders the document as pretty-printed JSON (handwritten — the build is
/// offline, so no serde).
pub fn render(doc: &BenchJson) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"tsad-bench-kernels/v4\",");
    let _ = writeln!(out, "  \"seed\": {},", doc.seed);
    let _ = writeln!(out, "  \"threads\": {},", doc.threads);
    let _ = writeln!(out, "  \"host_threads\": {},", doc.host_threads);
    out.push_str("  \"kernels\": [\n");
    for (i, k) in doc.kernels.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", k.name);
        let _ = writeln!(out, "      \"params\": \"{}\",", k.params);
        let _ = writeln!(out, "      \"iters\": {},", k.iters);
        let _ = writeln!(
            out,
            "      \"median_ns_per_iter_1_thread\": {},",
            k.median_ns_1t
        );
        let _ = writeln!(
            out,
            "      \"median_ns_per_iter_{}_threads\": {},",
            doc.threads, k.median_ns_nt
        );
        match k.allocs_per_iter {
            Some(n) => {
                let _ = writeln!(out, "      \"allocs_per_iter\": {n},");
            }
            None => out.push_str("      \"allocs_per_iter\": null,\n"),
        }
        match k.speedup(doc.host_threads) {
            Some(s) => {
                let _ = writeln!(out, "      \"speedup\": {s:.3},");
            }
            None => out.push_str("      \"speedup\": null,\n"),
        }
        let _ = writeln!(out, "      \"dispatch\": \"{}\",", k.dispatch);
        let _ = writeln!(out, "      \"lane_width\": {},", k.lane_width);
        let _ = writeln!(out, "      \"obs\": {}", tsad_obs::render_json(&k.obs, 6));
        out.push_str(if i + 1 < doc.kernels.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_wellformed_json() {
        let doc = run(42, &BenchConfig::smoke()).unwrap();
        assert_eq!(doc.kernels.len(), 4);
        let json = render(&doc);
        // structural sanity without a JSON parser: balanced braces/brackets
        // and every expected field present
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for field in [
            "\"schema\": \"tsad-bench-kernels/v4\"",
            "\"obs\"",
            "\"tsad-obs/v1\"",
            "\"seed\"",
            "\"threads\"",
            "\"host_threads\"",
            "\"kernels\"",
            "\"median_ns_per_iter_1_thread\"",
            "\"allocs_per_iter\"",
            "\"speedup\"",
            "\"dispatch\"",
            "\"lane_width\"",
            "\"stomp\"",
            "\"merlin\"",
            "\"sliding_dot_product\"",
            "\"streaming_replay_left_discord\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        // no trailing commas (the classic handwritten-JSON bug)
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n    }"));
    }

    #[test]
    fn smoke_run_embeds_nonzero_obs_snapshots() {
        let doc = run(42, &BenchConfig::smoke()).unwrap();
        let kernel = |name: &str| {
            doc.kernels
                .iter()
                .find(|k| k.name == name)
                .unwrap_or_else(|| panic!("kernel {name} missing"))
        };
        // the sliding dot product is past the FFT crossover: warm
        // iterations hit the cached rfft plan
        let sdp = kernel("sliding_dot_product");
        assert!(
            sdp.obs.counter("core.fft.plan_hit").unwrap_or(0) > 0,
            "sdp snapshot lacks FFT plan hits: {:?}",
            sdp.obs
        );
        assert!(sdp.obs.counter("core.fft.scratch_reuse").unwrap_or(0) > 0);
        // every STOMP band fill is timed, on workers and the caller alike
        let stomp = kernel("stomp");
        let band = stomp
            .obs
            .histogram("detectors.stomp.band_ns")
            .expect("stomp snapshot lacks band timings");
        assert!(band.count > 0 && band.sum > 0);
        assert!(
            stomp
                .obs
                .histogram("parallel.worker.busy_ns")
                .is_some_and(|h| h.count > 0),
            "stomp snapshot lacks worker utilization: {:?}",
            stomp.obs
        );
        // MERLIN's phase 1 prunes almost everything on a smooth series
        let merlin = kernel("merlin");
        assert!(
            merlin
                .obs
                .counter("detectors.merlin.drag_passes")
                .unwrap_or(0)
                > 0
        );
        assert!(
            merlin
                .obs
                .counter("detectors.merlin.windows_pruned")
                .unwrap_or(0)
                > 0
        );
        // the replay kernel reports throughput and per-chunk latency
        let rep = kernel("streaming_replay_left_discord");
        assert!(rep.obs.counter("stream.replay.points").unwrap_or(0) > 0);
        assert!(rep
            .obs
            .histogram("stream.replay.chunk_push_ns")
            .is_some_and(|h| h.count > 0));
    }

    #[test]
    fn forced_scalar_reports_scalar_dispatch() {
        use tsad_core::simd::{self, Backend};
        let doc = simd::with_backend(Backend::Scalar, || run(11, &BenchConfig::smoke()).unwrap());
        for k in &doc.kernels {
            assert_eq!(k.dispatch, "scalar", "{}", k.name);
            assert_eq!(k.lane_width, 1, "{}", k.name);
        }
        let json = render(&doc);
        assert!(json.contains("\"dispatch\": \"scalar\""));
        assert!(json.contains("\"lane_width\": 1"));
    }

    #[test]
    fn dispatch_matches_the_resolved_backend() {
        let doc = run(13, &BenchConfig::smoke()).unwrap();
        let current = tsad_core::simd::current();
        for k in &doc.kernels {
            assert_eq!(k.dispatch, current.name(), "{}", k.name);
            assert_eq!(k.lane_width, current.lane_width(), "{}", k.name);
        }
    }

    #[test]
    fn timings_are_positive() {
        let doc = run(7, &BenchConfig::smoke()).unwrap();
        for k in doc.kernels {
            assert!(k.median_ns_1t > 0, "{}", k.name);
            assert!(k.median_ns_nt > 0, "{}", k.name);
        }
    }

    #[test]
    fn allocs_are_null_without_the_counting_allocator() {
        // the library test binary runs under the plain system allocator, so
        // the document must say "not measured" rather than a bogus zero
        let doc = run(3, &BenchConfig::smoke()).unwrap();
        for k in &doc.kernels {
            assert_eq!(k.allocs_per_iter, None, "{}", k.name);
        }
        assert!(render(&doc).contains("\"allocs_per_iter\": null"));
    }

    #[test]
    fn speedup_is_null_on_single_cpu_hosts() {
        let mut doc = run(5, &BenchConfig::smoke()).unwrap();
        doc.host_threads = 1;
        assert!(doc.kernels.iter().all(|k| k.speedup(1).is_none()));
        let json = render(&doc);
        assert!(json.contains("\"speedup\": null"));
        assert!(!json.contains("\"speedup\": 0."));

        doc.host_threads = 8;
        for k in &doc.kernels {
            let s = k.speedup(doc.host_threads);
            assert!(s.is_some() && s.unwrap() > 0.0, "{}", k.name);
        }
        assert!(!render(&doc).contains("\"speedup\": null"));
    }
}
