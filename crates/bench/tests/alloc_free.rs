//! End-to-end proof of the allocation-free kernel contracts.
//!
//! This test binary installs [`tsad_bench::alloc_track::CountingAlloc`] as
//! its global allocator and asserts that, after one warm-up call at a
//! single effective thread, the hot kernels perform **zero** heap
//! allocations: the FFT plan lookup, the sliding dot product into a
//! caller-owned buffer, STOMP through its workspace entry point, and the
//! MERLIN length sweep through `merlin_into`. The prefix join and the
//! 1-NN detector built on it allocate exactly their outputs.
//!
//! Everything runs under `with_threads(1)`: the zero-allocation contract
//! is single-threaded by design (scoped worker spawns at higher thread
//! counts allocate), and the override also keeps the thread-count probe
//! from touching the environment inside the counted region.
//!
//! Observability is ON by default (`TSAD_OBS` is unset here), so every
//! kernel assertion in this file also proves that `tsad-obs` recording —
//! plan-cache counters, band-timing spans, worker spans — adds **zero**
//! allocations to the instrumented hot paths. The explicit obs tests at
//! the bottom pin the switch both ways; the disabled side is proven
//! end-to-end (environment variable and all) in `obs_noop.rs`.

#[global_allocator]
static ALLOC: tsad_bench::alloc_track::CountingAlloc = tsad_bench::alloc_track::CountingAlloc;

use tsad_bench::alloc_track::{count_allocs, counting_allocator_active};
use tsad_core::fft::{fft_plan, rfft_plan, sliding_dot_product_into};
use tsad_core::TimeSeries;
use tsad_detectors::baselines::SubsequenceKnn;
use tsad_detectors::matrix_profile::{
    prefix_join, stomp_metric_with, MatrixProfile, ProfileMetric, StompWorkspace,
};
use tsad_detectors::Detector;
use tsad_parallel::with_threads;

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

#[test]
fn counting_allocator_is_installed() {
    assert!(counting_allocator_active());
    assert!(
        count_allocs(|| {
            std::hint::black_box(vec![0u8; 64]);
        }) > 0
    );
}

#[test]
fn warm_plan_lookup_is_allocation_free() {
    let _ = fft_plan(1024).unwrap();
    let _ = rfft_plan(1024).unwrap();
    let allocs = count_allocs(|| {
        for _ in 0..8 {
            std::hint::black_box(fft_plan(1024).unwrap());
            std::hint::black_box(rfft_plan(1024).unwrap());
        }
    });
    assert_eq!(allocs, 0, "plan cache lookup allocated");
}

#[test]
fn warm_sliding_dot_product_is_allocation_free() {
    let x = series(8192, 2);
    let q = series(512, 3);
    with_threads(1, || {
        let mut dots = Vec::new();
        sliding_dot_product_into(&q, &x, &mut dots).unwrap();
        let allocs = count_allocs(|| {
            sliding_dot_product_into(&q, &x, &mut dots).unwrap();
        });
        assert_eq!(allocs, 0, "warm sliding_dot_product allocated");
        assert_eq!(dots.len(), x.len() - q.len() + 1);
    });
}

#[test]
fn warm_stomp_is_allocation_free() {
    let x = series(1024, 4);
    let m = 64;
    with_threads(1, || {
        let mut ws = StompWorkspace::default();
        let mut mp = MatrixProfile {
            profile: Vec::new(),
            index: Vec::new(),
            window: m,
        };
        stomp_metric_with(&x, m, ProfileMetric::ZNormalized, &mut ws, &mut mp).unwrap();
        let allocs = count_allocs(|| {
            stomp_metric_with(&x, m, ProfileMetric::ZNormalized, &mut ws, &mut mp).unwrap();
        });
        assert_eq!(allocs, 0, "warm stomp allocated");
        assert_eq!(mp.profile.len(), x.len() - m + 1);
    });
}

#[test]
fn warm_prefix_join_allocates_only_its_output() {
    // the join's tables and band buffers live in pooled workspaces: a warm
    // call allocates exactly the returned profile and index, and the 1-NN
    // detector on top of it adds only its per-point scores
    let x = series(1024, 6);
    let (m, train_len) = (64, 512);
    let ts = TimeSeries::new("knn", x.clone()).unwrap();
    let knn = SubsequenceKnn::new(m);
    with_threads(1, || {
        prefix_join(&x, m, train_len).unwrap();
        let allocs = count_allocs(|| {
            std::hint::black_box(prefix_join(&x, m, train_len).unwrap());
        });
        assert_eq!(allocs, 2, "warm prefix join allocated beyond its output");
        knn.score(&ts, train_len).unwrap();
        let allocs = count_allocs(|| {
            std::hint::black_box(knn.score(&ts, train_len).unwrap());
        });
        assert_eq!(allocs, 3, "warm 1-NN allocated beyond its output");
    });
}

#[test]
fn warm_merlin_is_allocation_free() {
    // MERLIN's contract: with the output list persistent, the per-chunk
    // partials pooled, and the DRAG buffers thread-local, a warm
    // single-threaded length sweep performs zero heap allocations — with
    // observability ON, like every other contract in this file.
    use tsad_detectors::merlin::merlin_into;
    let x = series(400, 7);
    with_threads(1, || {
        let mut discords = Vec::new();
        merlin_into(&x, 16, 24, &mut discords).unwrap();
        let allocs = count_allocs(|| {
            discords.clear();
            merlin_into(&x, 16, 24, &mut discords).unwrap();
        });
        assert_eq!(allocs, 0, "warm merlin allocated");
        assert_eq!(discords.len(), 9);
    });
}

#[test]
fn obs_recording_is_allocation_free_when_enabled() {
    static C: tsad_obs::Counter = tsad_obs::Counter::new("bench.alloc_test.counter");
    static H: tsad_obs::Histogram = tsad_obs::Histogram::new("bench.alloc_test.hist", "ns");
    static S: tsad_obs::Span = tsad_obs::Span::new("bench.alloc_test.span_ns");
    tsad_obs::with_enabled(true, || {
        // first records register the metrics (a lock-free CAS, not an
        // allocation — counted below anyway, after this warm-up)
        C.inc();
        H.record(1);
        drop(S.start());
        let allocs = count_allocs(|| {
            for i in 0..64u64 {
                C.add(2);
                H.record(i * 1000);
                let _g = S.start();
            }
        });
        assert_eq!(allocs, 0, "enabled obs recording allocated");
    });
    assert_eq!(C.get(), 1 + 64 * 2);
    assert_eq!(H.count(), 65);
    assert_eq!(S.histogram().count(), 65);
}

#[test]
fn obs_disabled_recording_is_allocation_free_noop() {
    static C: tsad_obs::Counter = tsad_obs::Counter::new("bench.alloc_test.disabled_counter");
    static S: tsad_obs::Span = tsad_obs::Span::new("bench.alloc_test.disabled_span_ns");
    tsad_obs::with_enabled(false, || {
        let allocs = count_allocs(|| {
            for _ in 0..64 {
                C.inc();
                let _g = S.start();
            }
        });
        assert_eq!(allocs, 0, "disabled obs recording allocated");
    });
    assert_eq!(C.get(), 0, "disabled recording moved a counter");
    assert_eq!(S.histogram().count(), 0, "disabled span recorded");
}

#[test]
fn warm_stomp_stays_allocation_free_with_obs_pinned_off() {
    // the kill-switch path must not regress the kernel contract either
    let x = series(1024, 6);
    let m = 64;
    tsad_obs::with_enabled(false, || {
        with_threads(1, || {
            let mut ws = StompWorkspace::default();
            let mut mp = MatrixProfile {
                profile: Vec::new(),
                index: Vec::new(),
                window: m,
            };
            stomp_metric_with(&x, m, ProfileMetric::ZNormalized, &mut ws, &mut mp).unwrap();
            let allocs = count_allocs(|| {
                stomp_metric_with(&x, m, ProfileMetric::ZNormalized, &mut ws, &mut mp).unwrap();
            });
            assert_eq!(allocs, 0, "warm stomp allocated with obs disabled");
        });
    });
}

#[test]
fn fleet_steady_state_ingest_is_allocation_free() {
    // The fleet contract (DESIGN.md §10): once every series is resident
    // and every reusable buffer has hit its high-water mark, batched
    // ingestion performs zero heap allocations at one effective thread —
    // with observability ON (TSAD_OBS is unset here), so the fleet's
    // counters, gauges, and spans are proven free along with the slab,
    // LRU, and per-batch buffers. `repro -- fleet-json` records the same
    // number in BENCH_fleet.json as `allocs_per_point`, gated by
    // `fleet-compare` in CI.
    use tsad_fleet::{BatchOutput, Fleet, FleetConfig, SeriesId};
    use tsad_stream::{FnFactory, NanPolicy, Sanitized, StreamingCusum};

    let spawn = |_id: u64| {
        Sanitized::new(
            StreamingCusum::new(Default::default(), 8).unwrap(),
            NanPolicy::Skip,
        )
    };
    let mut fleet = Fleet::new(
        FnFactory(spawn),
        FleetConfig {
            shards: 8,
            ..FleetConfig::default()
        },
    );
    let mut out = BatchOutput::new();
    let mut batch: Vec<(SeriesId, f64)> = Vec::with_capacity(512);
    let mut drive = |fleet: &mut Fleet<_>, out: &mut BatchOutput, round: u64| {
        for chunk in 0..4u64 {
            batch.clear();
            for id in (chunk * 512)..((chunk + 1) * 512) {
                batch.push((SeriesId(id), ((id * 31 + round * 7) % 100) as f64 / 10.0));
            }
            fleet.push_batch(&batch, out);
        }
    };
    with_threads(1, || {
        // warm-up: spawn all 2048 series, calibrate (train=8), and let
        // every reusable buffer reach its high-water mark
        for round in 0..12 {
            drive(&mut fleet, &mut out, round);
        }
        let allocs = count_allocs(|| {
            drive(&mut fleet, &mut out, 12);
        });
        assert_eq!(allocs, 0, "steady-state fleet ingest allocated");
    });
    assert_eq!(fleet.series_active(), 2048);
}

#[test]
fn warm_euclidean_stomp_is_allocation_free() {
    // the other scorer path has the same contract
    let x = series(700, 5);
    let m = 32;
    with_threads(1, || {
        let mut ws = StompWorkspace::default();
        let mut mp = MatrixProfile {
            profile: Vec::new(),
            index: Vec::new(),
            window: m,
        };
        stomp_metric_with(&x, m, ProfileMetric::Euclidean, &mut ws, &mut mp).unwrap();
        let allocs = count_allocs(|| {
            stomp_metric_with(&x, m, ProfileMetric::Euclidean, &mut ws, &mut mp).unwrap();
        });
        assert_eq!(allocs, 0, "warm euclidean stomp allocated");
    });
}
