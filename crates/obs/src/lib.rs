//! # tsad-obs — dependency-free observability for the kernel stack
//!
//! The workspace's hot paths (STOMP bands, MERLIN's DRAG passes, the FFT
//! plan caches, the thread pool, the streaming replay driver) are fast,
//! allocation-free, and thread-count invariant — but until this crate they
//! were also opaque: there was no way to see where time goes inside a run
//! without reaching for an external profiler. `tsad-obs` provides the
//! smallest set of primitives that makes the stack observable without
//! compromising any of those properties:
//!
//! * [`Counter`] / [`Gauge`] — single atomic words (`fetch_add` / `store`,
//!   `Ordering::Relaxed`) behind `&'static` statics;
//! * [`Histogram`] — a **fixed** array of 64 log2-spaced buckets plus
//!   count/sum/max, all atomics, so recording is lock-free and never
//!   allocates;
//! * [`Span`] — RAII wall-clock timing (`SPAN.start()` returns a guard
//!   that records elapsed nanoseconds into the span's histogram on drop);
//!   workers accumulate into their guard privately and the merge at scope
//!   end is an integer `fetch_add`, which is order-insensitive and
//!   therefore deterministic;
//! * a global **registry** built as an intrusive lock-free linked list of
//!   the metric statics themselves — registration is one CAS on first
//!   record, so the hot path performs **zero heap allocations** even with
//!   observability enabled;
//! * exporters — [`snapshot`] (sorted, deterministic), [`render_summary`]
//!   (human-readable, for `repro -- --obs-summary` on stderr) and
//!   [`render_json`] (the stable `tsad-obs/v1` schema that
//!   `BENCH_kernels.json` schema v3 embeds per kernel).
//!
//! ## The kill switch
//!
//! Setting `TSAD_OBS=0` (also `false`/`off`/`no`) turns every recording
//! call into an early-return no-op: no registration, no atomics, no clock
//! reads — instrumented kernels are bitwise identical to uninstrumented
//! ones and stay at zero allocations per warm iteration
//! (`crates/bench/tests/alloc_free.rs` and `obs_noop.rs` prove both).
//! Observability is **on by default**; recording is allocation-free either
//! way, so the only cost of leaving it on is a few relaxed atomic ops per
//! instrumented call. Tests use [`with_enabled`] to pin the switch without
//! touching the process environment.
//!
//! ## Metric naming
//!
//! Names are `<crate>.<subsystem>.<metric>` with a `_ns` / `_points`
//! suffix on histograms whose unit is not obvious (see `DESIGN.md` §8 for
//! the full scheme and the overhead budget).

mod export;
mod metrics;
mod registry;
mod span;

pub use export::{
    render_json, render_summary, reset_all, snapshot, CounterValue, GaugeValue, HistogramValue,
    Snapshot, SCHEMA,
};
pub use metrics::{
    bucket_index, bucket_upper_bound, quantile_from_buckets, Counter, Gauge, Histogram, BUCKETS,
};
pub use span::{Span, SpanGuard};

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Cached process-wide verdict of the `TSAD_OBS` environment variable:
/// 0 = not read yet, 1 = enabled, 2 = disabled. The one-time environment
/// read is the only operation in this crate that may allocate, and it
/// happens during warm-up, never inside a counted region.
static ENV_STATE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Scoped [`with_enabled`] override (tests and harnesses); const-init
    /// so reading it neither allocates nor registers a destructor.
    static OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

fn env_enabled() -> bool {
    match std::env::var_os("TSAD_OBS") {
        Some(v) => {
            let v = v.to_string_lossy();
            let v = v.trim();
            !(v == "0"
                || v.eq_ignore_ascii_case("false")
                || v.eq_ignore_ascii_case("off")
                || v.eq_ignore_ascii_case("no"))
        }
        None => true,
    }
}

/// Whether recording is active on the calling thread: a [`with_enabled`]
/// override if one is in scope, else the cached `TSAD_OBS` verdict
/// (enabled unless the variable says otherwise). Steady-state cost is one
/// thread-local read and one relaxed atomic load.
pub fn enabled() -> bool {
    if let Some(v) = OVERRIDE.with(Cell::get) {
        return v;
    }
    match ENV_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = env_enabled();
            ENV_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Runs `f` with recording pinned on or off for the calling thread (nested
/// calls see the innermost value; the previous state is restored on unwind).
/// This is the test-friendly version of `TSAD_OBS`: it never touches the
/// process environment, so concurrent tests cannot race on it. Note the
/// override is thread-local — worker threads spawned inside `f` fall back
/// to the environment verdict.
pub fn with_enabled<R>(on: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<bool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(on)));
    let _restore = Restore(prev);
    f()
}

/// Serializes tests that record into the global registry and then assert
/// on metric values — `reset_all` in a concurrently running test would
/// otherwise clobber them.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_enabled_overrides_and_restores() {
        let ambient = enabled();
        let inner = with_enabled(false, || {
            assert!(!enabled());
            with_enabled(true, enabled)
        });
        assert!(inner);
        assert_eq!(enabled(), ambient);
    }

    #[test]
    fn disabled_recording_is_invisible() {
        static C: Counter = Counter::new("obs.test.disabled_counter");
        let _g = test_guard();
        with_enabled(false, || {
            C.inc();
            C.add(41);
        });
        assert_eq!(C.get(), 0, "disabled recording must not move the value");
        with_enabled(true, || C.add(2));
        assert_eq!(C.get(), 2);
    }
}
