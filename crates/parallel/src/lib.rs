//! # tsad-parallel — deterministic fork-join for the workspace's kernels
//!
//! The offline build cannot pull in `rayon`, so this crate provides the
//! small parallel surface the hot paths actually need, in the style of the
//! workspace's other shims: scoped threads from `std`, contiguous chunk
//! fan-out, and **index-ordered reduction**.
//!
//! ## Determinism contract
//!
//! Every helper here returns (or folds) per-chunk results in chunk order,
//! and chunk boundaries are a pure function of `(len, thread count)`. A
//! kernel built on these primitives is *thread-count invariant* as long as
//! its per-chunk work is a pure function of the chunk range and its merge
//! step is insensitive to chunk *boundaries* (e.g. an element-wise
//! minimum scanned in chunk order, or a concatenation). The matrix-profile
//! and MERLIN kernels in `tsad-detectors` are written to that rule and are
//! verified bitwise-identical under `TSAD_THREADS ∈ {1, 2, 8}` by
//! integration tests.
//!
//! ## Thread-count selection
//!
//! [`current_threads`] resolves, in order: a scoped [`with_threads`]
//! override (used by tests and the bench harness), the `TSAD_THREADS`
//! environment variable, then [`std::thread::available_parallelism`]. The
//! result is clamped to `1 ..= 64`.
//!
//! ## Why spawn-per-call instead of a persistent pool
//!
//! The kernels this serves run for milliseconds to minutes; a scoped
//! `std::thread` spawn costs tens of microseconds. Spawning inside
//! [`std::thread::scope`] keeps borrows of the caller's stack (no `Arc`,
//! no `'static` bounds), makes panics propagate naturally, and leaves no
//! global state behind — at a cost that is noise for every workload in
//! this repository. Helpers fall back to inline execution when the
//! effective thread count is 1 or the input is too small to split.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tsad_obs::{Gauge, Histogram, Span};

pub use std::thread::scope;

/// Effective fan-out width of the most recent parallel call (last-wins; 1
/// when the helpers ran inline). Recording is a relaxed store, so the
/// single-thread fast paths stay allocation-free.
static THREADS_GAUGE: Gauge = Gauge::new("parallel.threads");
/// Wall-clock time each worker (including the calling thread) spends inside
/// its chunk callback. Comparing per-worker samples against the span's max
/// shows fan-out balance; comparing the sum against elapsed wall time shows
/// utilization.
static WORKER_BUSY_NS: Span = Span::new("parallel.worker.busy_ns");
/// How long each [`par_invoke`] task sat in the queue before a worker
/// claimed it (time from batch start to claim).
static QUEUE_WAIT_NS: Histogram = Histogram::new("parallel.queue.wait_ns", "ns");

/// Upper bound on the effective thread count, whatever the environment
/// claims (a runaway `TSAD_THREADS=100000` must not fork-bomb the host).
pub const MAX_THREADS: usize = 64;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_threads() -> Option<usize> {
    std::env::var("TSAD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The effective thread count for parallel helpers called on this thread:
/// a [`with_threads`] override if one is active, else `TSAD_THREADS`, else
/// the machine's available parallelism; clamped to `1 ..= MAX_THREADS`.
pub fn current_threads() -> usize {
    let n = OVERRIDE
        .with(Cell::get)
        .or_else(env_threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        });
    n.clamp(1, MAX_THREADS)
}

/// Runs `f` with the effective thread count pinned to `n` on the calling
/// thread (nested calls see the innermost override). This is how the
/// determinism tests and the bench harness compare thread counts without
/// racing on the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.clamp(1, MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

/// Splits `0 .. len` into at most `parts` contiguous, near-even ranges
/// (the first `len % parts` ranges are one element longer). Deterministic;
/// empty ranges are never produced.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `a` and `b`, in parallel when more than one thread is available,
/// and returns both results.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if current_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (ra, rb)
    })
}

/// Splits `0 .. len` across the effective thread count and runs `f` once
/// per contiguous range, returning the per-range results **in range
/// order**. The calling thread processes the first range itself.
pub fn par_chunks<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges = chunk_ranges(len, current_threads());
    THREADS_GAUGE.set(ranges.len().max(1) as u64);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges[1..]
            .iter()
            .map(|r| {
                let r = r.clone();
                let f = &f;
                s.spawn(move || {
                    let _busy = WORKER_BUSY_NS.start();
                    f(r)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push({
            let _busy = WORKER_BUSY_NS.start();
            f(ranges[0].clone())
        });
        for h in handles {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

/// Applies `f` to every item and returns the results in item order. Items
/// are distributed as contiguous chunks over the effective thread count.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunks = par_chunks(items.len(), |range| {
        range.map(|i| f(i, &items[i])).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// A pool of reusable per-worker scratch states, shared across calls.
///
/// The workspace's threads are spawned per call (see the module docs), so
/// thread-local storage on a worker dies with it; buffers that should
/// survive *across* kernel invocations instead live here, in a static or a
/// caller-owned pool. Workers [`take`](ScratchPool::take) a state on entry
/// (building a fresh one only when the pool is empty) and
/// [`put`](ScratchPool::put) it back on exit, so a steady-state caller
/// cycles the same allocations forever. States must not carry numeric
/// results between uses — only capacity — or determinism breaks; the
/// kernels enforce that by fully overwriting every buffer they read.
#[derive(Debug)]
pub struct ScratchPool<S> {
    pool: Mutex<Vec<S>>,
}

impl<S> ScratchPool<S> {
    /// An empty pool (usable in `static` position).
    pub const fn new() -> Self {
        Self {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled state, or builds one with `init`.
    pub fn take(&self, init: impl FnOnce() -> S) -> S {
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(init)
    }

    /// Returns a state to the pool for reuse.
    pub fn put(&self, state: S) {
        self.pool.lock().expect("scratch pool poisoned").push(state);
    }
}

impl<S> Default for ScratchPool<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// [`par_chunks`] with pooled per-worker scratch and an in-order fold
/// instead of a returned `Vec`: each worker takes a scratch state from
/// `pool`, processes its contiguous range with `work`, and the caller folds
/// the states back **in range order** via `fold` before returning them to
/// the pool.
///
/// With one effective thread this is completely allocation-free once the
/// pool holds a state: no range vector, no result vector, no spawn — the
/// calling thread takes one state, works `0 .. len`, folds, and puts it
/// back. That single-thread fast path is what the zero-alloc benchmark
/// gates measure.
pub fn par_chunks_scratch<S, F, M>(
    pool: &ScratchPool<S>,
    len: usize,
    init: fn() -> S,
    work: F,
    mut fold: M,
) where
    S: Send,
    F: Fn(&mut S, Range<usize>) + Sync,
    M: FnMut(&mut S),
{
    if len == 0 {
        return;
    }
    let threads = current_threads().min(len);
    THREADS_GAUGE.set(threads as u64);
    if threads <= 1 {
        let mut state = pool.take(init);
        {
            let _busy = WORKER_BUSY_NS.start();
            work(&mut state, 0..len);
        }
        fold(&mut state);
        pool.put(state);
        return;
    }
    let ranges = chunk_ranges(len, threads);
    let mut states: Vec<S> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges[1..]
            .iter()
            .map(|r| {
                let r = r.clone();
                let work = &work;
                s.spawn(move || {
                    let mut state = pool.take(init);
                    let _busy = WORKER_BUSY_NS.start();
                    work(&mut state, r);
                    drop(_busy);
                    state
                })
            })
            .collect();
        let mut states = Vec::with_capacity(handles.len() + 1);
        let mut first = pool.take(init);
        {
            let _busy = WORKER_BUSY_NS.start();
            work(&mut first, ranges[0].clone());
        }
        states.push(first);
        for h in handles {
            states.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        states
    });
    for state in &mut states {
        fold(state);
    }
    for state in states {
        pool.put(state);
    }
}

/// Runs `f(index, &mut item)` for every item, fanning contiguous item
/// chunks out over the effective thread count. Items are mutated in place
/// — this is the fan-out for *stateful* partitions (a fleet's shards),
/// where each item owns disjoint state and the work is `&mut`.
///
/// Within a chunk, items are processed **in index order**; chunk
/// boundaries come from [`chunk_ranges`], so which thread touches which
/// item is deterministic. Because every item is independent, results are
/// identical at every thread count as long as `f` itself is a pure
/// function of `(index, item)`.
///
/// With one effective thread this is a plain in-order loop: no spawn, no
/// allocation — the fleet's steady-state ingest gate measures exactly
/// this path.
pub fn par_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let threads = current_threads().min(n);
    THREADS_GAUGE.set(threads as u64);
    if threads <= 1 {
        let _busy = WORKER_BUSY_NS.start();
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let ranges = chunk_ranges(n, threads);
    std::thread::scope(|s| {
        let mut rest = items;
        let mut handles = Vec::with_capacity(ranges.len() - 1);
        let mut first_chunk: Option<(usize, &mut [T])> = None;
        for r in &ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            if first_chunk.is_none() {
                // the calling thread keeps the first chunk for itself
                first_chunk = Some((r.start, chunk));
            } else {
                let f = &f;
                let start = r.start;
                handles.push(s.spawn(move || {
                    let _busy = WORKER_BUSY_NS.start();
                    for (off, item) in chunk.iter_mut().enumerate() {
                        f(start + off, item);
                    }
                }));
            }
        }
        let (start, chunk) = first_chunk.expect("ranges are never empty for n > 0");
        {
            let _busy = WORKER_BUSY_NS.start();
            for (off, item) in chunk.iter_mut().enumerate() {
                f(start + off, item);
            }
        }
        for h in handles {
            h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
}

/// A boxed task for [`par_invoke`]; may borrow the caller's stack.
pub type Task<'env, R> = Box<dyn FnOnce() -> R + Send + 'env>;

/// Runs a batch of heterogeneous tasks on the pool and returns their
/// results **in task order**. Tasks are claimed from a shared counter, so
/// long and short tasks pack onto threads without static assignment; the
/// output order is positional and therefore deterministic regardless of
/// which thread ran what.
pub fn par_invoke<'env, R: Send>(tasks: Vec<Task<'env, R>>) -> Vec<R> {
    let n = tasks.len();
    let threads = current_threads().min(n);
    THREADS_GAUGE.set(threads.max(1) as u64);
    if threads <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let slots: Vec<Mutex<Option<Task<'env, R>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // Queue wait = batch start → claim. The histogram's own kill switch
        // makes the record a no-op when observability is off; the clock
        // read is guarded so the disabled path touches no clock at all.
        if tsad_obs::enabled() {
            QUEUE_WAIT_NS.record(epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        let task = slots[i]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("each task is claimed exactly once");
        let _busy = WORKER_BUSY_NS.start();
        *results[i].lock().expect("result slot poisoned") = Some(task());
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(worker)).collect();
        worker();
        for h in handles {
            h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let ranges = chunk_ranges(len, parts);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    assert!(!r.is_empty());
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len);
                if len > 0 {
                    assert_eq!(ranges.len(), parts.min(len));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (sizes.iter().min(), sizes.iter().max());
                    assert!(max.unwrap() - min.unwrap() <= 1, "{sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_each_mut_touches_every_item_once_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 64, 1000] {
                let mut items: Vec<u64> = vec![0; n];
                with_threads(threads, || {
                    par_each_mut(&mut items, |i, v| {
                        *v += i as u64 + 1;
                    });
                });
                for (i, v) in items.iter().enumerate() {
                    assert_eq!(*v, i as u64 + 1, "threads={threads} n={n} item {i}");
                }
            }
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(1, current_threads)
        });
        assert_eq!(inner, 1);
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_clamps() {
        assert_eq!(with_threads(0, current_threads), 1);
        assert_eq!(with_threads(1 << 20, current_threads), MAX_THREADS);
    }

    #[test]
    fn join_returns_both_results() {
        for threads in [1usize, 4] {
            let (a, b) = with_threads(threads, || join(|| 2 + 2, || "ok".to_string()));
            assert_eq!(a, 4);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn par_chunks_results_are_in_range_order() {
        for threads in [1usize, 2, 5, 8] {
            let got = with_threads(threads, || par_chunks(100, |r| (r.start, r.end)));
            assert!(got.windows(2).all(|w| w[0].1 == w[1].0));
            assert_eq!(got.first().unwrap().0, 0);
            assert_eq!(got.last().unwrap().1, 100);
        }
    }

    #[test]
    fn par_map_indexed_matches_sequential_at_any_thread_count() {
        let items: Vec<i64> = (0..257).collect();
        let expected: Vec<i64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * i as i64)
            .collect();
        for threads in [1usize, 2, 8] {
            let got = with_threads(threads, || par_map_indexed(&items, |i, v| v * i as i64));
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn par_invoke_preserves_task_order() {
        for threads in [1usize, 2, 8] {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..20)
                .map(|i| {
                    Box::new(move || {
                        // stagger completion so claim order ≠ finish order
                        std::thread::sleep(std::time::Duration::from_micros(
                            ((20 - i) % 5) as u64 * 50,
                        ));
                        i * i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            let got = with_threads(threads, || par_invoke(tasks));
            let expected: Vec<usize> = (0..20).map(|i| i * i).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn par_invoke_borrows_from_the_stack() {
        let data = vec![1.0f64; 128];
        let tasks: Vec<Box<dyn FnOnce() -> f64 + Send + '_>> = vec![
            Box::new(|| data.iter().sum()),
            Box::new(|| data.len() as f64),
        ];
        let got = with_threads(4, || par_invoke(tasks));
        assert_eq!(got, vec![128.0, 128.0]);
    }

    #[test]
    fn scratch_pool_recycles_states() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let mut a = pool.take(Vec::new);
        a.reserve(4096);
        let cap = a.capacity();
        let ptr = a.as_ptr();
        pool.put(a);
        let b = pool.take(Vec::new);
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr, "the pooled allocation must be reused");
    }

    #[test]
    fn par_chunks_scratch_folds_in_range_order_at_any_thread_count() {
        // each worker records the indices it saw; the fold concatenates, so
        // an ascending final sequence proves range-ordered folding
        static POOL: ScratchPool<Vec<usize>> = ScratchPool::new();
        for threads in [1usize, 2, 3, 8] {
            let mut seen: Vec<usize> = Vec::new();
            with_threads(threads, || {
                par_chunks_scratch(
                    &POOL,
                    103,
                    Vec::new,
                    |state, range| {
                        state.clear();
                        state.extend(range);
                    },
                    |state| seen.extend(state.iter().copied()),
                );
            });
            assert_eq!(seen, (0..103).collect::<Vec<usize>>(), "threads={threads}");
        }
        // len == 0 is a no-op
        par_chunks_scratch(
            &POOL,
            0,
            Vec::new,
            |_, _| panic!("no work"),
            |_| panic!("no fold"),
        );
    }

    #[test]
    fn env_threads_parses() {
        // exercised indirectly: current_threads never panics and stays in
        // bounds whatever the environment holds
        let n = current_threads();
        assert!((1..=MAX_THREADS).contains(&n));
    }
}
