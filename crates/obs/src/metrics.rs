//! Metric primitives: counters, gauges, and fixed-bucket histograms.
//!
//! All three are designed to live in `static` position and record through
//! `&'static self` with relaxed atomics — no locks, no heap, no ordering
//! dependence. Recording while disabled (see [`crate::enabled`]) is an
//! early return that touches nothing.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::{Link, COUNTERS, GAUGES, HISTOGRAMS};

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    link: Link<Counter>,
}

impl Counter {
    /// A new counter named `name` (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            link: Link::new(),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events. No-op while recording is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        COUNTERS.register(self);
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event. No-op while recording is disabled.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    pub(crate) fn link_ref(&self) -> &Link<Counter> {
        &self.link
    }
}

/// A last-value-wins instantaneous measurement (worker counts, rates).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    link: Link<Gauge>,
}

impl Gauge {
    /// A new gauge named `name` (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            link: Link::new(),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stores `v`. No-op while recording is disabled.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        GAUGES.register(self);
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn set_max(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        GAUGES.register(self);
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Raises the gauge by `n` (population counts maintained
    /// incrementally, e.g. active series in a fleet shard).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        GAUGES.register(self);
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the gauge by `n`, saturating at zero (an eviction observed
    /// while the gauge is mid-reset must not wrap to `u64::MAX`).
    #[inline]
    pub fn sub(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        GAUGES.register(self);
        self.value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            })
            .ok();
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    pub(crate) fn link_ref(&self) -> &Link<Gauge> {
        &self.link
    }
}

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket `k`
/// (`1 <= k < 63`) holds `2^(k-1) <= v < 2^k`; the last bucket holds
/// everything from `2^62` up. 64 buckets cover the full `u64` range, so
/// the layout never needs to grow — recording is a handful of relaxed
/// `fetch_add`s on a fixed array.
pub const BUCKETS: usize = 64;

/// The bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`,
/// clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// The largest value bucket `idx` can hold (`u64::MAX` for the overflow
/// bucket). Quantile estimates report this upper bound, so they
/// overestimate by at most 2× — an error that is irrelevant for the
/// order-of-magnitude latency questions the histograms answer.
#[inline]
pub fn bucket_upper_bound(idx: usize) -> u64 {
    match idx {
        0 => 0,
        _ if idx >= BUCKETS - 1 => u64::MAX,
        _ => (1u64 << idx) - 1,
    }
}

/// A lock-free histogram over [`BUCKETS`] log2-spaced buckets, with exact
/// count / sum / max alongside the bucketed distribution.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    unit: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    link: Link<Histogram>,
}

impl Histogram {
    /// A new histogram named `name` whose samples are measured in `unit`
    /// (e.g. `"ns"`, `"points"`). Usable in `static` position.
    pub const fn new(name: &'static str, unit: &'static str) -> Self {
        Self {
            name,
            unit,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            link: Link::new(),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit its samples are measured in.
    pub fn unit(&self) -> &'static str {
        self.unit
    }

    /// Records one sample. No-op while recording is disabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        HISTOGRAMS.register(self);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow, like the atomics).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A copy of the bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// The `q`-quantile (`0 < q <= 1`) as a bucket upper bound: the
    /// smallest bound below which at least `ceil(q · count)` samples fall.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.bucket_counts(), q)
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn link_ref(&self) -> &Link<Histogram> {
        &self.link
    }
}

/// [`Histogram::quantile`] over an already-copied bucket array: snapshots
/// use it so count and buckets come from the same copy, and the load
/// generator over buckets merged across its client threads.
pub fn quantile_from_buckets(buckets: &[u64; BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (idx, &c) in buckets.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper_bound(idx);
        }
    }
    bucket_upper_bound(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_add_sub_saturate_at_zero() {
        static G: Gauge = Gauge::new("obs.test.gauge_add_sub");
        crate::with_enabled(true, || {
            G.set(0);
            G.add(5);
            G.add(2);
            assert_eq!(G.get(), 7);
            G.sub(3);
            assert_eq!(G.get(), 4);
            G.sub(100);
            assert_eq!(G.get(), 0, "sub saturates instead of wrapping");
        });
        crate::with_enabled(false, || {
            G.add(9);
            G.sub(1);
        });
        crate::with_enabled(true, || {
            assert_eq!(G.get(), 0, "disabled add/sub must be no-ops");
        });
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // every bucket k >= 1 covers [2^(k-1), 2^k): both edges land in k
        for k in 1..BUCKETS - 1 {
            let lo = 1u64 << (k - 1);
            assert_eq!(bucket_index(lo), k, "low edge of bucket {k}");
            assert_eq!(bucket_index(2 * lo - 1), k, "high edge of bucket {k}");
        }
    }

    #[test]
    fn bucket_upper_bounds_match_the_index_map() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
        // the upper bound of bucket k is the largest v with bucket_index(v) == k
        for k in 0..BUCKETS - 1 {
            let hi = bucket_upper_bound(k);
            assert_eq!(bucket_index(hi), k);
            assert_eq!(bucket_index(hi + 1), k + 1);
        }
    }

    #[test]
    fn histogram_records_count_sum_max_and_distribution() {
        static H: Histogram = Histogram::new("obs.test.hist_basic", "ns");
        let _g = crate::test_guard();
        crate::with_enabled(true, || {
            for v in [0u64, 1, 1, 7, 1000] {
                H.record(v);
            }
        });
        assert_eq!(H.count(), 5);
        assert_eq!(H.sum(), 1009);
        assert_eq!(H.max(), 1000);
        let b = H.bucket_counts();
        assert_eq!(b[0], 1); // the zero
        assert_eq!(b[1], 2); // the ones
        assert_eq!(b[3], 1); // 7 ∈ [4, 8)
        assert_eq!(b[10], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        // 10 zeros and 10 samples of 1000: the median is still 0, p90
        // lands in 1000's bucket (upper bound 1023)
        let mut buckets = [0u64; BUCKETS];
        buckets[0] = 10;
        buckets[bucket_index(1000)] = 10;
        assert_eq!(quantile_from_buckets(&buckets, 0.5), 0);
        assert_eq!(quantile_from_buckets(&buckets, 0.9), 1023);
        assert_eq!(quantile_from_buckets(&buckets, 1.0), 1023);
        // a single sample answers every quantile
        let mut one = [0u64; BUCKETS];
        one[bucket_index(5)] = 1;
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&one, q), 7, "q={q}");
        }
        // empty histogram: 0 everywhere
        assert_eq!(quantile_from_buckets(&[0u64; BUCKETS], 0.99), 0);
    }

    #[test]
    fn quantile_rank_uses_ceil_not_floor() {
        // 4 samples: p50 must cover the 2nd (ceil(0.5·4) = 2), not the 3rd
        let mut buckets = [0u64; BUCKETS];
        buckets[bucket_index(1)] = 2;
        buckets[bucket_index(100)] = 2;
        assert_eq!(quantile_from_buckets(&buckets, 0.5), 1);
        assert_eq!(quantile_from_buckets(&buckets, 0.75), 127);
    }

    #[test]
    fn gauge_set_and_set_max() {
        static G: Gauge = Gauge::new("obs.test.gauge_basic");
        let _g = crate::test_guard();
        crate::with_enabled(true, || {
            G.set(7);
            G.set_max(3);
            assert_eq!(G.get(), 7);
            G.set_max(11);
            assert_eq!(G.get(), 11);
            G.set(2);
            assert_eq!(G.get(), 2);
        });
    }

    #[test]
    fn counter_accumulates_across_threads() {
        static C: Counter = Counter::new("obs.test.counter_threads");
        let _g = crate::test_guard();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    crate::with_enabled(true, || {
                        for _ in 0..1000 {
                            C.inc();
                        }
                    });
                });
            }
        });
        assert_eq!(C.get(), 4000);
    }
}
