//! Seeded, deterministic fault injection for time-series streams.
//!
//! The benchmark-flaw paper argues that reported detector accuracy is
//! dominated by artifacts of the benchmarks themselves. One such artifact
//! is *cleanliness*: most public benchmarks are curated, but deployed
//! detectors face sensor dropouts, stuck values, transport reordering, and
//! clipped amplifiers. This crate makes those corruptions first-class and
//! reproducible so the robustness experiment (`repro -- faults`) can
//! measure exactly how much each detector's UCR-score degrades under each
//! corruption class — and CI can pin the result.
//!
//! Design rules:
//!
//! * **Deterministic.** Every injection is a pure function of
//!   `(input, profile, seed)` — an own [`SplitMix64`] generator, no global
//!   state, no platform dependence. The committed `BENCH_faults.json`
//!   baselines rely on byte-for-byte reproducibility.
//! * **Length-preserving.** Every transform maps `n` points to `n` points
//!   (dropouts become NaN markers rather than deletions) so ground-truth
//!   label alignment survives injection and UCR scoring stays valid.
//! * **Composable.** A [`FaultProfile`] is an ordered list of
//!   [`FaultKind`]s applied in sequence; the [`InjectionReport`] records
//!   how many events and points each kind touched.
//! * **Light.** Depends only on `tsad-core` (for its FNV-1a digest), so
//!   any crate can use it without dragging in the detector stack.

pub mod crash;

pub use crash::{Admitted, CrashFuse};
use tsad_core::ckpt::digest64;

use std::fmt;

/// SplitMix64: tiny, high-quality 64-bit generator (public domain
/// constants). One `u64` of state, passes BigCrush when used as a stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n = 0` returns 0.
    pub fn next_below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        // multiply-shift; bias is < 2^-53 for the small ranges used here
        ((self.next_f64() * n as f64) as usize).min(n - 1)
    }

    /// Fair coin.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// One corruption class. All transforms are length-preserving; `rate` is
/// the per-point (or per-start-point, for run-based kinds) probability of
/// triggering and is clamped to `[0, 1]` at application time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Replace individual points with NaN.
    NanPoison { rate: f64 },
    /// Replace individual points with ±∞ (random sign).
    InfPoison { rate: f64 },
    /// Contiguous sensor-dropout gaps of 1..=`max_gap` points, marked NaN.
    Dropout { rate: f64, max_gap: usize },
    /// Duplicate the previous point (stutter / repeated transmission).
    Duplicate { rate: f64 },
    /// Swap adjacent points (local transport reordering).
    OutOfOrder { rate: f64 },
    /// Hold the current value for a run of 2..=`max_run` points
    /// (stuck sensor).
    StuckAt { rate: f64, max_run: usize },
    /// Clip every point into `[lo, hi]` (saturated amplifier).
    Clip { lo: f64, hi: f64 },
    /// Additive uniform noise in `[-amp, amp]` over bursts of
    /// 1..=`max_len` points.
    BurstNoise { rate: f64, max_len: usize, amp: f64 },
}

impl FaultKind {
    /// Short stable label used in reports and benchmark JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NanPoison { .. } => "nan",
            FaultKind::InfPoison { .. } => "inf",
            FaultKind::Dropout { .. } => "dropout",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::OutOfOrder { .. } => "out-of-order",
            FaultKind::StuckAt { .. } => "stuck-at",
            FaultKind::Clip { .. } => "clip",
            FaultKind::BurstNoise { .. } => "burst-noise",
        }
    }

    /// Applies this kind in place. Returns `(events, points_touched)`.
    fn apply(&self, xs: &mut [f64], rng: &mut SplitMix64) -> (usize, usize) {
        let n = xs.len();
        let mut events = 0usize;
        let mut points = 0usize;
        match *self {
            FaultKind::NanPoison { rate } => {
                let rate = clamp01(rate);
                for x in xs.iter_mut() {
                    if rng.next_f64() < rate {
                        *x = f64::NAN;
                        events += 1;
                        points += 1;
                    }
                }
            }
            FaultKind::InfPoison { rate } => {
                let rate = clamp01(rate);
                for x in xs.iter_mut() {
                    if rng.next_f64() < rate {
                        *x = if rng.next_bool() {
                            f64::INFINITY
                        } else {
                            f64::NEG_INFINITY
                        };
                        events += 1;
                        points += 1;
                    }
                }
            }
            FaultKind::Dropout { rate, max_gap } => {
                let rate = clamp01(rate);
                let max_gap = max_gap.max(1);
                let mut i = 0;
                while i < n {
                    if rng.next_f64() < rate {
                        let gap = 1 + rng.next_below(max_gap);
                        let end = (i + gap).min(n);
                        for x in &mut xs[i..end] {
                            *x = f64::NAN;
                        }
                        events += 1;
                        points += end - i;
                        i = end;
                    } else {
                        i += 1;
                    }
                }
            }
            FaultKind::Duplicate { rate } => {
                let rate = clamp01(rate);
                for i in 1..n {
                    if rng.next_f64() < rate {
                        xs[i] = xs[i - 1];
                        events += 1;
                        points += 1;
                    }
                }
            }
            FaultKind::OutOfOrder { rate } => {
                let rate = clamp01(rate);
                let mut i = 0;
                while i + 1 < n {
                    if rng.next_f64() < rate {
                        xs.swap(i, i + 1);
                        events += 1;
                        points += 2;
                        i += 2; // a swapped pair is not re-swapped
                    } else {
                        i += 1;
                    }
                }
            }
            FaultKind::StuckAt { rate, max_run } => {
                let rate = clamp01(rate);
                let max_run = max_run.max(2);
                let mut i = 0;
                while i < n {
                    if rng.next_f64() < rate {
                        let run = 2 + rng.next_below(max_run - 1);
                        let end = (i + run).min(n);
                        let held = xs[i];
                        for x in &mut xs[i + 1..end] {
                            *x = held;
                        }
                        events += 1;
                        points += end.saturating_sub(i + 1);
                        i = end;
                    } else {
                        i += 1;
                    }
                }
            }
            FaultKind::Clip { lo, hi } => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                for x in xs.iter_mut() {
                    if x.is_finite() && (*x < lo || *x > hi) {
                        *x = x.clamp(lo, hi);
                        points += 1;
                    }
                }
                events = points;
            }
            FaultKind::BurstNoise { rate, max_len, amp } => {
                let rate = clamp01(rate);
                let max_len = max_len.max(1);
                let amp = if amp.is_finite() { amp.abs() } else { 1.0 };
                let mut i = 0;
                while i < n {
                    if rng.next_f64() < rate {
                        let len = 1 + rng.next_below(max_len);
                        let end = (i + len).min(n);
                        for x in &mut xs[i..end] {
                            if x.is_finite() {
                                *x += (rng.next_f64() * 2.0 - 1.0) * amp;
                            }
                        }
                        events += 1;
                        points += end - i;
                        i = end;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        (events, points)
    }
}

fn clamp01(r: f64) -> f64 {
    if r.is_finite() {
        r.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Named, ordered composition of fault kinds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Stable identifier (used as the benchmark JSON key).
    pub name: String,
    /// Kinds applied in order; later kinds see earlier corruption.
    pub kinds: Vec<FaultKind>,
}

impl FaultProfile {
    /// A profile with no faults — the control row in the experiment.
    pub fn clean() -> Self {
        Self {
            name: "clean".to_string(),
            kinds: Vec::new(),
        }
    }

    /// Builds a profile from a name and kinds.
    pub fn new(name: impl Into<String>, kinds: Vec<FaultKind>) -> Self {
        Self {
            name: name.into(),
            kinds,
        }
    }

    /// Injects this profile into a copy of `xs`. Deterministic in
    /// `(xs, self, seed)`.
    pub fn inject(&self, xs: &[f64], seed: u64) -> (Vec<f64>, InjectionReport) {
        let mut out = xs.to_vec();
        let report = self.inject_in_place(&mut out, seed);
        (out, report)
    }

    /// In-place variant of [`inject`](Self::inject).
    pub fn inject_in_place(&self, xs: &mut [f64], seed: u64) -> InjectionReport {
        // mix the profile name into the seed so two profiles with the same
        // seed do not corrupt the same positions
        let mut rng = SplitMix64::new(seed ^ digest64(self.name.as_bytes()));
        let mut kinds = Vec::with_capacity(self.kinds.len());
        for kind in &self.kinds {
            let (events, points) = kind.apply(xs, &mut rng);
            kinds.push(KindReport {
                kind: kind.label(),
                events,
                points,
            });
        }
        InjectionReport {
            profile: self.name.clone(),
            total_points: xs.len(),
            kinds,
        }
    }
}

/// What one kind did during an injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindReport {
    /// [`FaultKind::label`] of the kind.
    pub kind: &'static str,
    /// Trigger events (a dropout gap is one event).
    pub events: usize,
    /// Points modified.
    pub points: usize,
}

/// Summary of one profile injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionReport {
    /// Profile name.
    pub profile: String,
    /// Series length (injection is length-preserving).
    pub total_points: usize,
    /// Per-kind breakdown, in application order.
    pub kinds: Vec<KindReport>,
}

impl InjectionReport {
    /// Total points modified across kinds (a point hit twice counts twice).
    pub fn points_injected(&self) -> usize {
        self.kinds.iter().map(|k| k.points).sum()
    }

    /// Total trigger events across kinds.
    pub fn events(&self) -> usize {
        self.kinds.iter().map(|k| k.events).sum()
    }
}

impl fmt::Display for InjectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} points injected over {} events in {} samples",
            self.profile,
            self.points_injected(),
            self.events(),
            self.total_points
        )?;
        for k in &self.kinds {
            write!(f, "; {}={}pt/{}ev", k.kind, k.points, k.events)?;
        }
        Ok(())
    }
}

/// The standard profile matrix used by `repro -- faults` and pinned in
/// `BENCH_faults.json`. Rates are chosen so each profile is disruptive but
/// leaves the anomaly detectable by a robust detector.
pub fn standard_profiles() -> Vec<FaultProfile> {
    vec![
        FaultProfile::clean(),
        FaultProfile::new("nan-sparse", vec![FaultKind::NanPoison { rate: 0.01 }]),
        FaultProfile::new("inf-sparse", vec![FaultKind::InfPoison { rate: 0.005 }]),
        FaultProfile::new(
            "dropout",
            vec![FaultKind::Dropout {
                rate: 0.004,
                max_gap: 12,
            }],
        ),
        FaultProfile::new(
            "stuck",
            vec![FaultKind::StuckAt {
                rate: 0.004,
                max_run: 16,
            }],
        ),
        FaultProfile::new(
            "reorder",
            vec![
                FaultKind::Duplicate { rate: 0.01 },
                FaultKind::OutOfOrder { rate: 0.01 },
            ],
        ),
        FaultProfile::new("clip", vec![FaultKind::Clip { lo: -1.5, hi: 1.5 }]),
        FaultProfile::new(
            "noise-burst",
            vec![FaultKind::BurstNoise {
                rate: 0.003,
                max_len: 10,
                amp: 0.5,
            }],
        ),
        FaultProfile::new(
            "mixed",
            vec![
                FaultKind::Dropout {
                    rate: 0.002,
                    max_gap: 8,
                },
                FaultKind::StuckAt {
                    rate: 0.002,
                    max_run: 8,
                },
                FaultKind::NanPoison { rate: 0.005 },
                FaultKind::BurstNoise {
                    rate: 0.002,
                    max_len: 6,
                    amp: 0.3,
                },
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.07).sin()).collect()
    }

    #[test]
    fn splitmix_is_deterministic_and_well_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(0);
        let mut mean = 0.0;
        for _ in 0..10_000 {
            let v = c.next_f64();
            assert!((0.0..1.0).contains(&v));
            mean += v;
        }
        mean /= 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn injection_is_deterministic_in_profile_and_seed() {
        let xs = base(2000);
        for profile in standard_profiles() {
            let (a, ra) = profile.inject(&xs, 42);
            let (b, rb) = profile.inject(&xs, 42);
            assert_eq!(ra, rb);
            for (p, q) in a.iter().zip(&b) {
                assert_eq!(p.to_bits(), q.to_bits(), "{}", profile.name);
            }
            let (c, _) = profile.inject(&xs, 43);
            if !profile.kinds.is_empty() && !matches!(profile.name.as_str(), "clip") {
                assert!(
                    a.iter().zip(&c).any(|(p, q)| p.to_bits() != q.to_bits()),
                    "{} should differ across seeds",
                    profile.name
                );
            }
        }
    }

    #[test]
    fn every_profile_preserves_length() {
        let xs = base(1234);
        for profile in standard_profiles() {
            let (out, report) = profile.inject(&xs, 1);
            assert_eq!(out.len(), xs.len(), "{}", profile.name);
            assert_eq!(report.total_points, xs.len());
        }
    }

    #[test]
    fn clean_profile_is_identity() {
        let xs = base(500);
        let (out, report) = FaultProfile::clean().inject(&xs, 9);
        assert_eq!(out, xs);
        assert_eq!(report.points_injected(), 0);
        assert_eq!(report.events(), 0);
    }

    #[test]
    fn nan_poison_hits_roughly_rate_fraction() {
        let xs = base(20_000);
        let p = FaultProfile::new("t", vec![FaultKind::NanPoison { rate: 0.05 }]);
        let (out, report) = p.inject(&xs, 3);
        let nans = out.iter().filter(|v| v.is_nan()).count();
        assert_eq!(nans, report.points_injected());
        assert!((800..1200).contains(&nans), "nans {nans}");
    }

    #[test]
    fn dropout_produces_contiguous_nan_gaps() {
        let xs = base(10_000);
        let p = FaultProfile::new(
            "t",
            vec![FaultKind::Dropout {
                rate: 0.01,
                max_gap: 5,
            }],
        );
        let (out, report) = p.inject(&xs, 4);
        let nans = out.iter().filter(|v| v.is_nan()).count();
        assert_eq!(nans, report.points_injected());
        assert!(report.events() > 0);
        // gaps average > 1 point, so points > events; adjacent gaps may
        // abut, so the only hard per-run bound is events * max_gap
        assert!(report.points_injected() > report.events());
        assert!(report.points_injected() <= report.events() * 5);
    }

    #[test]
    fn stuck_at_holds_values() {
        let xs = base(5000);
        let p = FaultProfile::new(
            "t",
            vec![FaultKind::StuckAt {
                rate: 0.01,
                max_run: 6,
            }],
        );
        let (out, report) = p.inject(&xs, 5);
        assert!(report.points_injected() > 0);
        // at least one held pair exists that was not equal in the original
        let held = out
            .windows(2)
            .zip(xs.windows(2))
            .any(|(o, x)| o[0] == o[1] && x[0] != x[1]);
        assert!(held);
    }

    #[test]
    fn out_of_order_swaps_preserve_the_multiset() {
        let xs = base(3000);
        let p = FaultProfile::new("t", vec![FaultKind::OutOfOrder { rate: 0.05 }]);
        let (out, report) = p.inject(&xs, 6);
        assert!(report.events() > 0);
        let mut a = xs.clone();
        let mut b = out.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "swapping must preserve the value multiset");
    }

    #[test]
    fn clip_bounds_every_finite_value() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.07).sin() * 3.0).collect();
        let p = FaultProfile::new("t", vec![FaultKind::Clip { lo: -1.0, hi: 1.0 }]);
        let (out, report) = p.inject(&xs, 7);
        assert!(report.points_injected() > 0);
        assert!(out.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn burst_noise_skips_non_finite_points() {
        let mut xs = base(2000);
        xs[100] = f64::NAN;
        let p = FaultProfile::new(
            "t",
            vec![FaultKind::BurstNoise {
                rate: 1.0,
                max_len: 4,
                amp: 0.2,
            }],
        );
        let (out, _) = p.inject(&xs, 8);
        assert!(out[100].is_nan());
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, v)| i == 100 || v.is_finite()));
    }

    #[test]
    fn hostile_parameters_are_clamped_not_panicking() {
        let xs = base(100);
        let hostile = FaultProfile::new(
            "h",
            vec![
                FaultKind::NanPoison { rate: f64::NAN },
                FaultKind::NanPoison { rate: -3.0 },
                FaultKind::Dropout {
                    rate: 2.0,
                    max_gap: 0,
                },
                FaultKind::StuckAt {
                    rate: 0.5,
                    max_run: 0,
                },
                FaultKind::Clip {
                    lo: 1.0,
                    hi: -1.0, // reversed bounds
                },
                FaultKind::BurstNoise {
                    rate: 0.5,
                    max_len: 0,
                    amp: f64::INFINITY,
                },
            ],
        );
        let (out, _) = hostile.inject(&xs, 0);
        assert_eq!(out.len(), xs.len());
        let (empty_out, _) = hostile.inject(&[], 0);
        assert!(empty_out.is_empty());
    }

    #[test]
    fn standard_profile_names_are_unique_and_stable() {
        let profiles = standard_profiles();
        let names: Vec<&str> = profiles.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "clean",
                "nan-sparse",
                "inf-sparse",
                "dropout",
                "stuck",
                "reorder",
                "clip",
                "noise-burst",
                "mixed"
            ]
        );
    }

    #[test]
    fn report_display_is_readable() {
        let xs = base(1000);
        let p = FaultProfile::new("nan-sparse", vec![FaultKind::NanPoison { rate: 0.02 }]);
        let (_, report) = p.inject(&xs, 42);
        let s = report.to_string();
        assert!(s.starts_with("nan-sparse:"));
        assert!(s.contains("nan="));
    }
}
