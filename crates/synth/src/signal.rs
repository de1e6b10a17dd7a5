//! Base-signal building blocks.
//!
//! Every generator is deterministic given its [`StdRng`], so each table and
//! figure of the reproduction regenerates bit-for-bit.

use rand::rngs::StdRng;
use rand::Rng;

/// A pure sinusoid `amplitude · sin(2π·i/period + phase)`.
pub fn sine(n: usize, period: f64, amplitude: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| amplitude * (std::f64::consts::TAU * i as f64 / period + phase).sin())
        .collect()
}

/// Linear trend `slope · i`.
pub fn trend(n: usize, slope: f64) -> Vec<f64> {
    (0..n).map(|i| slope * i as f64).collect()
}

/// I.i.d. Gaussian noise (Box–Muller over the seeded RNG).
pub fn gaussian_noise(rng: &mut StdRng, n: usize, sigma: f64) -> Vec<f64> {
    (0..n).map(|_| sigma * standard_normal(rng)).collect()
}

/// One standard-normal draw via Box–Muller.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Gaussian random walk with step deviation `sigma`, starting at `start`.
pub fn random_walk(rng: &mut StdRng, n: usize, start: f64, sigma: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut level = start;
    for _ in 0..n {
        out.push(level);
        level += sigma * standard_normal(rng);
    }
    out
}

/// Element-wise sum of several equal-length signals.
pub fn combine(parts: &[&[f64]]) -> Vec<f64> {
    let n = parts.first().map_or(0, |p| p.len());
    debug_assert!(parts.iter().all(|p| p.len() == n));
    let mut out = vec![0.0; n];
    for p in parts {
        for (o, &v) in out.iter_mut().zip(*p) {
            *o += v;
        }
    }
    out
}

/// A smooth daily/weekly demand profile (half-hour resolution, 48 samples
/// per day): two intra-day rush-hour humps, weekday/weekend modulation.
/// Used by the NYC-taxi simulator.
pub fn demand_profile(n: usize, samples_per_day: usize, weekend_factor: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let day = i / samples_per_day;
            let tod = (i % samples_per_day) as f64 / samples_per_day as f64;
            // Morning (~8:30) and evening (~18:30) humps over a base level,
            // plus a deep night trough.
            let morning = gaussian_bump(tod, 0.35, 0.07);
            let evening = gaussian_bump(tod, 0.77, 0.09);
            let night = gaussian_bump(tod, 0.08, 0.08);
            let base = 0.35 + 0.9 * morning + 1.0 * evening - 0.28 * night;
            let weekday = day % 7;
            let weekly = if weekday >= 5 { weekend_factor } else { 1.0 };
            base * weekly
        })
        .collect()
}

fn gaussian_bump(x: f64, center: f64, width: f64) -> f64 {
    let d = (x - center) / width;
    (-0.5 * d * d).exp()
}

/// Occasional unit impulses with probability `rate` per sample — the
/// building block of Numenta's "spike density" artificial data.
pub fn random_spikes(rng: &mut StdRng, n: usize, rate: f64, magnitude: f64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(rate.clamp(0.0, 1.0)) {
                magnitude
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sine_has_expected_period() {
        let s = sine(100, 25.0, 2.0, 0.0);
        assert!((s[0] - 0.0).abs() < 1e-12);
        assert!((s[25] - s[50]).abs() < 1e-9, "one period apart");
        assert!(s.iter().cloned().fold(0.0f64, f64::max) <= 2.0 + 1e-9);
    }

    #[test]
    fn noise_is_deterministic_and_roughly_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = gaussian_noise(&mut rng, 5000, 1.0);
        let mut rng2 = StdRng::seed_from_u64(42);
        let b = gaussian_noise(&mut rng2, 5000, 1.0);
        assert_eq!(a, b);
        let mean: f64 = a.iter().sum::<f64>() / a.len() as f64;
        let var: f64 = a.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn random_walk_starts_at_start() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = random_walk(&mut rng, 100, 5.0, 0.3);
        assert_eq!(w[0], 5.0);
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn combine_sums() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        assert_eq!(combine(&[&a, &b]), vec![11.0, 22.0]);
        assert!(combine(&[]).is_empty());
    }

    #[test]
    fn demand_profile_weekly_structure() {
        let spd = 48;
        let p = demand_profile(spd * 14, spd, 0.7);
        // weekday peak exceeds weekend peak
        let day_max = |d: usize| {
            p[d * spd..(d + 1) * spd]
                .iter()
                .cloned()
                .fold(0.0f64, f64::max)
        };
        assert!(day_max(0) > day_max(5), "weekday vs weekend");
        // same weekday repeats exactly
        assert!((day_max(0) - day_max(7)).abs() < 1e-12);
        // intra-day variation exists
        let d0 = &p[0..spd];
        let lo = d0.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(day_max(0) / lo > 2.0);
    }

    #[test]
    fn random_spikes_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = random_spikes(&mut rng, 10_000, 0.05, 1.0);
        let count = s.iter().filter(|&&v| v != 0.0).count();
        assert!((300..=700).contains(&count), "spike count {count}");
    }
}
