//! Anomaly injectors and the flaw machinery.
//!
//! Each injector mutates a signal in place and returns the [`Region`] it
//! affected. [`end_biased_position`] reproduces the run-to-failure placement
//! bias of §2.5, and [`corrupt_labels`] models the mislabeling of §2.4.

use rand::rngs::StdRng;
use rand::Rng;
use tsad_core::{Labels, Region};

/// Adds a point spike of the given magnitude at `at`.
pub fn spike(x: &mut [f64], at: usize, magnitude: f64) -> Region {
    x[at] += magnitude;
    Region::point(at)
}

/// Drops the value at `at` to `floor` (a "dropout" — the AspenTech `-9999`
/// missing-data pattern §3 mentions).
pub fn dropout(x: &mut [f64], at: usize, floor: f64) -> Region {
    x[at] = floor;
    Region::point(at)
}

/// Shifts everything from `at` onward by `delta` (a level change).
pub fn level_shift(x: &mut [f64], at: usize, delta: f64) -> Region {
    for v in &mut x[at..] {
        *v += delta;
    }
    Region::point(at)
}

/// Freezes the signal at its value at `start` for `[start, end)` — the NASA
/// "dynamic series suddenly becoming exactly constant" pattern (Fig. 9).
pub fn freeze(x: &mut [f64], start: usize, end: usize) -> Region {
    let held = x[start];
    for v in &mut x[start..end] {
        *v = held;
    }
    Region { start, end }
}

/// Samples an anomaly position with run-to-failure bias: positions are
/// drawn from the *maximum of `bias` uniforms*, which concentrates mass
/// near the end of `[lo, hi)` (`bias = 1` is uniform; the paper's Fig. 10
/// shape corresponds to `bias ≈ 3–6`).
pub fn end_biased_position(rng: &mut StdRng, lo: usize, hi: usize, bias: u32) -> usize {
    debug_assert!(lo < hi);
    let mut u: f64 = 0.0;
    for _ in 0..bias.max(1) {
        u = u.max(rng.gen_range(0.0..1.0));
    }
    lo + ((hi - lo - 1) as f64 * u).round() as usize
}

/// How ground truth gets corrupted, per §2.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelCorruption {
    /// Drop a true region from the labels (false negative — Fig. 5's
    /// unlabeled twin dropout, Fig. 9's unlabeled frozen regions).
    DropRegion,
    /// Add a label on normal data (false positive — Fig. 6's puzzling
    /// region F).
    SpuriousRegion,
    /// Shift a region a few points (the over-precise/off-by-some labels of
    /// Fig. 7).
    ShiftRegion,
}

/// Applies one corruption to `labels`; returns the corrupted labels and a
/// description of what changed, or `None` when the corruption is not
/// applicable (e.g. dropping from an empty label set).
pub fn corrupt_labels(
    rng: &mut StdRng,
    labels: &Labels,
    corruption: LabelCorruption,
) -> Option<(Labels, Region)> {
    let len = labels.len();
    match corruption {
        LabelCorruption::DropRegion => {
            let regions = labels.regions();
            if regions.is_empty() {
                return None;
            }
            let victim = regions[rng.gen_range(0..regions.len())];
            let kept: Vec<Region> = regions.iter().copied().filter(|r| *r != victim).collect();
            Some((
                Labels::new(len, kept).expect("subset of valid labels"),
                victim,
            ))
        }
        LabelCorruption::SpuriousRegion => {
            if len < 8 {
                return None;
            }
            // try a few times to find an unlabeled slot
            for _ in 0..32 {
                let width = rng.gen_range(1..=4usize);
                let start = rng.gen_range(0..len - width);
                let candidate = Region {
                    start,
                    end: start + width,
                };
                let clashes = labels.regions().iter().any(|r| r.overlaps(&candidate));
                if !clashes {
                    let mut regions = labels.regions().to_vec();
                    regions.push(candidate);
                    return Some((
                        Labels::new(len, regions).expect("validated non-overlapping"),
                        candidate,
                    ));
                }
            }
            None
        }
        LabelCorruption::ShiftRegion => {
            let regions = labels.regions();
            if regions.is_empty() {
                return None;
            }
            let idx = rng.gen_range(0..regions.len());
            let victim = regions[idx];
            let delta = rng.gen_range(1..=5usize);
            let forward = rng.gen_bool(0.5);
            let (start, end) = if forward {
                (victim.start + delta, (victim.end + delta).min(len))
            } else {
                (
                    victim.start.saturating_sub(delta),
                    victim.end.saturating_sub(delta),
                )
            };
            if start >= end {
                return None;
            }
            let shifted = Region { start, end };
            let mut regions: Vec<Region> =
                regions.iter().copied().filter(|r| *r != victim).collect();
            if regions.iter().any(|r| r.overlaps(&shifted)) {
                return None;
            }
            regions.push(shifted);
            Some((Labels::new(len, regions).ok()?, shifted))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn spike_and_dropout() {
        let mut x = vec![1.0; 10];
        let r = spike(&mut x, 3, 5.0);
        assert_eq!(x[3], 6.0);
        assert_eq!(r, Region::point(3));
        let r = dropout(&mut x, 7, -9999.0);
        assert_eq!(x[7], -9999.0);
        assert_eq!(r, Region::point(7));
    }

    #[test]
    fn level_shift_moves_suffix() {
        let mut x = vec![0.0; 6];
        level_shift(&mut x, 3, 2.0);
        assert_eq!(x, vec![0.0, 0.0, 0.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn freeze_holds_value() {
        let mut x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let r = freeze(&mut x, 4, 8);
        assert_eq!(&x[4..8], &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(x[8], 8.0);
        assert_eq!(r, Region { start: 4, end: 8 });
    }

    #[test]
    fn end_biased_positions_cluster_late() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 4000;
        let positions: Vec<usize> = (0..n)
            .map(|_| end_biased_position(&mut rng, 0, 1000, 5))
            .collect();
        let mean = positions.iter().sum::<usize>() as f64 / n as f64;
        // E[max of 5 uniforms] = 5/6 ≈ 0.833
        assert!(
            (mean / 999.0 - 5.0 / 6.0).abs() < 0.03,
            "mean position {mean}"
        );
        assert!(positions.iter().all(|&p| p < 1000));
        // bias = 1 is uniform
        let uniform: Vec<usize> = (0..n)
            .map(|_| end_biased_position(&mut rng, 0, 1000, 1))
            .collect();
        let mean_u = uniform.iter().sum::<usize>() as f64 / n as f64;
        assert!((mean_u / 999.0 - 0.5).abs() < 0.03, "uniform mean {mean_u}");
    }

    #[test]
    fn corrupt_drop_region() {
        let mut rng = StdRng::seed_from_u64(2);
        let labels = Labels::new(
            100,
            vec![Region::new(10, 12).unwrap(), Region::new(50, 55).unwrap()],
        )
        .unwrap();
        let (corrupted, dropped) =
            corrupt_labels(&mut rng, &labels, LabelCorruption::DropRegion).unwrap();
        assert_eq!(corrupted.region_count(), 1);
        assert!(labels.regions().contains(&dropped));
        assert!(!corrupted.regions().contains(&dropped));
        // dropping from empty labels is not applicable
        assert!(
            corrupt_labels(&mut rng, &Labels::empty(50), LabelCorruption::DropRegion).is_none()
        );
    }

    #[test]
    fn corrupt_spurious_region_lands_on_normal_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let labels = Labels::single(200, Region::new(100, 110).unwrap()).unwrap();
        let (corrupted, added) =
            corrupt_labels(&mut rng, &labels, LabelCorruption::SpuriousRegion).unwrap();
        assert_eq!(corrupted.region_count(), 2);
        assert!(!added.overlaps(&Region::new(100, 110).unwrap()));
    }

    #[test]
    fn corrupt_shift_region_moves_but_keeps_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let labels = Labels::single(200, Region::new(100, 110).unwrap()).unwrap();
        let mut shifted_some = false;
        for _ in 0..10 {
            if let Some((corrupted, moved)) =
                corrupt_labels(&mut rng, &labels, LabelCorruption::ShiftRegion)
            {
                assert_eq!(corrupted.region_count(), 1);
                assert_ne!(moved, Region::new(100, 110).unwrap());
                shifted_some = true;
            }
        }
        assert!(shifted_some);
    }
}
