//! Ground-truth anomaly labels.
//!
//! Labels are stored as a sorted, disjoint set of half-open [`Region`]s over
//! a series of known length. The paper's flaw taxonomy is largely about label
//! *structure* (density, gaps, position), so [`Labels`] exposes those
//! statistics directly.

use crate::error::{CoreError, Result};

/// A half-open index range `[start, end)` marking one anomalous region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region {
    /// First anomalous index.
    pub start: usize,
    /// One past the last anomalous index.
    pub end: usize,
}

impl Region {
    /// Creates a region, validating `start < end`.
    pub fn new(start: usize, end: usize) -> Result<Self> {
        if start >= end {
            return Err(CoreError::BadRegion {
                start,
                end,
                len: usize::MAX,
            });
        }
        Ok(Self { start, end })
    }

    /// Creates a single-point region at `index`.
    pub fn point(index: usize) -> Self {
        Self {
            start: index,
            end: index + 1,
        }
    }

    /// Number of indices covered.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if `index` falls inside the region.
    pub fn contains(&self, index: usize) -> bool {
        index >= self.start && index < self.end
    }

    /// `true` if the two regions share at least one index.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Centre index of the region (rounded down).
    pub fn center(&self) -> usize {
        self.start + (self.end - self.start) / 2
    }

    /// Distance from `index` to the region (0 if inside).
    pub fn distance_to(&self, index: usize) -> usize {
        if index < self.start {
            self.start - index
        } else if index >= self.end {
            index - self.end + 1
        } else {
            0
        }
    }

    /// The region dilated by `slop` on each side (clamped at 0 / `len`).
    pub fn dilate(&self, slop: usize, len: usize) -> Region {
        Region {
            start: self.start.saturating_sub(slop),
            end: (self.end + slop).min(len),
        }
    }
}

/// A set of sorted, disjoint anomaly regions over a series of length `len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels {
    len: usize,
    regions: Vec<Region>,
}

impl Labels {
    /// Creates an empty (all-normal) label set for a series of length `len`.
    pub fn empty(len: usize) -> Self {
        Self {
            len,
            regions: Vec::new(),
        }
    }

    /// Creates a label set from regions; sorts them and validates bounds and
    /// disjointness. Adjacent-but-touching regions (`a.end == b.start`) are
    /// merged, since they are indistinguishable in a binary mask.
    pub fn new(len: usize, mut regions: Vec<Region>) -> Result<Self> {
        regions.sort();
        let mut merged: Vec<Region> = Vec::with_capacity(regions.len());
        for r in regions {
            if r.end > len {
                return Err(CoreError::BadRegion {
                    start: r.start,
                    end: r.end,
                    len,
                });
            }
            match merged.last_mut() {
                Some(last) if r.start < last.end => {
                    return Err(CoreError::OverlappingRegions {
                        first_end: last.end,
                        second_start: r.start,
                    });
                }
                Some(last) if r.start == last.end => last.end = r.end,
                _ => merged.push(r),
            }
        }
        Ok(Self {
            len,
            regions: merged,
        })
    }

    /// Creates a label set containing exactly one region — the ideal shape
    /// the paper argues benchmark test series should have.
    pub fn single(len: usize, region: Region) -> Result<Self> {
        Self::new(len, vec![region])
    }

    /// Builds labels from a boolean mask (`true` = anomalous).
    pub fn from_mask(mask: &[bool]) -> Self {
        let mut regions = Vec::new();
        let mut start = None;
        for (i, &m) in mask.iter().enumerate() {
            match (m, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    regions.push(Region { start: s, end: i });
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            regions.push(Region {
                start: s,
                end: mask.len(),
            });
        }
        Self {
            len: mask.len(),
            regions,
        }
    }

    /// Renders the labels as a boolean mask of length `len()`.
    pub fn to_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.len];
        for r in &self.regions {
            for m in &mut mask[r.start..r.end] {
                *m = true;
            }
        }
        mask
    }

    /// Series length the labels refer to.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The sorted, disjoint regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of separate anomalous regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total number of anomalous indices.
    pub fn anomalous_points(&self) -> usize {
        self.regions.iter().map(Region::len).sum()
    }

    /// Fraction of the series marked anomalous — the paper's "anomaly
    /// density" (§2.3). Returns 0 for an empty series.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.anomalous_points() as f64 / self.len as f64
        }
    }

    /// Length of the longest single anomalous region.
    pub fn longest_region(&self) -> usize {
        self.regions.iter().map(Region::len).max().unwrap_or(0)
    }

    /// Smallest gap (in normal points) between two consecutive regions;
    /// `None` with fewer than two regions. Fig. 3's "two anomalies
    /// sandwiching a single normal datapoint" has a min gap of 1.
    pub fn min_gap(&self) -> Option<usize> {
        self.regions.windows(2).map(|w| w[1].start - w[0].end).min()
    }

    /// `true` if `index` is inside any labeled region.
    pub fn contains(&self, index: usize) -> bool {
        // Regions are sorted, so binary-search by start.
        match self.regions.binary_search_by(|r| r.start.cmp(&index)) {
            Ok(_) => true,
            Err(0) => false,
            Err(pos) => self.regions[pos - 1].contains(index),
        }
    }

    /// `true` if `index` falls within `slop` of any labeled region — the
    /// "play" that scoring functions need (§4.4).
    pub fn contains_with_slop(&self, index: usize, slop: usize) -> bool {
        self.regions
            .iter()
            .any(|r| r.dilate(slop, self.len).contains(index))
    }

    /// Relative position (0..=1) of the *last* anomalous point, the statistic
    /// behind the run-to-failure bias figure (Fig. 10). `None` if unlabeled.
    pub fn last_anomaly_relative_position(&self) -> Option<f64> {
        if self.len <= 1 {
            return None;
        }
        self.regions
            .last()
            .map(|r| (r.end - 1) as f64 / (self.len - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_basics() {
        let r = Region::new(3, 7).unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.contains(3));
        assert!(r.contains(6));
        assert!(!r.contains(7));
        assert_eq!(r.center(), 5);
        assert!(Region::new(5, 5).is_err());
        assert!(Region::new(6, 2).is_err());
        assert_eq!(Region::point(4), Region { start: 4, end: 5 });
    }

    #[test]
    fn region_distance_and_dilate() {
        let r = Region::new(10, 20).unwrap();
        assert_eq!(r.distance_to(10), 0);
        assert_eq!(r.distance_to(19), 0);
        assert_eq!(r.distance_to(5), 5);
        assert_eq!(r.distance_to(25), 6);
        assert_eq!(r.dilate(4, 100), Region { start: 6, end: 24 });
        assert_eq!(r.dilate(15, 22), Region { start: 0, end: 22 });
    }

    #[test]
    fn region_overlaps() {
        let a = Region::new(0, 5).unwrap();
        let b = Region::new(4, 9).unwrap();
        let c = Region::new(5, 9).unwrap();
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn labels_sort_and_merge_touching() {
        let l = Labels::new(
            20,
            vec![Region::new(8, 10).unwrap(), Region::new(2, 4).unwrap()],
        )
        .unwrap();
        assert_eq!(l.regions()[0].start, 2);
        let merged = Labels::new(
            20,
            vec![Region::new(2, 4).unwrap(), Region::new(4, 6).unwrap()],
        )
        .unwrap();
        assert_eq!(merged.region_count(), 1);
        assert_eq!(merged.regions()[0], Region { start: 2, end: 6 });
    }

    #[test]
    fn labels_reject_overlap_and_oob() {
        let err = Labels::new(
            20,
            vec![Region::new(2, 6).unwrap(), Region::new(5, 9).unwrap()],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::OverlappingRegions { .. }));
        let err = Labels::new(5, vec![Region::new(2, 9).unwrap()]).unwrap_err();
        assert!(matches!(err, CoreError::BadRegion { .. }));
    }

    #[test]
    fn mask_roundtrip() {
        let mask = vec![false, true, true, false, false, true, false, true];
        let labels = Labels::from_mask(&mask);
        assert_eq!(labels.region_count(), 3);
        assert_eq!(labels.to_mask(), mask);
        // trailing anomaly
        let mask2 = vec![false, true, true];
        assert_eq!(Labels::from_mask(&mask2).to_mask(), mask2);
    }

    #[test]
    fn density_and_gaps() {
        let l = Labels::new(
            10,
            vec![Region::new(1, 3).unwrap(), Region::new(4, 5).unwrap()],
        )
        .unwrap();
        assert_eq!(l.anomalous_points(), 3);
        assert!((l.density() - 0.3).abs() < 1e-12);
        assert_eq!(l.min_gap(), Some(1));
        assert_eq!(l.longest_region(), 2);
        assert_eq!(Labels::empty(10).min_gap(), None);
        assert_eq!(Labels::empty(0).density(), 0.0);
    }

    #[test]
    fn contains_and_slop() {
        let l = Labels::single(100, Region::new(40, 50).unwrap()).unwrap();
        assert!(l.contains(40));
        assert!(!l.contains(39));
        assert!(!l.contains(50));
        assert!(l.contains_with_slop(35, 5));
        assert!(!l.contains_with_slop(34, 5));
        assert!(l.contains_with_slop(54, 5));
    }

    #[test]
    fn contains_binary_search_many_regions() {
        let regions: Vec<Region> = (0..50)
            .map(|i| Region::new(i * 10, i * 10 + 3).unwrap())
            .collect();
        let l = Labels::new(500, regions).unwrap();
        for i in 0..500 {
            let expected = i % 10 < 3;
            assert_eq!(l.contains(i), expected, "index {i}");
        }
    }

    #[test]
    fn last_anomaly_position() {
        let l = Labels::single(101, Region::new(90, 101).unwrap()).unwrap();
        assert_eq!(l.last_anomaly_relative_position(), Some(1.0));
        let l = Labels::single(101, Region::new(50, 51).unwrap()).unwrap();
        assert_eq!(l.last_anomaly_relative_position(), Some(0.5));
        assert_eq!(Labels::empty(10).last_anomaly_relative_position(), None);
    }
}
