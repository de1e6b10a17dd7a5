//! HOT SAX (Keogh, Lin & Fu 2005): heuristic discord discovery.
//!
//! The algorithm discretizes every subsequence into a SAX word, then runs
//! the brute-force discord search with two heuristics:
//!
//! * **outer loop order** — subsequences whose SAX word is *rare* are tried
//!   first (they are likely discords, raising the best-so-far early);
//! * **inner loop order** — for candidate `i`, subsequences sharing `i`'s
//!   word are tried first (they are likely close, enabling early abandon).
//!
//! The result is exactly the brute-force discord (it is an exact algorithm,
//! only the visit order is heuristic); tests verify agreement with the
//! matrix-profile discord.
//!
//! Pairs are scored by the same fused distance as MERLIN's DRAG
//! (`crate::pair`): one dot product over window moments computed once per
//! call, with the search compiled per SIMD backend. Like MERLIN, results
//! are bitwise on the scalar backend and within 1e-9 relative on the wide
//! ones (DESIGN.md §11).

use std::cell::RefCell;
use std::collections::HashMap;

use tsad_core::error::{CoreError, Result};
use tsad_core::sax::sax_word;
use tsad_core::simd::{self, Isa, Kernel};
use tsad_core::windows::{subsequence_count, MomentsScratch, WindowMoments};

use crate::matrix_profile::exclusion_zone;
use crate::pair::pair_distance;

/// HOT SAX parameters.
#[derive(Debug, Clone, Copy)]
pub struct HotSaxConfig {
    /// SAX word length (PAA segments).
    pub word_length: usize,
    /// SAX alphabet size.
    pub alphabet: usize,
}

impl Default for HotSaxConfig {
    fn default() -> Self {
        Self {
            word_length: 3,
            alphabet: 3,
        }
    }
}

/// Window moments reused across calls on one thread, so repeated searches
/// stop allocating them once the largest series has been seen.
#[derive(Debug, Default)]
struct MomentsSpace {
    moments: WindowMoments,
    scratch: MomentsScratch,
}

thread_local! {
    static MOMENTS: RefCell<MomentsSpace> = RefCell::new(MomentsSpace::default());
}

/// The discord found by HOT SAX: `(start_index, nn_distance)`.
///
/// Distances are z-normalized Euclidean, identical to the matrix profile's
/// metric, so results are directly comparable with
/// [`crate::matrix_profile::stomp`].
///
/// A non-finite value is rejected: the window moments are prefix sums, so
/// one NaN would poison every later window's distance.
pub fn hotsax_discord(x: &[f64], m: usize, config: &HotSaxConfig) -> Result<(usize, f64)> {
    tsad_core::series::ensure_finite(x)?;
    let count = subsequence_count(x.len(), m)?;
    if count < 2 {
        return Err(CoreError::BadWindow {
            window: m,
            len: x.len(),
        });
    }
    if config.word_length > m {
        return Err(CoreError::BadParameter {
            name: "word_length",
            value: config.word_length as f64,
            expected: "word_length <= subsequence length",
        });
    }

    // Bucket subsequences by SAX word; each window keeps its bucket's id.
    let mut ids: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut bucket_of: Vec<usize> = Vec::with_capacity(count);
    for i in 0..count {
        let w = sax_word(&x[i..i + m], config.word_length, config.alphabet)?;
        let id = *ids.entry(w).or_insert_with(|| {
            buckets.push(Vec::new());
            buckets.len() - 1
        });
        buckets[id].push(i);
        bucket_of.push(id);
    }

    // Outer order: rarest words first.
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by_key(|&i| buckets[bucket_of[i]].len());

    let backend = simd::current();
    let (best_loc, best_dist) = MOMENTS.with(|space| -> Result<(usize, f64)> {
        let space = &mut *space.borrow_mut();
        WindowMoments::compute_with(x, m, &mut space.scratch, &mut space.moments)?;
        Ok(simd::dispatch(
            backend,
            HotSaxScan {
                x,
                m,
                moments: &space.moments,
                buckets: &buckets,
                bucket_of: &bucket_of,
                order: &order,
            },
        ))
    })?;
    if !best_dist.is_finite() {
        return Err(CoreError::BadWindow {
            window: m,
            len: x.len(),
        });
    }
    Ok((best_loc, best_dist))
}

/// The HOT SAX search proper over precomputed buckets and visit order,
/// compiled per SIMD backend through [`simd::dispatch`].
struct HotSaxScan<'a> {
    x: &'a [f64],
    m: usize,
    moments: &'a WindowMoments,
    buckets: &'a [Vec<usize>],
    bucket_of: &'a [usize],
    order: &'a [usize],
}

impl Kernel for HotSaxScan<'_> {
    type Output = (usize, f64);

    #[inline(always)]
    fn run<I: Isa>(self) -> (usize, f64) {
        let HotSaxScan {
            x,
            m,
            moments,
            buckets,
            bucket_of,
            order,
        } = self;
        let excl = exclusion_zone(m);
        let mut best_dist = f64::NEG_INFINITY;
        let mut best_loc = 0usize;
        for &i in order {
            // Nearest-neighbor distance of subsequence i, early-abandoning
            // once it drops below the best-so-far discord distance: windows
            // sharing i's word first, then every other window in order.
            let word = bucket_of[i];
            let mut nn = f64::INFINITY;
            let abandoned = 'scan: {
                for &j in &buckets[word] {
                    if closer::<I>(x, m, moments, i, j, excl, &mut nn) && nn < best_dist {
                        break 'scan true;
                    }
                }
                for (j, &other) in bucket_of.iter().enumerate() {
                    if other != word
                        && closer::<I>(x, m, moments, i, j, excl, &mut nn)
                        && nn < best_dist
                    {
                        break 'scan true;
                    }
                }
                false
            };
            if !abandoned && nn.is_finite() && nn > best_dist {
                best_dist = nn;
                best_loc = i;
            }
        }
        (best_loc, best_dist)
    }
}

/// Lowers `nn` to the distance between windows `i` and `j` if that is
/// smaller (pairs inside the exclusion zone are skipped); reports whether
/// it did.
#[inline(always)]
fn closer<I: Isa>(
    x: &[f64],
    m: usize,
    moments: &WindowMoments,
    i: usize,
    j: usize,
    excl: usize,
    nn: &mut f64,
) -> bool {
    if j.abs_diff(i) < excl {
        return false;
    }
    let d = pair_distance::<I>(x, m, moments, i, j);
    if d < *nn {
        *nn = d;
        return true;
    }
    false
}

/// [`crate::Detector`] adapter over the HOT SAX discord search: zero
/// everywhere except the winning discord window, which carries its
/// nearest-neighbor distance.
#[derive(Debug, Clone, Copy)]
pub struct HotSaxDetector {
    /// Discord subsequence length.
    pub window: usize,
    /// SAX discretization parameters.
    pub config: HotSaxConfig,
}

impl HotSaxDetector {
    /// Creates the detector with subsequence length `window` and default
    /// SAX parameters.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            config: HotSaxConfig::default(),
        }
    }
}

impl crate::Detector for HotSaxDetector {
    fn name(&self) -> &'static str {
        crate::registry::display::HOT_SAX
    }
    fn score(&self, ts: &tsad_core::TimeSeries, _train_len: usize) -> Result<Vec<f64>> {
        let x = ts.values();
        let (start, dist) = hotsax_discord(x, self.window, &self.config)?;
        let mut out = vec![0.0; x.len()];
        for o in out.iter_mut().skip(start).take(self.window) {
            *o = dist;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_profile::stomp;

    fn anomalous_signal() -> Vec<f64> {
        (0..400)
            .map(|i| {
                let base = (i as f64 * std::f64::consts::TAU / 25.0).sin();
                if (222..232).contains(&i) {
                    base * 0.1 + 1.5
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn hotsax_matches_matrix_profile_discord() {
        let x = anomalous_signal();
        let m = 25;
        let (hs_loc, hs_dist) = hotsax_discord(&x, m, &HotSaxConfig::default()).unwrap();
        let (mp_loc, mp_dist) = stomp(&x, m).unwrap().discord().unwrap();
        assert!(
            (hs_dist - mp_dist).abs() < 1e-6,
            "distances must agree: {hs_dist} vs {mp_dist}"
        );
        // Location may differ only among ties; with a unique anomaly they
        // coincide (or land within the anomalous window).
        assert!(hs_loc.abs_diff(mp_loc) <= m, "{hs_loc} vs {mp_loc}");
    }

    #[test]
    fn hotsax_rejects_bad_parameters() {
        let x = vec![0.0; 50];
        assert!(hotsax_discord(&x, 0, &HotSaxConfig::default()).is_err());
        assert!(hotsax_discord(&x, 50, &HotSaxConfig::default()).is_err());
        let cfg = HotSaxConfig {
            word_length: 40,
            alphabet: 3,
        };
        assert!(hotsax_discord(&x, 20, &cfg).is_err());
    }

    #[test]
    fn hotsax_rejects_non_finite_input() {
        let mut x = anomalous_signal();
        x[40] = f64::NAN;
        assert!(matches!(
            hotsax_discord(&x, 25, &HotSaxConfig::default()),
            Err(CoreError::NonFinite { index: 40 })
        ));
    }

    #[test]
    fn hotsax_on_constant_signal_returns_zero_distance() {
        let x = vec![3.0; 100];
        let (_, d) = hotsax_discord(&x, 10, &HotSaxConfig::default()).unwrap();
        assert_eq!(d, 0.0, "all windows identical: discord distance 0");
    }
}
