//! Piecewise Aggregate Approximation (PAA) and Symbolic Aggregate
//! approXimation (SAX).
//!
//! These are the substrate for HOT SAX discord discovery in
//! `tsad-detectors`: subsequences are z-normalized, reduced with PAA, and
//! mapped to words over a small alphabet using breakpoints that equi-divide
//! the standard normal distribution.

use crate::error::{CoreError, Result};
use crate::ops::znormalize;
use crate::stats::normal_quantile;

/// Piecewise Aggregate Approximation: reduces `x` to `segments` values, each
/// the mean of (a possibly fractional share of) consecutive points.
///
/// Uses the exact fractional scheme so any `segments <= len` works, matching
/// the original PAA definition.
pub fn paa(x: &[f64], segments: usize) -> Result<Vec<f64>> {
    let n = x.len();
    if segments == 0 || segments > n {
        return Err(CoreError::BadWindow {
            window: segments,
            len: n,
        });
    }
    if segments == n {
        return Ok(x.to_vec());
    }
    // Segment j covers the (fractional) input interval
    // [j·n/s, (j+1)·n/s); each input point contributes proportionally to its
    // overlap with the segment. Each point touches at most two segments, so
    // this is O(n + segments).
    let seg_len = n as f64 / segments as f64;
    let mut out = Vec::with_capacity(segments);
    for j in 0..segments {
        let lo = j as f64 * seg_len;
        let hi = (j + 1) as f64 * seg_len;
        let i0 = lo.floor() as usize;
        let i1 = (hi.ceil() as usize).min(n);
        let mut acc = 0.0;
        for (i, &v) in x.iter().enumerate().take(i1).skip(i0) {
            let overlap = (hi.min((i + 1) as f64) - lo.max(i as f64)).max(0.0);
            acc += v * overlap;
        }
        out.push(acc / seg_len);
    }
    Ok(out)
}

/// The `alphabet − 1` breakpoints that divide the standard normal
/// distribution into `alphabet` equiprobable regions.
pub fn sax_breakpoints(alphabet: usize) -> Result<Vec<f64>> {
    if !(2..=20).contains(&alphabet) {
        return Err(CoreError::BadParameter {
            name: "alphabet",
            value: alphabet as f64,
            expected: "2 <= alphabet <= 20",
        });
    }
    (1..alphabet)
        .map(|i| normal_quantile(i as f64 / alphabet as f64))
        .collect()
}

/// A SAX word: symbols in `0 .. alphabet`.
pub type SaxWord = Vec<u8>;

/// Converts a (sub)sequence to a SAX word: z-normalize, PAA to
/// `word_length`, then discretize against the normal breakpoints.
pub fn sax_word(x: &[f64], word_length: usize, alphabet: usize) -> Result<SaxWord> {
    let z = znormalize(x);
    let reduced = paa(&z, word_length)?;
    let breakpoints = sax_breakpoints(alphabet)?;
    Ok(reduced
        .iter()
        .map(|&v| breakpoints.iter().take_while(|&&b| v > b).count() as u8)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paa_identity_and_simple_halving() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(paa(&x, 4).unwrap(), x.to_vec());
        assert_eq!(paa(&x, 2).unwrap(), vec![1.5, 3.5]);
        assert_eq!(paa(&x, 1).unwrap(), vec![2.5]);
        assert!(paa(&x, 0).is_err());
        assert!(paa(&x, 5).is_err());
    }

    #[test]
    fn paa_fractional_segments() {
        // 3 points into 2 segments: segment 1 = mean(x0, x1/2-share),
        // exact PAA: seg0 = (x0 + 0.5 x1) / 1.5, seg1 = (0.5 x1 + x2) / 1.5
        let x = [0.0, 3.0, 6.0];
        let got = paa(&x, 2).unwrap();
        assert!((got[0] - 1.0).abs() < 1e-9, "{got:?}");
        assert!((got[1] - 5.0).abs() < 1e-9, "{got:?}");
    }

    #[test]
    fn paa_preserves_mean() {
        let x: Vec<f64> = (0..97)
            .map(|i| (i as f64 * 0.3).sin() * 2.0 + 1.0)
            .collect();
        for segments in [1, 3, 10, 48, 97] {
            let reduced = paa(&x, segments).unwrap();
            let mean_x = x.iter().sum::<f64>() / x.len() as f64;
            let mean_r = reduced.iter().sum::<f64>() / reduced.len() as f64;
            // exact when segments divides n; close otherwise
            assert!(
                (mean_x - mean_r).abs() < 0.05,
                "segments={segments}: {mean_x} vs {mean_r}"
            );
        }
    }

    #[test]
    fn breakpoints_are_symmetric_and_sorted() {
        let bp = sax_breakpoints(4).unwrap();
        assert_eq!(bp.len(), 3);
        assert!(
            (bp[1]).abs() < 1e-9,
            "middle breakpoint of even alphabet is 0"
        );
        assert!((bp[0] + bp[2]).abs() < 1e-9, "symmetric");
        assert!(bp.windows(2).all(|w| w[0] < w[1]));
        assert!(sax_breakpoints(1).is_err());
        assert!(sax_breakpoints(21).is_err());
    }

    #[test]
    fn sax_word_of_ramp() {
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let w = sax_word(&x, 4, 4).unwrap();
        // a rising ramp must produce a non-decreasing word visiting low and
        // high symbols
        assert_eq!(w.len(), 4);
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(w[0], 0);
        assert_eq!(w[3], 3);
    }

    #[test]
    fn identical_sequences_share_words() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).sin()).collect();
        let a = sax_word(&x, 8, 5).unwrap();
        let scaled: Vec<f64> = x.iter().map(|v| v * 4.0 + 10.0).collect();
        let b = sax_word(&scaled, 8, 5).unwrap();
        assert_eq!(
            a, b,
            "SAX is amplitude/offset invariant via z-normalization"
        );
    }
}
