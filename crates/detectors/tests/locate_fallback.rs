//! Near-tie series make the certified `locate` fall back to the full
//! profile: its counter moves and the answer is still the full profile's.
//! One test per binary, so no other test moves the counters meanwhile.

use tsad_core::TimeSeries;
use tsad_detectors::baselines::SubsequenceKnn;
use tsad_detectors::matrix_profile::{DiscordDetector, OnlineDiscordDetector};
use tsad_detectors::Detector;

fn full_profile_location(detector: &dyn Detector, ts: &TimeSeries, train_len: usize) -> usize {
    let score = detector.score(ts, train_len).unwrap();
    train_len + tsad_core::stats::argmax(&score[train_len..]).unwrap()
}

fn noisy_sine(n: usize, period: f64) -> Vec<f64> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * std::f64::consts::TAU / period).sin() + 0.05 * noise
        })
        .collect()
}

/// Runs `detector.locate` and returns the answer and how far `counter`
/// moved.
fn locate_counting(
    detector: &dyn Detector,
    ts: &TimeSeries,
    t: usize,
    counter: &str,
) -> (usize, u64) {
    let read = || tsad_obs::snapshot().counter(counter).unwrap_or(0);
    let before = read();
    let at = tsad_obs::with_enabled(true, || detector.locate(ts, t)).unwrap();
    (at, read() - before)
}

#[test]
fn near_ties_take_the_fallback_and_keep_the_answer() {
    let m = 32;
    // Self-join: a series that reads the same backwards holds every
    // anomaly twice, mirrored, and every window's nearest-neighbour
    // distance equals its mirror window's. One value nudged by one ulp
    // leaves the two discord copies within rounding of each other.
    // The mirror sits on a sine peak (610 = 10 + 15·40), so the seam
    // itself is unremarkable.
    let mut half = noisy_sine(611, 40.0);
    for v in &mut half[300..320] {
        *v = *v * 0.2 + 0.8;
    }
    let mut x = half.clone();
    x.extend(half[..610].iter().rev());
    x[905] = x[905].next_up();
    let ts = TimeSeries::new("mirror", x).unwrap();
    let discord = DiscordDetector::new(m);
    let (at, moved) = locate_counting(&discord, &ts, 100, "detectors.discord.locate_fallback");
    assert_eq!(moved, 1, "the mirrored discord was certified");
    assert_eq!(at, full_profile_location(&discord, &ts, 100));

    // Left profile: the series repeats itself once, one value nudged by
    // one ulp, and the test part starts past the seam, so every left
    // nearest neighbour it scores is a copy and the largest is rounding
    // noise.
    let mut x = noisy_sine(500, 40.0);
    for v in &mut x[200..215] {
        *v = *v * 0.2 + 0.8;
    }
    let copy = x.clone();
    x.extend(&copy);
    x[700] = x[700].next_down();
    let ts = TimeSeries::new("repeat", x).unwrap();
    let left = OnlineDiscordDetector::new(m);
    let t = 500 + m;
    let (at, moved) = locate_counting(&left, &ts, t, "detectors.left_discord.locate_fallback");
    assert_eq!(moved, 1, "the repeated test part was certified");
    assert_eq!(at, full_profile_location(&left, &ts, t));

    // Prefix join: the test part holds one anomaly twice, a whole number
    // of periods apart with the windows around it copied too, one value
    // of the copy nudged by one ulp, so the two test windows farthest
    // from the train part are within rounding of each other.
    let mut x = noisy_sine(1400, 40.0);
    for v in &mut x[800..815] {
        *v = *v * 0.2 + 0.8;
    }
    let copy = x[760..860].to_vec();
    x[1080..1180].copy_from_slice(&copy);
    x[1125] = x[1125].next_up();
    let ts = TimeSeries::new("twice", x).unwrap();
    let knn = SubsequenceKnn::new(m);
    let (at, moved) = locate_counting(&knn, &ts, 600, "detectors.knn.locate_fallback");
    assert_eq!(moved, 1, "the twice-held anomaly was certified");
    assert_eq!(at, full_profile_location(&knn, &ts, 600));
}
