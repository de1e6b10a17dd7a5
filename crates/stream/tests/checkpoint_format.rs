//! Pins the TSCK v1 bytes of the prefix-calibrated ports, and checks that
//! restore refuses blobs no push sequence can produce.
//!
//! Round-trip tests prove a checkpoint restores, but they pass just as well
//! after a silent layout change — and a layout change orphans every blob
//! already on disk (fleet segments, WAL checkpoints). These digests fix the
//! exact bytes of `checkpoint(det)` for z-score, CUSUM and SPOT at three
//! points of one fixed 300-point stream: mid-calibration, the push that
//! completes calibration, and steady state. A deliberate layout change must
//! bump `CKPT_VERSION` and re-pin them.

use tsad_core::ckpt::{digest64, CkptWriter};
use tsad_detectors::cusum::Cusum;
use tsad_detectors::spot::Spot;
use tsad_stream::{
    checkpoint, restore, StreamingCusum, StreamingDetector, StreamingGlobalZScore, StreamingSpot,
    CKPT_MAGIC, CKPT_VERSION,
};

const TRAIN: usize = 100;

/// Deterministic wiggle with a level shift and two spikes.
fn stream() -> Vec<f64> {
    (0..300)
        .map(|i| {
            let noise = (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                / (1u64 << 24) as f64)
                - 0.5;
            let shift = if i >= 220 { 1.5 } else { 0.0 };
            let spike = match i {
                40 => 5.0,
                260 => -7.0,
                _ => 0.0,
            };
            (i as f64 * 0.07).sin() + noise + shift + spike
        })
        .collect()
}

/// Checkpoint digests after 50 pushes (mid-calibration), `TRAIN` pushes
/// (just calibrated) and all 300 pushes (steady state).
fn digests(det: &mut dyn StreamingDetector) -> [u64; 3] {
    let xs = stream();
    let mut out = [0u64; 3];
    let mut pushed = 0;
    for (slot, upto) in [50, TRAIN, xs.len()].into_iter().enumerate() {
        for &v in &xs[pushed..upto] {
            det.push(v);
        }
        pushed = upto;
        out[slot] = digest64(&checkpoint(det));
    }
    out
}

fn assert_pinned(det: &mut dyn StreamingDetector, want: [u64; 3]) {
    assert_eq!(CKPT_VERSION, 1, "a layout change must bump the version");
    let got = digests(det);
    assert_eq!(got, want, "{}: got {got:#018x?}", det.name());
}

#[test]
fn zscore_checkpoint_bytes_are_pinned() {
    let mut det = StreamingGlobalZScore::new(TRAIN).unwrap();
    assert_pinned(
        &mut det,
        [0x499212f9eb529102, 0xd45abb28fe4ad52f, 0xe7562e77b67435b8],
    );
}

#[test]
fn cusum_checkpoint_bytes_are_pinned() {
    let mut det = StreamingCusum::new(Cusum::default(), TRAIN).unwrap();
    assert_pinned(
        &mut det,
        [0x756a3229fd356897, 0x75ce2ba110410647, 0x5a201d54a21ad6fc],
    );
}

#[test]
fn spot_checkpoint_bytes_are_pinned() {
    let mut det = StreamingSpot::new(Spot::default(), TRAIN).unwrap();
    assert_pinned(
        &mut det,
        [0x5fd76249be71a7f6, 0x44cd1b76f38e93cf, 0xecec7a6216f7851e],
    );
}

/// A TSCK v1 blob for `name` holding an *uncalibrated* state: `prefix`
/// samples, the calibrated flag cleared, and `backlog` held-back scores.
fn uncalibrated_blob(name: &str, prefix: &[f64], backlog: &[f64]) -> Vec<u8> {
    let mut w = CkptWriter::new();
    w.u32(CKPT_MAGIC);
    w.u32(CKPT_VERSION);
    w.str(name);
    w.f64_seq(prefix.len(), prefix.iter().copied());
    w.bool(false);
    w.f64_seq(backlog.len(), backlog.iter().copied());
    w.finish()
}

/// Restore must refuse states no push sequence can produce: a backlog
/// before calibration (which would emit more scores than were pushed), and
/// a full prefix that never calibrated (which would silence SPOT forever
/// and calibrate z-score/CUSUM on `train_len + 1` samples).
fn assert_refuses_unreachable_states(det: &mut dyn StreamingDetector) {
    let name = det.name();
    let ramp: Vec<f64> = (0..=TRAIN).map(|i| i as f64).collect();

    // control: the largest reachable uncalibrated state restores and
    // calibrates on the next push
    let ok = uncalibrated_blob(&name, &ramp[..TRAIN - 1], &[]);
    restore(det, &ok).unwrap_or_else(|e| panic!("{name}: reachable state refused: {e}"));
    assert!(
        det.push(0.5).is_some(),
        "{name}: calibrates on push train_len"
    );

    let backlog = uncalibrated_blob(&name, &[], &[1.0; 1000]);
    assert!(
        restore(det, &backlog).is_err(),
        "{name}: backlog before calibration"
    );
    let full = uncalibrated_blob(&name, &ramp[..TRAIN], &[]);
    assert!(
        restore(det, &full).is_err(),
        "{name}: full uncalibrated prefix"
    );
    let overfull = uncalibrated_blob(&name, &ramp, &[]);
    assert!(restore(det, &overfull).is_err(), "{name}: overfull prefix");
}

#[test]
fn restore_refuses_unreachable_states() {
    assert_refuses_unreachable_states(&mut StreamingGlobalZScore::new(TRAIN).unwrap());
    assert_refuses_unreachable_states(&mut StreamingCusum::new(Cusum::default(), TRAIN).unwrap());
    assert_refuses_unreachable_states(&mut StreamingSpot::new(Spot::default(), TRAIN).unwrap());
}
