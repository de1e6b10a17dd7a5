//! Pins the TSCK v1 bytes of the prefix-calibrated ports, and checks that
//! restore refuses blobs no push sequence can produce.
//!
//! Round-trip tests prove a checkpoint restores, but they pass just as well
//! after a silent layout change — and a layout change orphans every blob
//! already on disk (fleet segments, WAL checkpoints). These digests fix the
//! exact bytes of `checkpoint(det)` for z-score, CUSUM and SPOT at three
//! points of one fixed 300-point stream: mid-calibration, the push that
//! completes calibration, and steady state. A deliberate layout change must
//! bump `CKPT_VERSION` and re-pin them. The same holds for the
//! [`Sanitized`] wrapper under each [`NanPolicy`], on a stream with
//! non-finite bursts before, across and after calibration.

use tsad_core::ckpt::{digest64, CkptWriter};
use tsad_detectors::cusum::Cusum;
use tsad_detectors::spot::Spot;
use tsad_stream::{
    checkpoint, restore, NanPolicy, Sanitized, StreamingCusum, StreamingDetector,
    StreamingGlobalZScore, StreamingSpot, CKPT_MAGIC, CKPT_VERSION,
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

/// [`stream`] with non-finite bursts: NaN before calibration, ±∞ across
/// the push that calibrates an unwrapped detector, and a mixed burst
/// after it.
fn dirty_stream() -> Vec<f64> {
    let mut xs = stream();
    for (i, x) in xs.iter_mut().enumerate() {
        match i {
            10..=14 => *x = f64::NAN,
            96..=98 => *x = f64::INFINITY,
            99..=101 => *x = f64::NEG_INFINITY,
            200..=211 => {
                *x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
            }
            _ => {}
        }
    }
    xs
}

/// Checkpoint digests of `det` fed [`dirty_stream`], taken inside each
/// burst, around calibration and at the end.
fn sanitized_digests(det: &mut dyn StreamingDetector) -> [u64; 7] {
    let xs = dirty_stream();
    let mut out = [0u64; 7];
    let mut pushed = 0;
    for (slot, upto) in [12, 50, 100, TRAIN + 8, 206, 240, xs.len()]
        .into_iter()
        .enumerate()
    {
        for &v in &xs[pushed..upto] {
            det.push(v);
        }
        pushed = upto;
        out[slot] = digest64(&checkpoint(det));
    }
    out
}

fn sanitized_cusum(policy: NanPolicy) -> Sanitized<StreamingCusum> {
    Sanitized::new(
        StreamingCusum::new(Cusum::default(), TRAIN).unwrap(),
        policy,
    )
}

#[test]
fn sanitized_checkpoint_bytes_are_pinned() {
    assert_eq!(CKPT_VERSION, 1, "a layout change must bump the version");
    for (policy, want) in [
        (
            NanPolicy::Propagate,
            [
                0xbf10704a0cae5701,
                0x1fa93ee69f45b9f1,
                0x993a5a276e8c340e,
                0xb6107088689308e0,
                0x64ca4710fd68b66d,
                0xdcd5c84e212e003b,
                0x4904a42d7df00dac,
            ],
        ),
        (
            NanPolicy::Skip,
            [
                0x81a8c570f0feed9f,
                0x06832aa176f626b6,
                0x2361abec4fa0a9b1,
                0xfbdef88cb5f4c933,
                0x30d519b551492ab0,
                0xf549f0e526de3a04,
                0x7b66b538e4ef75cf,
            ],
        ),
        (
            NanPolicy::ImputeLast,
            [
                0x2ff76cc9598e1f13,
                0x214aef51407a18da,
                0x34da6aabaa70a8e6,
                0x9b6536ecc61bcf35,
                0xc6673813cd4da978,
                0xc132cf675d7d3692,
                0xf889112e6dc6a0f3,
            ],
        ),
    ] {
        let got = sanitized_digests(&mut sanitized_cusum(policy));
        assert_eq!(got, want, "{policy}: got {got:#018x?}");
    }
}

/// A TSCK v1 blob for a fresh `Sanitized` under `Skip` whose inner-score
/// queue holds `inner_ready`.
fn fresh_sanitized_blob(det: &Sanitized<StreamingCusum>, inner_ready: &[f64]) -> Vec<u8> {
    let mut w = CkptWriter::new();
    w.u32(CKPT_MAGIC);
    w.u32(CKPT_VERSION);
    w.str(&det.name());
    w.u8(1); // NanPolicy::Skip
    det.inner().save_state(&mut w);
    w.opt_f64(None); // last finite sample
    w.usize(0); // kept pushes
    w.usize(0); // slot runs
    w.f64_seq(inner_ready.len(), inner_ready.iter().copied());
    w.usize(0); // resolved outputs
    w.u64(0); // quarantined
    w.finish()
}

/// Every push hands its inner score to a queued `Await` slot at once, so
/// no push sequence leaves an inner score waiting: restore refuses a blob
/// that holds one.
#[test]
fn sanitized_restore_refuses_a_waiting_inner_score() {
    let mut det = sanitized_cusum(NanPolicy::Skip);
    let ok = fresh_sanitized_blob(&det, &[]);
    assert_eq!(ok, checkpoint(&det), "the hand-built layout matches");
    restore(&mut det, &ok).unwrap();
    let bad = fresh_sanitized_blob(&det, &[1.0]);
    assert!(restore(&mut det, &bad).is_err(), "a waiting inner score");
}
