//! Registry-wide checkpoint contract: every catalog entry's streaming
//! form must (a) carry its configuration in `name()` — the TSCK
//! fingerprint — so blobs refuse to cross entries, and (b) checkpoint
//! mid-stream and resume **bitwise** against the uninterrupted run. This
//! is the suite a new catalog entry joins automatically: it iterates the
//! registry, so adding a detector extends the proof with zero new test
//! code.

use tsad_core::ckpt::CkptWriter;
use tsad_detectors::registry::Params;
use tsad_stream::{
    checkpoint, restore, DetectorFactory, NanPolicy, RegistryFactory, Sanitized, StreamHints,
    StreamRegistry, StreamingDetector,
};

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let noise = (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                / (1u64 << 24) as f64)
                - 0.5;
            (i as f64 * 0.05).sin() + 0.3 * noise + if i % 157 == 0 { 4.0 } else { 0.0 }
        })
        .collect()
}

fn hints() -> StreamHints {
    StreamHints {
        train_len: 64,
        horizon: 96,
    }
}

#[test]
fn every_entry_roundtrips_a_mid_stream_checkpoint_bitwise() {
    let reg = StreamRegistry::standard();
    let xs = series(400);
    for entry in reg.catalog().entries() {
        let mut full = reg.build(entry.id, &Params::new(), &hints()).unwrap();
        let want = full.score_stream(&xs);
        for cut in [33usize, 200] {
            let mut warm = reg.build(entry.id, &Params::new(), &hints()).unwrap();
            let mut got: Vec<f64> = xs[..cut].iter().filter_map(|&v| warm.push(v)).collect();
            let blob = checkpoint(&warm);
            let mut resumed = reg.build(entry.id, &Params::new(), &hints()).unwrap();
            restore(&mut resumed, &blob)
                .unwrap_or_else(|e| panic!("{} cut={cut}: restore failed: {e}", entry.id));
            got.extend(xs[cut..].iter().filter_map(|&v| resumed.push(v)));
            got.extend(resumed.finish());
            assert_eq!(want.len(), got.len(), "{} cut={cut}: length", entry.id);
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} cut={cut}: diverges at {i} ({a} vs {b})",
                    entry.id
                );
            }
        }
    }
}

fn state_bytes(det: &dyn StreamingDetector) -> Vec<u8> {
    let mut w = CkptWriter::new();
    det.save_state(&mut w);
    w.finish()
}

/// Pushes a prefix into two twins, prefetches one of them through
/// `hint`, and requires identical state bytes and bitwise-identical
/// remaining outputs.
fn assert_prefetch_is_pure<D: StreamingDetector>(
    what: &str,
    build: impl Fn() -> D,
    hint: impl Fn(&D),
    xs: &[f64],
) {
    let cut = xs.len() / 2;
    let (mut hinted, mut plain) = (build(), build());
    for &v in &xs[..cut] {
        hinted.push(v);
        plain.push(v);
    }
    let before = state_bytes(&hinted);
    hint(&hinted);
    assert_eq!(
        state_bytes(&hinted),
        before,
        "{what}: prefetch changed state"
    );
    for (i, &v) in xs[cut..].iter().enumerate() {
        hint(&hinted);
        let (a, b) = (hinted.push(v), plain.push(v));
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{what}: push {i}");
    }
    let (a, b) = (hinted.finish(), plain.finish());
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: finish"
    );
}

#[test]
fn prefetch_is_a_pure_hint_for_every_entry() {
    let reg = StreamRegistry::standard();
    let mut xs = series(300);
    xs[170] = f64::NAN;
    for entry in reg.catalog().entries() {
        let build = || reg.build(entry.id, &Params::new(), &hints()).unwrap();
        let finite = &xs[..160];
        // the box hint, then the detector's own hint behind it
        assert_prefetch_is_pure(entry.id, build, |d| d.prefetch(), finite);
        assert_prefetch_is_pure(entry.id, build, |d| (**d).prefetch(), finite);
        let sanitized = || Sanitized::new(build(), NanPolicy::Skip);
        assert_prefetch_is_pure(entry.id, sanitized, |d| d.prefetch(), &xs);
    }
}

#[test]
fn checkpoints_refuse_to_cross_entries() {
    let reg = StreamRegistry::standard();
    let xs = series(120);
    // one warmed-up blob per entry, then try every (blob, other entry) pair:
    // distinct entries have distinct name fingerprints, so every cross
    // restore must be rejected
    let blobs: Vec<(&str, Vec<u8>)> = reg
        .catalog()
        .entries()
        .iter()
        .map(|entry| {
            let mut det = reg.build(entry.id, &Params::new(), &hints()).unwrap();
            for &v in &xs {
                det.push(v);
            }
            (entry.id, checkpoint(&det))
        })
        .collect();
    for (source_id, blob) in &blobs {
        for entry in reg.catalog().entries() {
            if entry.id == *source_id {
                continue;
            }
            let mut target = reg.build(entry.id, &Params::new(), &hints()).unwrap();
            assert!(
                restore(&mut target, blob).is_err(),
                "blob from `{source_id}` restored into `{}`",
                entry.id
            );
        }
    }
}

#[test]
fn name_fingerprints_derive_from_the_registry_display_names() {
    let reg = StreamRegistry::standard();
    for entry in reg.catalog().entries() {
        let det = reg.build(entry.id, &Params::new(), &hints()).unwrap();
        assert!(
            det.name().contains(entry.display),
            "{}: streaming name {:?} does not embed the catalog display \
             name {:?} — a rename would silently break TSCK restore",
            entry.id,
            det.name(),
            entry.display
        );
    }
}

#[test]
fn factory_fingerprint_matches_spawned_names_for_every_entry() {
    let reg = StreamRegistry::standard();
    for entry in reg.catalog().entries() {
        let factory = RegistryFactory::new(entry.id, Params::new(), hints()).unwrap();
        assert_eq!(
            factory.fingerprint(),
            factory.spawn(7).name(),
            "{}",
            entry.id
        );
    }
}
