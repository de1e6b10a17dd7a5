//! The archive build runs only the structural checks. These tests pin that
//! this rejects exactly what the full validation rejected, and that the
//! archives it builds are unchanged.

use tsad_archive::builder::{build_archive, build_entry, Difficulty, Domain};
use tsad_archive::validate::{validate, validate_structure, ValidationConfig, Violation};
use tsad_core::ckpt::digest64;

const DOMAINS: [Domain; 7] = [
    Domain::Physiology,
    Domain::Gait,
    Domain::Industry,
    Domain::Space,
    Domain::Robotics,
    Domain::Entomology,
    Domain::Respiration,
];

const DIFFICULTIES: [Difficulty; 3] = [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard];

/// The violations the archive builder treats as fatal.
fn fatal(violations: &[Violation]) -> bool {
    violations.iter().any(|v| {
        matches!(
            v,
            Violation::NotSingleAnomaly { .. }
                | Violation::AnomalyTooEarly { .. }
                | Violation::TooShort { .. }
        )
    })
}

#[test]
fn structural_checks_reject_exactly_what_full_validation_rejects() {
    let config = ValidationConfig::default();
    let cases: Vec<(u64, Domain, Difficulty)> = (0..200u64)
        .flat_map(|seed| {
            DOMAINS
                .iter()
                .flat_map(move |&d| DIFFICULTIES.iter().map(move |&f| (seed, d, f)))
        })
        .collect();
    let mismatches: Vec<String> = tsad_parallel::par_chunks(cases.len(), |range| {
        let mut bad = Vec::new();
        for &(seed, domain, difficulty) in &cases[range] {
            let entry = build_entry(seed, domain, difficulty);
            let full = validate(&entry.dataset, &config).unwrap();
            let structure = validate_structure(&entry.dataset, &config);
            if fatal(&full) == structure.is_empty() {
                bad.push(format!(
                    "{seed} {domain:?} {difficulty:?}: {full:?} vs {structure:?}"
                ));
            }
            // every structural violation is reported, in order, by both
            let full_structural: Vec<&Violation> = full
                .iter()
                .filter(|v| !matches!(v, Violation::UncoveredTestMode { .. }))
                .collect();
            if full_structural != structure.iter().collect::<Vec<_>>() {
                bad.push(format!("{seed} {domain:?} {difficulty:?}: order differs"));
            }
        }
        bad
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// An FNV digest of everything an archive entry carries into a contest:
/// name, train prefix, labels and every value's bits, plus provenance.
fn archive_digest(seed: u64, count: usize) -> u64 {
    let mut bytes = Vec::new();
    for e in build_archive(seed, count).unwrap() {
        let d = &e.dataset;
        bytes.extend_from_slice(d.name().as_bytes());
        bytes.extend_from_slice(&(d.train_len() as u64).to_le_bytes());
        for r in d.labels().regions() {
            bytes.extend_from_slice(&(r.start as u64).to_le_bytes());
            bytes.extend_from_slice(&(r.end as u64).to_le_bytes());
        }
        for v in d.values() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&e.provenance.seed.to_le_bytes());
        bytes.extend_from_slice(format!("{:?}", e.provenance.domain).as_bytes());
        bytes.extend_from_slice(format!("{:?}", e.provenance.difficulty).as_bytes());
    }
    digest64(&bytes)
}

#[test]
fn archive_build_is_unchanged_by_the_structural_checks() {
    // Recorded with the archive builder that ran the full validation.
    for (seed, expected) in [
        (1, 0x4443_f3b0_275f_380d_u64),
        (7, 0xa5d4_2827_93dd_ef24),
        (42, 0x2d6d_46f6_d5d9_8ecd),
    ] {
        assert_eq!(
            archive_digest(seed, 35),
            expected,
            "seed {seed}: {:016x}",
            archive_digest(seed, 35)
        );
    }
}
