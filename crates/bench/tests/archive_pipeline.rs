//! End-to-end archive pipeline: build → write to disk (with manifest) →
//! reload → contest → audit. This is the full §3 workflow a downstream
//! user would run.

use tsad_archive::builder::build_archive;
use tsad_archive::contest::run_contest;
use tsad_archive::io::read_archive_dir;
use tsad_archive::manifest::{read_manifest, write_archive};
use tsad_detectors::matrix_profile::DiscordDetector;
use tsad_eval::flaws::audit::{audit, AuditConfig};

#[test]
fn full_archive_pipeline_on_disk() {
    let dir = std::env::temp_dir().join(format!("tsad-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // build + write
    let entries = build_archive(42, 7).unwrap();
    let rows = write_archive(&dir, &entries).unwrap();
    assert_eq!(rows.len(), 7);

    // reload: data files and manifest agree
    let datasets = read_archive_dir(&dir).unwrap();
    assert_eq!(datasets.len(), 7);
    let manifest = read_manifest(&dir).unwrap();
    assert_eq!(manifest.len(), 7);
    let mut files: Vec<&str> = manifest.iter().map(|r| r.file.as_str()).collect();
    files.sort_unstable();
    for (d, f) in datasets.iter().zip(&files) {
        assert_eq!(format!("{}.txt", d.name()), *f);
    }

    // every reloaded dataset keeps the archive invariants
    for d in &datasets {
        assert_eq!(d.labels().region_count(), 1, "{}", d.name());
        assert!(
            d.labels().regions()[0].start >= d.train_len(),
            "{}",
            d.name()
        );
        assert!(d.train_len() > 0, "{}", d.name());
    }

    // contest on the reloaded data: a real detector beats random
    let discord = run_contest(&DiscordDetector::new(128), &datasets).unwrap();
    let random = run_contest(
        &tsad_detectors::baselines::RandomDetector::new(3),
        &datasets,
    )
    .unwrap();
    assert!(
        discord.accuracy() > random.accuracy(),
        "discord {} vs random {}",
        discord.accuracy(),
        random.accuracy()
    );
    assert!(discord.accuracy() >= 0.5, "{}", discord.accuracy());

    // audit on the reloaded data: not trivially dominated, no end bias gift
    let report = audit(datasets.iter(), &AuditConfig::default()).unwrap();
    assert!(
        report.trivial_fraction() < 0.6,
        "{}",
        report.trivial_fraction()
    );
    assert!(
        report.position_bias.naive_last_hit_rate < 0.3,
        "{}",
        report.position_bias.naive_last_hit_rate
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
