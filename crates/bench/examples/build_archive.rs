//! Build a UCR-style anomaly archive on disk and run a mini contest on it.
//!
//! ```sh
//! cargo run --release --example build_archive -- /tmp/ucr-archive 15
//! ```

use std::path::PathBuf;

use tsad_archive::builder::build_archive;
use tsad_archive::contest::run_contest;
use tsad_archive::io::{read_archive_dir, write_dataset};
use tsad_detectors::baselines::NaiveLastPoint;
use tsad_detectors::matrix_profile::DiscordDetector;
use tsad_detectors::telemanom::Telemanom;
use tsad_detectors::Detector;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let dir: PathBuf = args
        .next()
        .map(Into::into)
        .unwrap_or_else(|| std::env::temp_dir().join("tsad-ucr-archive"));
    let count: usize = args.next().map(|c| c.parse()).transpose()?.unwrap_or(15);

    std::fs::create_dir_all(&dir)?;
    let entries = build_archive(42, count)?;
    println!("built {} validated archive entries:", entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let path = write_dataset(&dir, Some(i as u32 + 1), &entry.dataset)?;
        println!(
            "  {} [{:?}/{:?}] — {}",
            path.file_name().unwrap().to_string_lossy(),
            entry.provenance.domain,
            entry.provenance.difficulty,
            entry.provenance.construction
        );
    }

    // reload from disk (labels come from the file names) and run a contest
    let datasets = read_archive_dir(&dir)?;
    println!(
        "\nreloaded {} datasets; running the contest…",
        datasets.len()
    );
    for detector in [
        &DiscordDetector::new(128) as &dyn Detector,
        &Telemanom::default(),
        &NaiveLastPoint,
    ] {
        let result = run_contest(detector, &datasets)?;
        println!(
            "  {:<28} accuracy {:.2}",
            result.detector,
            result.accuracy()
        );
    }
    Ok(())
}
