//! Quickstart: generate a flawed benchmark series, solve it with one line,
//! then see a real detector do the same job.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tsad_detectors::matrix_profile::DiscordDetector;
use tsad_detectors::most_anomalous_point;
use tsad_detectors::oneliner::{search as one_liner_search, SearchConfig};
use tsad_eval::ucr::ucr_correct;
use tsad_synth::yahoo::Family as YahooFamily;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a simulated Yahoo A1 exemplar (traffic-like series with
    //    spike anomalies, end-biased placement — all the flaws included).
    let series = tsad_synth::yahoo::generate(7, YahooFamily::A1, 3);
    let dataset = &series.dataset;
    println!(
        "dataset {:?}: {} points, {} labeled anomaly region(s)",
        dataset.name(),
        dataset.len(),
        dataset.labels().region_count()
    );

    // 2. The paper's claim: most of these are solvable with one line of
    //    MATLAB. Run the brute-force search.
    match one_liner_search(dataset.values(), dataset.labels(), &SearchConfig::default())? {
        Some(solution) => {
            println!("TRIVIAL — solved by equation {}:", solution.equation);
            println!("    {}", solution.one_liner);
        }
        None => println!("not solvable by the one-liner family"),
    }

    // 3. Compare a real detector: the matrix-profile discord.
    let detector = DiscordDetector::new(64);
    let predicted = most_anomalous_point(&detector, dataset.series(), dataset.train_len())?;
    let first_anomaly = dataset.labels().regions()[0];
    println!(
        "discord's most anomalous point: {predicted} (nearest labeled region {:?}, distance {})",
        first_anomaly,
        dataset
            .labels()
            .regions()
            .iter()
            .map(|r| r.distance_to(predicted))
            .min()
            .unwrap_or(usize::MAX),
    );

    // 4. Score it the way the paper recommends: binary location accuracy
    //    needs a single-anomaly dataset, so build one from the archive.
    let entry = tsad_archive::builder::build_entry(
        7,
        tsad_archive::builder::Domain::Space,
        tsad_archive::builder::Difficulty::Medium,
    );
    let predicted =
        most_anomalous_point(&detector, entry.dataset.series(), entry.dataset.train_len())?;
    println!(
        "archive dataset {:?}: prediction {} is {}",
        entry.dataset.name(),
        predicted,
        if ucr_correct(predicted, entry.dataset.labels())? {
            "CORRECT"
        } else {
            "wrong"
        }
    );
    Ok(())
}
