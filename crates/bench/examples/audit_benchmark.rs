//! Audit a benchmark for the paper's four flaws.
//!
//! This is the workflow the paper implies the community should have run
//! before trusting the archives: point the four analyzers at a dataset
//! collection and read the verdict.
//!
//! ```sh
//! cargo run --release --example audit_benchmark
//! ```

use tsad_core::Dataset;
use tsad_detectors::oneliner::SearchConfig;
use tsad_eval::flaws::{density, mislabel, position, triviality};
use tsad_synth::yahoo::Family as YahooFamily;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 42;
    // audit a slice of the simulated Yahoo A1 family
    let datasets: Vec<Dataset> = (1..=20)
        .map(|i| tsad_synth::yahoo::generate(seed, YahooFamily::A1, i).dataset)
        .collect();

    println!("auditing {} series for the four flaws…\n", datasets.len());

    // Flaw 1: triviality
    let config = SearchConfig::default();
    let mut trivial = 0;
    for d in &datasets {
        if triviality::analyze(d, &config)?.is_trivial() {
            trivial += 1;
        }
    }
    println!(
        "[triviality]   {trivial}/{} solvable with one line of 'MATLAB'",
        datasets.len()
    );

    // Flaw 2: density
    let criteria = density::DensityCriteria::default();
    let dense = datasets
        .iter()
        .filter(|d| density::analyze(d).is_flawed(&criteria))
        .count();
    println!(
        "[density]      {dense}/{} with unrealistic anomaly density",
        datasets.len()
    );

    // Flaw 3: mislabels (twin + unremarkable-label detectors)
    let mut suspects = 0;
    for d in &datasets {
        let twins = mislabel::find_unlabeled_twins(d, 0.12)?;
        let unremarkable = mislabel::find_unremarkable_labels(d, 1.0)?;
        if !twins.is_empty() || !unremarkable.is_empty() {
            suspects += 1;
        }
    }
    println!(
        "[mislabels]    {suspects}/{} with suspected label errors",
        datasets.len()
    );

    // Flaw 4: run-to-failure bias across the collection
    let bias = position::analyze(datasets.iter(), 0.1)?;
    println!(
        "[position]     mean last-anomaly position {:.2} (uniform would be ~0.5), KS p = {:.2e} → biased: {}",
        bias.mean_position,
        bias.p_value,
        bias.is_biased(0.01)
    );
    println!(
        "               a naive 'flag the last 10%' detector hits {:.0}% of these series",
        100.0 * bias.naive_last_hit_rate
    );
    Ok(())
}
