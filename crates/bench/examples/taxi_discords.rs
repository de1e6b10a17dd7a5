//! The Fig. 8 workflow as a library consumer would run it: compute the
//! discord score of the NYC-taxi series and compare its peaks against the
//! official labels *and* the full injected ground truth. The peaks and
//! counts are those of `repro fig8` at the same seed.
//!
//! ```sh
//! cargo run --release --example taxi_discords
//! ```

use tsad_bench::experiments::taxi::fig8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // one-day discord windows, as in the paper's Fig. 8
    let fig = fig8(42, 1)?;
    let taxi = &fig.taxi;
    println!(
        "NYC-taxi simulation: {} half-hour samples, {} official labels, {} true events",
        taxi.dataset.len(),
        taxi.dataset.labels().region_count(),
        taxi.events.len()
    );

    println!("\ntop-{} discord peaks:", fig.peaks.len());
    for (rank, peak) in fig.peaks.iter().enumerate() {
        let verdict = match &peak.event {
            Some(name) if peak.official => format!("{name} (officially labeled)"),
            Some(name) => format!("{name} (TRUE event the ground truth MISSES)"),
            None => "no injected event — a genuine false positive".to_string(),
        };
        println!("  #{:<2} day {:>3}  {verdict}", rank + 1, peak.day);
    }

    // the paper's conclusion, recomputed
    println!(
        "\n→ {} of the top peaks are real events the official labels omit;\n  an algorithm reporting them would be scored as producing false positives.",
        fig.unlabeled_hits
    );
    Ok(())
}
