//! Streaming detection: the left (online) matrix profile versus the
//! offline self-join, on data where the difference matters — a novel event
//! that later *repeats*.
//!
//! The self-join profile quietly looks into the future: once an anomaly
//! repeats, the two occurrences become each other's nearest neighbors and
//! neither is a discord. The left profile scores each point using only its
//! past, so the *first* occurrence stays anomalous — what a deployed
//! monitor would actually have reported.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use tsad_detectors::matrix_profile::{left_stomp, stomp, ProfileMetric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a periodic signal where the same novel event strikes twice
    let period = 32usize;
    let n = 1600;
    let events = [800usize, 1280]; // same shape, same phase (15 periods apart)
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let base = (i as f64 * std::f64::consts::TAU / period as f64).sin();
            if events.iter().any(|&e| (e..e + 16).contains(&i)) {
                base + 2.0
            } else {
                base
            }
        })
        .collect();

    let offline = stomp(&x, period)?;
    let online = left_stomp(&x, period, ProfileMetric::ZNormalized)?;

    let (off_loc, off_dist) = offline.discord()?;
    let (on_loc, on_dist) = online.discord()?;

    println!("two identical events at {} and {}", events[0], events[1]);
    println!(
        "offline self-join discord: index {off_loc} (distance {off_dist:.2}) — the twin events \
         mask each other, so the top discord may sit elsewhere"
    );
    println!(
        "online left-profile discord: index {on_loc} (distance {on_dist:.2}) — the FIRST event, \
         flagged with only past data"
    );

    // profile values at the two events under each view
    for &e in &events {
        println!(
            "  event @{e}: offline profile {:.2}, online profile {:.2}",
            offline.profile[e], online.profile[e]
        );
    }
    println!(
        "\n→ the second occurrence is 'explained' by the first in both views;\n  only the online view preserves the first occurrence's novelty."
    );
    Ok(())
}
