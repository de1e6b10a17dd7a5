//! The §4.2 invariance lens: sweep additive noise on the Fig. 13 ECG and
//! watch which detector's peak survives (the argument for explaining
//! algorithms "with reference to their invariances").
//!
//! ```sh
//! cargo run --release --example noise_invariance
//! ```

use tsad_detectors::matrix_profile::DiscordDetector;
use tsad_detectors::telemanom::Telemanom;
use tsad_detectors::threshold::discrimination_ratio;
use tsad_detectors::Detector;
use tsad_eval::ucr::ucr_correct;
use tsad_synth::physio::fig13_ecg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // the Fig. 13 configuration: the forecaster sees one full beat of
    // history; the discord uses the raw-Euclidean metric (z-normalization
    // would let the ECG's flat diastolic windows drown in noise)
    let telemanom = Telemanom {
        order: 160,
        ..Telemanom::default()
    };
    let discord = DiscordDetector::euclidean(160);

    let methods = [
        ("telemanom", &telemanom as &dyn Detector),
        ("discord", &discord),
    ];
    // each method with the first σ at which its peak misses the anomaly
    let mut first_fail = methods.map(|(name, _)| (name, None));

    println!("noise σ | method    | peak correct | discrimination");
    println!("--------|-----------|--------------|---------------");
    for sigma in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let dataset = fig13_ecg(42, sigma);
        for ((name, det), failed_at) in methods.iter().zip(&mut first_fail) {
            let score = det.score(dataset.series(), dataset.train_len())?;
            let test = &score[dataset.train_len()..];
            let peak = dataset.train_len() + tsad_core::stats::argmax(test)?;
            let correct = ucr_correct(peak, dataset.labels())?;
            if !correct && failed_at.1.is_none() {
                failed_at.1 = Some(sigma);
            }
            println!(
                "{sigma:>7.2} | {name:<9} | {:<12} | {:.2}",
                if correct { "yes" } else { "NO" },
                discrimination_ratio(test)?
            );
        }
    }
    println!(
        "\n→ {}\n  (the paper's Fig. 13 expects the discord to last longer).",
        verdict(first_fail)
    );
    Ok(())
}

/// The closing line, read off the table: the σ at which each method's
/// peak first fails (`None`: never in the sweep) and which one lasts
/// longer.
fn verdict(first_fail: [(&str, Option<f64>); 2]) -> String {
    let fails = |(name, at): (&str, Option<f64>)| match at {
        Some(sigma) => format!("{name}'s peak first fails at σ = {sigma:.2}"),
        None => format!("{name}'s peak never fails in this sweep"),
    };
    // a method that never fails outlasts every σ of the sweep
    let lasts = |at: Option<f64>| at.unwrap_or(f64::INFINITY);
    let [a, b] = first_fail;
    let longer = if lasts(a.1) > lasts(b.1) {
        format!("{} lasts longer", a.0)
    } else if lasts(b.1) > lasts(a.1) {
        format!("{} lasts longer", b.0)
    } else {
        "neither lasts longer".to_string()
    };
    format!("{}, {}: {longer}", fails(a), fails(b))
}
