//! The benchmark's metric vocabulary and the report a workload returns.
//!
//! `END_TO_END` and `per_layer()` must list exactly what `BENCHMARK.json`
//! lists, in the same order; a test holds them together. Every workload
//! reports every metric: a layer the workload does not run reports 0.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("points_per_s", "points/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Registry ids of the catalog grid, in registry order. The catalog check
/// fails if the registry no longer matches this list.
pub const DETECTOR_IDS: &[&str] = &[
    "naive-last-point",
    "random",
    "global-zscore",
    "moving-avg-residual",
    "iqr-baseline",
    "subsequence-knn",
    "cusum",
    "oneliner",
    "discord",
    "left-discord",
    "merlin",
    "hotsax",
    "telemanom",
    "spectral-residual",
    "seasonal",
    "spot",
    "sh-esd",
    "iforest",
    "omni-nll",
    "voting-mean",
    "voting-median",
];

/// The contest panel, in the order `experiments::contest::run` runs it.
pub const PANEL_IDS: &[&str] = &[
    "discord",
    "online-discord",
    "telemanom",
    "subsequence-knn",
    "seasonal",
    "global-zscore",
    "naive-last-point",
    "random",
];

const FIXED_LAYERS: &[(&str, &str)] = &[
    ("client.ack_mean_us", "us"),
    ("client.gen_lag_p99_us", "us"),
    ("server.remainder_mean_us", "us"),
    ("conn.request_mean_us", "us"),
    ("conn.parse_mean_us", "us"),
    ("conn.route_mean_us", "us"),
    ("conn.respond_mean_us", "us"),
    ("engine.push_mean_us", "us"),
    ("engine.lock_other_mean_us", "us"),
    ("wal.append_mean_us", "us"),
    ("wal.write_mean_us", "us"),
    ("wal.sync_mean_us", "us"),
    ("wal.syncs_per_kbatch", "count"),
    ("wal.bytes_per_point", "B"),
    ("fleet.push_ns_per_point", "ns"),
    ("fleet.bytes_per_series", "B"),
    ("fleet.warm_s", "s"),
    ("fleet.checkpoint_ms", "ms"),
    ("stream.push_ns_per_point", "ns"),
    ("recover.total_s", "s"),
    ("recover.scan_s", "s"),
    ("recover.read_s", "s"),
    ("recover.restore_s", "s"),
    ("recover.replay_s", "s"),
    ("synth.generate_ms", "ms"),
    ("archive.build_ms", "ms"),
];

const OBS_LAYERS: &[(&str, &str)] = &[
    ("core.stomp_band_ms", "ms"),
    ("core.fft_plan_miss", "count"),
    ("detectors.merlin_drag_passes", "count"),
    ("parallel.busy_ms", "ms"),
    ("parallel.queue_wait_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = FIXED_LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        DETECTOR_IDS
            .iter()
            .map(|id| (format!("detectors.{id}_ms"), "ms")),
    );
    out.extend(
        PANEL_IDS
            .iter()
            .map(|id| (format!("contest.{id}_ms"), "ms")),
    );
    out.extend(OBS_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Operations attempted (requests or repetitions).
    pub attempted: u64,
    /// Operations failed, refused, or whose output check failed.
    pub failed: u64,
    /// Every failed output check, one line each.
    pub failures: Vec<String>,
    /// Digests of the outputs that depend only on the seed; every process
    /// of one run must report the same.
    pub outputs: BTreeMap<String, String>,
    /// Human-readable lines printed before the result.
    pub info: Vec<String>,
}

impl Report {
    /// Records a failed output check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.info.push(format!("check {name}: ok")),
            Err(e) => self.fail(format!("check {name}: {e}")),
        }
    }

    /// Sets every per-layer metric the workload did not measure to 0.
    pub fn fill_missing_layers(&mut self) {
        for (name, _) in per_layer() {
            self.layers.entry(name).or_insert(0.0);
        }
    }
}

/// Quantile `q` of an ascending slice, interpolating linearly between
/// the closest ranks (NumPy's default). `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[10.0, 20.0], 0.9) - 19.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
