//! The certified `locate` of the discord detectors and subsequence 1-NN
//! against the full-profile arg-max on real archive entries: the contest
//! must not move.

use tsad_archive::builder::{build_archive, ArchiveEntry};
use tsad_core::simd::{self, Backend};
use tsad_detectors::baselines::SubsequenceKnn;
use tsad_detectors::matrix_profile::{DiscordDetector, OnlineDiscordDetector};
use tsad_detectors::Detector;

/// The contest's window for the three members.
const WINDOW: usize = 128;

/// The members' `locate_fallback` counters, in member order.
const FALLBACKS: [&str; 3] = [
    "detectors.discord.locate_fallback",
    "detectors.left_discord.locate_fallback",
    "detectors.knn.locate_fallback",
];

/// The default `locate`: the first arg-max of the score's test part.
fn full_profile_location(detector: &dyn Detector, entry: &ArchiveEntry) -> usize {
    let d = &entry.dataset;
    let t = d.train_len();
    let score = detector.score(d.series(), t).unwrap();
    t + tsad_core::stats::argmax(&score[t..]).unwrap()
}

/// Fallbacks per member, read from their `tsad-obs` counters.
fn fallbacks() -> [u64; 3] {
    let obs = tsad_obs::snapshot();
    FALLBACKS.map(|name| obs.counter(name).unwrap_or(0))
}

/// Checks the members' `locate` on `entries` under every listed backend
/// and thread count; returns the fallbacks per member on the first
/// setting.
fn check(entries: &[ArchiveEntry], backends: &[Backend], threads: &[usize]) -> [u64; 3] {
    let members: [&dyn Detector; 3] = [
        &DiscordDetector::new(WINDOW),
        &OnlineDiscordDetector::new(WINDOW),
        &SubsequenceKnn::new(WINDOW),
    ];
    let expected: Vec<[usize; 3]> = entries
        .iter()
        .map(|e| members.map(|d| full_profile_location(d, e)))
        .collect();
    let mut first = None;
    for &backend in backends {
        for &n in threads {
            let before = fallbacks();
            simd::with_backend(backend, || {
                tsad_parallel::with_threads(n, || {
                    for (e, want) in entries.iter().zip(&expected) {
                        let d = &e.dataset;
                        for (member, &want) in members.iter().zip(want) {
                            let got = member.locate(d.series(), d.train_len()).unwrap();
                            assert_eq!(
                                got,
                                want,
                                "{} on {} ({} threads, {})",
                                member.name(),
                                d.name(),
                                n,
                                backend.name()
                            );
                        }
                    }
                })
            });
            let after = fallbacks();
            first.get_or_insert(std::array::from_fn(|k| after[k] - before[k]));
        }
    }
    first.unwrap_or_default()
}

#[test]
fn locate_matches_the_full_profile_on_one_entry_per_domain() {
    let archive = build_archive(42, 7).unwrap();
    tsad_obs::with_enabled(true, || check(&archive, &[simd::current()], &[1]));
}

#[test]
#[ignore = "archive-wide: 70 entries, three members, every backend, 1/2/8 threads (minutes)"]
fn locate_matches_the_full_profile_on_every_archive_entry() {
    let backends: Vec<Backend> = [Backend::Scalar, Backend::Sse2, Backend::Avx2, Backend::Neon]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    for seed in [42, 7] {
        let archive = build_archive(seed, 35).unwrap();
        let [discord, left, knn] =
            tsad_obs::with_enabled(true, || check(&archive, &backends, &[1, 2, 8]));
        println!(
            "seed {seed}: fallbacks over {} entries: discord {discord}, left discord {left}, \
             1-NN {knn}",
            archive.len()
        );
    }
}
