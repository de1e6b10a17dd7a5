//! Experiment-level thread-count invariance.
//!
//! The `repro` drivers fan dataset × detector cells onto the
//! `tsad-parallel` pool; these tests pin that the *reported numbers* —
//! solvability counts, per-equation row ordering, every contest location —
//! are identical under `TSAD_THREADS` overrides of 1, 2, and 8.

use tsad_bench::experiments::{contest, table1, triviality_all};
use tsad_parallel::with_threads;

#[test]
fn table1_is_thread_count_invariant() {
    let base = with_threads(1, || table1::run(42, Some(6)).unwrap());
    for t in [2usize, 8] {
        let got = with_threads(t, || table1::run(42, Some(6)).unwrap());
        assert_eq!(got.total(), base.total(), "at {t} threads");
        assert_eq!(got.total_solved(), base.total_solved(), "at {t} threads");
        // the rendered table pins per-equation row ordering too (the
        // aggregate's by-equation rows are in first-seen series order)
        assert_eq!(got.render(), base.render(), "at {t} threads");
    }
}

#[test]
fn triviality_study_is_thread_count_invariant() {
    let base = with_threads(1, || triviality_all::run(42, 8).unwrap());
    for t in [2usize, 8] {
        let got = with_threads(t, || triviality_all::run(42, 8).unwrap());
        assert_eq!(
            triviality_all::render(&got),
            triviality_all::render(&base),
            "at {t} threads"
        );
    }
}

#[test]
fn contest_is_thread_count_invariant() {
    // every (detector, dataset, predicted location), not just the
    // accuracies: a location that moves inside its label region leaves the
    // accuracy unchanged
    let outcomes = |c: &contest::Contest| {
        c.results
            .iter()
            .flat_map(|r| {
                r.outcomes
                    .iter()
                    .map(move |o| (r.detector, o.dataset.clone(), o.predicted, o.correct))
            })
            .collect::<Vec<_>>()
    };
    let base = with_threads(1, || contest::run(42, 4).unwrap());
    let base_outcomes = outcomes(&base);
    assert_eq!(base_outcomes.len(), base.results.len() * 4);
    for t in [2usize, 8] {
        let got = with_threads(t, || contest::run(42, 4).unwrap());
        assert_eq!(got.datasets, base.datasets, "at {t} threads");
        assert_eq!(outcomes(&got), base_outcomes, "at {t} threads");
    }
    // The archive is built entry by entry from the seed, so its first three
    // datasets are those of `contest::run(42, 3)`, whose subsequence 1-NN
    // locations are committed in the benchmark's expected seed-42 table.
    let knn: Vec<_> = base_outcomes
        .iter()
        .filter(|o| o.0 == "subsequence 1-NN")
        .take(3)
        .map(|o| (o.1.as_str(), o.2))
        .collect();
    assert_eq!(
        knn,
        [
            ("UCR_Anomaly_BIDMC1_2500_5409_5609", 5519),
            ("UCR_Anomaly_park3m_7380_8100_8220", 8096),
            ("aspen-historian", 5372),
        ]
    );
}
