//! # tsad-bench
//!
//! The reproduction harness: every table and figure of Wu & Keogh
//! (ICDE 2022) as a runnable experiment. The `repro` binary prints each
//! experiment's table/figure, and its `*-json` subcommands write the
//! `BENCH_*.json` performance documents that `repro gate` checks.
//!
//! | experiment | module | paper artifact |
//! |---|---|---|
//! | `table1`   | [`experiments::table1`]    | Table 1 (Yahoo one-liner solvability) |
//! | `fig1`–`fig3` | [`experiments::oneliners`] | one-liner demos (OMNI, NAB, Yahoo) |
//! | `fig4`–`fig7`, `fig9` | [`experiments::mislabels`] | mislabeled ground truth |
//! | `fig8`     | [`experiments::taxi`]      | NYC-taxi discord peaks |
//! | `fig10`    | [`experiments::position`]  | run-to-failure bias |
//! | `fig11`–`fig12` | [`experiments::ucr_figs`] | archive constructions |
//! | `fig13`    | [`experiments::fig13`]     | Telemanom vs Discord under noise |
//! | `density`  | [`experiments::density`]   | §2.3 statistics |
//! | `summary`  | [`experiments::summary`]   | §2.6 baselines + scoring disagreement |
//! | `contest`  | [`experiments::contest`]   | §3 archive contest |
//! | `invariances` | [`experiments::invariances`] | §4.2 invariance table |
//! | `protocols` | [`experiments::protocols`] | §4.4 scoring-protocol disagreement |
//! | `gallery` | [`experiments::gallery`] | the supplement's one-liner gallery |
//! | `triviality` | [`experiments::triviality_all`] | §2.2 solvability beyond Yahoo |
//! | `audit` | [`experiments::audit_exp`] | §2.6 audit verdict: benchmark vs archive |
//! | `stream` | [`experiments::stream`] | streaming engine: equivalence + replay tables |
//! | `catalog` | [`experiments::catalog`] | full detector registry × Yahoo triviality grid |
//!
//! ## Quickstart
//!
//! The member crates are used directly; this crate depends on all of
//! them, so its examples and cross-crate tests live here.
//!
//! ```
//! use tsad_detectors::oneliner::{search, SearchConfig};
//! use tsad_synth::yahoo::Family;
//!
//! // generate a simulated Yahoo A1 series with its (flawed) labels
//! let series = tsad_synth::yahoo::generate(7, Family::A1, 1);
//!
//! // is it trivially solvable with one line of "MATLAB"?
//! let solution = search(
//!     series.dataset.values(),
//!     series.dataset.labels(),
//!     &SearchConfig::default(),
//! )
//! .unwrap();
//! if let Some(sol) = solution {
//!     println!("{} solves {}", sol.one_liner, series.dataset.name());
//! }
//! ```

pub mod alloc_track;
pub mod gate;
pub mod minijson;

pub mod experiments {
    //! One module per paper artifact; see the crate-level table.
    pub mod audit_exp;
    pub mod bench_json;
    pub mod catalog;
    pub mod contest;
    pub mod density;
    pub mod faults;
    pub mod fig13;
    pub mod fleet;
    pub mod gallery;
    pub mod ingest_bench;
    pub mod invariances;
    pub mod mislabels;
    pub mod oneliners;
    pub mod position;
    pub mod protocols;
    pub mod stream;
    pub mod summary;
    pub mod table1;
    pub mod taxi;
    pub mod triviality_all;
    pub mod ucr_figs;
    pub mod wal_bench;
}

/// The default seed used by the `repro` binary; every experiment is
/// deterministic given this value.
pub const DEFAULT_SEED: u64 = 42;
