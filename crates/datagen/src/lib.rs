#![forbid(unsafe_code)]
//! # metam-datagen
//!
//! Seeded synthetic data repositories with *planted ground truth*, standing
//! in for the paper's Open Data / Kaggle / Redfin corpora, which are not
//! available offline; `PAPER_RESULTS.md` at the repo root records how the
//! paper's claims fare on them. Every generator is deterministic in its
//! seed.
//!
//! A generated [`Scenario`] contains:
//!
//! * `din` — the input dataset,
//! * `tables` — a repository of joinable tables mixing **informative**
//!   columns (planted signal), **near-duplicates** (exercise property P2),
//!   **irrelevant** noise columns, and **erroneous** join paths (key
//!   assignment broken — the "incorrect joins" the paper measures 60 % of
//!   in the Schools corpus),
//! * a [`TaskSpec`] describing which downstream task the scenario drives,
//! * a [`GroundTruth`] mapping `(table, column)` to planted relevance, so
//!   experiments can count "queries to find the ground truth" (Fig. 8) and
//!   build informative synthetic profiles (Figs. 9–10).

#![warn(missing_docs)]

pub mod causal_scenario;
pub mod clustering;
pub mod fairness;
pub mod keyspace;
pub mod linking;
pub mod repo;
pub mod scenario;
pub mod semisynthetic;
pub mod supervised;
pub mod unions;

pub use scenario::{GroundTruth, Scenario, TaskSpec};
pub use supervised::{build_supervised, SupervisedConfig};

/// Build a table from generator-constructed columns.
///
/// Every generator in this crate fills each column with exactly the
/// scenario's row count, so misalignment is a bug in the generator, not
/// a runtime condition — this is the single place that invariant is
/// asserted.
pub(crate) fn aligned_table(
    name: impl Into<String>,
    cols: Vec<metam_table::Column>,
) -> metam_table::Table {
    // metam-analyze: allow(panic-in-lib): generator invariant — every column is built with the scenario row count; misalignment is a generator bug, not input-dependent
    metam_table::Table::from_columns(name, cols).expect("generator columns aligned")
}
