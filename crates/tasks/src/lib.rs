#![forbid(unsafe_code)]
//! # metam-tasks
//!
//! Downstream task implementations (paper §II-B and §VI). Every task
//! implements [`metam_core::Task`] — a black box mapping a (possibly
//! augmented) table to a utility in `[0, 1]` — and is deterministic given
//! its seed, so the query engine's memoization is sound.
//!
//! * [`classification`] — random-forest classification (macro F-score),
//! * [`regression`] — random-forest regression (1 − normalized MAE),
//! * [`automl`] — grid-search AutoML classification (Fig. 4a),
//! * [`fairness`] — fairness-aware classification (drops
//!   sensitive-correlated features before training, §VI-A.4),
//! * [`whatif`] — what-if causal analysis (fraction of truly affected
//!   attributes recovered at p ≤ 0.05),
//! * [`howto`] — how-to causal analysis (fraction of true drivers
//!   recovered),
//! * [`entity_linking`] — linking against a synthetic knowledge graph,
//! * [`clustering`] — k-center clustering (1 − largest cluster radius),
//! * [`unions`] — record-addition classification (Fig. 4b),
//! * [`builder`] — [`build_task`]: instantiate the right task from a
//!   datagen [`metam_datagen::TaskSpec`].

#![warn(missing_docs)]

pub mod automl;
pub mod builder;
pub mod classification;
pub mod clustering;
pub mod entity_linking;
pub mod fairness;
mod forest;
pub mod howto;
pub mod regression;
pub mod unions;
pub mod util;
pub mod whatif;

pub use builder::build_task;
pub use classification::ClassificationTask;
pub use clustering::ClusteringFitTask;
pub use regression::RegressionTask;
