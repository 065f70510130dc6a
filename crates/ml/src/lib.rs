#![forbid(unsafe_code)]
//! # metam-ml
//!
//! A self-contained machine-learning substrate for the Metam reproduction.
//! The paper's predictive tasks (§II-B, §VI-A) train random forests,
//! AutoML pipelines and regressors and report accuracy / F-score / MAE as
//! the utility; this crate provides everything those tasks need, from
//! scratch:
//!
//! * dense matrices with a Gaussian-elimination solver ([`matrix`]),
//! * tabular dataset encoding with imputation and label encoding
//!   ([`dataset`]),
//! * CART decision trees ([`tree`]) and bagged random forests ([`forest`])
//!   for both classification and regression,
//! * ridge and logistic regression ([`linear`]),
//! * deterministic train/validation splitting ([`split`]),
//! * evaluation metrics ([`metrics`]),
//! * impurity- and injection-based feature importance ([`importance`]) —
//!   the latter mirrors ARDA's random-injection feature selection and backs
//!   the `iARDA` baseline and Fig. 7's task-specific profiles,
//! * a small grid-search "AutoML" ([`automl`]) standing in for
//!   TPOT/auto-sklearn in Fig. 4(a).
//!
//! Every randomized component is seeded and fully deterministic.

#![warn(missing_docs)]

pub mod automl;
pub mod dataset;
pub mod forest;
pub mod importance;
pub mod linear;
pub mod matrix;
pub mod metrics;
pub mod split;
pub mod tree;

pub use automl::{AutoMl, AutoMlChoice};
pub use dataset::MlDataset;
pub use forest::{RandomForest, RandomForestConfig};
pub use linear::{LogisticRegression, RidgeRegression};
pub use matrix::Matrix;
pub use tree::{DecisionTree, RankedFeature, TreeConfig, TreeTask};
