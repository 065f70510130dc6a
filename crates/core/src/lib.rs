#![forbid(unsafe_code)]
//! # metam-core
//!
//! The paper's contribution: **goal-oriented data discovery**. Given an
//! input dataset `Din`, a black-box task with a utility function
//! `u(·) ∈ [0, 1]`, and a set of candidate augmentations discovered from a
//! repository, Metam adaptively *queries* the task with augmented versions
//! of `Din` to find a minimal augmentation set reaching utility `θ`
//! (Problem II.1).
//!
//! Layout:
//!
//! * [`task`] — the [`Task`] trait (the paper's black-box contract) plus
//!   synthetic tasks used in tests and scalability benches (including the
//!   set-cover gadget from Theorem 1),
//! * [`engine`] — the [`QueryEngine`]: memoized utility evaluation, query
//!   accounting, budget enforcement, monotonicity certification (P3), and
//!   the utility-vs-queries trace behind every figure,
//! * [`cluster`] — Algorithm 2, the greedy k-center ε-cover over profile
//!   vectors (P2),
//! * [`quality`] — quality scores: ridge-learned profile weights (Lemma 4)
//!   plus cluster-propagated utility scores,
//! * [`bandit`] — Thompson sampling over clusters,
//! * [`group`] — the group-querying mechanism with escalating subset size
//!   `t` (P1, combinatorial testing),
//! * [`metam`] — Algorithm 1 itself,
//! * [`observer`] — the [`RunObserver`] streaming hook (per-round progress
//!   callbacks for CLIs and benches),
//! * [`prepared`] — the unified [`Prepared`] bundle + [`assemble`], the one
//!   assembly path every data source (synthetic scenario, CSV lake) uses,
//! * [`minimal`] — the minimality post-check (Definition 6),
//! * [`baselines`] — Uniform, Overlap, MW, iARDA and Join-Everything,
//! * [`runner`] — [`run_method`], the one entry point running any method
//!   (Metam or a baseline) under an observer into one [`RunResult`],
//! * [`trace`] — trace points and curve resampling shared by the bench
//!   harness.

#![warn(missing_docs)]

pub mod bandit;
pub mod baselines;
pub mod cluster;
pub mod engine;
pub mod group;
pub mod metam;
pub mod minimal;
pub mod observer;
pub mod prepared;
pub mod quality;
pub mod runner;
pub mod task;
pub mod trace;

pub use cluster::{cluster_partition, Clustering};
pub use engine::{QueryEngine, SearchInputs, StopSearch};
pub use metam::{Metam, MetamConfig, StopReason};
pub use observer::{NoopObserver, QueryEvent, QueryKind, RoundEvent, RunObserver};
pub use prepared::{assemble, AssembleOptions, Prepared, Repository};
pub use runner::{run_method, Method, RunResult};
pub use task::Task;
pub use trace::{utility_at, TracePoint};
