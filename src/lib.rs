#![forbid(unsafe_code)]
//! # metam
//!
//! A from-scratch Rust reproduction of **"Metam: Goal-Oriented Data
//! Discovery"** (Galhotra, Gong, Castro Fernandez — ICDE 2023,
//! arXiv:2304.09068).
//!
//! Metam closes the loop between *data discovery* and *data augmentation*:
//! instead of discovering joinable tables and hoping they help, it
//! repeatedly **queries the downstream task** with candidate augmentations
//! and steers the search by what it observes — clustering candidates by
//! task-independent data profiles (P2), wrapping the task for monotonicity
//! (P3), and prioritizing small solutions via group testing (P1).
//!
//! The front door is [`session::Session`], a builder over the whole
//! pipeline regardless of where the data lives:
//!
//! ```
//! use metam::session::Session;
//! use metam::{Method, MetamConfig};
//!
//! // A seeded synthetic scenario (housing-price classification).
//! let scenario = metam::datagen::repo::price_classification(7);
//! let report = Session::from_scenario(scenario)
//!     .seed(7)
//!     .theta(0.8)
//!     .budget(300)
//!     .run(Method::Metam(MetamConfig::default()))
//!     .expect("scenario sessions are infallible");
//! assert!(report.utility >= report.base_utility);
//! ```
//!
//! The same builder points at an **on-disk CSV lake** — scan a directory
//! into a persistent [`lake::LakeCatalog`] and name an input dataset and
//! task:
//!
//! ```no_run
//! use metam::session::Session;
//!
//! let prepared = Session::from_lake("./lake")
//!     .din("din")
//!     .task_spec("classification:label")
//!     .seed(7)
//!     .prepare()?;
//! # Ok::<(), metam::session::SessionError>(())
//! ```
//!
//! [`Session::prepare`](session::Session::prepare) returns the unified
//! [`Prepared`] bundle (borrow [`Prepared::inputs`](core::Prepared::inputs)
//! to run any [`Method`] yourself);
//! [`Session::run`](session::Session::run) does prepare + search in one
//! step and returns a [`session::RunReport`] with budget accounting,
//! wall-clock timings and the utility trace. Attach a
//! [`session::RunObserver`] to stream per-query and per-round progress,
//! or set `METAM_TRACE=<path>` (see [`obs`]) to capture a JSONL trace of
//! spans, queries and metrics. The `metam` binary ([`cli`]) wraps this as
//! `scan` / `profile` / `discover` / `trace-validate` subcommands.
//!
//! Crate map: [`obs`] (tracing/metrics facade, no deps) / [`table`]
//! (columnar substrate) → [`discovery`] (join-path
//! index) / [`ml`] (models) / [`causal`] (independence tests) →
//! [`profile`] (data profiles) → [`core`] (the algorithm, baselines, and
//! the [`Prepared`] assembly) → [`datagen`] (synthetic repositories) →
//! [`tasks`] (downstream tasks) → [`lake`] (on-disk ingestion + catalog) →
//! [`session`] (the builder front door) → [`serve`] (the long-lived
//! daemon behind `metam serve`) → [`cli`] (the binary).

#![warn(missing_docs)]

pub use metam_causal as causal;
pub use metam_core as core;
pub use metam_datagen as datagen;
pub use metam_discovery as discovery;
pub use metam_lake as lake;
pub use metam_ml as ml;
pub use metam_obs as obs;
pub use metam_profile as profile;
pub use metam_table as table;
pub use metam_tasks as tasks;

pub use metam_core::{
    run_method, Metam, MetamConfig, Method, NoopObserver, Prepared, QueryEvent, QueryKind,
    RoundEvent, RunObserver, RunResult, StopReason, Task,
};
pub use metam_table::Table;
pub use session::{RunReport, Session, SessionError};

pub mod cli;
pub mod serve;
pub mod session;
