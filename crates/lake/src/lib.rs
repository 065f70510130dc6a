#![forbid(unsafe_code)]
//! # metam-lake
//!
//! The on-disk data-lake layer: point goal-oriented discovery at a
//! **directory of CSV files** instead of an in-memory synthetic scenario.
//!
//! Pieces:
//!
//! * [`catalog`] — a [`LakeCatalog`] that scans a directory (profiling
//!   changed files **in parallel**) and registers every CSV with schema
//!   metadata and per-column summary statistics ([`stats::ColumnStats`]).
//!   Each file's catalog entry persists under `<lake>/.metam/` as one
//!   record, so repeated scans skip re-profiling — and repeated loads skip
//!   re-parsing — files whose size and mtime are unchanged,
//! * [`sketch`] — that record: one versioned, checksummed file per table
//!   (`sketches/<file>.mks`) holding per-column statistics plus MinHash
//!   signatures, so a scan rebuilds the catalog and candidate generation
//!   runs off it without loading payloads,
//! * [`cache`] — the binary columnar table cache (`cache/<file>.mtc`)
//!   table loads deserialize from,
//! * [`memo`] — each catalog snapshot's candidate memo: a served input
//!   dataset's candidates are enumerated once per snapshot,
//! * [`prepare`] — [`parse_task`] (the single authority on CLI task
//!   specs) and [`prepare::repository_candidates`] (what a discovery run
//!   searches over: the snapshot's candidates plus a lazy
//!   [`prepare::CatalogTableProvider`]),
//! * [`export`] — write a `metam-datagen` scenario out *as* a CSV lake
//!   (the `datagen → lake → rediscover` round trip is the subsystem's
//!   self-validating integration test).
//!
//! The user-facing front door — `Session::from_lake` / `from_catalog`, the
//! `metam` CLI binary — lives in the umbrella `metam` crate (this crate
//! cannot depend on it). Underneath, a run is the same few steps:
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use metam_core::prepared::{assemble, AssembleOptions, Repository};
//! use metam_core::{Metam, NoopObserver};
//! use metam_discovery::path::PathConfig;
//! use metam_discovery::Materializer;
//! use metam_lake::{parse_task, prepare::repository_candidates, LakeCatalog};
//! use metam_profile::default_profiles;
//!
//! let catalog = Arc::new(LakeCatalog::scan("./lake")?);
//! let din = catalog.load_table("din")?;
//! let parsed = parse_task("classification:label", 7)?;
//! let target_column = parsed.target.as_deref().and_then(|t| din.column_index(t).ok());
//! let (candidates, provider) =
//!     repository_candidates(&catalog, &din, None, &PathConfig::default(), 100_000)?;
//! let materializer = Materializer::lazy(Box::new(provider));
//! let repository = Repository { candidates, materializer };
//! let prepared = assemble(
//!     din, repository, target_column, parsed.task,
//!     &default_profiles(), &AssembleOptions::default(),
//! );
//! let result = Metam::default().run(&prepared.inputs(), &mut NoopObserver);
//! # Ok::<(), metam_lake::LakeError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod export;
pub mod memo;
pub mod prepare;
pub mod sketch;
pub mod stats;

pub use catalog::{LakeCatalog, LoadCounters, TableMeta};
pub use export::export_scenario;
pub use prepare::{parse_task, CatalogTableProvider, ParsedTask, TaskKind};
pub use sketch::TableSketch;
pub use stats::ColumnStats;

use std::fmt;

/// Errors raised by lake operations.
#[derive(Debug)]
pub enum LakeError {
    /// Filesystem access failed.
    Io(String),
    /// A CSV file failed to parse.
    Table(metam_table::TableError),
    /// A referenced table is not in the catalog.
    UnknownTable(String),
    /// A user-facing argument (task spec, flag) is invalid.
    BadArgument(String),
}

impl fmt::Display for LakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LakeError::Io(m) => write!(f, "io error: {m}"),
            LakeError::Table(e) => write!(f, "table error: {e}"),
            LakeError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            LakeError::BadArgument(m) => write!(f, "bad argument: {m}"),
        }
    }
}

impl std::error::Error for LakeError {}

impl From<metam_table::TableError> for LakeError {
    fn from(e: metam_table::TableError) -> LakeError {
        LakeError::Table(e)
    }
}

impl From<std::io::Error> for LakeError {
    fn from(e: std::io::Error) -> LakeError {
        LakeError::Io(e.to_string())
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, LakeError>;
