#![forbid(unsafe_code)]
//! # metam-lake
//!
//! The on-disk data-lake layer: point goal-oriented discovery at a
//! **directory of CSV files** instead of an in-memory synthetic scenario.
//!
//! Pieces:
//!
//! * [`catalog`] — a [`LakeCatalog`] that scans a directory (profiling
//!   changed files **in parallel**), registers every CSV with schema
//!   metadata and per-column summary statistics ([`stats::ColumnStats`]),
//!   and persists a sharded manifest ([`manifest`]) plus a binary
//!   columnar table cache ([`cache`]) under `<lake>/.metam/` so repeated
//!   scans skip re-profiling — and repeated loads skip re-parsing — files
//!   whose size and mtime are unchanged,
//! * [`sketch`] — one versioned, checksummed discovery-sketch record per
//!   table (`sketches/<file>.mks`): per-column MinHash + exact distinct
//!   count, null count, dtype and value range, written at scan time so
//!   candidate generation runs off the catalog without loading payloads,
//! * [`prepare`] — [`parse_task`] (the single authority on CLI task
//!   specs), [`prepare::repository_tables`] (which catalog tables a
//!   discovery run searches over) and its sketch-backed twin
//!   [`prepare::repository_descriptors`] (payload-free descriptors plus a
//!   lazy [`prepare::CatalogTableProvider`]),
//! * [`export`] — write a `metam-datagen` scenario out *as* a CSV lake
//!   (the `datagen → lake → rediscover` round trip is the subsystem's
//!   self-validating integration test).
//!
//! The user-facing front door — `Session::from_lake` / `from_catalog`, the
//! `metam` CLI binary — lives in the umbrella `metam` crate (this crate
//! cannot depend on it):
//!
//! ```no_run
//! use metam_core::prepared::{assemble, AssembleOptions};
//! use metam_core::{Metam, NoopObserver};
//! use metam_lake::{parse_task, prepare::repository_tables, LakeCatalog};
//! use metam_profile::default_profiles;
//!
//! let catalog = LakeCatalog::scan("./lake")?;
//! let din = catalog.load_table("din")?;
//! let parsed = parse_task("classification:label", 7)?;
//! let target_column = parsed.target.as_deref().and_then(|t| din.column_index(t).ok());
//! let tables = repository_tables(&catalog, &din, None)?;
//! let prepared = assemble(
//!     din, tables, target_column, parsed.task,
//!     &default_profiles(), &AssembleOptions::default(),
//! );
//! let result = Metam::default().run(&prepared.inputs(), &mut NoopObserver);
//! # Ok::<(), metam_lake::LakeError>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod export;
pub mod manifest;
pub mod prepare;
pub mod sketch;
pub mod stats;

pub use catalog::{LakeCatalog, LoadCounters, ScanOptions, TableMeta};
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
    /// The persisted manifest is malformed.
    Manifest(String),
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
            LakeError::Manifest(m) => write!(f, "manifest error: {m}"),
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
