#![forbid(unsafe_code)]
//! # metam-table
//!
//! A small in-memory columnar table engine used as the data substrate for the
//! Metam reproduction. It models the paper's notion of *noisy structured
//! data* (Definition 1): relations may have missing header values, missing
//! cell values and duplicate rows, and repositories (Definition 2) are plain
//! collections of such tables.
//!
//! The engine provides exactly what goal-oriented data discovery needs:
//!
//! * typed, nullable columns ([`Column`]) with cheap numeric views,
//! * schemas with possibly-absent attribute names ([`Schema`]),
//! * the first-match left join that materializes join paths ([`join`]),
//! * unions for record-addition augmentations ([`union`]),
//! * seeded row sampling for cheap profile estimation ([`sample`]),
//! * a minimal CSV reader/writer for interop ([`csv`]),
//! * a lossless binary columnar format with explicit null bitmaps, used as
//!   the lake's on-disk table cache ([`colbin`]).
//!
//! Everything is deterministic: no observable result of any operation depends
//! on hash-map iteration order.

#![warn(missing_docs)]

pub mod colbin;
pub mod column;
pub mod csv;
pub mod error;
pub mod join;
pub mod sample;
pub mod schema;
pub mod table;
pub mod union;
pub mod value;

pub use column::Column;
pub use error::TableError;
pub use join::left_join_column;
pub use schema::{DataType, Field, Schema};
pub use table::Table;
pub use value::Value;

/// Convenient result alias for table operations.
pub type Result<T> = std::result::Result<T, TableError>;
