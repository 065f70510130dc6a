#![forbid(unsafe_code)]
//! # metam-discovery
//!
//! The data-discovery substrate: a join-path index standing in for Aurum
//! \[12\], which the paper uses to generate candidate augmentations
//! (§II-C "Preliminaries").
//!
//! Pipeline:
//!
//! 1. [`minhash`] — MinHash sketches over normalized column values, giving
//!    cheap Jaccard/containment estimates (the approximate, *noisy* matching
//!    the paper assumes: false-positive join paths are expected and Metam
//!    must survive them).
//! 2. [`index`] — a [`DiscoveryIndex`] of every column in a repository.
//! 3. [`path`] — joinable-column detection and multi-hop join-path
//!    enumeration (Definition 3: chains `Din ⋈ D1 ⋈ … ⋈ Dt`).
//! 4. [`candidate`] — candidate augmentations: one per projected non-key
//!    column of a join path (Definition 4: `Γ(Din, P[j])`).
//! 5. [`materialize`] — a caching [`Materializer`] that left-joins a
//!    candidate into a `Din`-aligned column.

#![warn(missing_docs)]

pub mod candidate;
pub mod index;
pub mod materialize;
pub mod minhash;
pub mod path;

pub use candidate::{generate_candidates, Candidate, CandidateId};
pub use index::{ColumnDescriptor, ColumnRef, DiscoveryIndex, TableDescriptor};
pub use materialize::{Materializer, TableProvider};
pub use minhash::{MinHash, SKETCH_SLOTS};
pub use path::{enumerate_paths, Hop, JoinPath};
