#![forbid(unsafe_code)]
//! # metam-causal
//!
//! Causal-inference substrate for the Metam reproduction, standing in for
//! the `causal-learn` library the paper uses (\[44\]).
//!
//! The paper's prescriptive tasks score utility as *the fraction of
//! correctly identified causally-related attributes (p-value ≤ 0.05)*
//! (§VI-A, what-if and how-to analysis). This crate supplies the pieces:
//!
//! * first- and second-moment statistics ([`stats`]),
//! * Fisher-z (partial-)correlation independence tests with p-values
//!   ([`independence`]),
//! * DAGs with ancestry queries ([`graph`]),
//! * a PC-style constraint-based skeleton discovery ([`discovery`]),
//! * linear-SEM total-effect estimation ([`effects`]),
//! * what-if (affected attributes of an update) and how-to (drivers of an
//!   outcome) analyses ([`whatif`]) built on top.

#![warn(missing_docs)]

pub mod discovery;
pub mod effects;
pub mod graph;
pub mod independence;
pub mod stats;
pub mod whatif;

pub use graph::Dag;
pub use independence::{fisher_z_test, partial_correlation, IndependenceTest};
pub use whatif::{affected_attributes, causal_drivers};
