//! Discover-then-augment baselines (paper §III-A and §VI).
//!
//! All baselines share the same greedy acceptance rule — query the current
//! solution extended by one candidate, keep it if utility improved — and
//! differ only in *which candidate they try next*:
//!
//! * [`uniform`] — uniformly random order,
//! * [`overlap`] — descending join-overlap order (S4/Ver style),
//! * [`mw`] — randomized multiplicative-weights over profile experts,
//! * [`arda`] — iARDA: ARDA's random-injection feature-importance ranking
//!   adapted to the interventional setting,
//! * [`join_all`] — Join-Everything, a single query with all candidates.

pub mod arda;
mod common;
pub mod join_all;
pub mod mw;
pub mod overlap;
pub mod uniform;
