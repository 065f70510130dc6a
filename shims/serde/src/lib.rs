//! Empty placeholder for the former `serde` shim. Nothing in the
//! workspace serializes through it: every JSON document is rendered by
//! `metam_obs::json`. The root `metam` crate still lists it (with
//! `serde_json` and, through this crate, `serde_derive_shim`) only so its
//! dependency graph, and with it the benchmark's committed
//! `perfbench/Cargo.lock`, stays unchanged until the next benchmark
//! change deletes all three crates.
