//! metam-serve: discovery-as-a-service.
//!
//! The long-lived daemon behind `metam serve`: one or more
//! [`LakeCatalog`](metam_lake::LakeCatalog)s held hot in memory behind
//! per-lake `RwLock`s ([`registry::LakeRegistry`]), an NDJSON-over-TCP
//! wire protocol ([`protocol`]) answering `discover` / `profile` / `scan`
//! / `lakes` / `status` / `shutdown`, and a bounded FIFO request queue
//! with budget-aware admission ([`queue::JobQueue`]) feeding a fixed
//! worker pool ([`server`]).
//!
//! The crate is deliberately session-agnostic: it depends only on
//! `metam-lake` + `metam-obs`, and actual discovery runs through the
//! pluggable [`server::DiscoverFn`] the umbrella crate wires in (a
//! `Session` built over the shared catalog — see `metam::serve`). That
//! keeps the daemon testable with stub handlers and free of dependency
//! cycles.
//!
//! Wire format: one JSON object per line in each direction. `discover`
//! replies embed the exact `discover --json` report, so existing report
//! consumers parse daemon replies unchanged. Every failure — malformed
//! line, unknown verb, over-budget request, shutdown in progress — is a
//! typed single-line `"ok":false` reply, never a dropped connection.

#![forbid(unsafe_code)]

pub mod protocol;
pub mod queue;
pub mod registry;
pub mod render;
pub mod server;

pub use protocol::{
    error_reply, parse_request, DiscoverRequest, ErrorKind, Request, ServeError, DEFAULT_BUDGET,
};
pub use queue::{JobQueue, QueueDepth};
pub use registry::{lake_name_for, LakeRegistry};
pub use server::{bind, DiscoverFn, DiscoverOutput, RunningServer, ServeConfig};
