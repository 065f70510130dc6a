//! `metam serve` wiring: the [`Session`]-backed discover handler for the
//! generic `metam-serve` daemon.
//!
//! `metam-serve` is deliberately session-agnostic (it sits below this
//! crate and cannot depend on [`Session`]); this module closes the loop by
//! wiring a [`DiscoverFn`](metam_serve::server::DiscoverFn) that builds a session over the daemon's shared
//! hot catalog for every admitted `discover` request. Both the `metam
//! serve` CLI subcommand and the protocol tests start daemons through
//! [`start`], so they exercise exactly the same handler.

use std::path::PathBuf;
use std::sync::Arc;

use metam_core::{MetamConfig, Method};
use metam_lake::{LakeCatalog, LakeError};
pub use metam_serve::{
    DiscoverOutput, DiscoverRequest, ErrorKind, LakeRegistry, RunningServer, ServeConfig,
    ServeError,
};

use crate::session::{Session, SessionError};

/// Start a daemon serving `lakes` with the [`Session`]-backed discover
/// handler: scan every lake hot, bind the configured address, and return
/// the running server (the caller prints the address and `join`s).
pub fn start(
    lakes: &[(String, PathBuf)],
    config: ServeConfig,
) -> Result<RunningServer, ServeError> {
    let registry = LakeRegistry::open(lakes)?;
    metam_serve::bind(config, registry, session_discover())
}

/// The production discover handler: one [`Session`] per request over the
/// shared catalog, returning the exact `discover --json` report plus the
/// per-request cache-delta section.
pub fn session_discover() -> Box<metam_serve::server::DiscoverFn> {
    Box::new(run_discover)
}

fn run_discover(
    request: &DiscoverRequest,
    catalog: Arc<LakeCatalog>,
) -> Result<DiscoverOutput, ServeError> {
    // Per-request cache sections are before/after deltas on the shared
    // counters — exact when requests run alone, best-effort attribution
    // under concurrency (lifetime totals in `status` are always exact).
    let load = catalog.load_counters();
    let sketch = catalog.sketch_load_counters();
    let before = (load.hits(), load.misses(), sketch.hits(), sketch.misses());

    let mut session = Session::from_shared_catalog(catalog)
        .din(request.din.clone())
        .task_spec(request.task.clone())
        .seed(request.seed)
        .budget(request.budget)
        .threads(request.threads);
    if let Some(theta) = request.theta {
        session = session.theta(theta);
    }
    if let Some(n) = request.max_candidates {
        session = session.max_candidates(n);
    }
    if let Some(n) = request.profile_sample {
        session = session.profile_sample(n);
    }
    let mut report = session
        .run(Method::Metam(MetamConfig::default()))
        .map_err(serve_error)?;
    // The report's metrics section snapshots the process-global registry;
    // in a multi-request daemon that mixes every request's counters, so
    // replies omit it (server-lifetime stats live in `status` instead) —
    // which also keeps replies bit-identical to in-process runs.
    report.metrics = None;
    let cache_json = format!(
        "{{\"mtc_loads\":{},\"csv_fallbacks\":{},\"sketch_hits\":{},\"sketch_fallbacks\":{}}}",
        load.hits().saturating_sub(before.0),
        load.misses().saturating_sub(before.1),
        sketch.hits().saturating_sub(before.2),
        sketch.misses().saturating_sub(before.3),
    );
    Ok(DiscoverOutput {
        report_json: report.to_json(),
        cache_json,
    })
}

/// Map a session failure onto the wire: user-addressable mistakes (bad
/// task spec, unknown din, zero budget…) are `bad_request`; infrastructure
/// failures (I/O under a previously-scanned lake) are `internal`.
fn serve_error(e: SessionError) -> ServeError {
    match &e {
        SessionError::Lake(LakeError::Io(_)) => ServeError::internal(e.to_string()),
        _ => ServeError::bad_request(e.to_string()),
    }
}
