#![forbid(unsafe_code)]
//! # metam-obs
//!
//! End-to-end telemetry for the Metam workspace: a lightweight,
//! dependency-free tracing + metrics facade. Three pieces:
//!
//! * **[`sink`]** — a process-global line-delimited JSON (JSONL) event
//!   sink, off by default, selected via `METAM_TRACE=<path|stderr>`
//!   ([`init_from_env`]) or installed explicitly. Every line carries
//!   `ts`, `span`/`event`, and `name`.
//! * **[`span`](mod@span)** — named wall-clock spans ([`span()`]): guard
//!   objects that time a region, feed the `span.<kind>` histogram, and
//!   emit a close line when tracing.
//! * **[`metrics`]** — a thread-safe registry of monotonic counters and
//!   histograms ([`counter_add`], [`record`]), snapshotted into the CLI's
//!   `--json` `metrics` section ([`metrics_snapshot`]).
//!
//! Instrumentation is **passive and cheap**: with no sink installed the
//! per-event cost is one relaxed atomic load, and nothing observable
//! changes about the instrumented computation — searches stay
//! bit-identical, traced or not. The emitting crates guard event
//! construction behind [`enabled`].
//!
//! [`json`] is the workspace's one JSON writer — every document the
//! program emits is built with its object/array builder — plus a minimal
//! parser for daemon requests and for *validating* emitted trace files
//! (schema tests, `metam trace-validate`).

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod sink;
pub mod span;

pub use metrics::{
    counter_add, record, reset as reset_metrics, snapshot as metrics_snapshot, HistSummary,
    MetricsSnapshot,
};
pub use sink::{
    disable, enabled, flush, init_from_env, install_file, install_stderr, install_writer, now_secs,
    Event,
};
pub use span::{span, Span};

/// Validate a JSONL trace: every non-empty line must parse as a JSON
/// object carrying a numeric `ts`, a string `name`, and a string `span` or
/// `event` kind. Returns `(span_lines, event_lines)` or the first
/// offending line's number and problem.
pub fn validate_trace(text: &str) -> Result<(usize, usize), String> {
    let mut spans = 0usize;
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let v = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if v.get("ts").and_then(json::Value::as_f64).is_none() {
            return Err(format!("line {lineno}: missing numeric \"ts\""));
        }
        if v.get("name").and_then(json::Value::as_str).is_none() {
            return Err(format!("line {lineno}: missing string \"name\""));
        }
        let is_span = v.get("span").and_then(json::Value::as_str).is_some();
        let is_event = v.get("event").and_then(json::Value::as_str).is_some();
        match (is_span, is_event) {
            (true, false) => spans += 1,
            (false, true) => events += 1,
            _ => {
                return Err(format!(
                    "line {lineno}: needs exactly one of string \"span\" / \"event\""
                ))
            }
        }
    }
    Ok((spans, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_wellformed_and_rejects_broken_lines() {
        let good = "{\"ts\":0.1,\"span\":\"scan\",\"name\":\"lake\",\"secs\":1}\n\
                    \n\
                    {\"ts\":0.2,\"event\":\"query\",\"name\":\"sequential\"}\n";
        assert_eq!(validate_trace(good), Ok((1, 1)));
        assert!(
            validate_trace("{\"event\":\"x\",\"name\":\"y\"}").is_err(),
            "no ts"
        );
        assert!(
            validate_trace("{\"ts\":1,\"event\":\"x\"}").is_err(),
            "no name"
        );
        assert!(
            validate_trace("{\"ts\":1,\"name\":\"y\"}").is_err(),
            "neither span nor event"
        );
        assert!(
            validate_trace("{\"ts\":1,\"span\":\"a\",\"event\":\"b\",\"name\":\"y\"}").is_err(),
            "both span and event"
        );
        assert!(validate_trace("not json").is_err());
    }
}
