//! The NDJSON wire protocol: one JSON object per line in, one per line out.
//!
//! Every request is a single-line JSON object with a string `verb` field
//! plus verb-specific arguments; every reply is a single-line JSON object
//! with a boolean `ok` field. Successful replies carry `"ok":true`, the
//! echoed `verb`, and verb-specific payload fields; failures carry
//! `"ok":false`, a machine-matchable `error` kind from [`ErrorKind`], and
//! a human-readable `message`. Malformed input of any shape — bad JSON, an
//! unknown verb, a missing argument — produces a typed error reply on the
//! same connection, never a panic or a dropped socket.
//!
//! The `discover` reply embeds the exact `discover --json` report as its
//! `report` field, so existing consumers of the CLI output parse daemon
//! replies unchanged.

use std::fmt;

use metam_obs::json::{self, Value};

/// Query budget applied when a `discover` request omits `budget`
/// (matches the CLI default).
pub const DEFAULT_BUDGET: usize = 300;

/// Machine-matchable reply error kinds (the `error` field of a
/// `"ok":false` reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse, or a required argument is missing
    /// or malformed.
    BadRequest,
    /// The `verb` field names no known verb.
    UnknownVerb,
    /// The named lake is not served by this daemon.
    UnknownLake,
    /// The request line exceeded the server's line-length ceiling.
    Oversized,
    /// Admission control refused the request (concurrency ceiling or
    /// per-request budget cap).
    Rejected,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The request was admitted but failed while running.
    Internal,
}

impl ErrorKind {
    /// The wire label (the `error` field value).
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownVerb => "unknown_verb",
            ErrorKind::UnknownLake => "unknown_lake",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Rejected => "rejected",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A typed protocol failure: everything that can go wrong between reading
/// a request line and writing its reply.
#[derive(Debug)]
pub struct ServeError {
    /// The wire-visible kind.
    pub kind: ErrorKind,
    /// Human-readable context for the `message` field.
    pub message: String,
}

impl ServeError {
    /// A typed error of any kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
        }
    }

    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> ServeError {
        ServeError::new(ErrorKind::BadRequest, message)
    }

    /// An `internal` error.
    pub fn internal(message: impl Into<String>) -> ServeError {
        ServeError::new(ErrorKind::Internal, message)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// A parsed `discover` request: which lake to search and how.
#[derive(Debug, Clone)]
pub struct DiscoverRequest {
    /// Lake name (as registered with the daemon).
    pub lake: String,
    /// Input dataset: a catalog table name or a path to an external CSV.
    pub din: String,
    /// Task spec, `kind:arg` (e.g. `classification:label`).
    pub task: String,
    /// Goal utility; search stops early once reached.
    pub theta: Option<f64>,
    /// Query budget. `usize::MAX` means unbounded (wire value `null`);
    /// omitted defaults to [`DEFAULT_BUDGET`].
    pub budget: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Candidate-count cap, when requested.
    pub max_candidates: Option<usize>,
    /// Profile sample-size override, when requested.
    pub profile_sample: Option<usize>,
    /// Search worker threads (never changes results, only wall-clock).
    pub threads: usize,
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run goal-oriented discovery over a served lake.
    Discover(DiscoverRequest),
    /// Per-table profile stats for a served lake (the `metam profile
    /// --json` payload), optionally narrowed to one table.
    Profile {
        /// Lake name.
        lake: String,
        /// Restrict to this table, when given.
        table: Option<String>,
    },
    /// Force an in-place rescan of a served lake.
    Scan {
        /// Lake name.
        lake: String,
    },
    /// List the served lakes.
    Lakes,
    /// Queue depth, admission counters, and per-lake lifetime load stats.
    Status,
    /// Drain in-flight requests and exit.
    Shutdown,
}

impl Request {
    /// The wire verb, echoed in replies and telemetry.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Discover(_) => "discover",
            Request::Profile { .. } => "profile",
            Request::Scan { .. } => "scan",
            Request::Lakes => "lakes",
            Request::Status => "status",
            Request::Shutdown => "shutdown",
        }
    }
}

fn required_str(obj: &Value, key: &str, verb: &str) -> Result<String, ServeError> {
    match obj.get(key) {
        Some(v) => v.as_str().map(String::from).ok_or_else(|| {
            ServeError::bad_request(format!("{verb:?} request field {key:?} must be a string"))
        }),
        None => Err(ServeError::bad_request(format!(
            "{verb:?} request needs a string {key:?} field"
        ))),
    }
}

fn optional_str(obj: &Value, key: &str, verb: &str) -> Result<Option<String>, ServeError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
            ServeError::bad_request(format!("{verb:?} request field {key:?} must be a string"))
        }),
    }
}

fn as_unsigned(v: &Value, key: &str, verb: &str) -> Result<u64, ServeError> {
    let n = v.as_f64().ok_or_else(|| {
        ServeError::bad_request(format!("{verb:?} request field {key:?} must be a number"))
    })?;
    if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64) {
        return Err(ServeError::bad_request(format!(
            "{verb:?} request field {key:?} must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as u64)
}

fn optional_usize(obj: &Value, key: &str, verb: &str) -> Result<Option<usize>, ServeError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => Ok(Some(as_unsigned(v, key, verb)? as usize)),
    }
}

fn optional_f64(obj: &Value, key: &str, verb: &str) -> Result<Option<f64>, ServeError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| {
            ServeError::bad_request(format!("{verb:?} request field {key:?} must be a number"))
        }),
    }
}

/// Parse one request line into a [`Request`], or a typed error describing
/// exactly what was wrong with it.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let value = json::parse(line.trim())
        .map_err(|e| ServeError::bad_request(format!("malformed JSON request: {e}")))?;
    if !matches!(value, Value::Obj(_)) {
        return Err(ServeError::bad_request(
            "request must be a JSON object with a \"verb\" field",
        ));
    }
    let verb = match value.get("verb") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| ServeError::bad_request("request field \"verb\" must be a string"))?,
        None => {
            return Err(ServeError::bad_request(
                "request needs a string \"verb\" field",
            ))
        }
    };
    match verb {
        "discover" => {
            // `"budget": null` means unbounded; omitted means the CLI
            // default — so scripted clients and humans get CLI parity.
            let budget = match value.get("budget") {
                None => DEFAULT_BUDGET,
                Some(Value::Null) => usize::MAX,
                Some(v) => as_unsigned(v, "budget", verb)? as usize,
            };
            Ok(Request::Discover(DiscoverRequest {
                lake: required_str(&value, "lake", verb)?,
                din: required_str(&value, "din", verb)?,
                task: required_str(&value, "task", verb)?,
                theta: optional_f64(&value, "theta", verb)?,
                budget,
                seed: match value.get("seed") {
                    None | Some(Value::Null) => 0,
                    Some(v) => as_unsigned(v, "seed", verb)?,
                },
                max_candidates: optional_usize(&value, "max_candidates", verb)?,
                profile_sample: optional_usize(&value, "profile_sample", verb)?,
                threads: optional_usize(&value, "threads", verb)?.unwrap_or(1).max(1),
            }))
        }
        "profile" => Ok(Request::Profile {
            lake: required_str(&value, "lake", verb)?,
            table: optional_str(&value, "table", verb)?,
        }),
        "scan" => Ok(Request::Scan {
            lake: required_str(&value, "lake", verb)?,
        }),
        "lakes" => Ok(Request::Lakes),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::new(
            ErrorKind::UnknownVerb,
            format!(
                "unknown verb {other:?} (expected discover, profile, scan, lakes, status or shutdown)"
            ),
        )),
    }
}

/// Start a single-line `"ok":true` reply for `verb`; the caller adds the
/// verb's payload fields and finishes it.
pub(crate) fn ok_reply(verb: &str) -> json::Object {
    json::object().bool("ok", true).str("verb", verb)
}

/// Render a typed error as a single-line `"ok":false` reply.
pub fn error_reply(err: &ServeError) -> String {
    json::object()
        .bool("ok", false)
        .str("error", err.kind.label())
        .str("message", &err.message)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_verb() {
        assert!(matches!(
            parse_request("{\"verb\":\"lakes\"}"),
            Ok(Request::Lakes)
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"status\"}"),
            Ok(Request::Status)
        ));
        assert!(matches!(
            parse_request("{\"verb\":\"shutdown\"}"),
            Ok(Request::Shutdown)
        ));
        match parse_request("{\"verb\":\"scan\",\"lake\":\"demo\"}") {
            Ok(Request::Scan { lake }) => assert_eq!(lake, "demo"),
            other => panic!("expected scan, got {other:?}"),
        }
        match parse_request("{\"verb\":\"profile\",\"lake\":\"demo\",\"table\":\"t\"}") {
            Ok(Request::Profile { lake, table }) => {
                assert_eq!(lake, "demo");
                assert_eq!(table.as_deref(), Some("t"));
            }
            other => panic!("expected profile, got {other:?}"),
        }
    }

    #[test]
    fn discover_defaults_and_null_budget() {
        let line = "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"din\",\"task\":\"classification:label\"}";
        match parse_request(line) {
            Ok(Request::Discover(d)) => {
                assert_eq!(d.budget, DEFAULT_BUDGET);
                assert_eq!(d.seed, 0);
                assert_eq!(d.threads, 1);
                assert_eq!(d.theta, None);
            }
            other => panic!("expected discover, got {other:?}"),
        }
        let line = "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"din\",\"task\":\"clustering:3\",\"budget\":null,\"seed\":7}";
        match parse_request(line) {
            Ok(Request::Discover(d)) => {
                assert_eq!(d.budget, usize::MAX, "null budget is unbounded");
                assert_eq!(d.seed, 7);
            }
            other => panic!("expected discover, got {other:?}"),
        }
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        let kind = |line: &str| parse_request(line).unwrap_err().kind;
        assert_eq!(kind("not json at all"), ErrorKind::BadRequest);
        assert_eq!(kind("[1,2,3]"), ErrorKind::BadRequest);
        assert_eq!(kind("{\"no\":\"verb\"}"), ErrorKind::BadRequest);
        assert_eq!(kind("{\"verb\":\"frobnicate\"}"), ErrorKind::UnknownVerb);
        assert_eq!(
            kind("{\"verb\":\"discover\",\"din\":\"d\",\"task\":\"clustering:2\"}"),
            ErrorKind::BadRequest,
            "missing lake name"
        );
        assert_eq!(
            kind(
                "{\"verb\":\"discover\",\"lake\":\"l\",\"din\":\"d\",\"task\":\"t\",\"budget\":-3}"
            ),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind("{\"verb\":\"discover\",\"lake\":\"l\",\"din\":\"d\",\"task\":\"t\",\"budget\":1.5}"),
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn replies_are_single_line_json() {
        let ok = ok_reply("status")
            .bool("shutting_down", false)
            .int("active", 3)
            .raw("lakes", "[{\"name\":\"demo\"}]")
            .str("note", "a\"quote\"")
            .finish();
        assert!(!ok.contains('\n'));
        let parsed = json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("active").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            parsed.get("note").and_then(Value::as_str),
            Some("a\"quote\"")
        );

        let err = error_reply(&ServeError::new(ErrorKind::Rejected, "queue full"));
        let parsed = json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            parsed.get("error").and_then(Value::as_str),
            Some("rejected")
        );
    }
}
