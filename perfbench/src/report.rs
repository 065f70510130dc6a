//! What a run measured, the metric catalogue it must cover, and its JSON
//! renderings (the result line and the `perf-<workload>.json`
//! record), written with `metam::obs::json`.

use metam::obs::json::{write_f64, write_string};

use crate::stats::Fnv;

/// End-to-end metrics, measured untraced, with their units. Each one
/// means the same thing on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("discover_p50_s", "s"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured in the traced phase, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lake.files_profiled_cold", "count"),
    ("lake.is_stale_s", "s"),
    ("lake.sketch_index_s", "s"),
    ("discovery.index_s", "s"),
    ("discovery.candidates_s", "s"),
    ("discovery.candidates", "count"),
    ("profile.evaluate_s", "s"),
    ("profile.correlation_cpu_s", "s"),
    ("profile.mutual_info_cpu_s", "s"),
    ("profile.embedding_cpu_s", "s"),
    ("profile.metadata_cpu_s", "s"),
    ("profile.overlap_cpu_s", "s"),
    ("lake.scan_warm_s", "s"),
    ("lake.rescan_one_s", "s"),
    ("lake.payload_loads", "count"),
    ("core.query_p50_ms", "ms"),
    ("core.query_p90_ms", "ms"),
    ("core.augment_ms_p50", "ms"),
    ("core.search_overhead_s", "s"),
    ("core.queries", "count"),
    ("core.memo_hits", "count"),
    ("core.clusters", "count"),
    ("tasks.fit_ms_p50", "ms"),
    ("tasks.fit_ms_p90", "ms"),
    ("tasks.fit_calls", "count"),
    ("session.prepare_s", "s"),
    ("session.search_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("lake.csv_fallbacks", "count"),
    ("lake.sketch_fallbacks", "count"),
    ("serve.discover_p98_s", "s"),
    ("serve.scan_p50_s", "s"),
    ("serve.handler_s_p50", "s"),
    ("serve.outside_handler_s_p50", "s"),
    ("serve.rejected", "count"),
];

/// Check failures kept verbatim; later ones are only counted.
const MAX_ERRORS: usize = 20;

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub dropped_errors: usize,
    pub digest: Fnv,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a failed check that belongs to no single op.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.error(message());
        }
    }

    /// Count `n` failed ops.
    pub fn fail(&mut self, n: u64, message: String) {
        self.failed += n;
        self.error(message);
    }

    pub fn error(&mut self, message: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        } else {
            self.dropped_errors += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Flag every catalogue metric that is missing, mis-unitized, not
    /// finite, or reported twice.
    pub fn require(&mut self, catalogue: &[(&str, &str)]) {
        for &(name, unit) in catalogue {
            let found: Vec<_> = self.metrics.iter().filter(|m| m.0 == name).collect();
            let ok = matches!(found.as_slice(), [m] if m.2 == unit && m.1.is_finite());
            self.check(ok, || {
                format!("metric {name} ({unit}) missing or malformed")
            });
        }
    }
}

fn metrics_object(out: &mut String, metrics: &[(String, f64, &str)]) {
    out.push('{');
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, name);
        out.push_str(":{\"value\":");
        write_f64(out, *value);
        out.push_str(",\"unit\":");
        write_string(out, unit);
        out.push('}');
    }
    out.push('}');
}

/// The one-line result a benchmark runner reads (the last line of
/// stdout): `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":"
    );
    metrics_object(&mut out, metrics);
    out.push('}');
    out
}

/// How the run was configured, echoed into its record.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub phases: &'a str,
    pub quick: bool,
}

/// The full record of one workload run (`perf-<workload>.json`).
pub fn record(info: &RunInfo<'_>, res: &RunResult) -> String {
    let mut out = String::from("{\"workload\":");
    write_string(&mut out, info.workload);
    out.push_str(&format!(",\"seed\":{},\"seconds\":", info.seed));
    write_f64(&mut out, info.seconds);
    out.push_str(",\"phases\":");
    write_string(&mut out, info.phases);
    out.push_str(&format!(
        ",\"quick\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"output_digest\":",
        info.quick,
        res.correct(),
        res.attempted,
        res.failed
    ));
    write_string(&mut out, &format!("{:016x}", res.digest.finish()));
    out.push_str(",\"metrics\":");
    metrics_object(&mut out, &res.metrics);
    out.push_str(",\"errors\":[");
    for (i, e) in res.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, e);
    }
    out.push_str(&format!("],\"dropped_errors\":{}}}", res.dropped_errors));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam::obs::json::{parse, Value};

    #[test]
    fn record_round_trips_through_the_obs_parser() {
        let mut res = RunResult {
            attempted: 12,
            failed: 1,
            ..RunResult::default()
        };
        res.digest.u64(42);
        res.metric("discover_p50_s", 0.123_456_789, "s");
        res.metric("core.queries", 400.0, "count");
        res.error("seed 8: \"quoted\"\nmismatch".into());
        let info = RunInfo {
            workload: "forest_search",
            seed: 7,
            seconds: 20.0,
            phases: "untraced",
            quick: false,
        };
        let v = parse(&record(&info, &res)).expect("record parses");
        assert_eq!(
            v.get("workload").and_then(Value::as_str),
            Some("forest_search")
        );
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        let digest = format!("{:016x}", res.digest.finish());
        assert_eq!(
            v.get("output_digest").and_then(Value::as_str),
            Some(digest.as_str())
        );
        let p50 = v.get("metrics").and_then(|m| m.get("discover_p50_s"));
        assert_eq!(
            p50.and_then(|m| m.get("value")).and_then(Value::as_f64),
            Some(0.123_456_789)
        );
        assert_eq!(
            p50.and_then(|m| m.get("unit")).and_then(Value::as_str),
            Some("s")
        );
        assert_eq!(
            v.get("errors"),
            Some(&Value::Arr(vec![Value::Str(
                "seed 8: \"quoted\"\nmismatch".into()
            )]))
        );

        let line = parse(&result_line(true, 3, 0, &res.metrics)).expect("result line parses");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), 2);
    }

    #[test]
    fn require_flags_missing_and_duplicate_metrics() {
        let mut res = RunResult::default();
        res.metric("setup_s", 1.0, "s");
        res.metric("setup_s", 1.0, "s");
        res.metric("discover_p50_s", f64::NAN, "s");
        res.require(&[
            ("setup_s", "s"),
            ("discover_p50_s", "s"),
            ("scan_p50_s", "s"),
        ]);
        assert_eq!(res.errors.len(), 3);
    }

    /// The catalogue here and `BENCHMARK.json` at the repository root
    /// name the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(items)) = v.get(key) else {
                panic!("{key} array");
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect("string field");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalogue, "{key}");
        }
    }
}
