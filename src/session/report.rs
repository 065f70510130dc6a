//! The bundled outcome of one `Session::run`.

use metam_core::trace::TracePoint;
use metam_core::StopReason;
use metam_discovery::CandidateId;
use metam_obs::MetricsSnapshot;

/// Everything one discovery run produced: the solution, budget accounting,
/// wall-clock timings and the utility-vs-queries trace. Serializes to JSON
/// via the `serde` shim for the CLI's `--json` mode and bench harnesses.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Method display name ("Metam", "Uniform", …).
    pub method: String,
    /// Name of the input dataset.
    pub din_name: String,
    /// Rows in the input dataset.
    pub din_rows: usize,
    /// Columns in the input dataset.
    pub din_cols: usize,
    /// Candidate augmentations the prepare phase discovered.
    pub n_candidates: usize,
    /// Selected augmentation ids (ascending).
    pub selected: Vec<CandidateId>,
    /// Human-readable names of the selected augmentations, aligned with
    /// [`selected`](Self::selected).
    pub selected_names: Vec<String>,
    /// Final solution utility.
    pub utility: f64,
    /// Utility of the bare `Din`.
    pub base_utility: f64,
    /// Task queries spent.
    pub queries: usize,
    /// The query budget the run was given (`usize::MAX` = unbounded).
    pub budget: usize,
    /// Why the search stopped. `Session::run` sets it for every method
    /// (Metam and the baselines); `None` only on hand-built reports.
    pub stop_reason: Option<StopReason>,
    /// Clusters used by Metam (`None` for baselines).
    pub n_clusters: Option<usize>,
    /// Augmentations the monotonicity wrapper ignored (`None` for
    /// baselines).
    pub certification_ignored: Option<usize>,
    /// Best-utility-so-far trace.
    pub trace: Vec<TracePoint>,
    /// Worker threads the search ran with (1 = sequential; the thread
    /// count never changes results).
    pub threads: usize,
    /// Wall-clock seconds spent preparing (scan, index, candidates,
    /// profiles).
    pub prepare_secs: f64,
    /// Wall-clock seconds spent searching.
    pub search_secs: f64,
    /// Telemetry snapshot at report time (span timings, engine counters,
    /// cache stats) — `None` when the process recorded no metrics.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Utility gained over the bare `Din`.
    pub fn gain(&self) -> f64 {
        self.utility - self.base_utility
    }

    /// Budget left unspent; `usize::MAX` for an unbounded run.
    pub fn queries_remaining(&self) -> usize {
        metam_core::engine::remaining_budget(self.budget, self.queries)
    }

    /// Compact JSON encoding (the `--json` CLI payload).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        serde::Serialize::serialize(self, &mut out);
        out
    }
}

fn write_opt_usize(out: &mut String, v: Option<usize>) {
    match v {
        Some(n) => out.push_str(&n.to_string()),
        None => out.push_str("null"),
    }
}

impl serde::Serialize for RunReport {
    fn serialize(&self, out: &mut String) {
        // Hand-rolled so unbounded budgets encode as null and the stop
        // reason encodes as its Display string.
        out.push('{');
        serde::write_json_string(out, "method");
        out.push(':');
        serde::write_json_string(out, &self.method);
        out.push_str(",\"din\":{");
        serde::write_json_string(out, "name");
        out.push(':');
        serde::write_json_string(out, &self.din_name);
        out.push_str(&format!(
            ",\"rows\":{},\"cols\":{}}}",
            self.din_rows, self.din_cols
        ));
        out.push_str(&format!(",\"candidates\":{}", self.n_candidates));
        out.push_str(",\"utility\":");
        serde::Serialize::serialize(&self.utility, out);
        out.push_str(",\"base_utility\":");
        serde::Serialize::serialize(&self.base_utility, out);
        out.push_str(",\"gain\":");
        serde::Serialize::serialize(&self.gain(), out);
        out.push_str(&format!(",\"queries\":{}", self.queries));
        out.push_str(",\"budget\":");
        write_opt_usize(out, (self.budget != usize::MAX).then_some(self.budget));
        out.push_str(",\"queries_remaining\":");
        write_opt_usize(
            out,
            (self.budget != usize::MAX).then_some(self.queries_remaining()),
        );
        out.push_str(",\"stop_reason\":");
        match self.stop_reason {
            Some(r) => serde::write_json_string(out, &r.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"n_clusters\":");
        write_opt_usize(out, self.n_clusters);
        out.push_str(",\"certification_ignored\":");
        write_opt_usize(out, self.certification_ignored);
        out.push_str(",\"selected\":[");
        for (i, (&id, name)) in self.selected.iter().zip(&self.selected_names).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":{id},\"name\":"));
            serde::write_json_string(out, name);
            out.push('}');
        }
        out.push(']');
        out.push_str(&format!(",\"threads\":{}", self.threads));
        out.push_str(",\"prepare_secs\":");
        serde::Serialize::serialize(&self.prepare_secs, out);
        out.push_str(",\"search_secs\":");
        serde::Serialize::serialize(&self.search_secs, out);
        out.push_str(",\"metrics\":");
        match &self.metrics {
            Some(m) => out.push_str(&m.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\"trace\":[");
        for (i, p) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},", p.queries));
            serde::Serialize::serialize(&p.utility, out);
            out.push(']');
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_obs::json::{self, Value};

    fn report() -> RunReport {
        RunReport {
            method: "Metam".into(),
            din_name: "din".into(),
            din_rows: 10,
            din_cols: 2,
            n_candidates: 4,
            selected: vec![1, 3],
            selected_names: vec!["a \"q\"".into(), "b".into()],
            utility: 0.9,
            base_utility: 0.5,
            queries: 7,
            budget: 30,
            stop_reason: Some(StopReason::ThetaReached),
            n_clusters: Some(2),
            certification_ignored: Some(0),
            trace: vec![
                TracePoint {
                    queries: 1,
                    utility: 0.5,
                },
                TracePoint {
                    queries: 7,
                    utility: 0.9,
                },
            ],
            threads: 1,
            prepare_secs: 0.25,
            search_secs: 0.5,
            metrics: None,
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut r = report();
        let tricky = "a \"q\" \\ \u{1} café→";
        r.selected_names[0] = tricky.into();
        let compact = r.to_json();
        // The form `metam discover --json` prints.
        let pretty = serde_json::to_string_pretty(&r).expect("the shim writer is infallible");
        for text in [&compact, &pretty] {
            let v = json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
            let num = |key: &str| v.get(key).and_then(Value::as_f64);
            assert_eq!(v.get("method").and_then(Value::as_str), Some("Metam"));
            assert_eq!(num("queries"), Some(7.0));
            assert_eq!(num("budget"), Some(30.0));
            assert_eq!(num("queries_remaining"), Some(23.0));
            assert_eq!(num("threads"), Some(1.0));
            assert_eq!(
                v.get("stop_reason").and_then(Value::as_str),
                Some("theta reached (target utility met)")
            );
            let Some(Value::Arr(selected)) = v.get("selected") else {
                panic!("selected is an array: {text}");
            };
            let decoded: Vec<_> = selected
                .iter()
                .map(|s| {
                    (
                        s.get("id").and_then(Value::as_f64),
                        s.get("name").and_then(Value::as_str),
                    )
                })
                .collect();
            assert_eq!(decoded, [(Some(1.0), Some(tricky)), (Some(3.0), Some("b"))]);
            let point = |q: f64, u: f64| Value::Arr(vec![Value::Num(q), Value::Num(u)]);
            assert_eq!(
                v.get("trace"),
                Some(&Value::Arr(vec![point(1.0, 0.5), point(7.0, 0.9)]))
            );
        }
    }

    #[test]
    fn metrics_section_encodes_snapshot_or_null() {
        let r = report();
        assert!(r.to_json().contains("\"metrics\":null"));
        metam_obs::counter_add("report.test.counter", 3);
        let mut with = report();
        with.metrics = Some(metam_obs::metrics_snapshot());
        let json = with.to_json();
        assert!(json.contains("\"metrics\":{"));
        assert!(json.contains("\"report.test.counter\":3"));
    }

    #[test]
    fn unbounded_budget_encodes_as_null() {
        let mut r = report();
        r.budget = usize::MAX;
        r.stop_reason = None;
        let json = r.to_json();
        assert!(json.contains("\"budget\":null"));
        assert!(json.contains("\"queries_remaining\":null"));
        assert!(json.contains("\"stop_reason\":null"));
        assert_eq!(r.queries_remaining(), usize::MAX);
    }
}
