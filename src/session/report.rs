//! The bundled outcome of one `Session::run`.

use metam_core::trace::TracePoint;
use metam_core::StopReason;
use metam_discovery::CandidateId;
use metam_obs::{json, MetricsSnapshot};

/// Everything one discovery run produced: the solution, budget accounting,
/// wall-clock timings and the utility-vs-queries trace. Renders as JSON
/// ([`to_json`](Self::to_json)) for the CLI's `--json` mode and the
/// daemon's `discover` reply.
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

    /// Compact JSON encoding: the daemon's `discover` reply embeds it, and
    /// `metam discover --json` prints its [`pretty`](metam_obs::json::pretty)
    /// form. An unbounded budget encodes as `null`, the stop reason as its
    /// Display string.
    pub fn to_json(&self) -> String {
        let bounded = |n: usize| (self.budget != usize::MAX).then_some(n);
        let din = json::object()
            .str("name", &self.din_name)
            .int("rows", self.din_rows)
            .int("cols", self.din_cols);
        let selected = self
            .selected
            .iter()
            .zip(&self.selected_names)
            .fold(json::array(), |a, (&id, name)| {
                a.raw(&json::object().int("id", id).str("name", name).finish())
            });
        let trace = self.trace.iter().fold(json::array(), |a, p| {
            a.raw(&json::array().int(p.queries).f64(p.utility).finish())
        });
        let report = json::object()
            .str("method", &self.method)
            .raw("din", &din.finish())
            .int("candidates", self.n_candidates)
            .f64("utility", self.utility)
            .f64("base_utility", self.base_utility)
            .f64("gain", self.gain())
            .int("queries", self.queries)
            .opt_int("budget", bounded(self.budget))
            .opt_int("queries_remaining", bounded(self.queries_remaining()));
        let report = match self.stop_reason {
            Some(r) => report.str("stop_reason", &r.to_string()),
            None => report.raw("stop_reason", "null"),
        };
        let metrics = self.metrics.as_ref().map(MetricsSnapshot::to_json);
        report
            .opt_int("n_clusters", self.n_clusters)
            .opt_int("certification_ignored", self.certification_ignored)
            .raw("selected", &selected.finish())
            .int("threads", self.threads)
            .f64("prepare_secs", self.prepare_secs)
            .f64("search_secs", self.search_secs)
            .raw("metrics", metrics.as_deref().unwrap_or("null"))
            .raw("trace", &trace.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_obs::json::Value;

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
        let pretty = json::pretty(&compact);
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
