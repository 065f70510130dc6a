//! A uniform interface over Metam and the baselines — the bench harness
//! runs every figure through this.

use metam_discovery::CandidateId;

use crate::baselines::arda::run_iarda;
use crate::baselines::join_all::run_join_all;
use crate::baselines::mw::run_mw;
use crate::baselines::overlap::run_overlap;
use crate::baselines::uniform::run_uniform;
use crate::engine::SearchInputs;
use crate::metam::{Metam, MetamConfig, StopReason};
use crate::observer::RunObserver;
use crate::trace::TracePoint;

/// A method the harness can run.
#[derive(Debug, Clone)]
pub enum Method {
    /// Metam with a full configuration.
    Metam(MetamConfig),
    /// Uniform random querying.
    Uniform {
        /// Shuffle seed.
        seed: u64,
    },
    /// Overlap-ranked querying.
    Overlap,
    /// Multiplicative weights over profile experts.
    Mw {
        /// Expert-draw seed.
        seed: u64,
    },
    /// iARDA ranking (needs `SearchInputs::target_column`).
    IArda {
        /// Whether the downstream task is classification.
        classification: bool,
        /// Scoring seed.
        seed: u64,
    },
    /// Join everything, query once.
    JoinAll,
}

impl Method {
    /// Display name used in figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Metam(_) => "Metam",
            Method::Uniform { .. } => "Uniform",
            Method::Overlap => "Overlap",
            Method::Mw { .. } => "MW",
            Method::IArda { .. } => "iARDA",
            Method::JoinAll => "JoinAll",
        }
    }
}

/// Outcome of one run of any method.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Method display name.
    pub method: String,
    /// Selected augmentation ids (ascending).
    pub selected: Vec<CandidateId>,
    /// Final solution utility.
    pub utility: f64,
    /// Utility of the bare `Din`.
    pub base_utility: f64,
    /// Task queries spent (for Metam including certification and
    /// minimality).
    pub queries: usize,
    /// The query budget the search ran under (`usize::MAX` = unbounded) —
    /// kept on the result so callers can report spent/remaining budget
    /// without re-threading the configuration.
    pub budget: usize,
    /// Best-utility-so-far trace.
    pub trace: Vec<TracePoint>,
    /// Why the search stopped.
    pub stop_reason: StopReason,
    /// Clusters Metam searched over (`None` for baselines, which do not
    /// cluster).
    pub n_clusters: Option<usize>,
    /// Augmentations Metam's monotonicity wrapper ignored (`None` for
    /// baselines, which do not certify).
    pub certification_ignored: Option<usize>,
}

impl RunResult {
    /// Budget left unspent; `usize::MAX` for an unbounded search.
    pub fn queries_remaining(&self) -> usize {
        crate::engine::remaining_budget(self.budget, self.queries)
    }
}

/// Run `method` with the given θ and query budget, streaming callbacks to
/// `observer`: every method (Metam and all baselines) raises per-query
/// [`QueryEvent`](crate::observer::QueryEvent)s through the shared engine,
/// plus `on_search_start`/`on_finish`. Observation is passive — pass
/// [`NoopObserver`](crate::observer::NoopObserver) for an unobserved run
/// with an identical result.
pub fn run_method(
    method: &Method,
    inputs: &SearchInputs<'_>,
    theta: Option<f64>,
    max_queries: usize,
    observer: &mut dyn RunObserver,
) -> RunResult {
    match method {
        Method::Metam(config) => {
            let mut cfg = config.clone();
            cfg.theta = theta;
            cfg.max_queries = max_queries;
            Metam::new(cfg).run(inputs, observer)
        }
        Method::Uniform { seed } => run_uniform(inputs, theta, max_queries, *seed, observer),
        Method::Overlap => run_overlap(inputs, theta, max_queries, observer),
        Method::Mw { seed } => run_mw(inputs, theta, max_queries, *seed, observer),
        Method::IArda {
            classification,
            seed,
        } => run_iarda(inputs, theta, max_queries, *classification, *seed, observer),
        Method::JoinAll => run_join_all(inputs, max_queries, observer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::LinearSyntheticTask;

    #[test]
    fn all_methods_run_and_respect_budget() {
        let (din, candidates, mat) = fixture(8);
        let mut weights = vec![0.0; candidates.len()];
        weights[3] = 0.4;
        let task = LinearSyntheticTask { base: 0.3, weights };
        let profiles = vec![vec![0.5, 0.2]; candidates.len()];
        let names = vec!["overlap".to_string(), "corr".to_string()];
        let inputs = SearchInputs {
            din: &din,
            target_column: Some(1),
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &names,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let methods = [
            Method::Metam(MetamConfig::default()),
            Method::Uniform { seed: 1 },
            Method::Overlap,
            Method::Mw { seed: 1 },
            Method::IArda {
                classification: false,
                seed: 1,
            },
            Method::JoinAll,
        ];
        for m in &methods {
            let r = run_method(m, &inputs, Some(0.65), 60, &mut NoopObserver);
            assert!(r.queries <= 60, "{} overspent: {}", r.method, r.queries);
            assert_eq!(r.budget, 60);
            assert_eq!(r.queries_remaining(), 60 - r.queries);
            assert_eq!(r.n_clusters.is_some(), m.name() == "Metam");
            assert!(r.utility >= r.base_utility - 1e-9 || m.name() == "JoinAll");
            assert!(!r.trace.is_empty(), "{} must record a trace", r.method);
        }
    }

    #[test]
    fn metam_beats_uniform_on_needle_in_haystack() {
        let (din, candidates, mat) = fixture(30);
        let n = candidates.len();
        // One needle; profiles point at it (correlation-like signal).
        let mut weights = vec![0.0; n];
        weights[17] = 0.5;
        let task = LinearSyntheticTask {
            base: 0.3,
            weights: weights.clone(),
        };
        let profiles: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![if i == 17 {
                    0.95
                } else {
                    (i % 10) as f64 / 30.0
                }]
            })
            .collect();
        let names = vec!["corr".to_string()];
        let inputs = SearchInputs {
            din: &din,
            target_column: Some(1),
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &names,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let metam = run_method(
            &Method::Metam(MetamConfig {
                seed: 5,
                ..Default::default()
            }),
            &inputs,
            Some(0.75),
            200,
            &mut NoopObserver,
        );
        let uniform = run_method(
            &Method::Uniform { seed: 5 },
            &inputs,
            Some(0.75),
            200,
            &mut NoopObserver,
        );
        assert!(metam.utility >= 0.75);
        assert!(
            metam.queries <= uniform.queries,
            "metam {} vs uniform {}",
            metam.queries,
            uniform.queries
        );
    }
}
