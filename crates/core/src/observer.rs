//! Streaming observation of a running search.
//!
//! A [`RunObserver`] receives passive callbacks while any method runs:
//!
//! * [`on_search_start`](RunObserver::on_search_start) — once, before the
//!   first query;
//! * [`on_query`](RunObserver::on_query) — after **every counted task
//!   query**, from every method (Metam and all baselines route through the
//!   shared [`QueryEngine`](crate::engine::QueryEngine), which emits the
//!   event);
//! * [`on_round`](RunObserver::on_round) — after each outer round of
//!   Algorithm 1 (Metam only; baselines have no round structure);
//! * [`on_finish`](RunObserver::on_finish) — once, with the
//!   [`StopReason`].
//!
//! The CLI streams progress from these while a discover run is in flight;
//! benches record per-query trajectories without re-running searches.
//! Observation is passive — it never touches the RNG stream or the query
//! budget, so an observed run is bit-identical to an unobserved one.

use metam_discovery::CandidateId;

use crate::metam::StopReason;

/// Snapshot handed to [`RunObserver::on_round`] after each outer round.
#[derive(Debug, Clone)]
pub struct RoundEvent<'a> {
    /// 1-based outer round number.
    pub round: usize,
    /// Task queries spent so far (including certification overhead).
    pub queries: usize,
    /// Budget left (`usize::MAX` for an unbounded search).
    pub queries_remaining: usize,
    /// Best utility reached so far (max over the sequential and group
    /// solutions).
    pub best_utility: f64,
    /// Utility of the bare `Din`.
    pub base_utility: f64,
    /// The current best solution (ascending candidate ids).
    pub selected: &'a [CandidateId],
}

/// Which mechanism issued a query (the paper's blue-vs-red distinction,
/// plus the bookkeeping phases around the main loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Utility of the bare `Din` (or a baseline's starting point).
    Base,
    /// A sequential extension query: `u(Γ(D, T ∪ {P}))`.
    Sequential,
    /// A group query on a Thompson-sampled cluster subset.
    Group,
    /// A homogeneity-probe query (§IV-B "Generalization").
    Probe,
    /// A query issued by the IDENTIFY-MINIMAL post-check.
    Minimality,
}

impl QueryKind {
    /// Stable machine-readable label (trace events, metrics names).
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Base => "base",
            QueryKind::Sequential => "sequential",
            QueryKind::Group => "group",
            QueryKind::Probe => "probe",
            QueryKind::Minimality => "minimality",
        }
    }
}

/// Snapshot handed to [`RunObserver::on_query`] after every counted task
/// query (memo hits are free and emit nothing).
#[derive(Debug, Clone)]
pub struct QueryEvent<'a> {
    /// 1-based index of this query (equals queries spent so far).
    pub query: usize,
    /// Which mechanism issued it.
    pub kind: QueryKind,
    /// The evaluated candidate set (ascending ids).
    pub set: &'a [CandidateId],
    /// The candidate this query was extending the solution by, when the
    /// query came from an extend-style step (`None` for group/base/full-set
    /// evaluations).
    pub candidate: Option<CandidateId>,
    /// Raw utility of this evaluation (before any certification wrapper).
    pub utility: f64,
    /// Best utility seen so far, including this query.
    pub best_utility: f64,
    /// `utility` minus the best seen *before* this query (0.0 baseline for
    /// the first query); negative when the evaluation regressed.
    pub delta: f64,
    /// Wall-clock seconds this task evaluation took (0.0 when the engine
    /// ran untimed, i.e. no observer and no trace sink).
    pub duration_secs: f64,
    /// Budget left after this query (`usize::MAX` for unbounded).
    pub queries_remaining: usize,
}

/// Streaming callbacks from a running search.
///
/// All methods have no-op defaults, so an observer implements only what it
/// cares about. Closures `FnMut(&RoundEvent)` implement the trait directly:
///
/// ```
/// use metam_core::observer::{RoundEvent, RunObserver};
/// let mut rounds = 0usize;
/// let mut observer = |_e: &RoundEvent<'_>| rounds += 1;
/// // `&mut observer` can now be passed to `Metam::run` or `run_method`.
/// let _: &mut dyn RunObserver = &mut observer;
/// ```
pub trait RunObserver {
    /// The search is about to start: candidate count and cluster count
    /// (after any homogeneity fallback; 0 for baselines, which do not
    /// cluster).
    fn on_search_start(&mut self, n_candidates: usize, n_clusters: usize) {
        let _ = (n_candidates, n_clusters);
    }

    /// One counted task query was evaluated (any method, any phase).
    fn on_query(&mut self, event: &QueryEvent<'_>) {
        let _ = event;
    }

    /// One outer round of Algorithm 1 finished.
    fn on_round(&mut self, event: &RoundEvent<'_>) {
        let _ = event;
    }

    /// The search ended (after any minimality post-check).
    fn on_finish(&mut self, stop_reason: StopReason) {
        let _ = stop_reason;
    }
}

/// The do-nothing observer: pass `&mut NoopObserver` to run a search
/// unobserved.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl RunObserver for NoopObserver {}

impl<F: FnMut(&RoundEvent<'_>)> RunObserver for F {
    fn on_round(&mut self, event: &RoundEvent<'_>) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_observers_receive_rounds() {
        let mut seen = Vec::new();
        {
            let mut obs = |e: &RoundEvent<'_>| seen.push((e.round, e.queries));
            let observer: &mut dyn RunObserver = &mut obs;
            observer.on_search_start(10, 3);
            observer.on_round(&RoundEvent {
                round: 1,
                queries: 4,
                queries_remaining: 96,
                best_utility: 0.5,
                base_utility: 0.4,
                selected: &[2],
            });
            observer.on_finish(StopReason::ThetaReached);
        }
        assert_eq!(seen, vec![(1, 4)]);
    }

    #[test]
    fn query_kinds_have_stable_labels() {
        for (kind, label) in [
            (QueryKind::Base, "base"),
            (QueryKind::Sequential, "sequential"),
            (QueryKind::Group, "group"),
            (QueryKind::Probe, "probe"),
            (QueryKind::Minimality, "minimality"),
        ] {
            assert_eq!(kind.label(), label);
        }
    }
}
