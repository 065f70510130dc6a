//! The shared greedy-acceptance skeleton.

use std::collections::BTreeSet;

use metam_discovery::CandidateId;

use crate::engine::{QueryEngine, QueryPlan, SearchInputs, StopSearch};
use crate::metam::StopReason;
use crate::observer::{QueryKind, RunObserver};
use crate::runner::RunResult;

/// Greedily query candidates in the given order: each candidate is tried as
/// an extension of the current solution and kept iff utility strictly
/// improves. Stops at θ, budget exhaustion, or end of order. Per-query
/// events flow from the shared engine to `observer`, and the run's
/// [`StopReason`] reaches [`RunObserver::on_finish`].
pub(crate) fn greedy_over_order(
    inputs: &SearchInputs<'_>,
    order: &[CandidateId],
    theta: Option<f64>,
    max_queries: usize,
    method: &str,
    observer: &mut dyn RunObserver,
) -> RunResult {
    let mut engine = QueryEngine::observed(inputs, max_queries, observer);
    engine.notify_search_start(inputs.candidates.len(), 0);
    let mut selected: BTreeSet<CandidateId> = BTreeSet::new();
    let mut utility = 0.0;
    let mut base_utility = 0.0;

    let outcome = (|| -> Result<(), StopSearch> {
        base_utility = engine.base_utility()?;
        utility = base_utility;
        // Scan a worker-pool window at a time: the window's extensions of
        // the *current* solution prefetch concurrently, then commit in
        // order. An acceptance changes the base, so the rest of the window
        // is discarded and re-planned — identical decisions to the
        // one-at-a-time loop, whatever the thread count.
        let mut pos = 0;
        'scan: while pos < order.len() {
            if theta.is_some_and(|t| utility >= t) {
                break;
            }
            let window_end = order.len().min(pos + engine.threads());
            let plans: Vec<QueryPlan> = order[pos..window_end]
                .iter()
                .map(|&c| QueryPlan::extend(QueryKind::Sequential, &selected, c))
                .collect();
            engine.prefetch(&plans);
            for plan in &plans {
                let raw = engine.evaluate(plan)?;
                pos += 1;
                if raw > utility {
                    selected = plan.set.clone();
                    utility = raw;
                    continue 'scan;
                }
            }
        }
        Ok(())
    })();
    // Budget exhaustion just truncates the scan; the reason is still
    // reported.
    let reason = stop_reason_of(outcome, theta, utility);
    engine.finish(method, selected, utility, base_utility, reason)
}

/// Why a baseline scan ended: θ if it got there, budget if the engine cut
/// it off, otherwise it ran out of candidates.
pub(crate) fn stop_reason_of(
    outcome: Result<(), StopSearch>,
    theta: Option<f64>,
    utility: f64,
) -> StopReason {
    if theta.is_some_and(|t| utility >= t) {
        StopReason::ThetaReached
    } else if outcome.is_err() {
        StopReason::BudgetExhausted
    } else {
        StopReason::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::LinearSyntheticTask;

    #[test]
    fn greedy_accepts_only_improvements() {
        let (din, candidates, mat) = fixture(5);
        let mut weights = vec![0.0; candidates.len()];
        weights[2] = 0.3;
        weights[4] = 0.2;
        let task = LinearSyntheticTask { base: 0.1, weights };
        let profiles = vec![vec![0.5]; candidates.len()];
        let names = vec!["p".to_string()];
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &names,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let order: Vec<usize> = (0..candidates.len()).collect();
        let r = greedy_over_order(&inputs, &order, None, 1000, "test", &mut NoopObserver);
        assert_eq!(r.selected, vec![2, 4]);
        assert!((r.utility - 0.6).abs() < 1e-9);
        assert!((r.base_utility - 0.1).abs() < 1e-9);
    }

    #[test]
    fn theta_short_circuits() {
        let (din, candidates, mat) = fixture(5);
        let task = LinearSyntheticTask {
            base: 0.1,
            weights: vec![0.5; candidates.len()],
        };
        let profiles = vec![vec![0.5]; candidates.len()];
        let names = vec!["p".to_string()];
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &names,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let order: Vec<usize> = (0..candidates.len()).collect();
        let r = greedy_over_order(&inputs, &order, Some(0.55), 1000, "test", &mut NoopObserver);
        assert_eq!(r.selected.len(), 1, "first candidate already clears θ");
    }
}
