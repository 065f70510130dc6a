//! Join-Everything baseline (§II-C): one query with every candidate joined.

use std::collections::BTreeSet;

use crate::engine::{QueryEngine, SearchInputs};
use crate::metam::StopReason;
use crate::observer::RunObserver;
use crate::runner::RunResult;

/// Augment `Din` with *all* candidates and query once. Cheap in queries,
/// expensive in width, and vulnerable to irrelevant/erroneous columns —
/// exactly the failure mode the paper describes.
pub(crate) fn run_join_all(
    inputs: &SearchInputs<'_>,
    max_queries: usize,
    observer: &mut dyn RunObserver,
) -> RunResult {
    let mut engine = QueryEngine::observed(inputs, max_queries, observer);
    engine.notify_search_start(inputs.candidates.len(), 0);
    let base = engine.base_utility();
    let base_utility = base.unwrap_or(0.0);
    let all: BTreeSet<usize> = (0..inputs.candidates.len()).collect();
    let joined = engine.utility_of(&all);
    let utility = joined.unwrap_or(base_utility);
    let reason = if base.is_err() || joined.is_err() {
        StopReason::BudgetExhausted
    } else {
        StopReason::Exhausted
    };
    engine.finish("JoinAll", all, utility, base_utility, reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::{LinearSyntheticTask, NonMonotoneTask};

    #[test]
    fn join_all_uses_two_queries() {
        let (din, candidates, mat) = fixture(5);
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.1; candidates.len()],
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
        let r = run_join_all(&inputs, 10, &mut NoopObserver);
        assert_eq!(r.queries, 2);
        assert_eq!(r.selected.len(), candidates.len());
    }

    #[test]
    fn join_all_suffers_from_harmful_columns() {
        let (din, candidates, mat) = fixture(5);
        let mut deltas = vec![-0.1; candidates.len()];
        deltas[0] = 0.3;
        let task = NonMonotoneTask { base: 0.5, deltas };
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
        let r = run_join_all(&inputs, 10, &mut NoopObserver);
        assert!(r.utility < 0.5 + 0.3, "harmful columns drag the blob down");
    }
}
