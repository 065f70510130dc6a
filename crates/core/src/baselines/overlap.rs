//! Overlap-ranking baseline (§II-C "Join Path overlap ranking", as in
//! S4 \[14\] and Ver \[22\]).

use crate::baselines::common::greedy_over_order;
use crate::engine::SearchInputs;
use crate::observer::RunObserver;
use crate::runner::RunResult;

/// Query candidates in non-increasing order of join overlap with `Din`.
///
/// Uses the `overlap` profile coordinate when the profile set computed one,
/// otherwise the containment estimated at discovery time.
pub(crate) fn run_overlap(
    inputs: &SearchInputs<'_>,
    theta: Option<f64>,
    max_queries: usize,
    observer: &mut dyn RunObserver,
) -> RunResult {
    let overlap_idx = inputs.profile_names.iter().position(|n| n == "overlap");
    let score = |c: usize| -> f64 {
        match overlap_idx {
            Some(i) => inputs.profiles[c].get(i).copied().unwrap_or(0.0),
            None => inputs.candidates[c].discovered_containment,
        }
    };
    let mut order: Vec<usize> = (0..inputs.candidates.len()).collect();
    order.sort_by(|&a, &b| {
        score(b)
            .partial_cmp(&score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    greedy_over_order(inputs, &order, theta, max_queries, "Overlap", observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::LinearSyntheticTask;

    #[test]
    fn overlap_order_queries_full_join_first() {
        let (din, candidates, mat) = fixture(4);
        // Give the useful augmentation a *low* overlap so Overlap finds it late.
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.0; candidates.len()],
        };
        let mut profiles = vec![vec![0.9]; candidates.len()];
        profiles[2] = vec![0.1];
        let names = vec!["overlap".to_string()];
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
        // Budget of 1: only the top-overlap candidate gets queried, and it
        // must not be candidate 2.
        let r = run_overlap(&inputs, None, 2, &mut NoopObserver);
        assert_eq!(r.queries, 2, "base + one candidate");
        assert!(!r.selected.contains(&2));
    }
}
