//! iARDA: ARDA \[37\] adapted to the interventional setting (§VI-A).
//!
//! ARDA joins candidate features and ranks them by random-injection
//! feature importance. iARDA queries augmentations in decreasing order of
//! that ranking. Like the original system, scoring is *batched*: candidate
//! columns are appended to `Din` a couple hundred at a time, a forest with
//! injected noise features is fitted per batch, and candidates are ranked
//! by their importance across batches.

use metam_ml::dataset::{encode_table, TargetKind};
use metam_ml::importance::injection_scores;
use metam_ml::tree::TreeTask;
use metam_table::sample::sample_indices;

use crate::baselines::common::greedy_over_order;
use crate::engine::SearchInputs;
use crate::observer::RunObserver;
use crate::runner::RunResult;

/// Batch size for importance scoring.
const BATCH: usize = 128;
/// Row sample used for scoring.
const SCORE_ROWS: usize = 300;

/// Compute the iARDA ranking (descending importance). Exposed for tests
/// and for Fig. 7's task-specific profile construction.
pub fn arda_ranking(inputs: &SearchInputs<'_>, classification: bool, seed: u64) -> Vec<usize> {
    let n = inputs.candidates.len();
    let Some(target) = inputs.target_column else {
        // Without a supervised target ARDA has nothing to rank on; fall
        // back to discovery-time containment.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            inputs.candidates[b]
                .discovered_containment
                .partial_cmp(&inputs.candidates[a].discovered_containment)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        return order;
    };

    let rows = sample_indices(inputs.din.nrows(), SCORE_ROWS, seed);
    let target_name = inputs.din.column_display_name(target);
    let kind = if classification {
        TargetKind::Classification
    } else {
        TargetKind::Regression
    };

    let mut scores = vec![0.0f64; n];
    let mut batch_start = 0;
    while batch_start < n {
        let batch_end = (batch_start + BATCH).min(n);
        // Din sample + this batch of materialized candidate columns.
        let mut table = inputs.din.take_rows(&rows);
        let mut members: Vec<usize> = Vec::new();
        for c in batch_start..batch_end {
            if let Ok(col) = inputs
                .materializer
                .materialize(inputs.din, &inputs.candidates[c])
            {
                if table.add_column(col.take(&rows)).is_ok() {
                    members.push(c);
                }
            }
        }
        if let Ok(data) = encode_table(&table, &target_name, kind) {
            if data.len() >= 10 {
                let task = if classification {
                    TreeTask::Classification {
                        n_classes: data.n_classes.unwrap_or(2).max(2),
                    }
                } else {
                    TreeTask::Regression
                };
                let inj = injection_scores(&data, task, 4, seed ^ batch_start as u64);
                // The batch's candidate columns are the trailing features.
                let offset = data.n_features() - members.len();
                for (k, &c) in members.iter().enumerate() {
                    scores[c] = inj[offset + k].importance;
                }
            }
        }
        batch_start = batch_end;
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Run the iARDA baseline: greedy querying in ARDA-importance order (the
/// importance-ranking phase itself spends no task queries and emits
/// nothing).
pub(crate) fn run_iarda(
    inputs: &SearchInputs<'_>,
    theta: Option<f64>,
    max_queries: usize,
    classification: bool,
    seed: u64,
    observer: &mut dyn RunObserver,
) -> RunResult {
    let order = {
        let _span = metam_obs::span("baseline.arda_ranking", "iARDA");
        arda_ranking(inputs, classification, seed)
    };
    greedy_over_order(inputs, &order, theta, max_queries, "iARDA", observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::LinearSyntheticTask;

    #[test]
    fn fallback_ranking_without_target_uses_containment() {
        let (din, candidates, mat) = fixture(4);
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.0; candidates.len()],
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
        let order = arda_ranking(&inputs, true, 0);
        assert_eq!(order.len(), candidates.len());
    }

    #[test]
    fn informative_column_ranks_early() {
        let (din, candidates, mat) = fixture(6);
        // Din's y column (index 1) is i; candidate columns are i*(t+1) — all
        // perfectly informative for predicting y. Rank with regression: all
        // should get nonzero importance and the ranking must be well-formed.
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.0; candidates.len()],
        };
        let profiles = vec![vec![0.5]; candidates.len()];
        let names = vec!["p".to_string()];
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
        let order = arda_ranking(&inputs, false, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..candidates.len()).collect::<Vec<_>>());
    }

    #[test]
    fn iarda_runs_to_completion() {
        let (din, candidates, mat) = fixture(5);
        let mut weights = vec![0.0; candidates.len()];
        weights[0] = 0.4;
        let task = LinearSyntheticTask { base: 0.3, weights };
        let profiles = vec![vec![0.5]; candidates.len()];
        let names = vec!["p".to_string()];
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
        let r = run_iarda(&inputs, Some(0.65), 100, false, 0, &mut NoopObserver);
        assert!(r.utility >= 0.65, "u={}", r.utility);
        assert_eq!(r.method, "iARDA");
    }
}
