//! Randomized multiplicative-weights baseline (§III-A "Prediction from
//! expert advice", \[28\]).
//!
//! Each data profile is an *expert* that ranks candidates by its own value.
//! Every round an expert is drawn with probability proportional to its
//! weight and proposes its best not-yet-queried candidate; the weight is
//! multiplied up on success (utility improved) and down on failure. This is
//! the randomized MW variant the paper evaluates; its §VI-A weakness —
//! one profile per decision, no profile *combinations* — is inherited
//! faithfully.

use std::collections::BTreeSet;

use rand::Rng;
use rand::SeedableRng;

use crate::baselines::common::stop_reason_of;
use crate::engine::{QueryEngine, SearchInputs, StopSearch};
use crate::observer::RunObserver;
use crate::runner::RunResult;

/// Multiplicative update factor.
const ETA: f64 = 0.3;

/// Run the MW baseline.
pub(crate) fn run_mw(
    inputs: &SearchInputs<'_>,
    theta: Option<f64>,
    max_queries: usize,
    seed: u64,
    observer: &mut dyn RunObserver,
) -> RunResult {
    let n = inputs.candidates.len();
    let l = inputs.profile_names.len().max(1);
    let mut engine = QueryEngine::observed(inputs, max_queries, observer);
    engine.notify_search_start(n, 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // Expert rankings: candidates in descending profile value (ties → id).
    let rankings: Vec<Vec<usize>> = (0..l)
        .map(|p| {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let va = inputs.profiles[a].get(p).copied().unwrap_or(0.0);
                let vb = inputs.profiles[b].get(p).copied().unwrap_or(0.0);
                vb.partial_cmp(&va)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order
        })
        .collect();
    let mut cursors = vec![0usize; l];
    let mut weights = vec![1.0f64; l];
    let mut queried: Vec<bool> = vec![false; n];

    let mut selected: BTreeSet<usize> = BTreeSet::new();
    let mut utility = 0.0;
    let mut base_utility = 0.0;

    let outcome = (|| -> Result<(), StopSearch> {
        base_utility = engine.base_utility()?;
        utility = base_utility;
        let mut remaining = n;
        while remaining > 0 {
            if theta.is_some_and(|t| utility >= t) {
                break;
            }
            // Draw an expert ∝ weight.
            let total: f64 = weights.iter().sum();
            let mut draw = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut expert = 0;
            for (i, &w) in weights.iter().enumerate() {
                if draw < w {
                    expert = i;
                    break;
                }
                draw -= w;
            }
            // The expert proposes its best unqueried candidate.
            let mut proposal = None;
            while cursors[expert] < n {
                let c = rankings[expert][cursors[expert]];
                if !queried[c] {
                    proposal = Some(c);
                    break;
                }
                cursors[expert] += 1;
            }
            let Some(c) = proposal else {
                // This expert exhausted its list; retire it.
                weights[expert] = 0.0;
                if weights.iter().all(|&w| w <= 0.0) {
                    break;
                }
                continue;
            };
            queried[c] = true;
            remaining -= 1;
            let (raw, _, _) = engine.utility_extend(&selected, c, false)?;
            let success = raw > utility;
            if success {
                selected.insert(c);
                utility = raw;
            }
            // Multiplicative update, kept in a sane range.
            weights[expert] =
                (weights[expert] * if success { 1.0 + ETA } else { 1.0 - ETA }).clamp(1e-6, 1e6);
        }
        Ok(())
    })();
    let reason = stop_reason_of(outcome, theta, utility);
    engine.finish("MW", selected, utility, base_utility, reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::LinearSyntheticTask;

    #[test]
    fn mw_follows_the_informative_expert() {
        let (din, candidates, mat) = fixture(10);
        let n = candidates.len();
        // Candidate 7 is the useful one; profile 0 ranks it on top, profile 1
        // ranks it last.
        let mut weights = vec![0.0; n];
        weights[7] = 0.5;
        let task = LinearSyntheticTask { base: 0.2, weights };
        let profiles: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    if i == 7 { 1.0 } else { 0.1 },
                    if i == 7 { 0.0 } else { 0.9 },
                ]
            })
            .collect();
        let names = vec!["good".to_string(), "bad".to_string()];
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
        let r = run_mw(&inputs, Some(0.65), 100, 1, &mut NoopObserver);
        assert!(r.selected.contains(&7), "selected={:?}", r.selected);
        assert!(r.utility >= 0.65);
    }

    #[test]
    fn mw_terminates_when_all_queried() {
        let (din, candidates, mat) = fixture(4);
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.0; candidates.len()],
        };
        let profiles = vec![vec![0.5, 0.5]; candidates.len()];
        let names = vec!["a".to_string(), "b".to_string()];
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
        let r = run_mw(&inputs, Some(0.99), 1000, 2, &mut NoopObserver);
        assert_eq!(
            r.queries,
            candidates.len() + 1,
            "every candidate tried once + base"
        );
    }
}
