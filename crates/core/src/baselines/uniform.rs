//! Uniform-sampling baseline (§II-C "Uniform sampling").

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::baselines::common::greedy_over_order;
use crate::engine::SearchInputs;
use crate::observer::RunObserver;
use crate::runner::RunResult;

/// Query candidates in a seeded uniformly random order.
pub(crate) fn run_uniform(
    inputs: &SearchInputs<'_>,
    theta: Option<f64>,
    max_queries: usize,
    seed: u64,
    observer: &mut dyn RunObserver,
) -> RunResult {
    let mut order: Vec<usize> = (0..inputs.candidates.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    greedy_over_order(inputs, &order, theta, max_queries, "Uniform", observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::LinearSyntheticTask;

    #[test]
    fn uniform_is_seed_deterministic() {
        let (din, candidates, mat) = fixture(8);
        let task = LinearSyntheticTask {
            base: 0.1,
            weights: vec![0.05; candidates.len()],
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
        let a = run_uniform(&inputs, None, 50, 3, &mut NoopObserver);
        let b = run_uniform(&inputs, None, 50, 3, &mut NoopObserver);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.queries, b.queries);
    }
}
