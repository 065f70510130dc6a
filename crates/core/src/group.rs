//! The group-querying mechanism (IDENTIFY-GROUP, §IV-B).
//!
//! Builds size-`t` candidate subsets by Thompson-sampling `t` clusters and
//! drawing one random member from each. `t` starts at 1 and escalates once
//! all (practically: a capped number of) size-`t` groups have been queried,
//! implementing P1's small-subsets-first combinatorial testing.

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::bandit::ThompsonSampler;
use crate::cluster::Clustering;

/// State of the group mechanism across the search.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Current subset size `t`.
    pub t: usize,
    /// Distinct size-`t` groups already queried.
    tried: BTreeSet<Vec<usize>>,
    /// Practical cap on groups per size before escalating `t`.
    cap: usize,
}

/// `C(n, k)` with saturation.
fn binomial_saturating(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut result: usize = 1;
    for i in 0..k {
        result = result.saturating_mul(n - i) / (i + 1);
        if result == usize::MAX {
            return usize::MAX;
        }
    }
    result
}

impl GroupState {
    /// New state with subset size 1 and a per-size group cap.
    pub fn new(cap: usize) -> GroupState {
        GroupState {
            t: 1,
            tried: BTreeSet::new(),
            cap: cap.max(1),
        }
    }

    /// Propose the next group of candidates, or `None` when no fresh group
    /// can be built (e.g. every candidate shares one cluster and t > 1).
    ///
    /// Escalates `t` when the per-size budget — `min(C(|C|, t), cap)` —
    /// is exhausted ("the value of t is increased when all sets of size
    /// less than t have been queried").
    pub fn propose<R: Rng>(
        &mut self,
        clustering: &Clustering,
        sampler: &ThompsonSampler,
        rng: &mut R,
    ) -> Option<Vec<usize>> {
        let n_clusters = clustering.len();
        if n_clusters == 0 {
            return None;
        }
        // Escalate when this size's budget is exhausted.
        let budget = binomial_saturating(n_clusters, self.t).min(self.cap);
        if self.tried.len() >= budget {
            if self.t >= n_clusters {
                return None;
            }
            self.t += 1;
            self.tried.clear();
        }

        // A few attempts to find an unseen group; sampling is cheap.
        for _ in 0..8 {
            let arms = sampler.sample_top(self.t.min(n_clusters), rng);
            let mut group: Vec<usize> = arms
                .iter()
                .filter_map(|&cluster| clustering.clusters[cluster].choose(rng).copied())
                .collect();
            group.sort_unstable();
            group.dedup();
            if group.is_empty() {
                return None;
            }
            if self.tried.insert(group.clone()) {
                return Some(group);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial_saturating(5, 2), 10);
        assert_eq!(binomial_saturating(4, 0), 1);
        assert_eq!(binomial_saturating(3, 5), 0);
    }

    #[test]
    fn proposes_singletons_first() {
        let clustering = Clustering::singletons(4);
        let sampler = ThompsonSampler::new(4);
        let mut state = GroupState::new(100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let g = state.propose(&clustering, &sampler, &mut rng).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(state.t, 1);
    }

    #[test]
    fn escalates_t_after_exhausting_singletons() {
        let clustering = Clustering::singletons(3);
        let sampler = ThompsonSampler::new(3);
        let mut state = GroupState::new(100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut seen_sizes = Vec::new();
        for _ in 0..10 {
            if let Some(g) = state.propose(&clustering, &sampler, &mut rng) {
                seen_sizes.push(g.len());
            }
        }
        assert!(seen_sizes.contains(&1));
        assert!(seen_sizes.contains(&2), "t must escalate: {seen_sizes:?}");
    }

    #[test]
    fn groups_are_distinct_per_size() {
        let clustering = Clustering::singletons(5);
        let sampler = ThompsonSampler::new(5);
        let mut state = GroupState::new(5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut groups = Vec::new();
        for _ in 0..5 {
            if let Some(g) = state.propose(&clustering, &sampler, &mut rng) {
                if g.len() == 1 {
                    groups.push(g);
                }
            }
        }
        let mut dedup = groups.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), groups.len());
    }

    #[test]
    fn empty_clustering_returns_none() {
        let clustering = crate::cluster::cluster_partition(&[], 0.05, 0);
        let sampler = ThompsonSampler::new(0);
        let mut state = GroupState::new(10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(state.propose(&clustering, &sampler, &mut rng).is_none());
    }
}
