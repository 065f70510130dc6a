//! CLUSTER-PARTITION (paper Algorithm 2): greedy k-center ε-cover.
//!
//! Gonzalez's farthest-point heuristic, run until every candidate lies
//! within L∞ distance ε of its center. Lemma 2 bounds the number of centers
//! by O(1/ε^l); the `fig6` binary checks the linear-in-n runtime claim of Fig. 6.

use metam_profile::linf_distance;

/// A partition of candidates into ε-radius clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Candidate index of each cluster's center, in creation order.
    pub centers: Vec<usize>,
    /// `assignment[i]` = cluster index of candidate `i`.
    pub assignment: Vec<usize>,
    /// Members per cluster (sorted).
    pub clusters: Vec<Vec<usize>>,
    /// Distance of each candidate to its center.
    pub distances: Vec<f64>,
}

impl Clustering {
    /// Number of clusters (`|C|`).
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// `true` when there are no clusters (no candidates).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Cluster index of a candidate.
    pub fn cluster_of(&self, candidate: usize) -> usize {
        self.assignment[candidate]
    }

    /// Achieved radius (max distance of any candidate to its center).
    pub fn radius(&self) -> f64 {
        self.distances.iter().copied().fold(0.0, f64::max)
    }

    /// Degenerate clustering with every candidate its own cluster (the `Nc`
    /// ablation variant / the fallback when homogeneity fails).
    pub fn singletons(n: usize) -> Clustering {
        Clustering {
            centers: (0..n).collect(),
            assignment: (0..n).collect(),
            clusters: (0..n).map(|i| vec![i]).collect(),
            distances: vec![0.0; n],
        }
    }
}

/// Greedy k-center until every point is within `epsilon` of a center.
///
/// The first center is the candidate with index `seed % n` ("choose
/// random" in the paper; we make the draw explicit and reproducible).
/// Subsequent centers are the farthest point from its center, ties broken
/// by the smallest index.
pub fn cluster_partition(profiles: &[Vec<f64>], epsilon: f64, seed: u64) -> Clustering {
    let n = profiles.len();
    if n == 0 {
        return Clustering {
            centers: Vec::new(),
            assignment: Vec::new(),
            clusters: Vec::new(),
            distances: Vec::new(),
        };
    }
    let first = (seed % n as u64) as usize;
    let mut centers = vec![first];
    let mut assignment = vec![0usize; n];
    let mut distances: Vec<f64> = profiles
        .iter()
        .map(|p| linf_distance(p, &profiles[first]))
        .collect();

    loop {
        // Farthest candidate from its center.
        let (far_idx, far_dist) = distances.iter().copied().enumerate().fold(
            (0usize, f64::NEG_INFINITY),
            |(bi, bd), (i, d)| {
                if d > bd {
                    (i, d)
                } else {
                    (bi, bd)
                }
            },
        );
        if far_dist <= epsilon {
            break;
        }
        let new_center = centers.len();
        centers.push(far_idx);
        // Reassign: only points closer to the new center move.
        for i in 0..n {
            let d = linf_distance(&profiles[i], &profiles[far_idx]);
            if d < distances[i] {
                distances[i] = d;
                assignment[i] = new_center;
            }
        }
    }

    let mut clusters = vec![Vec::new(); centers.len()];
    for (i, &c) in assignment.iter().enumerate() {
        clusters[c].push(i);
    }
    Clustering {
        centers,
        assignment,
        clusters,
        distances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push(vec![0.1 + (i as f64) * 0.002, 0.1]);
        }
        for i in 0..10 {
            v.push(vec![0.9 - (i as f64) * 0.002, 0.9]);
        }
        v
    }

    #[test]
    fn blobs_form_two_clusters() {
        let c = cluster_partition(&two_blobs(), 0.05, 0);
        assert_eq!(c.len(), 2);
        // Every member of each blob shares a cluster.
        let first = c.cluster_of(0);
        assert!((0..10).all(|i| c.cluster_of(i) == first));
        let second = c.cluster_of(10);
        assert!((10..20).all(|i| c.cluster_of(i) == second));
        assert_ne!(first, second);
    }

    #[test]
    fn radius_respects_epsilon() {
        let c = cluster_partition(&two_blobs(), 0.05, 3);
        assert!(c.radius() <= 0.05 + 1e-12);
    }

    #[test]
    fn epsilon_zero_gives_singletons_for_distinct_points() {
        let profiles: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 / 10.0]).collect();
        let c = cluster_partition(&profiles, 0.0, 1);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn huge_epsilon_gives_one_cluster() {
        let c = cluster_partition(&two_blobs(), 2.0, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].len(), 20);
    }

    #[test]
    fn clusters_partition_the_candidates() {
        let c = cluster_partition(&two_blobs(), 0.05, 7);
        let mut all: Vec<usize> = c.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = two_blobs();
        assert_eq!(
            cluster_partition(&p, 0.05, 9),
            cluster_partition(&p, 0.05, 9)
        );
    }

    #[test]
    fn singletons_helper() {
        let c = Clustering::singletons(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.cluster_of(2), 2);
        assert_eq!(c.radius(), 0.0);
    }

    #[test]
    fn empty_input_is_safe() {
        let c = cluster_partition(&[], 0.1, 0);
        assert!(c.is_empty());
    }
}
