//! Clustering task (§VI-A.4 "Clustering").
//!
//! The task clusters the rows (seeded k-means over all numeric columns,
//! each min-max normalized) and scores the clustering against the
//! ground-truth categories by *purity*. The paper's ONI augmentation is
//! "highly correlated with the ground-truth clusters and therefore helps
//! to improve clustering quality" — with purity as the quality metric,
//! a category-aligned augmentation lifts utility and noise does not.

use metam_core::Task;
use metam_table::sample::splitmix64;
use metam_table::Table;

use crate::util::numeric_columns;

/// k-means + purity clustering task.
pub struct ClusteringTask {
    /// Number of clusters.
    pub k: usize,
    /// Ground-truth category per row (the evaluation harness's labels).
    pub truth: Vec<usize>,
    /// Seed for the k-means++ initialization.
    pub seed: u64,
}

impl ClusteringTask {
    /// New clustering task.
    pub fn new(k: usize, truth: Vec<usize>) -> ClusteringTask {
        ClusteringTask {
            k: k.max(1),
            truth,
            seed: 0,
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means with several seeded restarts; keeps the assignment with the
/// lowest within-cluster sum of squares (Lloyd gets stuck in local minima
/// on mixed tight/noisy dimensions otherwise).
pub(crate) fn kmeans(points: &[Vec<f64>], k: usize, seed: u64, iters: usize) -> Vec<usize> {
    let mut best: Option<(f64, Vec<usize>)> = None;
    for restart in 0..8u64 {
        let assignment = kmeans_once(points, k, seed ^ (restart.wrapping_mul(0x9E37)), iters);
        let cost = wcss(points, &assignment, k);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, assignment));
        }
    }
    best.map(|(_, a)| a).unwrap_or_default()
}

/// Within-cluster sum of squares for an assignment.
fn wcss(points: &[Vec<f64>], assignment: &[usize], k: usize) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let dims = points[0].len();
    let mut sums = vec![vec![0.0; dims]; k.max(1)];
    let mut counts = vec![0usize; k.max(1)];
    for (p, &a) in points.iter().zip(assignment) {
        counts[a] += 1;
        for (s, &v) in sums[a].iter_mut().zip(p) {
            *s += v;
        }
    }
    let centers: Vec<Vec<f64>> = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| {
            s.iter()
                .map(|v| if c > 0 { v / c as f64 } else { 0.0 })
                .collect()
        })
        .collect();
    points
        .iter()
        .zip(assignment)
        .map(|(p, &a)| sq_dist(p, &centers[a]))
        .sum()
}

/// One deterministic k-means++ initialization followed by Lloyd iterations;
/// returns the cluster assignment per point.
fn kmeans_once(points: &[Vec<f64>], k: usize, seed: u64, iters: usize) -> Vec<usize> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let mut state = seed ^ 0xC0FFEE;
    // k-means++: first center random, next ∝ squared distance.
    let mut centers: Vec<Vec<f64>> = vec![points[(splitmix64(&mut state) as usize) % n].clone()];
    let mut d2: Vec<f64> = points.iter().map(|p| sq_dist(p, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            (splitmix64(&mut state) as usize) % n
        } else {
            let mut draw = (splitmix64(&mut state) as f64 / u64::MAX as f64) * total;
            let mut idx = 0;
            for (i, &d) in d2.iter().enumerate() {
                if draw < d {
                    idx = i;
                    break;
                }
                draw -= d;
                idx = i;
            }
            idx
        };
        let center = points[next].clone();
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(sq_dist(p, &center));
        }
        centers.push(center);
    }

    let dims = points[0].len();
    let mut assignment = vec![0usize; n];
    for _ in 0..iters {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d = sq_dist(p, center);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centers.
        let mut sums = vec![vec![0.0; dims]; centers.len()];
        let mut counts = vec![0usize; centers.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, &v) in sums[assignment[i]].iter_mut().zip(p) {
                *s += v;
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            if counts[c] > 0 {
                for (coord, s) in center.iter_mut().zip(&sums[c]) {
                    *coord = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    assignment
}

/// Purity: Σ over clusters of the majority-category count, over n.
pub(crate) fn purity(assignment: &[usize], truth: &[usize], k: usize) -> f64 {
    if assignment.is_empty() || assignment.len() != truth.len() {
        return 0.0;
    }
    let n_cats = truth.iter().copied().max().unwrap_or(0) + 1;
    let mut counts = vec![vec![0usize; n_cats]; k.max(1)];
    for (&a, &t) in assignment.iter().zip(truth) {
        if a < counts.len() && t < n_cats {
            counts[a][t] += 1;
        }
    }
    let majority: usize = counts
        .iter()
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .sum();
    majority as f64 / assignment.len() as f64
}

/// Mean silhouette coefficient of an assignment (Euclidean distances).
/// Scale-free, so it can arbitrate between feature subspaces.
pub(crate) fn silhouette(points: &[Vec<f64>], assignment: &[usize], k: usize) -> f64 {
    let n = points.len();
    if n < 3 || k < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for i in 0..n {
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = sq_dist(&points[i], &points[j]).sqrt();
            sums[assignment[j]] += d;
            counts[assignment[j]] += 1;
        }
        let own = assignment[i];
        if counts[own] == 0 {
            continue;
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        total += (b - a) / a.max(b).max(1e-12);
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Min-max normalize each column to `[0, 1]`.
fn normalize_columns(columns: &[Vec<f64>]) -> Vec<Vec<f64>> {
    columns
        .iter()
        .map(|col| {
            let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let span = (hi - lo).max(1e-12);
            col.iter().map(|v| (v - lo) / span).collect()
        })
        .collect()
}

/// Cluster over the candidate feature subspaces — every single column,
/// plus all columns together — and keep the subspace whose k-means
/// clustering has the best (scale-free) silhouette. Standard practice when
/// some attributes are cluster-informative and others are noise. Returns
/// `(silhouette, assignment)` of the winner.
fn best_subspace_clustering(
    normalized: &[Vec<f64>],
    k: usize,
    seed: u64,
) -> Option<(f64, Vec<usize>)> {
    let n = normalized.first().map_or(0, Vec::len);
    let mut subspaces: Vec<Vec<usize>> = (0..normalized.len()).map(|i| vec![i]).collect();
    if normalized.len() > 1 {
        subspaces.push((0..normalized.len()).collect());
    }
    let mut best: Option<(f64, Vec<usize>)> = None;
    for subspace in subspaces {
        let points: Vec<Vec<f64>> = (0..n)
            .map(|r| subspace.iter().map(|&c| normalized[c][r]).collect())
            .collect();
        let assignment = kmeans(&points, k, seed, 25);
        let score = silhouette(&points, &assignment, k);
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, assignment));
        }
    }
    best
}

impl Task for ClusteringTask {
    fn name(&self) -> &str {
        "clustering"
    }

    fn utility(&self, table: &Table) -> f64 {
        let (columns, _names) = numeric_columns(table);
        if columns.is_empty() || columns[0].len() != self.truth.len() {
            return 0.0;
        }
        let normalized = normalize_columns(&columns);
        match best_subspace_clustering(&normalized, self.k, self.seed) {
            Some((_, assignment)) => purity(&assignment, &self.truth, self.k),
            None => 0.0,
        }
    }
}

/// Unsupervised clustering-fit task: no ground-truth labels required, so it
/// runs over any real lake (the ROADMAP's "expose clustering once it can
/// run without planted truth"). Utility is the silhouette coefficient of
/// the best-separating feature subspace, mapped from `[-1, 1]` to `[0, 1]`
/// — augmenting a column that carves the rows into `k` crisp groups lifts
/// it, noise does not.
pub struct ClusteringFitTask {
    /// Number of clusters.
    pub k: usize,
    /// Seed for the k-means++ initialization.
    pub seed: u64,
}

impl ClusteringFitTask {
    /// New unsupervised clustering task with `k` clusters.
    pub fn new(k: usize, seed: u64) -> ClusteringFitTask {
        ClusteringFitTask { k: k.max(2), seed }
    }
}

impl Task for ClusteringFitTask {
    fn name(&self) -> &str {
        "clustering-fit"
    }

    fn utility(&self, table: &Table) -> f64 {
        let (columns, _names) = numeric_columns(table);
        if columns.is_empty() || columns[0].len() < 3 {
            return 0.0;
        }
        let normalized = normalize_columns(&columns);
        match best_subspace_clustering(&normalized, self.k, self.seed) {
            Some((silhouette, _)) => ((silhouette + 1.0) / 2.0).clamp(0.0, 1.0),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_datagen::clustering::{build_clustering, ClusteringConfig};
    use metam_table::join::left_join_column;

    #[test]
    fn kmeans_separates_two_blobs() {
        let mut points = Vec::new();
        for i in 0..20 {
            points.push(vec![0.1 + (i as f64) * 0.001]);
            points.push(vec![0.9 - (i as f64) * 0.001]);
        }
        let a = kmeans(&points, 2, 0, 20);
        // All even indices (blob 1) share a cluster, odd indices the other.
        assert!(a.chunks(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn purity_perfect_and_chance() {
        let truth = vec![0, 0, 1, 1];
        assert_eq!(purity(&[0, 0, 1, 1], &truth, 2), 1.0);
        assert_eq!(
            purity(&[1, 1, 0, 0], &truth, 2),
            1.0,
            "label permutation is fine"
        );
        assert_eq!(purity(&[0, 0, 0, 0], &truth, 2), 0.5);
    }

    fn scenario_utilities() -> (f64, f64, f64) {
        let s = build_clustering(&ClusteringConfig::default());
        let metam_datagen::TaskSpec::Clustering { k, truth } = &s.spec else {
            panic!()
        };
        let task = ClusteringTask::new(*k, truth.clone());
        let base = task.utility(&s.din);

        let oni = s
            .tables
            .iter()
            .find(|t| t.name == "nutrient_intake")
            .unwrap();
        let col = left_join_column(&s.din, 0, oni, 0, oni.column_index("oni_score").unwrap())
            .unwrap()
            .with_name("aug0_oni");
        let boosted = task.utility(&s.din.with_column(col).unwrap());

        let noisy = s
            .tables
            .iter()
            .find(|t| t.name.starts_with("pantry_"))
            .unwrap();
        let vc = noisy
            .columns()
            .iter()
            .position(|c| c.name.as_deref().is_some_and(|n| n.starts_with("shelf_")))
            .unwrap();
        let ncol = left_join_column(&s.din, 0, noisy, 0, vc)
            .unwrap()
            .with_name("aug1_shelf");
        let noised = task.utility(&s.din.with_column(ncol).unwrap());
        (base, boosted, noised)
    }

    #[test]
    fn oni_augmentation_lifts_purity() {
        let (base, boosted, _) = scenario_utilities();
        assert!(base < 0.75, "satiety alone clusters poorly: {base}");
        assert!(
            boosted > base + 0.15,
            "ONI must help: base={base} boosted={boosted}"
        );
        assert!(boosted > 0.9, "ONI nearly solves it: {boosted}");
    }

    #[test]
    fn noise_augmentation_does_not_help() {
        let (base, _, noised) = scenario_utilities();
        assert!(
            noised <= base + 0.1,
            "noise must not look useful: base={base} noised={noised}"
        );
    }

    #[test]
    fn unsupervised_fit_rewards_separating_augmentation() {
        // Same scenario, but scored without any planted truth: the ONI
        // column separates the rows into crisp clusters, so the silhouette
        // utility must rise; a noisy shelf column must not beat it.
        let s = build_clustering(&ClusteringConfig::default());
        let metam_datagen::TaskSpec::Clustering { k, .. } = &s.spec else {
            panic!()
        };
        let task = ClusteringFitTask::new(*k, 0);
        let base = task.utility(&s.din);
        assert!((0.0..=1.0).contains(&base));

        let oni = s
            .tables
            .iter()
            .find(|t| t.name == "nutrient_intake")
            .unwrap();
        let col = left_join_column(&s.din, 0, oni, 0, oni.column_index("oni_score").unwrap())
            .unwrap()
            .with_name("aug0_oni");
        let boosted = task.utility(&s.din.with_column(col).unwrap());
        assert!(
            boosted > base + 0.05,
            "a crisply clustered augmentation must lift the fit: base={base} boosted={boosted}"
        );
        assert!((0.0..=1.0).contains(&boosted));
    }

    #[test]
    fn unsupervised_fit_handles_degenerate_tables() {
        use metam_table::{Column, Table};
        let task = ClusteringFitTask::new(3, 1);
        let empty = Table::from_columns(
            "t",
            vec![Column::from_strings(
                Some("s".into()),
                vec![Some("a".into()), Some("b".into())],
            )],
        )
        .unwrap();
        assert_eq!(task.utility(&empty), 0.0, "no numeric columns");
        assert!(ClusteringFitTask::new(0, 1).k >= 2, "k is floored");
    }
}
