//! The per-node-sort CART builder the rank-keyed builder replaced, kept
//! as the test oracle: every fit must come out bit-identical. It changed
//! only with the builder's contract: it lays its nodes out flat in
//! preorder, and a split's threshold is the midpoint of its two values
//! only when that lies in `[lo, hi)`.

use rand::seq::SliceRandom;
use rand::Rng;

use super::{DecisionTree, FeatureSampling, Node, TreeConfig, TreeTask};
use crate::dataset::MlDataset;

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

fn variance(sum: f64, sum_sq: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    (sum_sq / nf - (sum / nf).powi(2)).max(0.0)
}

/// `(feature, threshold, left rows, right rows, gain)` of a chosen split.
type SplitChoice = (usize, f64, Vec<usize>, Vec<usize>, f64);

struct Builder<'a> {
    data: &'a MlDataset,
    config: TreeConfig,
    task: TreeTask,
    sampling: FeatureSampling,
    importances: Vec<f64>,
    n_total: usize,
    /// The tree so far, in preorder.
    nodes: Vec<Node>,
}

impl<'a> Builder<'a> {
    fn node_impurity(&self, idx: &[usize]) -> f64 {
        match self.task {
            TreeTask::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &i in idx {
                    let c = self.data.targets[i] as usize;
                    if c < n_classes {
                        counts[c] += 1;
                    }
                }
                gini(&counts, idx.len())
            }
            TreeTask::Regression => {
                let (mut s, mut sq) = (0.0, 0.0);
                for &i in idx {
                    let y = self.data.targets[i];
                    s += y;
                    sq += y * y;
                }
                variance(s, sq, idx.len())
            }
        }
    }

    fn leaf_prediction(&self, idx: &[usize]) -> f64 {
        match self.task {
            TreeTask::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes.max(1)];
                for &i in idx {
                    let c = self.data.targets[i] as usize;
                    if c < counts.len() {
                        counts[c] += 1;
                    }
                }
                // First-max wins so ties (and empty nodes) predict the
                // smallest class index deterministically.
                let mut best_cls = 0usize;
                let mut best_cnt = 0usize;
                for (cls, &c) in counts.iter().enumerate() {
                    if c > best_cnt {
                        best_cnt = c;
                        best_cls = cls;
                    }
                }
                best_cls as f64
            }
            TreeTask::Regression => {
                if idx.is_empty() {
                    0.0
                } else {
                    idx.iter().map(|&i| self.data.targets[i]).sum::<f64>() / idx.len() as f64
                }
            }
        }
    }

    /// Best split by a single sorted sweep per feature: prefix class counts
    /// (classification) or prefix sums (regression) evaluate every
    /// candidate threshold in O(n) after the sort, with no per-threshold
    /// allocation — this is the hot path of every utility query.
    fn best_split(&self, idx: &[usize], features: &[usize]) -> Option<SplitChoice> {
        let n = idx.len();
        let parent_impurity = self.node_impurity(idx);
        let n_classes = match self.task {
            TreeTask::Classification { n_classes } => n_classes.max(1),
            TreeTask::Regression => 0,
        };
        // (feature, threshold, gain) — rows partitioned once at the end.
        let mut best: Option<(usize, f64, f64)> = None;
        let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(n);

        for &f in features {
            sorted.clear();
            sorted.extend(
                idx.iter()
                    .map(|&i| (self.data.features[i][f], self.data.targets[i])),
            );
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            if sorted[0].0 == sorted[n - 1].0 {
                continue; // constant feature
            }
            // Candidate cut positions: boundaries between distinct values,
            // evenly downsampled to max_thresholds.
            let mut cuts: Vec<usize> = (1..n).filter(|&i| sorted[i - 1].0 < sorted[i].0).collect();
            if cuts.len() > self.config.max_thresholds {
                let step = cuts.len() as f64 / self.config.max_thresholds as f64;
                cuts = (0..self.config.max_thresholds)
                    .map(|k| cuts[(k as f64 * step) as usize])
                    .collect();
            }

            // Sweep with incremental statistics.
            let mut left_counts = vec![0usize; n_classes];
            let (mut left_sum, mut left_sq) = (0.0f64, 0.0f64);
            // Totals.
            let mut total_counts = vec![0usize; n_classes];
            let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
            if n_classes > 0 {
                for &(_, y) in &sorted {
                    let c = y as usize;
                    if c < n_classes {
                        total_counts[c] += 1;
                    }
                }
            } else {
                for &(_, y) in &sorted {
                    total_sum += y;
                    total_sq += y * y;
                }
            }

            let mut pos = 0usize;
            for &cut in &cuts {
                // Advance the prefix to `cut`.
                while pos < cut {
                    let y = sorted[pos].1;
                    if n_classes > 0 {
                        let c = y as usize;
                        if c < n_classes {
                            left_counts[c] += 1;
                        }
                    } else {
                        left_sum += y;
                        left_sq += y * y;
                    }
                    pos += 1;
                }
                let left_n = cut;
                let right_n = n - cut;
                if left_n < self.config.min_samples_leaf || right_n < self.config.min_samples_leaf {
                    continue;
                }
                let weighted = if n_classes > 0 {
                    let right_counts: Vec<usize> = total_counts
                        .iter()
                        .zip(&left_counts)
                        .map(|(&t, &l)| t - l)
                        .collect();
                    (left_n as f64 * gini(&left_counts, left_n)
                        + right_n as f64 * gini(&right_counts, right_n))
                        / n as f64
                } else {
                    (left_n as f64 * variance(left_sum, left_sq, left_n)
                        + right_n as f64
                            * variance(total_sum - left_sum, total_sq - left_sq, right_n))
                        / n as f64
                };
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    // The midpoint, unless it falls outside `[lo, hi)`.
                    let (lo, hi) = (sorted[cut - 1].0, sorted[cut].0);
                    let mid = (lo + hi) / 2.0;
                    let threshold = if lo <= mid && mid < hi { mid } else { lo + 0.0 };
                    best = Some((f, threshold, gain));
                }
            }
        }

        let (f, threshold, gain) = best?;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &i in idx {
            if self.data.features[i][f] <= threshold {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        Some((f, threshold, left, right, gain))
    }

    /// Grow the subtree over `idx`, appending its nodes in preorder.
    fn build<R: Rng>(&mut self, idx: &[usize], depth: usize, rng: &mut R) {
        if depth >= self.config.max_depth
            || idx.len() < self.config.min_samples_split
            || self.node_impurity(idx) < 1e-12
        {
            let prediction = self.leaf_prediction(idx);
            self.nodes.push(Node::Leaf { prediction });
            return;
        }
        let all: Vec<usize> = (0..self.data.n_features()).collect();
        let features: Vec<usize> = match self.sampling {
            FeatureSampling::All => all,
            FeatureSampling::Sqrt => {
                let k = ((all.len() as f64).sqrt().ceil() as usize).clamp(1, all.len());
                let mut pool = all;
                pool.shuffle(rng);
                pool.truncate(k);
                pool.sort_unstable(); // deterministic evaluation order
                pool
            }
        };
        match self.best_split(idx, &features) {
            Some((feature, threshold, left, right, gain)) => {
                self.importances[feature] += gain * idx.len() as f64 / self.n_total as f64;
                let at = self.nodes.len();
                self.nodes.push(Node::Split {
                    feature,
                    threshold,
                    right: 0,
                });
                self.build(&left, depth + 1, rng);
                let right_at = self.nodes.len();
                if let Node::Split { right: r, .. } = &mut self.nodes[at] {
                    *r = right_at;
                }
                self.build(&right, depth + 1, rng);
            }
            None => {
                let prediction = self.leaf_prediction(idx);
                self.nodes.push(Node::Leaf { prediction });
            }
        }
    }
}

/// Fit a tree on the given row subset (`indices`) of `data`.
pub(crate) fn fit_on<R: Rng>(
    data: &MlDataset,
    indices: &[usize],
    task: TreeTask,
    config: TreeConfig,
    sampling: FeatureSampling,
    rng: &mut R,
) -> DecisionTree {
    let mut builder = Builder {
        data,
        config,
        task,
        sampling,
        importances: vec![0.0; data.n_features()],
        n_total: indices.len().max(1),
        nodes: Vec::new(),
    };
    builder.build(indices, 0, rng);
    DecisionTree {
        nodes: builder.nodes,
        task,
        importances: builder.importances,
    }
}
