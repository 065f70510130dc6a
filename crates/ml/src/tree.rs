//! CART decision trees for classification and regression.
//!
//! Splits minimize Gini impurity (classification) or variance (regression).
//! Candidate thresholds are capped per node so that a single utility query
//! (one model fit) stays cheap even with thousands of queries per
//! experiment. Feature subsampling per split is injected by the forest.
//!
//! # Rank-keyed split search
//!
//! Split search never sorts floats. Each feature is ranked once per
//! dataset ([`RankedFeature`]: a dense `u32` rank per row plus the sorted
//! distinct values, in a total order where `-0.0` ties `0.0` and NaN sorts
//! after every number). A tree addresses its rows by bootstrap *position*;
//! every node owns one contiguous range of the position array `order`,
//! kept in ascending position order, and the same range of one *sorted
//! list* per feature: the node's `(rank << 32) | position` keys in
//! ascending order. The lists are built once per tree by a counting sort
//! over the dense ranks, O(rows + distinct values) each, and a split
//! stable-partitions `order` and every list by the same per-position
//! left/right flag, so each child's ranges keep both orders (a split
//! whose children cannot split again partitions `order` only). No node
//! sorts anything. At a node, one pass over a sampled feature's range
//! records its value boundaries (and sums regression totals), a second
//! accumulates prefix statistics up to each boundary the `max_thresholds`
//! downsampling keeps and evaluates it there. Buffers are reused across
//! nodes.
//!
//! **Exactness contract.** A node's range of a sorted list is exactly a
//! stable sort of the node's values in position order: by value, ties
//! broken by bootstrap position. Cut positions, downsampled thresholds,
//! gains, the regression summation order and therefore every fitted tree
//! are bit-identical to a per-node sort (the test-only `reference`
//! builder, checked by the `oracle` property tests). Only NaN features
//! differ from such a sort, which has no consistent order for them; they
//! fit deterministically.

use std::cmp::Ordering;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::MlDataset;

/// Whether the tree predicts class indices or continuous values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeTask {
    /// Predict one of `n_classes` class indices.
    Classification {
        /// Number of classes (labels are `0..n_classes` as f64).
        n_classes: usize,
    },
    /// Predict a continuous value.
    Regression,
}

/// Tree growth hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Maximum candidate thresholds evaluated per feature per node.
    pub max_thresholds: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_thresholds: 16,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    task: TreeTask,
    /// Total impurity decrease attributed to each feature.
    importances: Vec<f64>,
}

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureSampling {
    /// All features (plain CART).
    All,
    /// `ceil(sqrt(n_features))` random features per split (random forest).
    Sqrt,
}

/// The total order ranks follow: numbers by value (so `-0.0` ties `0.0`),
/// then every NaN, all tied.
fn value_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (true, true) => Ordering::Equal,
    }
}

/// One feature column ranked once: a dense `u32` rank per row plus the
/// sorted distinct values, so trees compare ranks instead of sorting
/// floats. A forest ranks each feature once and shares it with all its
/// trees; a caller that fits many forests over the same rows (a task
/// queried on `Din` plus candidate columns) can rank a column once and
/// pass it to every fit ([`RandomForest::fit_ranked`]). Rows are `u32`: a
/// column ranked here holds fewer than 2^32 rows.
///
/// [`RandomForest::fit_ranked`]: crate::forest::RandomForest::fit_ranked
#[derive(Debug, Clone)]
pub struct RankedFeature {
    /// `ranks[row]`: dense rank of the row's value.
    ranks: Vec<u32>,
    /// `values[r]`: the value of rank `r` (one representative of a tie,
    /// e.g. one of `-0.0`/`0.0`; every comparison treats them alike).
    values: Vec<f64>,
}

impl RankedFeature {
    /// Rank one column (one value per row).
    pub fn new(column: &[f64]) -> RankedFeature {
        let mut order: Vec<u32> = (0..column.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| value_order(column[a as usize], column[b as usize]));
        let mut ranks = vec![0u32; column.len()];
        let mut values: Vec<f64> = Vec::new();
        for &row in &order {
            let v = column[row as usize];
            if values
                .last()
                .is_none_or(|&last| value_order(last, v) != Ordering::Equal)
            {
                values.push(v);
            }
            ranks[row as usize] = values.len() as u32 - 1;
        }
        RankedFeature { ranks, values }
    }
}

/// Every feature column of `data`, ranked.
pub(crate) fn rank_features(data: &MlDataset) -> Vec<RankedFeature> {
    let mut column: Vec<f64> = Vec::with_capacity(data.len());
    (0..data.n_features())
        .map(|f| {
            column.clear();
            column.extend(data.features.iter().map(|row| row[f]));
            RankedFeature::new(&column)
        })
        .collect()
}

/// Gini impurity of class counts summing to `total`.
fn gini(counts: impl Iterator<Item = usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .map(|c| {
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

/// One tree's growth state. Rows are addressed by bootstrap *position*
/// (`0..indices.len()`); every node owns one contiguous range of `order`
/// (ascending position order) and the same range of every list in
/// `sorted` (ascending key order). All buffers are reused across nodes.
struct Builder<'a> {
    /// The ranked features the tree is fitted on.
    features: &'a [&'a RankedFeature],
    /// `sorted[f]`: `(rank << 32) | position` keys of feature `f`, each
    /// node's range in ascending order; partitioned in place as the tree
    /// splits.
    sorted: Vec<Vec<u64>>,
    /// Target at each position.
    ys: Vec<f64>,
    /// Class index at each position (classification only).
    classes: Vec<usize>,
    /// Positions, partitioned in place as the tree splits.
    order: Vec<u32>,
    /// `goes_left[pos]`: the side of the split being applied.
    goes_left: Vec<bool>,
    /// Right-hand sides of a partition, copied back behind the left.
    scratch: Vec<u32>,
    scratch_keys: Vec<u64>,
    /// Cut indices of one node and feature: where its sorted range
    /// changes value.
    cuts: Vec<u32>,
    /// Class counts: per node, and the left prefix of a sweep.
    counts: Vec<usize>,
    left_counts: Vec<usize>,
    /// Features sampled at the current node.
    sampled: Vec<usize>,
    config: TreeConfig,
    task: TreeTask,
    sampling: FeatureSampling,
    importances: Vec<f64>,
    n_total: usize,
}

/// The rank of a sorted-list key.
fn key_rank(key: u64) -> usize {
    (key >> 32) as usize
}

/// The bootstrap position of a sorted-list key.
fn key_position(key: u64) -> usize {
    key as u32 as usize
}

/// `(rank << 32) | position` keys of `feature` at the bootstrap positions
/// of `indices`, in ascending order: a stable counting sort over the dense
/// ranks, O(positions + ranks).
fn presort(feature: &RankedFeature, indices: &[usize], starts: &mut Vec<usize>) -> Vec<u64> {
    starts.clear();
    starts.resize(feature.values.len() + 1, 0);
    for &i in indices {
        starts[feature.ranks[i] as usize + 1] += 1;
    }
    for r in 1..starts.len() {
        starts[r] += starts[r - 1];
    }
    let mut sorted = vec![0u64; indices.len()];
    for (pos, &i) in indices.iter().enumerate() {
        let rank = feature.ranks[i];
        let slot = &mut starts[rank as usize];
        sorted[*slot] = (u64::from(rank) << 32) | pos as u64;
        *slot += 1;
    }
    sorted
}

/// Stable-partition `list` by the flag of each item's position: flagged
/// items first, each side in its original order. Branch-free, since the
/// flags of a split follow no pattern a predictor could learn.
fn stable_partition<T: Copy + Default>(
    list: &mut [T],
    flagged: impl Fn(T) -> bool,
    scratch: &mut Vec<T>,
) {
    scratch.clear();
    scratch.resize(list.len(), T::default());
    let (mut left_n, mut right_n) = (0, 0);
    for i in 0..list.len() {
        let item = list[i];
        let left = flagged(item);
        list[left_n] = item;
        scratch[right_n] = item;
        left_n += usize::from(left);
        right_n += usize::from(!left);
    }
    list[left_n..].copy_from_slice(&scratch[..right_n]);
}

impl Builder<'_> {
    /// Impurity of the node, summed in position order.
    fn node_impurity(&mut self, range: Range<usize>) -> f64 {
        let n = range.len();
        match self.task {
            TreeTask::Classification { n_classes } => {
                self.counts.clear();
                self.counts.resize(n_classes, 0);
                for &p in &self.order[range] {
                    let c = self.classes[p as usize];
                    if c < n_classes {
                        self.counts[c] += 1;
                    }
                }
                gini(self.counts.iter().copied(), n)
            }
            TreeTask::Regression => {
                let (mut s, mut sq) = (0.0, 0.0);
                for &p in &self.order[range] {
                    let y = self.ys[p as usize];
                    s += y;
                    sq += y * y;
                }
                variance(s, sq, n)
            }
        }
    }

    fn leaf_prediction(&mut self, range: Range<usize>) -> f64 {
        let n = range.len();
        match self.task {
            TreeTask::Classification { n_classes } => {
                self.counts.clear();
                self.counts.resize(n_classes.max(1), 0);
                for &p in &self.order[range] {
                    let c = self.classes[p as usize];
                    if c < self.counts.len() {
                        self.counts[c] += 1;
                    }
                }
                // First-max wins so ties (and empty nodes) predict the
                // smallest class index deterministically.
                let mut best_cls = 0usize;
                let mut best_cnt = 0usize;
                for (cls, &c) in self.counts.iter().enumerate() {
                    if c > best_cnt {
                        best_cnt = c;
                        best_cls = cls;
                    }
                }
                best_cls as f64
            }
            TreeTask::Regression => {
                if n == 0 {
                    0.0
                } else {
                    self.order[range]
                        .iter()
                        .map(|&p| self.ys[p as usize])
                        .sum::<f64>()
                        / n as f64
                }
            }
        }
    }

    /// Best `(feature, threshold, gain)` for the node, by one sweep of each
    /// sampled feature's sorted range — the hot path of every utility
    /// query.
    ///
    /// The range orders the node by value with ties by position, exactly
    /// as a stable sort of its values in position order would. Pass 1
    /// records the value boundaries (and sums the regression totals in
    /// that order); pass 2 accumulates prefix statistics up to each
    /// boundary kept by the `max_thresholds` downsampling and evaluates it.
    fn best_split(
        &mut self,
        range: Range<usize>,
        parent_impurity: f64,
        features: &[usize],
    ) -> Option<(usize, f64, f64)> {
        let n = range.len();
        let n_classes = match self.task {
            TreeTask::Classification { n_classes } => n_classes.max(1),
            TreeTask::Regression => 0,
        };
        let Builder {
            features: ranked,
            sorted,
            ys,
            classes,
            order,
            cuts,
            counts,
            left_counts,
            config,
            ..
        } = self;
        if n_classes > 0 {
            counts.clear();
            counts.resize(n_classes, 0);
            for &p in &order[range.clone()] {
                let c = classes[p as usize];
                if c < n_classes {
                    counts[c] += 1;
                }
            }
        }
        let mut best: Option<(usize, f64, f64)> = None;

        for &f in features {
            let list = &sorted[f][range.clone()];
            let rank = |i: usize| key_rank(list[i]);
            let position = |i: usize| key_position(list[i]);

            // Pass 1: value boundaries (the cut index after each), and
            // regression totals.
            cuts.resize(n.max(cuts.len()), 0);
            let mut boundaries = 0;
            for i in 1..n {
                cuts[boundaries] = i as u32;
                boundaries += usize::from(rank(i - 1) != rank(i));
            }
            if boundaries == 0 {
                continue; // constant feature
            }
            let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
            if n_classes == 0 {
                for i in 0..n {
                    let y = ys[position(i)];
                    total_sum += y;
                    total_sq += y * y;
                }
            }
            // Boundary ordinals to evaluate: all of them, or
            // `max_thresholds` of them evenly downsampled.
            let (n_cuts, step) = if boundaries > config.max_thresholds {
                let step = boundaries as f64 / config.max_thresholds as f64;
                (config.max_thresholds, Some(step))
            } else {
                (boundaries, None)
            };
            let ordinal = |k: usize| step.map_or(k, |step| (k as f64 * step) as usize);

            // Pass 2: prefix statistics up to each kept boundary.
            left_counts.clear();
            left_counts.resize(n_classes, 0);
            let (mut left_sum, mut left_sq) = (0.0f64, 0.0f64);
            let mut prefix = 0usize;
            for k in 0..n_cuts {
                let cut = cuts[ordinal(k)] as usize;
                for i in prefix..cut {
                    let p = position(i);
                    if n_classes > 0 {
                        let c = classes[p];
                        if c < n_classes {
                            left_counts[c] += 1;
                        }
                    } else {
                        let y = ys[p];
                        left_sum += y;
                        left_sq += y * y;
                    }
                }
                prefix = cut;
                let left_n = cut;
                let right_n = n - cut;
                if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                    continue;
                }
                let weighted = if n_classes > 0 {
                    let right = counts.iter().zip(left_counts.iter()).map(|(&t, &l)| t - l);
                    (left_n as f64 * gini(left_counts.iter().copied(), left_n)
                        + right_n as f64 * gini(right, right_n))
                        / n as f64
                } else {
                    (left_n as f64 * variance(left_sum, left_sq, left_n)
                        + right_n as f64
                            * variance(total_sum - left_sum, total_sq - left_sq, right_n))
                        / n as f64
                };
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    let distinct = &ranked[f].values;
                    let threshold = (distinct[rank(cut - 1)] + distinct[rank(cut)]) / 2.0;
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    /// Stable-partition the node's positions by `value <= threshold` on
    /// `feature`; returns the size of the left part. `order` is always
    /// partitioned; the sorted lists only when `lists` (a child that can
    /// never split reads none of them).
    fn partition(
        &mut self,
        range: Range<usize>,
        feature: usize,
        threshold: f64,
        lists: bool,
    ) -> usize {
        // Distinct values ascend (NaN last), so the predicate holds for a
        // prefix of ranks.
        let bound = self.features[feature]
            .values
            .partition_point(|&v| v <= threshold);
        // The feature's own list orders the node by rank: its left part is
        // a prefix.
        let node = &self.sorted[feature][range.clone()];
        let left_n = node.partition_point(|&key| key_rank(key) < bound);
        for (i, &key) in node.iter().enumerate() {
            self.goes_left[key_position(key)] = i < left_n;
        }
        let goes_left = &self.goes_left;
        stable_partition(
            &mut self.order[range.clone()],
            |p| goes_left[p as usize],
            &mut self.scratch,
        );
        if lists {
            for list in &mut self.sorted {
                stable_partition(
                    &mut list[range.clone()],
                    |key| goes_left[key_position(key)],
                    &mut self.scratch_keys,
                );
            }
        }
        left_n
    }

    fn build<R: Rng>(&mut self, range: Range<usize>, depth: usize, rng: &mut R) -> Node {
        if depth >= self.config.max_depth || range.len() < self.config.min_samples_split {
            return Node::Leaf {
                prediction: self.leaf_prediction(range),
            };
        }
        let parent_impurity = self.node_impurity(range.clone());
        if parent_impurity < 1e-12 {
            return Node::Leaf {
                prediction: self.leaf_prediction(range),
            };
        }
        let mut sampled = std::mem::take(&mut self.sampled);
        sampled.clear();
        sampled.extend(0..self.features.len());
        if self.sampling == FeatureSampling::Sqrt {
            let k = ((sampled.len() as f64).sqrt().ceil() as usize).clamp(1, sampled.len());
            sampled.shuffle(rng);
            sampled.truncate(k);
            sampled.sort_unstable(); // deterministic evaluation order
        }
        let split = self.best_split(range.clone(), parent_impurity, &sampled);
        self.sampled = sampled;
        match split {
            Some((feature, threshold, gain)) => {
                self.importances[feature] += gain * range.len() as f64 / self.n_total as f64;
                let children_split = depth + 1 < self.config.max_depth;
                let mid =
                    range.start + self.partition(range.clone(), feature, threshold, children_split);
                let left_node = self.build(range.start..mid, depth + 1, rng);
                let right_node = self.build(mid..range.end, depth + 1, rng);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(left_node),
                    right: Box::new(right_node),
                }
            }
            None => Node::Leaf {
                prediction: self.leaf_prediction(range),
            },
        }
    }
}

impl DecisionTree {
    /// Fit a tree on the given row subset (`indices`) of `data`.
    pub fn fit_on<R: Rng>(
        data: &MlDataset,
        indices: &[usize],
        task: TreeTask,
        config: TreeConfig,
        sampling: FeatureSampling,
        rng: &mut R,
    ) -> Self {
        let ranked = rank_features(data);
        let features: Vec<&RankedFeature> = ranked.iter().collect();
        Self::fit_ranked(
            &features,
            &data.targets,
            indices,
            task,
            config,
            sampling,
            rng,
        )
    }

    /// [`DecisionTree::fit_on`] over ranked feature columns and the
    /// targets of the rows they rank (a forest ranks its dataset once for
    /// all of its trees).
    pub(crate) fn fit_ranked<R: Rng>(
        features: &[&RankedFeature],
        targets: &[f64],
        indices: &[usize],
        task: TreeTask,
        config: TreeConfig,
        sampling: FeatureSampling,
        rng: &mut R,
    ) -> Self {
        let n = indices.len();
        let ys: Vec<f64> = indices.iter().map(|&i| targets[i]).collect();
        let mut starts = Vec::new();
        let sorted = features
            .iter()
            .map(|f| presort(f, indices, &mut starts))
            .collect();
        let mut builder = Builder {
            features,
            sorted,
            classes: match task {
                TreeTask::Classification { .. } => ys.iter().map(|&y| y as usize).collect(),
                TreeTask::Regression => Vec::new(),
            },
            ys,
            order: (0..n as u32).collect(),
            goes_left: vec![false; n],
            scratch: Vec::with_capacity(n),
            scratch_keys: Vec::with_capacity(n),
            cuts: Vec::with_capacity(n),
            counts: Vec::new(),
            left_counts: Vec::new(),
            sampled: Vec::new(),
            config,
            task,
            sampling,
            importances: vec![0.0; features.len()],
            n_total: n.max(1),
        };
        let root = builder.build(0..n, 0, rng);
        DecisionTree {
            root,
            task,
            importances: builder.importances,
        }
    }

    /// Fit on all rows with no feature subsampling.
    pub fn fit(data: &MlDataset, task: TreeTask, config: TreeConfig, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &indices, task, config, FeatureSampling::All, &mut rng)
    }

    /// Predict one row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { prediction } => return *prediction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Predict many rows.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Raw (unnormalized) impurity-decrease importances per feature.
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// The task this tree was fitted for.
    pub fn task(&self) -> TreeTask {
        self.task
    }

    /// Number of decision nodes (for tests/diagnostics).
    pub fn n_splits(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + count(left) + count(right),
            }
        }
        count(&self.root)
    }
}

#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> MlDataset {
        // y = x0 AND x1 — needs two levels but each greedy split has
        // positive gain (pure XOR has a zero-gain first split, which greedy
        // CART — like scikit-learn's — cannot take).
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..40 {
            let a = (i / 2) % 2;
            let b = i % 2;
            features.push(vec![a as f64, b as f64]);
            targets.push((a & b) as f64);
        }
        MlDataset {
            features,
            feature_names: vec!["a".into(), "b".into()],
            targets,
            n_classes: Some(2),
        }
    }

    #[test]
    fn learns_two_level_conjunction() {
        let d = xor_dataset();
        let t = DecisionTree::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            TreeConfig::default(),
            0,
        );
        let preds = t.predict_batch(&d.features);
        let correct = preds
            .iter()
            .zip(&d.targets)
            .filter(|(p, y)| (*p - *y).abs() < 0.5)
            .count();
        assert_eq!(correct, d.len(), "tree should fit AND exactly");
        assert!(t.n_splits() >= 2);
    }

    #[test]
    fn depth_zero_yields_majority_leaf() {
        let d = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let t = DecisionTree::fit(&d, TreeTask::Classification { n_classes: 2 }, cfg, 0);
        assert_eq!(t.n_splits(), 0);
        let p = t.predict(&[0.0, 0.0]);
        assert!(p == 0.0 || p == 1.0);
    }

    #[test]
    fn regression_fits_step_function() {
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let d = MlDataset {
            features,
            feature_names: vec!["x".into()],
            targets,
            n_classes: None,
        };
        let t = DecisionTree::fit(&d, TreeTask::Regression, TreeConfig::default(), 0);
        assert!((t.predict(&[10.0]) - 1.0).abs() < 0.5);
        assert!((t.predict(&[90.0]) - 5.0).abs() < 0.5);
    }

    #[test]
    fn importances_identify_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines the label.
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 60.0;
            features.push(vec![x, ((i * 37) % 13) as f64]);
            targets.push(if x > 0.5 { 1.0 } else { 0.0 });
        }
        let d = MlDataset {
            features,
            feature_names: vec!["signal".into(), "noise".into()],
            targets,
            n_classes: Some(2),
        };
        let t = DecisionTree::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            TreeConfig::default(),
            0,
        );
        assert!(t.importances()[0] > t.importances()[1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = xor_dataset();
        let t1 = DecisionTree::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            TreeConfig::default(),
            7,
        );
        let t2 = DecisionTree::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            TreeConfig::default(),
            7,
        );
        assert_eq!(t1.predict_batch(&d.features), t2.predict_batch(&d.features));
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let d = MlDataset {
            features: (0..10).map(|i| vec![i as f64]).collect(),
            feature_names: vec!["x".into()],
            targets: vec![3.0; 10],
            n_classes: None,
        };
        let t = DecisionTree::fit(&d, TreeTask::Regression, TreeConfig::default(), 0);
        assert_eq!(t.n_splits(), 0);
        assert_eq!(t.predict(&[4.0]), 3.0);
    }
}
