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
//! every node owns one contiguous range of one *sorted list* per feature:
//! the node's `(rank << 32) | position` keys in ascending order. The lists
//! are built once per tree sample by a counting sort over the dense ranks,
//! O(rows + distinct values) each; a forest plan keeps the lists of the
//! features every fit shares (see [`crate::forest`]). A split
//! stable-partitions every list but the split feature's own (whose left
//! part is already a prefix) by the same per-position left/right flag, so
//! each child's ranges keep their order (a split whose children cannot
//! split again partitions no list). No node sorts anything. At a node, one
//! pass over a sampled feature's range records its value boundaries (and
//! sums regression totals), a second accumulates prefix statistics up to
//! each boundary the `max_thresholds` downsampling keeps and evaluates it
//! there. Buffers are reused across nodes.
//!
//! A classification node takes its class counts from its parent's split:
//! the partition counts the left child's classes as it walks the split
//! feature's left part, and the right child's are the parent's minus
//! those. Regression sums its node statistics in position order, so it
//! also keeps one position array (`order`) partitioned alongside. A fitted
//! tree is one flat vector of nodes in preorder.
//!
//! A split's threshold is the midpoint of the two values around its cut
//! when that lies in `[lo, hi)`, else `lo + 0.0`, so `value <= threshold`
//! sends exactly the evaluated cut's rows left even for adjacent doubles,
//! overflowing sums and infinite or NaN upper values.
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

/// One node of a flat tree. Nodes are stored in preorder: a split's left
/// child is the node right after it.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        prediction: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the right child.
        right: usize,
    },
}

/// A fitted decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    /// Every node, in preorder (the root first).
    nodes: Vec<Node>,
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

/// The threshold a split between adjacent distinct values `lo < hi` stores:
/// their midpoint when it lies in `[lo, hi)`, else `lo + 0.0`. A midpoint
/// can round to `hi` (adjacent doubles), overflow to an infinity or be NaN
/// (`hi` infinite or NaN); `value <= threshold` must still send exactly
/// `lo` and below left. The `+ 0.0` turns a `-0.0` into `0.0`, so the
/// threshold does not depend on which member of a signed-zero tie
/// represents the rank.
fn split_threshold(lo: f64, hi: f64) -> f64 {
    let mid = (lo + hi) / 2.0;
    if lo <= mid && mid < hi {
        mid
    } else {
        lo + 0.0
    }
}

/// One tree's bootstrap sample, set up for growing: the row at each
/// bootstrap *position*, the targets and classes there, and the sorted
/// key lists of the features set up so far. A forest keeps one per tree
/// and grows the tree any number of times over more features
/// ([`DecisionTree::grow`]).
#[derive(Debug, Clone)]
pub(crate) struct TreeSample {
    /// `indices[pos]`: the row drawn at bootstrap position `pos`.
    indices: Vec<u32>,
    /// Target at each position (regression only).
    ys: Vec<f64>,
    /// Class index at each position (classification only).
    classes: Vec<usize>,
    /// `sorted[f]`: the key list of feature `f` over every position.
    pub(crate) sorted: Vec<Vec<u64>>,
}

impl TreeSample {
    /// The sample of rows `indices`, with the key lists of `features`.
    pub(crate) fn new(
        features: &[&RankedFeature],
        targets: &[f64],
        indices: Vec<u32>,
        task: TreeTask,
    ) -> TreeSample {
        let ys = indices.iter().map(|&i| targets[i as usize]);
        let (ys, classes) = match task {
            TreeTask::Classification { .. } => (Vec::new(), ys.map(|y| y as usize).collect()),
            TreeTask::Regression => (ys.collect(), Vec::new()),
        };
        let mut starts = Vec::new();
        let sorted = features
            .iter()
            .map(|f| presort(f, &indices, &mut starts))
            .collect();
        TreeSample {
            indices,
            ys,
            classes,
            sorted,
        }
    }
}

/// One tree's growth state. Rows are addressed by bootstrap *position*
/// (`0..n`); every node owns one contiguous range of every list in
/// `sorted` (ascending key order) and, for regression, the same range of
/// `order` (ascending position order). A classification node's class
/// counts come from its parent's split. All buffers are reused across
/// nodes.
struct Builder<'a> {
    /// The ranked features the tree is fitted on.
    features: &'a [&'a RankedFeature],
    /// `sorted[f]`: `(rank << 32) | position` keys of feature `f`, each
    /// node's range in ascending order; partitioned in place as the tree
    /// splits.
    sorted: Vec<Vec<u64>>,
    /// Target at each position (regression only).
    ys: &'a [f64],
    /// Class index at each position (classification only).
    classes: &'a [usize],
    /// Positions, partitioned in place as the tree splits (regression
    /// only: its sums run in position order).
    order: Vec<u32>,
    /// `goes_left[pos]`: the side of the split being applied.
    goes_left: Vec<bool>,
    /// Right-hand sides of a partition, copied back behind the left.
    scratch: Vec<u32>,
    scratch_keys: Vec<u64>,
    /// Cut indices of one node and feature: where its sorted range
    /// changes value.
    cuts: Vec<u32>,
    /// Classes counted: `n_classes.max(1)` for classification, 0 for
    /// regression.
    n_counts: usize,
    /// Class counts of the nodes on the current root path, `n_counts` per
    /// slot: a node at depth `d` reads slot `2d` (a left child, and the
    /// root) or `2d + 1` (a right child).
    node_counts: Vec<usize>,
    /// The left prefix of a sweep.
    left_counts: Vec<usize>,
    /// Features sampled at the current node.
    sampled: Vec<usize>,
    /// The tree so far, in preorder.
    nodes: Vec<Node>,
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
fn presort(feature: &RankedFeature, indices: &[u32], starts: &mut Vec<usize>) -> Vec<u64> {
    starts.clear();
    starts.resize(feature.values.len() + 1, 0);
    for &i in indices {
        starts[feature.ranks[i as usize] as usize + 1] += 1;
    }
    for r in 1..starts.len() {
        starts[r] += starts[r - 1];
    }
    let mut sorted = vec![0u64; indices.len()];
    for (pos, &i) in indices.iter().enumerate() {
        let rank = feature.ranks[i as usize];
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
    /// The class counts of the node in `slot`.
    fn counts(&self, slot: usize) -> &[usize] {
        &self.node_counts[slot * self.n_counts..(slot + 1) * self.n_counts]
    }

    /// Impurity of the node in `slot`; regression sums in position order.
    fn node_impurity(&self, range: Range<usize>, slot: usize) -> f64 {
        let n = range.len();
        match self.task {
            // Classes at or above `n_classes` count in no impurity (with
            // `n_classes == 0` the counts hold one class nothing reads).
            TreeTask::Classification { n_classes } => {
                gini(self.counts(slot)[..n_classes].iter().copied(), n)
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

    fn leaf_prediction(&self, range: Range<usize>, slot: usize) -> f64 {
        let n = range.len();
        match self.task {
            TreeTask::Classification { .. } => {
                // First-max wins so ties (and empty nodes) predict the
                // smallest class index deterministically.
                let mut best_cls = 0usize;
                let mut best_cnt = 0usize;
                for (cls, &c) in self.counts(slot).iter().enumerate() {
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

    /// Best `(feature, threshold, gain)` for the node in `slot`, by one
    /// sweep of each sampled feature's sorted range — the hot path of
    /// every utility query.
    ///
    /// The range orders the node by value with ties by position, exactly
    /// as a stable sort of its values in position order would. Pass 1
    /// records the value boundaries (and sums the regression totals in
    /// that order); pass 2 accumulates prefix statistics up to each
    /// boundary kept by the `max_thresholds` downsampling and evaluates it.
    fn best_split(
        &mut self,
        range: Range<usize>,
        slot: usize,
        parent_impurity: f64,
        features: &[usize],
    ) -> Option<(usize, f64, f64)> {
        let n = range.len();
        let n_classes = self.n_counts;
        let Builder {
            features: ranked,
            sorted,
            ys,
            classes,
            cuts,
            node_counts,
            left_counts,
            config,
            ..
        } = self;
        let counts = &node_counts[slot * n_classes..(slot + 1) * n_classes];
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
                    let threshold = split_threshold(distinct[rank(cut - 1)], distinct[rank(cut)]);
                    best = Some((f, threshold, gain));
                }
            }
        }
        best
    }

    /// Stable-partition the node in `slot` by `value <= threshold` on
    /// `feature`, and count the children's classes into slots `child` (left)
    /// and `child + 1` (right); returns the size of the left part. The
    /// sorted lists are partitioned only when `lists` (a child that can
    /// never split reads none of them), and never `feature`'s own: it
    /// orders the node by rank, so its left part is already a prefix.
    fn partition(
        &mut self,
        range: Range<usize>,
        slot: usize,
        child: usize,
        feature: usize,
        threshold: f64,
        lists: bool,
    ) -> usize {
        // Distinct values ascend (NaN last), so the predicate holds for a
        // prefix of ranks.
        let bound = self.features[feature]
            .values
            .partition_point(|&v| v <= threshold);
        let k = self.n_counts;
        let Builder {
            sorted,
            classes,
            order,
            goes_left,
            scratch,
            scratch_keys,
            node_counts,
            ..
        } = self;
        let node = &sorted[feature][range.clone()];
        let left_n = node.partition_point(|&key| key_rank(key) < bound);
        if node_counts.len() < (child + 2) * k {
            node_counts.resize((child + 2) * k, 0);
        }
        let (parent, children) = node_counts.split_at_mut(child * k);
        let parent = &parent[slot * k..(slot + 1) * k];
        let (left, right) = children[..2 * k].split_at_mut(k);
        left.fill(0);
        for &key in &node[..left_n] {
            let p = key_position(key);
            goes_left[p] = true;
            if k > 0 {
                let c = classes[p];
                if c < k {
                    left[c] += 1;
                }
            }
        }
        for &key in &node[left_n..] {
            goes_left[key_position(key)] = false;
        }
        for ((r, &t), &l) in right.iter_mut().zip(parent).zip(left.iter()) {
            *r = t - l;
        }
        let goes_left = &*goes_left;
        if k == 0 {
            stable_partition(
                &mut order[range.clone()],
                |p| goes_left[p as usize],
                scratch,
            );
        }
        if lists {
            for (f, list) in sorted.iter_mut().enumerate() {
                if f != feature {
                    stable_partition(
                        &mut list[range.clone()],
                        |key| goes_left[key_position(key)],
                        scratch_keys,
                    );
                }
            }
        }
        left_n
    }

    /// Grow the subtree of the node over `range` at `depth`, whose class
    /// counts are in `slot`, appending its nodes in preorder.
    fn build<R: Rng>(&mut self, range: Range<usize>, depth: usize, slot: usize, rng: &mut R) {
        let leaf = |builder: &mut Self| {
            let prediction = builder.leaf_prediction(range.clone(), slot);
            builder.nodes.push(Node::Leaf { prediction });
        };
        if depth >= self.config.max_depth || range.len() < self.config.min_samples_split {
            return leaf(self);
        }
        let parent_impurity = self.node_impurity(range.clone(), slot);
        if parent_impurity < 1e-12 {
            return leaf(self);
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
        let split = self.best_split(range.clone(), slot, parent_impurity, &sampled);
        self.sampled = sampled;
        let Some((feature, threshold, gain)) = split else {
            return leaf(self);
        };
        self.importances[feature] += gain * range.len() as f64 / self.n_total as f64;
        let at = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            threshold,
            right: 0,
        });
        let child = 2 * (depth + 1);
        let children_split = depth + 1 < self.config.max_depth;
        let mid = range.start
            + self.partition(
                range.clone(),
                slot,
                child,
                feature,
                threshold,
                children_split,
            );
        self.build(range.start..mid, depth + 1, child, rng);
        let right = self.nodes.len();
        if let Node::Split { right: r, .. } = &mut self.nodes[at] {
            *r = right;
        }
        self.build(mid..range.end, depth + 1, child + 1, rng);
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
        let indices = indices.iter().map(|&i| i as u32).collect();
        let mut sample = TreeSample::new(&features, &data.targets, indices, task);
        let sorted = std::mem::take(&mut sample.sorted);
        Self::grow(&features, &sample, sorted, task, config, sampling, rng)
    }

    /// Grow a tree on `sample` over `features`. `sorted` holds the key
    /// lists of `features`' leading ones over the sample (the sample's
    /// own, taken or copied: growing partitions them); the lists of the
    /// rest are presorted here.
    pub(crate) fn grow<R: Rng>(
        features: &[&RankedFeature],
        sample: &TreeSample,
        mut sorted: Vec<Vec<u64>>,
        task: TreeTask,
        config: TreeConfig,
        sampling: FeatureSampling,
        rng: &mut R,
    ) -> Self {
        let n = sample.indices.len();
        let mut starts = Vec::new();
        let tail = &features[sorted.len()..];
        sorted.extend(
            tail.iter()
                .map(|f| presort(f, &sample.indices, &mut starts)),
        );
        let n_counts = match task {
            TreeTask::Classification { n_classes } => n_classes.max(1),
            TreeTask::Regression => 0,
        };
        let mut node_counts = vec![0usize; n_counts];
        for &c in &sample.classes {
            if c < n_counts {
                node_counts[c] += 1;
            }
        }
        let mut builder = Builder {
            features,
            sorted,
            ys: &sample.ys,
            classes: &sample.classes,
            order: if n_counts == 0 {
                (0..n as u32).collect()
            } else {
                Vec::new()
            },
            goes_left: vec![false; n],
            scratch: Vec::with_capacity(n),
            scratch_keys: Vec::with_capacity(n),
            cuts: Vec::with_capacity(n),
            n_counts,
            node_counts,
            left_counts: Vec::new(),
            sampled: Vec::new(),
            nodes: Vec::new(),
            config,
            task,
            sampling,
            importances: vec![0.0; features.len()],
            n_total: n.max(1),
        };
        builder.build(0..n, 0, 0, rng);
        DecisionTree {
            nodes: builder.nodes,
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
        self.predict_with(|f| row.get(f).copied().unwrap_or(0.0))
    }

    /// Predict the row whose feature `f` is `value(f)`.
    pub(crate) fn predict_with(&self, value: impl Fn(usize) -> f64) -> f64 {
        let mut at = 0;
        loop {
            match self.nodes[at] {
                Node::Leaf { prediction } => return prediction,
                Node::Split {
                    feature,
                    threshold,
                    right,
                } => {
                    at = if value(feature) <= threshold {
                        at + 1
                    } else {
                        right
                    }
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
        self.nodes
            .iter()
            .filter(|node| matches!(node, Node::Split { .. }))
            .count()
    }
}

#[cfg(test)]
pub(crate) mod oracle;
#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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

    /// Value pairs whose midpoint is not strictly between them: adjacent
    /// doubles (half of them round the midpoint up to `hi`), a sum that
    /// overflows either way, and an infinite or NaN upper value.
    fn tight_pairs() -> Vec<(f64, f64)> {
        let mut pairs: Vec<(f64, f64)> = (0..10)
            .map(|k| {
                let lo = f64::from_bits(1.0f64.to_bits() + k);
                (lo, f64::from_bits(lo.to_bits() + 1))
            })
            .collect();
        pairs.extend([
            (f64::MAX / 2.0, f64::MAX),
            (-f64::MAX, -f64::MAX / 2.0),
            (1.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (-0.0, f64::NAN),
            (2.0, f64::NAN),
        ]);
        pairs
    }

    #[test]
    fn each_child_holds_exactly_the_rows_of_its_evaluated_cut() {
        for (lo, hi) in tight_pairs() {
            // Rows at `lo` are class 0, rows at `hi` class 1: the one
            // split worth making separates them.
            let features: Vec<Vec<f64>> = (0..20).map(|i| vec![[lo, hi][i % 2]]).collect();
            let targets: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
            let data = MlDataset {
                features,
                feature_names: vec!["x".into()],
                targets,
                n_classes: Some(2),
            };
            let task = TreeTask::Classification { n_classes: 2 };
            let indices: Vec<usize> = (0..data.len()).collect();
            let fit = |reference_builder: bool| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                if reference_builder {
                    let all = FeatureSampling::All;
                    reference::fit_on(&data, &indices, task, TreeConfig::default(), all, &mut rng)
                } else {
                    DecisionTree::fit(&data, task, TreeConfig::default(), 0)
                }
            };
            // The reference builder finds no cut below a NaN (its sort
            // has no order for one).
            let trees = if hi.is_nan() {
                vec![fit(false)]
            } else {
                vec![fit(false), fit(true)]
            };
            for tree in trees {
                let [Node::Split { threshold, .. }, Node::Leaf { prediction: left }, Node::Leaf { prediction: right }] =
                    tree.nodes[..]
                else {
                    panic!("({lo:e}, {hi:e}): not one split: {tree:?}");
                };
                assert!(
                    lo <= threshold && (threshold < hi || hi.is_nan()),
                    "({lo:e}, {hi:e}): {threshold:e}"
                );
                assert_eq!((left, right), (0.0, 1.0), "({lo:e}, {hi:e})");
                assert_eq!(tree.predict(&[lo]), 0.0);
                assert_eq!(tree.predict(&[hi]), 1.0);
            }
        }
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
