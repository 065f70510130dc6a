//! Bagged random forests (the paper's default task model).
//!
//! [`RandomForest::fit`] ranks the dataset's features once and shares the
//! ranks with every tree, which then searches splits by rank on its
//! bootstrap sample (see [`crate::tree`]; ties between equal values break
//! by bootstrap position, so fits are bit-identical to sorting each node's
//! values). [`RandomForest::fit_ranked`] takes columns the caller ranked,
//! so a column shared by many fits is ranked once.
//!
//! # Forest plans
//!
//! A caller that fits many forests whose first features, targets and
//! settings are the same (a task queried on `din` plus candidate columns)
//! builds a [`ForestPlan`] once. It keeps what each tree sets up before it
//! grows and what only those inputs decide: the bootstrap draw, the RNG
//! state after it, the targets and classes at the drawn rows, and the
//! leading features' presorted key lists. [`ForestPlan::fit`] then sets up
//! only the features it is given. [`RandomForest::fit_ranked`] is a plan
//! built and fitted once, which moves the plan's lists into its trees
//! instead of copying them, so both are the same code path and
//! `plan.fit(tail)` is bit-identical to `fit_ranked(leading ++ tail)`.

use std::borrow::Borrow;

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::MlDataset;
use crate::tree::{
    rank_features, DecisionTree, FeatureSampling, RankedFeature, TreeConfig, TreeSample, TreeTask,
};

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth config.
    pub tree: TreeConfig,
    /// RNG seed (bootstraps and per-split feature subsets derive from it).
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 12,
            tree: TreeConfig::default(),
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    task: TreeTask,
    n_features: usize,
}

impl RandomForest {
    /// Fit with bootstrap sampling and √-feature subsampling per split.
    pub fn fit(data: &MlDataset, task: TreeTask, config: RandomForestConfig) -> Self {
        let ranked = rank_features(data);
        let features: Vec<&RankedFeature> = ranked.iter().collect();
        Self::fit_ranked(&features, &data.targets, task, config)
    }

    /// [`RandomForest::fit`] over feature columns already ranked:
    /// `features[f]` ranks feature `f` over the rows whose targets are
    /// `targets`, in that row order. Bit-identical to ranking them here.
    ///
    /// # Panics
    ///
    /// When a feature ranks fewer rows than there are targets.
    pub fn fit_ranked(
        features: &[&RankedFeature],
        targets: &[f64],
        task: TreeTask,
        config: RandomForestConfig,
    ) -> Self {
        ForestPlan::new(features.to_vec(), targets, task, config).fit_once()
    }

    /// Predict the forest's vote for one row, whose feature `f` is
    /// `value(f)`; `votes` is scratch.
    fn predict_with(&self, votes: &mut Vec<usize>, value: impl Fn(usize) -> f64 + Copy) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        match self.task {
            TreeTask::Classification { n_classes } => {
                votes.clear();
                votes.resize(n_classes.max(1), 0);
                for tree in &self.trees {
                    let c = tree.predict_with(value) as usize;
                    if c < votes.len() {
                        votes[c] += 1;
                    }
                }
                // First-max wins so vote ties break toward the smallest
                // class index deterministically.
                let mut best_cls = 0usize;
                let mut best_votes = 0usize;
                for (c, &v) in votes.iter().enumerate() {
                    if v > best_votes {
                        best_votes = v;
                        best_cls = c;
                    }
                }
                best_cls as f64
            }
            TreeTask::Regression => {
                self.trees
                    .iter()
                    .map(|t| t.predict_with(value))
                    .sum::<f64>()
                    / self.trees.len() as f64
            }
        }
    }

    /// Predict one row: majority vote (classification) or mean (regression).
    pub fn predict(&self, row: &[f64]) -> f64 {
        self.predict_with(&mut Vec::new(), |f| row.get(f).copied().unwrap_or(0.0))
    }

    /// Predict many rows.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let mut votes = Vec::new();
        rows.iter()
            .map(|row| self.predict_with(&mut votes, |f| row.get(f).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Predict rows `rows` of column-major features: feature `f` of row
    /// `i` is `columns[f][i]`. The same predictions as
    /// [`RandomForest::predict_batch`] over those rows.
    pub fn predict_columns(&self, columns: &[&[f64]], rows: &[usize]) -> Vec<f64> {
        let mut votes = Vec::new();
        rows.iter()
            .map(|&i| self.predict_with(&mut votes, |f| columns.get(f).map_or(0.0, |c| c[i])))
            .collect()
    }

    /// Mean impurity-decrease importance per feature, normalized to sum 1
    /// (all-zero when no split was ever made).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (i, &imp) in tree.importances().iter().enumerate() {
                total[i] += imp;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for v in &mut total {
                *v /= sum;
            }
        }
        total
    }

    /// The task the forest was fitted for.
    pub fn task(&self) -> TreeTask {
        self.task
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// The part of a forest fit that its leading features, targets, task and
/// config decide, set up once for fits that add other features after
/// them (see the module docs). `F` is an owned or borrowed
/// [`RankedFeature`].
#[derive(Debug, Clone)]
pub struct ForestPlan<F> {
    /// The leading features, ranked over the rows of the targets.
    leading: Vec<F>,
    task: TreeTask,
    tree: TreeConfig,
    /// Per tree: the RNG state after its bootstrap draw, and its sample
    /// with the leading features' key lists.
    trees: Vec<(StdRng, TreeSample)>,
}

impl<F: Borrow<RankedFeature>> ForestPlan<F> {
    /// The plan of forests whose first features are `leading`: each ranks
    /// its feature over the rows whose targets are `targets`, in that row
    /// order.
    ///
    /// # Panics
    ///
    /// When a feature ranks fewer rows than there are targets.
    pub fn new(
        leading: Vec<F>,
        targets: &[f64],
        task: TreeTask,
        config: RandomForestConfig,
    ) -> ForestPlan<F> {
        let n = targets.len();
        let features: Vec<&RankedFeature> = leading.iter().map(Borrow::borrow).collect();
        let trees = (0..config.n_trees)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(t as u64 * 0x9E37));
                let indices: Vec<u32> = if n == 0 {
                    Vec::new()
                } else {
                    (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
                };
                let sample = TreeSample::new(&features, targets, indices, task);
                (rng, sample)
            })
            .collect();
        ForestPlan {
            leading,
            task,
            tree: config.tree,
            trees,
        }
    }

    /// The forest over the leading features followed by `tail`, each
    /// ranked over the same rows: bit-identical to
    /// [`RandomForest::fit_ranked`] on all of them.
    ///
    /// # Panics
    ///
    /// When a feature of `tail` ranks fewer rows than there are targets.
    pub fn fit(&self, tail: &[&RankedFeature]) -> RandomForest {
        let features = self.features(tail);
        let trees = self
            .trees
            .iter()
            .map(|(rng, sample)| self.grow(&features, sample, sample.sorted.clone(), rng.clone()))
            .collect();
        RandomForest {
            trees,
            task: self.task,
            n_features: features.len(),
        }
    }

    /// [`ForestPlan::fit`] with no tail, handing the plan's key lists to
    /// the trees instead of copying them.
    fn fit_once(mut self) -> RandomForest {
        let trees = std::mem::take(&mut self.trees);
        let features = self.features(&[]);
        let trees = trees
            .into_iter()
            .map(|(rng, mut sample)| {
                let sorted = std::mem::take(&mut sample.sorted);
                self.grow(&features, &sample, sorted, rng)
            })
            .collect();
        RandomForest {
            trees,
            task: self.task,
            n_features: features.len(),
        }
    }

    fn features<'a>(&'a self, tail: &[&'a RankedFeature]) -> Vec<&'a RankedFeature> {
        self.leading
            .iter()
            .map(Borrow::borrow)
            .chain(tail.iter().copied())
            .collect()
    }

    fn grow(
        &self,
        features: &[&RankedFeature],
        sample: &TreeSample,
        sorted: Vec<Vec<u64>>,
        mut rng: StdRng,
    ) -> DecisionTree {
        DecisionTree::grow(
            features,
            sample,
            sorted,
            self.task,
            self.tree,
            FeatureSampling::Sqrt,
            &mut rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::oracle::{bits, generate, probe_rows};
    use crate::tree::reference;
    use proptest::prelude::*;

    /// [`RandomForest::fit`] as it was before ranking: every tree sorts
    /// its nodes' values itself (the oracle for the rank-keyed fit).
    fn fit_reference(data: &MlDataset, task: TreeTask, config: RandomForestConfig) -> RandomForest {
        let n = data.len();
        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(t as u64 * 0x9E37));
            let indices: Vec<usize> = if n == 0 {
                Vec::new()
            } else {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            };
            trees.push(reference::fit_on(
                data,
                &indices,
                task,
                config.tree,
                FeatureSampling::Sqrt,
                &mut rng,
            ));
        }
        RandomForest {
            trees,
            task,
            n_features: data.n_features(),
        }
    }

    proptest! {
        #[test]
        fn rank_keyed_forest_matches_reference(
            n_features in 1usize..65,
            n_classes in 0usize..5,
            max_thresholds in prop_oneof![Just(1usize), Just(2), Just(16), Just(1000)],
            min_samples_leaf in prop_oneof![Just(1usize), Just(2), Just(5)],
            kind in 0usize..4,
            seed: u64
        ) {
            let case = generate(n_features, n_classes, max_thresholds, min_samples_leaf, kind, seed);
            let config = RandomForestConfig {
                n_trees: 3,
                tree: case.config,
                seed,
            };
            let fast = RandomForest::fit(&case.data, case.task, config);
            let slow = fit_reference(&case.data, case.task, config);
            prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "forest structure");
            let rows = probe_rows(&case.data);
            prop_assert_eq!(
                bits(&fast.predict_batch(&rows)),
                bits(&slow.predict_batch(&rows)),
                "predictions"
            );
            prop_assert_eq!(
                bits(&fast.feature_importances()),
                bits(&slow.feature_importances()),
                "importances"
            );
        }
    }

    /// The forest fitted tree by tree with nothing planned: each tree
    /// draws its bootstrap and presorts every feature itself.
    fn fit_unplanned(
        features: &[&RankedFeature],
        targets: &[f64],
        task: TreeTask,
        config: RandomForestConfig,
    ) -> RandomForest {
        let n = targets.len();
        let trees = (0..config.n_trees)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(t as u64 * 0x9E37));
                let indices: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
                let sample = TreeSample::new(&[], targets, indices, task);
                DecisionTree::grow(
                    features,
                    &sample,
                    Vec::new(),
                    task,
                    config.tree,
                    FeatureSampling::Sqrt,
                    &mut rng,
                )
            })
            .collect();
        RandomForest {
            trees,
            task,
            n_features: features.len(),
        }
    }

    fn assert_same_forest(a: &RandomForest, b: &RandomForest, rows: &[Vec<f64>], what: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: structure");
        assert_eq!(
            bits(&a.predict_batch(rows)),
            bits(&b.predict_batch(rows)),
            "{what}: predictions"
        );
        assert_eq!(
            bits(&a.feature_importances()),
            bits(&b.feature_importances()),
            "{what}: importances"
        );
    }

    proptest! {
        /// A plan over the leading features fits, for any tail, the forest
        /// `fit_ranked` fits over all of them, and so does a fit that plans
        /// nothing; fitting leaves the plan as it was.
        #[test]
        fn plan_fit_matches_one_shot_fit(
            n_features in 1usize..20,
            classes in 0usize..6,
            max_thresholds in prop_oneof![Just(2usize), Just(16)],
            kind in 0usize..4,
            nan in 0usize..2,
            cut in 0usize..3,
            seed: u64
        ) {
            // 0..=4: classification with that many classes; 5: regression.
            let generated_classes = match classes {
                0 => 2,
                5 => 0,
                k => k,
            };
            let mut case = generate(n_features, generated_classes, max_thresholds, 2, kind, seed);
            let task = if classes == 5 {
                TreeTask::Regression
            } else {
                TreeTask::Classification { n_classes: classes }
            };
            if nan == 1 {
                for (i, row) in case.data.features.iter_mut().enumerate() {
                    for (f, v) in row.iter_mut().enumerate() {
                        if (i + f) % 5 == 0 {
                            *v = f64::NAN;
                        }
                    }
                }
            }
            let config = RandomForestConfig {
                n_trees: 3,
                tree: case.config,
                seed,
            };
            let ranked = rank_features(&case.data);
            let features: Vec<&RankedFeature> = ranked.iter().collect();
            let n_leading = [0, n_features, n_features / 2][cut];
            let (leading, tail) = features.split_at(n_leading);
            let targets = &case.data.targets;

            let plan = ForestPlan::new(leading.to_vec(), targets, task, config);
            let planned = plan.fit(tail);
            let rows = probe_rows(&case.data);
            let one_shot = RandomForest::fit_ranked(&features, targets, task, config);
            assert_same_forest(&planned, &one_shot, &rows, "plan vs fit_ranked");
            let unplanned = fit_unplanned(&features, targets, task, config);
            assert_same_forest(&planned, &unplanned, &rows, "plan vs unplanned");
            assert_same_forest(&plan.fit(tail), &planned, &rows, "second plan fit");
        }
    }

    fn linear_dataset(n: usize) -> MlDataset {
        // y = 1 iff 2*x0 + noise-free margin; feature 1 is noise.
        let features: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, ((i * 31) % 17) as f64 / 17.0])
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|r| if r[0] > 0.5 { 1.0 } else { 0.0 })
            .collect();
        MlDataset {
            features,
            feature_names: vec!["signal".into(), "noise".into()],
            targets,
            n_classes: Some(2),
        }
    }

    #[test]
    fn forest_beats_chance_on_separable_data() {
        let d = linear_dataset(200);
        let f = RandomForest::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            RandomForestConfig::default(),
        );
        let preds = f.predict_batch(&d.features);
        let acc = preds
            .iter()
            .zip(&d.targets)
            .filter(|(p, y)| (*p - *y).abs() < 0.5)
            .count() as f64
            / d.len() as f64;
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn forest_is_deterministic() {
        let d = linear_dataset(100);
        let cfg = RandomForestConfig {
            seed: 42,
            ..Default::default()
        };
        let f1 = RandomForest::fit(&d, TreeTask::Classification { n_classes: 2 }, cfg);
        let f2 = RandomForest::fit(&d, TreeTask::Classification { n_classes: 2 }, cfg);
        assert_eq!(f1.predict_batch(&d.features), f2.predict_batch(&d.features));
    }

    #[test]
    fn importances_normalized_and_informative() {
        let d = linear_dataset(200);
        let f = RandomForest::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            RandomForestConfig::default(),
        );
        let imp = f.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "signal should dominate noise: {imp:?}");
    }

    #[test]
    fn regression_forest_tracks_mean() {
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..100).map(|i| i as f64 * 2.0).collect();
        let d = MlDataset {
            features,
            feature_names: vec!["x".into()],
            targets,
            n_classes: None,
        };
        let f = RandomForest::fit(&d, TreeTask::Regression, RandomForestConfig::default());
        let p = f.predict(&[50.0]);
        assert!((p - 100.0).abs() < 15.0, "p={p}");
    }

    #[test]
    fn empty_dataset_predicts_zero() {
        let d = MlDataset {
            features: vec![],
            feature_names: vec!["x".into()],
            targets: vec![],
            n_classes: Some(2),
        };
        let f = RandomForest::fit(
            &d,
            TreeTask::Classification { n_classes: 2 },
            RandomForestConfig::default(),
        );
        assert_eq!(f.predict(&[1.0]), 0.0);
    }
}
