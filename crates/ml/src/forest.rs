//! Bagged random forests (the paper's default task model).
//!
//! [`RandomForest::fit`] ranks the dataset's features once and shares the
//! ranks with every tree, which then searches splits by rank on its
//! bootstrap sample (see [`crate::tree`]; ties between equal values break
//! by bootstrap position, so fits are bit-identical to sorting each node's
//! values). [`RandomForest::fit_ranked`] takes columns the caller ranked,
//! so a column shared by many fits is ranked once.

use rand::Rng;
use rand::SeedableRng;

use crate::dataset::MlDataset;
use crate::tree::{
    rank_features, DecisionTree, FeatureSampling, RankedFeature, TreeConfig, TreeTask,
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
        let n = targets.len();
        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(config.seed.wrapping_add(t as u64 * 0x9E37));
            let indices: Vec<usize> = if n == 0 {
                Vec::new()
            } else {
                (0..n).map(|_| rng.gen_range(0..n)).collect()
            };
            trees.push(DecisionTree::fit_ranked(
                features,
                targets,
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
            n_features: features.len(),
        }
    }

    /// Predict one row: majority vote (classification) or mean (regression).
    pub fn predict(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        match self.task {
            TreeTask::Classification { n_classes } => {
                let mut votes = vec![0usize; n_classes.max(1)];
                for tree in &self.trees {
                    let c = tree.predict(row) as usize;
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
                self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
            }
        }
    }

    /// Predict many rows.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
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
