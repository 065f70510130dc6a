//! Oracle tests: the rank-keyed builder against the per-node-sort
//! [`reference`](super::reference) builder it replaced. Fits must agree bit
//! for bit — structure, thresholds, predictions and importances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{reference, DecisionTree, FeatureSampling, TreeConfig, TreeTask};
use crate::dataset::MlDataset;

/// One generated fitting problem.
pub(crate) struct Case {
    pub(crate) data: MlDataset,
    pub(crate) task: TreeTask,
    pub(crate) config: TreeConfig,
    /// Bootstrap-style row indices: duplicates, in draw order.
    pub(crate) indices: Vec<usize>,
}

/// Draw one feature value of the given kind: 0 continuous, 1 tie-heavy
/// small integers, 2 signed zeros among a few values, 3 with infinities.
fn draw_value(kind: usize, rng: &mut StdRng) -> f64 {
    match kind {
        0 => rng.gen_range(-1.0..1.0),
        1 => rng.gen_range(0..4) as f64,
        2 => [-1.0, -0.0, 0.0, 0.0, -0.0, 0.5, 1.0][rng.gen_range(0..7)],
        _ => match rng.gen_range(0..8) {
            0 => f64::NEG_INFINITY,
            1 => f64::INFINITY,
            2 => -0.0,
            3 => 0.0,
            4 => f64::MAX,
            _ => rng.gen_range(-3.0..3.0),
        },
    }
}

/// A dataset of `n_features` columns of value `kind` (some duplicated
/// from their left neighbour) whose target depends on the first two
/// features plus noise. `n_classes == 0` means regression. Most cases
/// have 8–160 rows; one in four has 500–1000 rows of mostly distinct
/// (continuous) values, so large nodes go through the presorted
/// partition too.
pub(crate) fn generate(
    n_features: usize,
    n_classes: usize,
    max_thresholds: usize,
    min_samples_leaf: usize,
    kind: usize,
    seed: u64,
) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let large = rng.gen_range(0..4) == 0;
    let n_rows = if large {
        rng.gen_range(500..1000)
    } else {
        rng.gen_range(8..160)
    };
    let duplicated: Vec<bool> = (0..n_features)
        .map(|f| f > 0 && rng.gen_range(0..4) == 0)
        .collect();
    let features: Vec<Vec<f64>> = (0..n_rows)
        .map(|_| {
            let mut row: Vec<f64> = Vec::with_capacity(n_features);
            for &dup in &duplicated {
                let v = match row.last() {
                    Some(&prev) if dup => prev,
                    _ if large && rng.gen_range(0..8) != 0 => draw_value(0, &mut rng),
                    _ => draw_value(kind, &mut rng),
                };
                row.push(v);
            }
            row
        })
        .collect();
    let targets: Vec<f64> = features
        .iter()
        .map(|row| {
            let x0 = row[0];
            let x1 = row.get(1).copied().unwrap_or(0.0);
            let noise = rng.gen_range(0..5) == 0;
            if n_classes == 0 {
                let y = x0.clamp(-5.0, 5.0) + 2.0 * x1.clamp(-5.0, 5.0);
                (y * 10.0).round() / 10.0 + if noise { 1.5 } else { 0.0 }
            } else {
                let c = usize::from(x0 > 0.2) + usize::from(x1 > 0.0) + usize::from(noise);
                (c % n_classes) as f64
            }
        })
        .collect();
    let indices = (0..n_rows).map(|_| rng.gen_range(0..n_rows)).collect();
    let config = TreeConfig {
        max_depth: [3, 8, 12][rng.gen_range(0..3)],
        min_samples_split: [2, 4][rng.gen_range(0..2)],
        min_samples_leaf,
        max_thresholds,
    };
    Case {
        data: MlDataset {
            features,
            feature_names: (0..n_features).map(|f| format!("f{f}")).collect(),
            targets,
            n_classes: (n_classes > 0).then_some(n_classes),
        },
        task: if n_classes == 0 {
            TreeTask::Regression
        } else {
            TreeTask::Classification { n_classes }
        },
        config,
        indices,
    }
}

/// Rows to predict: the training rows plus a few off-grid probes.
pub(crate) fn probe_rows(data: &MlDataset) -> Vec<Vec<f64>> {
    let mut rows = data.features.clone();
    for probe in [-0.0, 0.0, 0.25, -7.0, 7.0, f64::INFINITY] {
        rows.push(vec![probe; data.n_features()]);
    }
    rows
}

/// Bit patterns, so `-0.0 != 0.0` and every ulp counts.
pub(crate) fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_tree(fast: &DecisionTree, slow: &DecisionTree, data: &MlDataset) {
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "tree structure");
    let rows = probe_rows(data);
    assert_eq!(
        bits(&fast.predict_batch(&rows)),
        bits(&slow.predict_batch(&rows)),
        "predictions"
    );
    assert_eq!(
        bits(fast.importances()),
        bits(slow.importances()),
        "importances"
    );
}

proptest! {
    #[test]
    fn rank_keyed_fit_on_matches_reference(
        n_features in 1usize..65,
        n_classes in 0usize..5,
        max_thresholds in prop_oneof![Just(1usize), Just(2), Just(16), Just(1000)],
        min_samples_leaf in prop_oneof![Just(1usize), Just(2), Just(5)],
        kind in 0usize..4,
        seed: u64
    ) {
        let case = generate(n_features, n_classes, max_thresholds, min_samples_leaf, kind, seed);
        for sampling in [FeatureSampling::All, FeatureSampling::Sqrt] {
            let fit = |reference_builder: bool| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                if reference_builder {
                    reference::fit_on(&case.data, &case.indices, case.task, case.config, sampling, &mut rng)
                } else {
                    DecisionTree::fit_on(&case.data, &case.indices, case.task, case.config, sampling, &mut rng)
                }
            };
            assert_same_tree(&fit(false), &fit(true), &case.data);
        }
    }
}

#[test]
fn nan_and_infinite_features_fit_deterministically() {
    let features: Vec<Vec<f64>> = (0..120)
        .map(|i| {
            let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][i % 4];
            let x = if i % 3 == 0 { special } else { i as f64 / 7.0 };
            vec![x, if i % 5 == 0 { f64::NAN } else { -x }, special]
        })
        .collect();
    for task in [
        TreeTask::Classification { n_classes: 3 },
        TreeTask::Regression,
    ] {
        let targets: Vec<f64> = (0..120).map(|i| ((i * 7) % 3) as f64).collect();
        let data = MlDataset {
            features: features.clone(),
            feature_names: vec!["a".into(), "b".into(), "c".into()],
            targets,
            n_classes: Some(3),
        };
        let fit = || {
            let tree = DecisionTree::fit(&data, task, TreeConfig::default(), 3);
            let forest = crate::RandomForest::fit(
                &data,
                task,
                crate::RandomForestConfig {
                    n_trees: 4,
                    seed: 3,
                    ..Default::default()
                },
            );
            let rows = probe_rows(&data);
            (
                format!("{tree:?} {forest:?}"),
                bits(&tree.predict_batch(&rows)),
                bits(&forest.predict_batch(&rows)),
                bits(&forest.feature_importances()),
            )
        };
        assert_eq!(fit(), fit(), "{task:?}");
    }
}
