//! Feature importance, including ARDA-style random injection.
//!
//! ARDA \[37\] ranks candidate features by fitting a model after *injecting*
//! random noise features: a real feature matters only if its importance
//! beats the best noise feature. The `iARDA` baseline and Fig. 7's
//! task-specific profiles are built on [`injection_scores`].

use rand::Rng;
use rand::SeedableRng;

use crate::dataset::MlDataset;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::tree::TreeTask;

/// Per-feature injection result.
#[derive(Debug, Clone)]
pub struct InjectionScore {
    /// Feature name.
    pub name: String,
    /// Forest importance of the feature.
    pub importance: f64,
    /// Whether it beat the noise threshold.
    pub selected: bool,
}

/// Compute random-injection importance scores.
///
/// Appends `n_noise` uniform noise columns, fits a forest, and scores each
/// real feature by its importance relative to the *maximum* noise
/// importance (ARDA's τ threshold with the conservative max rule).
pub fn injection_scores(
    data: &MlDataset,
    task: TreeTask,
    n_noise: usize,
    seed: u64,
) -> Vec<InjectionScore> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_noise = n_noise.max(1);
    let mut augmented = data.clone();
    for k in 0..n_noise {
        augmented.feature_names.push(format!("__noise_{k}"));
        for row in &mut augmented.features {
            row.push(rng.gen_range(0.0..1.0));
        }
    }
    let forest = RandomForest::fit(
        &augmented,
        task,
        RandomForestConfig {
            seed: seed ^ 0x5bd1e995,
            ..Default::default()
        },
    );
    let imp = forest.feature_importances();
    let real = data.n_features();
    let noise_max = imp[real..].iter().copied().fold(0.0f64, f64::max);
    data.feature_names
        .iter()
        .enumerate()
        .map(|(i, name)| InjectionScore {
            name: name.clone(),
            importance: imp[i],
            selected: imp[i] > noise_max,
        })
        .collect()
}

/// Rank feature indices by injection importance, best first.
pub fn rank_by_injection(
    data: &MlDataset,
    task: TreeTask,
    n_noise: usize,
    seed: u64,
) -> Vec<usize> {
    let scores = injection_scores(data, task, n_noise, seed);
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .importance
            .partial_cmp(&scores[a].importance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> MlDataset {
        // Feature 0 drives the label; feature 1 is a weak copy; feature 2 noise.
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..300 {
            let x = (i % 100) as f64 / 100.0;
            features.push(vec![
                x,
                x + ((i * 13) % 7) as f64 * 0.02,
                ((i * 29) % 11) as f64,
            ]);
            targets.push(if x > 0.5 { 1.0 } else { 0.0 });
        }
        MlDataset {
            features,
            feature_names: vec!["signal".into(), "weak".into(), "junk".into()],
            targets,
            n_classes: Some(2),
        }
    }

    #[test]
    fn injection_selects_signal() {
        let scores = injection_scores(&dataset(), TreeTask::Classification { n_classes: 2 }, 3, 0);
        assert!(scores[0].selected, "signal must beat noise: {scores:?}");
        assert!(scores[0].importance > scores[2].importance);
    }

    #[test]
    fn ranking_puts_signal_first() {
        let order = rank_by_injection(&dataset(), TreeTask::Classification { n_classes: 2 }, 3, 0);
        assert_eq!(order[0], 0, "order={order:?}");
    }

    #[test]
    fn injection_is_deterministic() {
        let d = dataset();
        let a = rank_by_injection(&d, TreeTask::Classification { n_classes: 2 }, 3, 9);
        let b = rank_by_injection(&d, TreeTask::Classification { n_classes: 2 }, 3, 9);
        assert_eq!(a, b);
    }
}
