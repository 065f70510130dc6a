//! Task-specific (ARDA feature-importance) profile for Fig. 7.
//!
//! The paper shows Metam accelerates further when given *informative,
//! task-specific* profiles from ARDA \[37\]: here, the forest feature
//! importance of the augmentation when appended to `Din`'s features.

use metam_ml::dataset::{encode_table, TargetKind};
use metam_ml::forest::{RandomForest, RandomForestConfig};
use metam_ml::tree::{TreeConfig, TreeTask};

use crate::profile::{Profile, ProfileContext};

/// Importance of the augmentation column in a quick forest fit on the
/// sampled rows of `Din ⊕ aug`.
pub struct TaskSpecificProfile {
    /// Whether the downstream target is categorical.
    pub classification: bool,
    /// Seed for the forest fit.
    pub seed: u64,
}

impl Profile for TaskSpecificProfile {
    fn name(&self) -> &str {
        "arda_importance"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let (Some(target), Some(aug)) = (ctx.target_column, ctx.aug) else {
            return 0.0;
        };
        // Small augmented sample table.
        let sampled = ctx.din.take_rows(ctx.sample_indices);
        let aug_sampled = aug.take(ctx.sample_indices).with_name("__aug__");
        let Ok(table) = sampled.with_column(aug_sampled) else {
            return 0.0;
        };
        let target_name = ctx.din.column_display_name(target);
        let kind = if self.classification {
            TargetKind::Classification
        } else {
            TargetKind::Regression
        };
        let Ok(data) = encode_table(&table, &target_name, kind) else {
            return 0.0;
        };
        if data.len() < 10 {
            return 0.0;
        }
        let task = if self.classification {
            TreeTask::Classification {
                n_classes: data.n_classes.unwrap_or(2).max(2),
            }
        } else {
            TreeTask::Regression
        };
        let forest = RandomForest::fit(
            &data,
            task,
            RandomForestConfig {
                n_trees: 6,
                tree: TreeConfig {
                    max_depth: 6,
                    ..Default::default()
                },
                seed: self.seed,
            },
        );
        let importances = forest.feature_importances();
        data.feature_names
            .iter()
            .position(|n| n == "__aug__")
            .and_then(|i| importances.get(i).copied())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_discovery::{Candidate, JoinPath};
    use metam_table::{Column, Table};

    fn candidate() -> Candidate {
        Candidate {
            id: 0,
            path: JoinPath::single(0, 0, 0),
            value_column: 0,
            name: String::new(),
            source_table: "ext".into(),
            column_name: "v".into(),
            source: String::new(),
            discovered_containment: 1.0,
        }
    }

    #[test]
    fn informative_augmentation_scores_higher_than_noise() {
        let n = 120;
        let target: Vec<Option<f64>> = (0..n)
            .map(|i| Some(if i % 2 == 0 { 1.0 } else { 0.0 }))
            .collect();
        let base: Vec<Option<f64>> = (0..n).map(|i| Some(((i * 31) % 7) as f64)).collect();
        let din = Table::from_columns(
            "din",
            vec![
                Column::from_floats(Some("noise".into()), base),
                Column::from_floats(Some("label".into()), target.clone()),
            ],
        )
        .unwrap();
        let informative = Column::from_floats(
            None,
            (0..n)
                .map(|i| Some(if i % 2 == 0 { 5.0 } else { -5.0 }))
                .collect(),
        );
        let junk =
            Column::from_floats(None, (0..n).map(|i| Some(((i * 17) % 11) as f64)).collect());
        let cand = candidate();
        let indices: Vec<usize> = (0..n).collect();
        let profile = TaskSpecificProfile {
            classification: true,
            seed: 0,
        };

        let score_info = profile.compute(&ProfileContext {
            din: &din,
            target_column: Some(1),
            sample_indices: &indices,
            candidate: &cand,
            aug: Some(&informative),
        });
        let score_junk = profile.compute(&ProfileContext {
            din: &din,
            target_column: Some(1),
            sample_indices: &indices,
            candidate: &cand,
            aug: Some(&junk),
        });
        assert!(
            score_info > score_junk + 0.2,
            "info={score_info} junk={score_junk}"
        );
    }

    #[test]
    fn missing_target_scores_zero() {
        let din = Table::from_columns(
            "din",
            vec![Column::from_floats(Some("x".into()), vec![Some(1.0); 5])],
        )
        .unwrap();
        let cand = candidate();
        let profile = TaskSpecificProfile {
            classification: true,
            seed: 0,
        };
        let score = profile.compute(&ProfileContext {
            din: &din,
            target_column: None,
            sample_indices: &[0, 1, 2],
            candidate: &cand,
            aug: None,
        });
        assert_eq!(score, 0.0);
    }
}
