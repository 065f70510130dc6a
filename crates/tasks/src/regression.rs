//! Random-forest regression task (§VI-A "Regression").
//!
//! Utility = 1 − MAE on targets normalized to `[0, 1]` — the collisions
//! prediction setting.

use metam_core::Task;
use metam_ml::dataset::TargetKind;
use metam_table::Table;

use crate::forest::ForestUtility;

const NAME: &str = "regression";

/// Regression task over a named numeric target.
pub struct RegressionTask {
    /// Target column name.
    pub target: String,
    /// Split/model seed.
    pub seed: u64,
    /// Seeded split/fit repetitions averaged per query.
    pub repeats: usize,
}

impl RegressionTask {
    /// Default regression task.
    pub fn new(target: impl Into<String>, seed: u64) -> RegressionTask {
        RegressionTask {
            target: target.into(),
            seed,
            repeats: 3,
        }
    }

    fn forest(&self) -> ForestUtility {
        ForestUtility {
            target: self.target.clone(),
            kind: TargetKind::Regression,
            seed: self.seed,
            n_trees: 8,
            max_depth: 6,
            repeats: self.repeats,
        }
    }
}

impl Task for RegressionTask {
    fn name(&self) -> &str {
        NAME
    }

    fn utility(&self, table: &Table) -> f64 {
        self.forest().utility_of(table)
    }

    /// Encodes `din`, splits its rows and ranks its features once; each
    /// query then encodes and ranks only its candidate columns.
    fn prepare(&self, din: &Table) -> Option<Box<dyn Task>> {
        Some(self.forest().prepare(NAME, din))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_datagen::supervised::{build_supervised, SupervisedConfig};
    use metam_table::join::left_join_column;

    #[test]
    fn informative_augmentation_raises_utility() {
        let s = build_supervised(&SupervisedConfig {
            n_rows: 350,
            n_informative: 2,
            n_irrelevant_tables: 2,
            n_erroneous_tables: 1,
            classification: false,
            ..Default::default()
        });
        let task = RegressionTask::new("label", 0);
        let base = task.utility(&s.din);
        let crime = s.tables.iter().find(|t| t.name == "crime_stats").unwrap();
        let col = left_join_column(
            &s.din,
            0,
            crime,
            0,
            crime.column_index("crime_stats_value").unwrap(),
        )
        .unwrap()
        .with_name("aug0_crime");
        let boosted = task.utility(&s.din.with_column(col).unwrap());
        assert!(boosted > base, "base={base} boosted={boosted}");
        assert!((0.0..=1.0).contains(&base));
        assert!((0.0..=1.0).contains(&boosted));
    }

    #[test]
    fn tiny_tables_score_zero() {
        let t = Table::from_columns(
            "t",
            vec![metam_table::Column::from_floats(
                Some("label".into()),
                vec![Some(1.0), Some(2.0)],
            )],
        )
        .unwrap();
        assert_eq!(RegressionTask::new("label", 0).utility(&t), 0.0);
    }
}
