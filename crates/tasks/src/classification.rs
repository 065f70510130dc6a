//! Random-forest classification task (§VI-A "Classification").
//!
//! Utility = macro F-score of a forest trained on a seeded split of the
//! (augmented) table — the paper's Price/Schools setting.

use metam_core::Task;
use metam_ml::dataset::TargetKind;
use metam_table::Table;

use crate::forest::ForestUtility;

const NAME: &str = "classification";

/// Classification task over a named target column.
pub struct ClassificationTask {
    /// Target column name.
    pub target: String,
    /// Split/model seed.
    pub seed: u64,
    /// Forest size (kept small — the utility is queried thousands of
    /// times per experiment).
    pub n_trees: usize,
    /// Tree depth.
    pub max_depth: usize,
    /// Number of seeded split/fit repetitions averaged per query —
    /// variance reduction so the utility reflects the augmentation, not
    /// split luck.
    pub repeats: usize,
}

impl ClassificationTask {
    /// Task with the default (paper-scale) model.
    pub fn new(target: impl Into<String>, seed: u64) -> ClassificationTask {
        ClassificationTask {
            target: target.into(),
            seed,
            n_trees: 8,
            max_depth: 6,
            repeats: 3,
        }
    }

    fn forest(&self) -> ForestUtility {
        ForestUtility {
            target: self.target.clone(),
            kind: TargetKind::Classification,
            seed: self.seed,
            n_trees: self.n_trees,
            max_depth: self.max_depth,
            repeats: self.repeats,
        }
    }
}

impl Task for ClassificationTask {
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

    fn scenario() -> metam_datagen::Scenario {
        build_supervised(&SupervisedConfig {
            n_rows: 400,
            n_informative: 2,
            n_irrelevant_tables: 2,
            n_erroneous_tables: 1,
            ..Default::default()
        })
    }

    #[test]
    fn informative_augmentation_raises_utility() {
        let s = scenario();
        let task = ClassificationTask::new("label", 0);
        let base = task.utility(&s.din);
        assert!((0.4..0.95).contains(&base), "base={base}");

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
        let augmented = s.din.with_column(col).unwrap();
        let boosted = task.utility(&augmented);
        assert!(
            boosted > base + 0.05,
            "augmentation must help: base={base} boosted={boosted}"
        );
    }

    #[test]
    fn utility_is_deterministic() {
        let s = scenario();
        let task = ClassificationTask::new("label", 7);
        assert_eq!(task.utility(&s.din), task.utility(&s.din));
    }

    #[test]
    fn missing_target_scores_zero() {
        let s = scenario();
        let task = ClassificationTask::new("nonexistent", 0);
        assert_eq!(task.utility(&s.din), 0.0);
    }
}
