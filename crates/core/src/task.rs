//! The black-box task contract (paper Definition 5) and synthetic tasks.

use metam_table::Table;

/// A downstream task: anything that maps a (possibly augmented) dataset to
/// a utility score in `[0, 1]`. Metam never looks inside — it only queries.
pub trait Task: Send + Sync {
    /// Human-readable task name.
    fn name(&self) -> &str;

    /// Utility of the task when run on `table` (Definition 5). Must be
    /// deterministic for a fixed input table; higher is better.
    fn utility(&self, table: &Table) -> f64;

    /// A form of this task specialised to searches over `din`: every
    /// query of a search is `din`'s columns followed by candidate
    /// columns, so work that depends only on `din` (encoding it, say) can
    /// be done once here instead of once per query. The returned task must
    /// give every table the same utility, bit for bit, as `self` does,
    /// including tables that do not start with `din`. `None` (the default)
    /// means there is nothing to share and the search queries `self`.
    fn prepare(&self, din: &Table) -> Option<Box<dyn Task>> {
        let _ = din;
        None
    }
}

/// A synthetic task whose utility is a capped sum of per-augmentation
/// contributions: `u = min(1, base + Σ weight(aug))`.
///
/// Augmented columns are recognized by the `augID_` prefix the materializer
/// stamps. Monotone and submodular-ish; used by unit tests and the
/// scalability benches where a real model fit would drown the measurement.
pub struct LinearSyntheticTask {
    /// Utility of the bare `Din`.
    pub base: f64,
    /// Contribution of candidate `i` when its column is present.
    pub weights: Vec<f64>,
}

/// Parse the candidate id out of a materialized column name (`aug{id}_...`).
pub fn parse_aug_id(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("aug")?;
    let end = rest.find('_')?;
    rest[..end].parse().ok()
}

impl Task for LinearSyntheticTask {
    fn name(&self) -> &str {
        "linear-synthetic"
    }

    fn utility(&self, table: &Table) -> f64 {
        let mut u = self.base;
        for col in table.columns() {
            if let Some(id) = col.name.as_deref().and_then(parse_aug_id) {
                u += self.weights.get(id).copied().unwrap_or(0.0);
            }
        }
        u.clamp(0.0, 1.0)
    }
}

/// The set-cover gadget from Theorem 1: candidate `i` covers a fixed set of
/// elements; utility = covered fraction of the universe. NP-hardness
/// reduction *and* a convenient monotone, submodular ground truth.
pub struct SetCoverTask {
    /// `covers[i]` = elements covered by candidate `i`.
    pub covers: Vec<Vec<usize>>,
    /// Universe size `n`.
    pub universe: usize,
}

impl Task for SetCoverTask {
    fn name(&self) -> &str {
        "set-cover"
    }

    fn utility(&self, table: &Table) -> f64 {
        if self.universe == 0 {
            return 0.0;
        }
        let mut covered = vec![false; self.universe];
        for col in table.columns() {
            if let Some(id) = col.name.as_deref().and_then(parse_aug_id) {
                if let Some(elems) = self.covers.get(id) {
                    for &e in elems {
                        if e < self.universe {
                            covered[e] = true;
                        }
                    }
                }
            }
        }
        covered.iter().filter(|&&c| c).count() as f64 / self.universe as f64
    }
}

/// A deliberately *non-monotone* synthetic task: one "poison" candidate
/// subtracts utility. Exercises the monotonicity-certification path (P3).
pub struct NonMonotoneTask {
    /// Base utility.
    pub base: f64,
    /// Per-candidate deltas; may be negative.
    pub deltas: Vec<f64>,
}

impl Task for NonMonotoneTask {
    fn name(&self) -> &str {
        "non-monotone-synthetic"
    }

    fn utility(&self, table: &Table) -> f64 {
        let mut u = self.base;
        for col in table.columns() {
            if let Some(id) = col.name.as_deref().and_then(parse_aug_id) {
                u += self.deltas.get(id).copied().unwrap_or(0.0);
            }
        }
        u.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_table::Column;

    fn table_with_augs(ids: &[usize]) -> Table {
        let mut t = Table::from_columns(
            "din",
            vec![Column::from_floats(
                Some("y".into()),
                vec![Some(1.0), Some(2.0)],
            )],
        )
        .unwrap();
        for &id in ids {
            t.add_column(Column::from_floats(
                Some(format!("aug{id}_x")),
                vec![Some(0.0), Some(1.0)],
            ))
            .unwrap();
        }
        t
    }

    #[test]
    fn parse_aug_id_roundtrip() {
        assert_eq!(parse_aug_id("aug42_crime_rate"), Some(42));
        assert_eq!(parse_aug_id("aug7_"), Some(7));
        assert_eq!(parse_aug_id("crime"), None);
        assert_eq!(parse_aug_id("augx_1"), None);
    }

    #[test]
    fn linear_task_caps_at_one() {
        let task = LinearSyntheticTask {
            base: 0.5,
            weights: vec![0.3, 0.4],
        };
        assert_eq!(task.utility(&table_with_augs(&[])), 0.5);
        assert!((task.utility(&table_with_augs(&[0])) - 0.8).abs() < 1e-12);
        assert_eq!(task.utility(&table_with_augs(&[0, 1])), 1.0);
    }

    #[test]
    fn set_cover_counts_union() {
        let task = SetCoverTask {
            covers: vec![vec![0, 1], vec![1, 2], vec![3]],
            universe: 4,
        };
        assert_eq!(task.utility(&table_with_augs(&[])), 0.0);
        assert_eq!(task.utility(&table_with_augs(&[0])), 0.5);
        assert_eq!(task.utility(&table_with_augs(&[0, 1])), 0.75);
        assert_eq!(task.utility(&table_with_augs(&[0, 1, 2])), 1.0);
    }

    #[test]
    fn non_monotone_can_decrease() {
        let task = NonMonotoneTask {
            base: 0.6,
            deltas: vec![0.2, -0.3],
        };
        assert!(task.utility(&table_with_augs(&[1])) < task.utility(&table_with_augs(&[])));
    }
}
