//! The random-forest utility behind [`ClassificationTask`] and
//! [`RegressionTask`], and the `din`-side state their prepared forms keep.
//!
//! A query encodes its table (id-like columns dropped, the target's usable
//! rows and codes, every other column encoded), splits the rows
//! `repeats` times into train and validation sets, ranks every feature on
//! each train set, fits a forest per split and averages the scores. Every
//! step works column by column, and a forest's per-tree setup (bootstrap
//! draws, targets, the presorted key lists of its first features) depends
//! on its first features only, so the part of a query that covers a
//! table's leading columns — a [`Block`], with one [`ForestPlan`] per
//! split — depends on those columns only. A query encodes, ranks and
//! presorts just the columns after its block, fits each split's plan with
//! them, and predicts the validation rows straight from the encoded
//! columns.
//!
//! [`Task::prepare`] builds `din`'s block once; a query whose table starts
//! with columns bit-equal to `din`'s (every search query does) reuses it.
//! Any other table, and every query of an unprepared task, gets a block
//! built from all of its own columns. Both go through
//! [`ForestUtility::utility`], so the numbers, and the utility, are the
//! same bit for bit.
//!
//! [`ClassificationTask`]: crate::ClassificationTask
//! [`RegressionTask`]: crate::RegressionTask

use metam_core::Task;
use metam_ml::dataset::{encode_feature, encode_target, TargetKind};
use metam_ml::forest::{ForestPlan, RandomForestConfig};
use metam_ml::metrics::{f1_macro, regression_utility};
use metam_ml::split::train_test_indices;
use metam_ml::tree::{RankedFeature, TreeConfig, TreeTask};
use metam_table::column::ColumnData;
use metam_table::{Column, Table};

use crate::util::is_idlike;

/// Fraction of rows each split holds out for validation.
const TEST_FRACTION: f64 = 0.3;

/// One forest task's settings: what it predicts and how it fits.
#[derive(Debug, Clone)]
pub(crate) struct ForestUtility {
    /// Target column name.
    pub(crate) target: String,
    /// How the target is read.
    pub(crate) kind: TargetKind,
    /// Split/model seed.
    pub(crate) seed: u64,
    /// Trees per forest.
    pub(crate) n_trees: usize,
    /// Tree depth.
    pub(crate) max_depth: usize,
    /// Split/fit repetitions averaged per query.
    pub(crate) repeats: usize,
}

/// The encoded form of a table's first `n_columns` columns, which must
/// include the target.
struct Block {
    /// Leading table columns covered.
    n_columns: usize,
    /// Index of the target column.
    target: usize,
    /// Rows with a usable target, and their encoded targets.
    rows: Vec<usize>,
    targets: Vec<f64>,
    n_classes: Option<usize>,
    /// Encoded kept features among the covered columns, column-major over
    /// `rows`.
    features: Vec<Vec<f64>>,
    /// One per repetition.
    splits: Vec<Split>,
}

/// One train/validation split of a [`Block`]'s rows.
struct Split {
    /// Positions into the block's rows, in the order the fit sees them.
    train: Vec<usize>,
    test: Vec<usize>,
    /// The forest plan over the block's features ranked over `train`.
    plan: ForestPlan<RankedFeature>,
}

/// `column` restricted to `rows` and ranked.
fn rank_rows(column: &[f64], rows: &[usize]) -> RankedFeature {
    let values: Vec<f64> = rows.iter().map(|&i| column[i]).collect();
    RankedFeature::new(&values)
}

impl ForestUtility {
    /// Seed of repetition `r` (its split and its forest).
    fn repeat_seed(&self, r: usize) -> u64 {
        self.seed ^ (r as u64).wrapping_mul(0x9E3779B9)
    }

    /// The encoded features among `table`'s columns `columns`: the target
    /// and id-like columns left out (a column named like the target is
    /// kept regardless), each restricted to `rows`.
    fn encode_features(
        &self,
        table: &Table,
        columns: std::ops::Range<usize>,
        target: usize,
        rows: &[usize],
    ) -> Vec<Vec<f64>> {
        columns
            .filter(|&i| i != target)
            .filter(|&i| {
                table.column_display_name(i) == self.target || !is_idlike(&table.columns()[i])
            })
            .map(|i| encode_feature(&table.columns()[i], rows))
            .collect()
    }

    /// The tree task of targets with `n_classes` classes.
    fn tree_task(&self, n_classes: Option<usize>) -> TreeTask {
        match self.kind {
            TargetKind::Classification => TreeTask::Classification {
                n_classes: n_classes.unwrap_or(2).max(2),
            },
            TargetKind::Regression => TreeTask::Regression,
        }
    }

    /// The block covering every column of `table`; `None` when it has no
    /// target column.
    fn block(&self, table: &Table) -> Option<Block> {
        let target = table.column_index(&self.target).ok()?;
        let (rows, targets, n_classes) = encode_target(&table.columns()[target], self.kind);
        let features = self.encode_features(table, 0..table.ncols(), target, &rows);
        let splits = (0..self.repeats.max(1))
            .map(|r| {
                let (train, test) =
                    train_test_indices(rows.len(), TEST_FRACTION, self.repeat_seed(r));
                let ranked = features.iter().map(|c| rank_rows(c, &train)).collect();
                let train_targets: Vec<f64> = train.iter().map(|&i| targets[i]).collect();
                let config = RandomForestConfig {
                    n_trees: self.n_trees,
                    tree: TreeConfig {
                        max_depth: self.max_depth,
                        ..Default::default()
                    },
                    seed: self.repeat_seed(r),
                };
                let plan =
                    ForestPlan::new(ranked, &train_targets, self.tree_task(n_classes), config);
                Split { train, test, plan }
            })
            .collect();
        Some(Block {
            n_columns: table.ncols(),
            target,
            rows,
            targets,
            n_classes,
            features,
            splits,
        })
    }

    /// Utility of `table`, reusing `block` when the caller checked that
    /// it covers `table`'s leading columns, else building one from `table`.
    fn utility(&self, block: Option<&Block>, table: &Table) -> f64 {
        let own;
        let block = match block {
            Some(block) => block,
            None => match self.block(table) {
                Some(block) => {
                    own = block;
                    &own
                }
                None => return 0.0,
            },
        };
        let tail = self.encode_features(
            table,
            block.n_columns..table.ncols(),
            block.target,
            &block.rows,
        );
        if block.rows.len() < 20 || block.features.len() + tail.len() == 0 {
            return 0.0;
        }
        let task = self.tree_task(block.n_classes);
        let columns: Vec<&[f64]> = block
            .features
            .iter()
            .chain(&tail)
            .map(Vec::as_slice)
            .collect();
        let mut total = 0.0;
        for split in &block.splits {
            let tail_ranked: Vec<RankedFeature> =
                tail.iter().map(|c| rank_rows(c, &split.train)).collect();
            let tail_ranked: Vec<&RankedFeature> = tail_ranked.iter().collect();
            let forest = split.plan.fit(&tail_ranked);
            let preds = forest.predict_columns(&columns, &split.test);
            let test_targets: Vec<f64> = split.test.iter().map(|&i| block.targets[i]).collect();
            total += match task {
                TreeTask::Classification { n_classes } => {
                    f1_macro(&preds, &test_targets, n_classes)
                }
                TreeTask::Regression => regression_utility(&preds, &test_targets),
            };
        }
        total / block.splits.len() as f64
    }

    /// Utility of `table` with nothing shared: the unprepared task's query.
    pub(crate) fn utility_of(&self, table: &Table) -> f64 {
        self.utility(None, table)
    }

    /// The prepared form of the task named `name` for searches over `din`.
    pub(crate) fn prepare(&self, name: &'static str, din: &Table) -> Box<dyn Task> {
        Box::new(PreparedForest {
            name,
            din: self.block(din).map(|block| (din.columns().to_vec(), block)),
            forest: self.clone(),
        })
    }
}

/// Are `a` and `b` the same column bit for bit: name, type, nulls and
/// values, with floats compared by their bits (so `-0.0` differs from
/// `0.0`)?
fn same_bits(a: &Column, b: &Column) -> bool {
    let data = match (a.data(), b.data()) {
        (ColumnData::Float(x), ColumnData::Float(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
        }
        (ColumnData::Int(x), ColumnData::Int(y)) => x == y,
        (ColumnData::Str(x), ColumnData::Str(y)) => x == y,
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x == y,
        _ => false,
    };
    data && a.name == b.name
}

/// Does `table` start with exactly `columns`?
fn leads(columns: &[Column], table: &Table) -> bool {
    columns.len() <= table.ncols()
        && columns
            .iter()
            .zip(table.columns())
            .all(|(a, b)| same_bits(a, b))
}

/// A forest task prepared for searches over one `din`.
struct PreparedForest {
    name: &'static str,
    forest: ForestUtility,
    /// `din`'s columns and their block; `None` when `din` has no target
    /// column (every query then builds its own block).
    din: Option<(Vec<Column>, Block)>,
}

impl Task for PreparedForest {
    fn name(&self) -> &str {
        self.name
    }

    fn utility(&self, table: &Table) -> f64 {
        let block = self
            .din
            .as_ref()
            .filter(|(columns, _)| leads(columns, table))
            .map(|(_, block)| block);
        self.forest.utility(block, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn din() -> Table {
        Table::from_columns(
            "din",
            vec![
                Column::from_floats(Some("x".into()), vec![Some(0.0), Some(1.5), None]),
                Column::from_strings(
                    Some("label".into()),
                    vec![Some("a".into()), None, Some("b".into())],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn only_bit_equal_leading_columns_lead() {
        let din = din();
        let columns = din.columns().to_vec();
        assert!(leads(&columns, &din));
        let extra = Column::from_ints(Some("aug0_v".into()), vec![Some(1), Some(2), Some(3)]);
        assert!(leads(&columns, &din.with_column(extra).unwrap()));

        let reordered = din.select(&[1, 0]).unwrap();
        assert!(!leads(&columns, &reordered));
        assert!(!leads(&columns, &din.select(&[0]).unwrap()));
        let negative_zero = Table::from_columns(
            "din",
            vec![
                Column::from_floats(Some("x".into()), vec![Some(-0.0), Some(1.5), None]),
                columns[1].clone(),
            ],
        )
        .unwrap();
        assert!(!leads(&columns, &negative_zero));
        let renamed = Table::from_columns(
            "din",
            vec![columns[0].clone().with_name("y"), columns[1].clone()],
        )
        .unwrap();
        assert!(!leads(&columns, &renamed));
        let one_value = Table::from_columns(
            "din",
            vec![
                columns[0].clone(),
                Column::from_strings(
                    Some("label".into()),
                    vec![Some("a".into()), None, Some("c".into())],
                ),
            ],
        )
        .unwrap();
        assert!(!leads(&columns, &one_value));
    }
}
