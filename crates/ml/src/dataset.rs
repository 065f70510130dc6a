//! Encoding noisy tables into dense ML datasets.
//!
//! Tasks receive an augmented [`Table`] and must train on it no matter how
//! noisy the augmentation is: string columns are label-encoded, missing
//! numerics are mean-imputed, and missing categories become their own
//! category. This mirrors the forgiving encoding pipelines (ARDA etc.) the
//! paper builds on — a bad augmentation should lower utility, not crash the
//! task.

use metam_table::{DataType, Table};

/// A dense supervised dataset: row-major features plus a target vector.
#[derive(Debug, Clone)]
pub struct MlDataset {
    /// Row-major feature matrix, `n_rows × n_features`.
    pub features: Vec<Vec<f64>>,
    /// Feature names aligned with columns of `features`.
    pub feature_names: Vec<String>,
    /// Target values (class index as f64 for classification).
    pub targets: Vec<f64>,
    /// Number of distinct classes when the target was label-encoded;
    /// `None` for regression targets.
    pub n_classes: Option<usize>,
}

impl MlDataset {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Restrict to a subset of rows (cloning).
    pub fn take_rows(&self, indices: &[usize]) -> MlDataset {
        MlDataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            feature_names: self.feature_names.clone(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Restrict to a subset of feature columns.
    pub fn select_features(&self, cols: &[usize]) -> MlDataset {
        MlDataset {
            features: self
                .features
                .iter()
                .map(|row| cols.iter().map(|&c| row[c]).collect())
                .collect(),
            feature_names: cols
                .iter()
                .map(|&c| self.feature_names[c].clone())
                .collect(),
            targets: self.targets.clone(),
            n_classes: self.n_classes,
        }
    }
}

/// Deterministically label-encode string keys: distinct values sorted
/// lexicographically get codes `0..k`. Missing values get code `k` (their
/// own category).
fn encode_categorical(col: &metam_table::Column) -> Vec<f64> {
    let distinct = col.distinct_keys();
    let lookup: std::collections::HashMap<&str, usize> = distinct
        .iter()
        .enumerate()
        .map(|(i, k)| (k.as_str(), i))
        .collect();
    let missing_code = distinct.len() as f64;
    (0..col.len())
        .map(|r| {
            col.get(r)
                .join_key()
                .and_then(|k| lookup.get(k.as_str()).map(|&i| i as f64))
                .unwrap_or(missing_code)
        })
        .collect()
}

/// Mean-impute a numeric view (columns that are all-null impute to 0).
fn impute_numeric(raw: Vec<Option<f64>>) -> Vec<f64> {
    let present: Vec<f64> = raw.iter().flatten().copied().collect();
    let mean = if present.is_empty() {
        0.0
    } else {
        present.iter().sum::<f64>() / present.len() as f64
    };
    raw.into_iter().map(|v| v.unwrap_or(mean)).collect()
}

/// How to interpret the target column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Label-encode distinct values as class indices.
    Classification,
    /// Numeric view, mean-imputed.
    Regression,
}

/// The usable rows of a target column and their encoded targets:
/// `(rows, targets, n_classes)`. Rows whose target is missing are left out
/// (training on unlabeled rows is meaningless); `n_classes` is the number
/// of distinct labels for [`TargetKind::Classification`], `None` for
/// regression.
pub fn encode_target(
    target: &metam_table::Column,
    kind: TargetKind,
) -> (Vec<usize>, Vec<f64>, Option<usize>) {
    let rows: Vec<usize> = (0..target.len())
        .filter(|&r| match kind {
            TargetKind::Classification => target.get(r).join_key().is_some(),
            TargetKind::Regression => target.get(r).as_f64().is_some(),
        })
        .collect();
    match kind {
        TargetKind::Classification => {
            let codes = encode_categorical(target);
            let kept = rows.iter().map(|&r| codes[r]).collect();
            let n = target.distinct_count();
            (rows, kept, Some(n.max(1)))
        }
        TargetKind::Regression => {
            let raw = target.as_f64();
            let kept = rows.iter().map(|&r| raw[r].unwrap_or(0.0)).collect();
            (rows, kept, None)
        }
    }
}

/// One feature column encoded (strings label-encoded, numerics
/// mean-imputed over every row) and restricted to `rows`.
pub fn encode_feature(col: &metam_table::Column, rows: &[usize]) -> Vec<f64> {
    let full = if col.dtype() == DataType::Str {
        encode_categorical(col)
    } else {
        impute_numeric(col.as_f64())
    };
    rows.iter().map(|&r| full[r]).collect()
}

/// Encode `table` into a dataset using `target` (column name) as the label
/// and every other column as a feature.
///
/// Rows whose target is missing are dropped ([`encode_target`]); feature
/// nulls are imputed ([`encode_feature`]).
pub fn encode_table(
    table: &Table,
    target: &str,
    kind: TargetKind,
) -> metam_table::Result<MlDataset> {
    let target_idx = table.column_index(target)?;
    let (keep, targets, n_classes) = encode_target(table.column(target_idx)?, kind);

    let mut encoded_cols: Vec<Vec<f64>> = Vec::new();
    let mut feature_names = Vec::new();
    for (ci, col) in table.columns().iter().enumerate() {
        if ci == target_idx {
            continue;
        }
        encoded_cols.push(encode_feature(col, &keep));
        feature_names.push(table.column_display_name(ci));
    }

    let n_rows = keep.len();
    let n_feats = encoded_cols.len();
    let mut features = vec![vec![0.0; n_feats]; n_rows];
    for (c, col) in encoded_cols.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            features[r][c] = v;
        }
    }
    Ok(MlDataset {
        features,
        feature_names,
        targets,
        n_classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_table::Column;

    fn table() -> Table {
        Table::from_columns(
            "t",
            vec![
                Column::from_strings(
                    Some("city".into()),
                    vec![Some("b".into()), Some("a".into()), None, Some("a".into())],
                ),
                Column::from_floats(
                    Some("x".into()),
                    vec![Some(1.0), None, Some(3.0), Some(4.0)],
                ),
                Column::from_strings(
                    Some("label".into()),
                    vec![
                        Some("hi".into()),
                        Some("lo".into()),
                        Some("hi".into()),
                        None,
                    ],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn classification_drops_unlabeled_rows() {
        let d = encode_table(&table(), "label", TargetKind::Classification).unwrap();
        assert_eq!(d.len(), 3, "row with null label dropped");
        assert_eq!(d.n_classes, Some(2));
        assert_eq!(d.feature_names, vec!["city".to_string(), "x".to_string()]);
    }

    #[test]
    fn categorical_encoding_is_deterministic() {
        let d = encode_table(&table(), "label", TargetKind::Classification).unwrap();
        // distinct city keys sorted: ["a", "b"] → a=0, b=1, missing=2
        assert_eq!(d.features[0][0], 1.0);
        assert_eq!(d.features[1][0], 0.0);
        assert_eq!(d.features[2][0], 2.0);
    }

    #[test]
    fn numeric_nulls_are_mean_imputed() {
        let d = encode_table(&table(), "label", TargetKind::Classification).unwrap();
        // x over all 4 rows: mean of (1,3,4) = 8/3; row 1 was null.
        assert!((d.features[1][1] - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn regression_targets_numeric() {
        let t = Table::from_columns(
            "t",
            vec![
                Column::from_floats(Some("f".into()), vec![Some(1.0), Some(2.0)]),
                Column::from_floats(Some("y".into()), vec![Some(10.0), None]),
            ],
        )
        .unwrap();
        let d = encode_table(&t, "y", TargetKind::Regression).unwrap();
        assert_eq!(d.len(), 1, "row with null target dropped");
        assert_eq!(d.targets, vec![10.0]);
        assert_eq!(d.n_classes, None);
    }

    #[test]
    fn select_features_subsets() {
        let d = encode_table(&table(), "label", TargetKind::Classification).unwrap();
        let s = d.select_features(&[1]);
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.feature_names, vec!["x".to_string()]);
        assert_eq!(s.len(), d.len());
    }

    #[test]
    fn missing_target_column_errors() {
        assert!(encode_table(&table(), "nope", TargetKind::Regression).is_err());
    }
}
