//! Shared helpers: feature hygiene and numeric extraction.

use metam_table::{Column, DataType, Table};

/// Is `col` an id-like string column (≥ 80 % distinct values)? Join keys
/// and row ids carry no signal and would let trees overfit on
/// label-encoded noise.
pub fn is_idlike(col: &Column) -> bool {
    if col.dtype() != DataType::Str {
        return false;
    }
    let non_null = col.len() - col.null_count();
    non_null > 0 && col.distinct_count() * 5 >= non_null * 4
}

/// Drop id-like columns ([`is_idlike`]). Columns named in `keep` survive
/// regardless.
pub fn drop_idlike_columns(table: &Table, keep: &[&str]) -> Table {
    let mut indices = Vec::new();
    for (i, col) in table.columns().iter().enumerate() {
        let name = table.column_display_name(i);
        if keep.contains(&name.as_str()) || !is_idlike(col) {
            indices.push(i);
        }
    }
    // metam-analyze: allow(panic-in-lib): indices come from enumerating this table's own columns, so they are in range
    table.select(&indices).expect("indices are in range")
}

/// Numeric view of every numeric column: `(column values, display names)`.
/// Missing values are mean-imputed so causal tests get complete data.
pub fn numeric_columns(table: &Table) -> (Vec<Vec<f64>>, Vec<String>) {
    let mut cols = Vec::new();
    let mut names = Vec::new();
    for i in table.numeric_column_indices() {
        let raw = table.columns()[i].as_f64();
        let present: Vec<f64> = raw.iter().flatten().copied().collect();
        if present.len() < 3 {
            continue;
        }
        let mean = present.iter().sum::<f64>() / present.len() as f64;
        cols.push(raw.into_iter().map(|v| v.unwrap_or(mean)).collect());
        names.push(table.column_display_name(i));
    }
    (cols, names)
}

/// Does an augmented column name (like `aug12_writing_score`) refer to the
/// base attribute `attr`? Matches on suffix after the materializer prefix.
pub fn aug_matches(column_name: &str, attr: &str) -> bool {
    if column_name == attr {
        return true;
    }
    match column_name.strip_prefix("aug") {
        Some(rest) => rest.split_once('_').is_some_and(|(_, base)| base == attr),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idlike_strings_are_dropped() {
        let t = Table::from_columns(
            "t",
            vec![
                Column::from_strings(
                    Some("id".into()),
                    (0..50).map(|i| Some(format!("k{i}"))).collect(),
                ),
                Column::from_strings(
                    Some("cat".into()),
                    (0..50)
                        .map(|i| Some(if i % 2 == 0 { "a" } else { "b" }.to_string()))
                        .collect(),
                ),
                Column::from_floats(Some("x".into()), (0..50).map(|i| Some(i as f64)).collect()),
            ],
        )
        .unwrap();
        let d = drop_idlike_columns(&t, &[]);
        assert_eq!(d.ncols(), 2);
        assert!(d.column_by_name("id").is_err());
        let kept = drop_idlike_columns(&t, &["id"]);
        assert_eq!(kept.ncols(), 3);
    }

    #[test]
    fn numeric_columns_impute_means() {
        let t = Table::from_columns(
            "t",
            vec![Column::from_floats(
                Some("x".into()),
                vec![Some(1.0), None, Some(3.0), Some(2.0)],
            )],
        )
        .unwrap();
        let (cols, names) = numeric_columns(&t);
        assert_eq!(names, vec!["x".to_string()]);
        assert_eq!(cols[0][1], 2.0);
    }

    #[test]
    fn aug_matching() {
        assert!(aug_matches("aug12_writing_score", "writing_score"));
        assert!(aug_matches("writing_score", "writing_score"));
        assert!(!aug_matches("aug12_writing_score", "math_score"));
        assert!(!aug_matches("augmented", "mented"));
    }
}
