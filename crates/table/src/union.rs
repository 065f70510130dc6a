//! Table unions (record-addition augmentations, paper §VI Fig. 4b).
//!
//! A union candidate contributes *rows* instead of columns. Tables are
//! aligned by column name; columns missing on either side are padded with
//! nulls so the union is total (union search systems like \[15\] tolerate
//! partial schema overlap).

use crate::column::Column;
use crate::error::TableError;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// Jaccard similarity of the two tables' column-name sets; the *unionability*
/// score used to rank union candidates.
pub fn schema_jaccard(a: &Table, b: &Table) -> f64 {
    let names_a: Vec<String> = (0..a.ncols()).map(|i| a.column_display_name(i)).collect();
    let names_b: Vec<String> = (0..b.ncols()).map(|i| b.column_display_name(i)).collect();
    if names_a.is_empty() && names_b.is_empty() {
        return 1.0;
    }
    let inter = names_a.iter().filter(|n| names_b.contains(n)).count();
    let union = names_a.len() + names_b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Union `top` and `bottom` by column name.
///
/// The output schema is `top`'s columns followed by `bottom`-only columns;
/// cells absent on one side become nulls. Errors if the tables share no
/// column names at all (nothing to align on).
pub fn union_tables(top: &Table, bottom: &Table) -> Result<Table> {
    if schema_jaccard(top, bottom) == 0.0 {
        return Err(TableError::UnionMismatch(format!(
            "tables {:?} and {:?} share no column names",
            top.name, bottom.name
        )));
    }
    let top_names: Vec<String> = (0..top.ncols())
        .map(|i| top.column_display_name(i))
        .collect();
    let bottom_names: Vec<String> = (0..bottom.ncols())
        .map(|i| bottom.column_display_name(i))
        .collect();

    let mut out_cols: Vec<Column> = Vec::new();
    // Columns led by `top`.
    for (i, name) in top_names.iter().enumerate() {
        let mut values: Vec<Value> = (0..top.nrows()).map(|r| top.columns()[i].get(r)).collect();
        match bottom_names.iter().position(|n| n == name) {
            Some(bi) => {
                values.extend((0..bottom.nrows()).map(|r| bottom.columns()[bi].get(r)));
            }
            None => values.extend(std::iter::repeat_n(Value::Null, bottom.nrows())),
        }
        out_cols.push(Column::from_values(Some(name.clone()), values));
    }
    // Bottom-only columns, padded with nulls on top.
    for (bi, name) in bottom_names.iter().enumerate() {
        if top_names.contains(name) {
            continue;
        }
        let mut values: Vec<Value> = std::iter::repeat_n(Value::Null, top.nrows()).collect();
        values.extend((0..bottom.nrows()).map(|r| bottom.columns()[bi].get(r)));
        out_cols.push(Column::from_values(Some(name.clone()), values));
    }
    let mut t = Table::from_columns(format!("{}+{}", top.name, bottom.name), out_cols)?;
    t.source = top.source.clone();
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, cols: Vec<(&str, Vec<Option<f64>>)>) -> Table {
        Table::from_columns(
            name,
            cols.into_iter()
                .map(|(n, v)| Column::from_floats(Some(n.to_string()), v))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn union_appends_rows() {
        let a = t("a", vec![("x", vec![Some(1.0)]), ("y", vec![Some(2.0)])]);
        let b = t("b", vec![("x", vec![Some(3.0)]), ("y", vec![Some(4.0)])]);
        let u = union_tables(&a, &b).unwrap();
        assert_eq!(u.nrows(), 2);
        assert_eq!(u.ncols(), 2);
        assert_eq!(u.column_by_name("x").unwrap().get(1), Value::Float(3.0));
    }

    #[test]
    fn union_pads_missing_columns_with_nulls() {
        let a = t("a", vec![("x", vec![Some(1.0)])]);
        let b = t("b", vec![("x", vec![Some(2.0)]), ("z", vec![Some(9.0)])]);
        let u = union_tables(&a, &b).unwrap();
        assert_eq!(u.ncols(), 2);
        let z = u.column_by_name("z").unwrap();
        assert_eq!(z.get(0), Value::Null);
        assert_eq!(z.get(1), Value::Float(9.0));
    }

    #[test]
    fn disjoint_schemas_error() {
        let a = t("a", vec![("x", vec![Some(1.0)])]);
        let b = t("b", vec![("y", vec![Some(2.0)])]);
        assert!(union_tables(&a, &b).is_err());
    }

    #[test]
    fn jaccard_of_identical_schemas_is_one() {
        let a = t("a", vec![("x", vec![]), ("y", vec![])]);
        let b = t("b", vec![("y", vec![]), ("x", vec![])]);
        assert!((schema_jaccard(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_partial_overlap() {
        let a = t("a", vec![("x", vec![]), ("y", vec![])]);
        let b = t("b", vec![("y", vec![]), ("z", vec![])]);
        assert!((schema_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }
}
