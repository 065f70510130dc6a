//! The [`Table`] type: a named list of equal-length columns.

use crate::column::Column;
use crate::error::TableError;
use crate::schema::{display_name, DataType, Field, Schema};
use crate::value::Value;
use crate::Result;

/// A relation instance: a name, a source tag and equal-length columns.
///
/// The source tag models provenance (e.g. which open-data portal a table was
/// crawled from); the metadata profile uses it for syntactic similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Dataset name (e.g. file name in the repository).
    pub name: String,
    /// Provenance tag (e.g. portal / competition name).
    pub source: String,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Empty table with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            source: String::new(),
            columns: Vec::new(),
            nrows: 0,
        }
    }

    /// Build from columns; all columns must have equal length.
    pub fn from_columns(name: impl Into<String>, columns: Vec<Column>) -> Result<Self> {
        let nrows = columns.first().map_or(0, Column::len);
        for c in &columns {
            if c.len() != nrows {
                return Err(TableError::LengthMismatch {
                    expected: nrows,
                    actual: c.len(),
                });
            }
        }
        Ok(Table {
            name: name.into(),
            source: String::new(),
            columns,
            nrows,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, index: usize) -> Result<&Column> {
        self.columns
            .get(index)
            .ok_or(TableError::ColumnIndexOutOfBounds {
                index,
                len: self.columns.len(),
            })
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Index of the first column with the given name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.as_deref() == Some(name))
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))
    }

    /// Derived schema.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field {
                    name: c.name.clone(),
                    dtype: c.dtype(),
                })
                .collect(),
        )
    }

    /// Display name of column `i` (anonymous columns render as `_colN`).
    pub fn column_display_name(&self, i: usize) -> String {
        display_name(self.columns.get(i).and_then(|c| c.name.as_deref()), i)
    }

    /// Append a column; must match the row count (any length is accepted
    /// when the table has no columns yet).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.columns.is_empty() {
            self.nrows = column.len();
        } else if column.len() != self.nrows {
            return Err(TableError::LengthMismatch {
                expected: self.nrows,
                actual: column.len(),
            });
        }
        self.columns.push(column);
        Ok(())
    }

    /// New table with an extra column appended (original untouched).
    pub fn with_column(&self, column: Column) -> Result<Table> {
        let mut t = self.clone();
        t.add_column(column)?;
        Ok(t)
    }

    /// Projection onto the given column indices.
    pub fn select(&self, indices: &[usize]) -> Result<Table> {
        let mut cols = Vec::with_capacity(indices.len());
        for &i in indices {
            cols.push(self.column(i)?.clone());
        }
        let mut t = Table::from_columns(self.name.clone(), cols)?;
        t.source = self.source.clone();
        Ok(t)
    }

    /// Keep only the rows at `indices` (cloning values).
    pub fn take_rows(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table {
            name: self.name.clone(),
            source: self.source.clone(),
            columns,
            nrows: indices.len(),
        }
    }

    /// Row as dynamic values.
    pub fn row(&self, index: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(index)).collect()
    }

    /// Indices of columns whose type has a numeric view.
    pub fn numeric_column_indices(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dtype().is_numeric())
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of string columns (join-key candidates).
    pub fn string_column_indices(&self) -> Vec<usize> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dtype() == DataType::Str)
            .map(|(i, _)| i)
            .collect()
    }

    /// Approximate in-memory size in bytes; only used for Table I-style
    /// repository statistics, not for allocation decisions.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for c in &self.columns {
            total += match c.data() {
                crate::column::ColumnData::Int(v) => v.len() * 16,
                crate::column::ColumnData::Float(v) => v.len() * 16,
                crate::column::ColumnData::Bool(v) => v.len() * 2,
                crate::column::ColumnData::Str(v) => v
                    .iter()
                    .map(|s| s.as_ref().map_or(8, |s| 24 + s.len()))
                    .sum(),
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        Table::from_columns(
            "houses",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    vec![Some("60614".into()), Some("60615".into())],
                ),
                Column::from_floats(Some("price".into()), vec![Some(300.0), Some(420.0)]),
                Column::from_ints(Some("beds".into()), vec![Some(2), Some(3)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_columns_rejects_ragged() {
        let err = Table::from_columns(
            "bad",
            vec![
                Column::from_ints(None, vec![Some(1)]),
                Column::from_ints(None, vec![Some(1), Some(2)]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TableError::LengthMismatch { .. }));
    }

    #[test]
    fn lookup_by_name_and_index() {
        let t = sample_table();
        assert_eq!(t.column_index("price").unwrap(), 1);
        assert_eq!(t.column_by_name("beds").unwrap().get(1), Value::Int(3));
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn with_column_appends() {
        let t = sample_table();
        let t2 = t
            .with_column(Column::from_floats(
                Some("tax".into()),
                vec![Some(1.0), Some(2.0)],
            ))
            .unwrap();
        assert_eq!(t2.ncols(), 4);
        assert_eq!(t.ncols(), 3, "original untouched");
        assert!(t
            .with_column(Column::from_floats(None, vec![Some(1.0)]))
            .is_err());
    }

    #[test]
    fn take_rows_reorders() {
        let t = sample_table();
        let r = t.take_rows(&[1, 0, 1]);
        assert_eq!(r.nrows(), 3);
        assert_eq!(
            r.column_by_name("price").unwrap().get(0),
            Value::Float(420.0)
        );
    }

    #[test]
    fn schema_reflects_columns() {
        let t = sample_table();
        let s = t.schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.fields()[1].dtype, DataType::Float);
        assert_eq!(s.index_of("zip"), Some(0));
    }

    #[test]
    fn numeric_and_string_indices() {
        let t = sample_table();
        assert_eq!(t.numeric_column_indices(), vec![1, 2]);
        assert_eq!(t.string_column_indices(), vec![0]);
    }
}
