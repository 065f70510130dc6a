//! Per-column summary statistics stored in the catalog.
//!
//! These are the lake's *profile cache*: cheap table-level statistics
//! computed once per file version, persisted in the file's `.mks` record
//! ([`crate::sketch`]) and reused until the file changes. They back the
//! `profile` CLI view and give discovery a first look at a table without
//! re-reading it.

use metam_discovery::MinHash;
use metam_table::{Column, DataType};

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name (`None` for anonymous columns).
    pub name: Option<String>,
    /// Inferred logical type.
    pub dtype: DataType,
    /// Number of rows with a missing value.
    pub null_count: usize,
    /// Number of distinct non-null normalized keys.
    pub distinct_count: usize,
    /// Minimum of the numeric view, when one exists.
    pub min: Option<f64>,
    /// Maximum of the numeric view.
    pub max: Option<f64>,
    /// Mean of the numeric view.
    pub mean: Option<f64>,
    /// Population standard deviation of the numeric view.
    pub std: Option<f64>,
}

impl ColumnStats {
    /// Profile one column: its statistics plus the MinHash signature of
    /// its distinct keys, computed from one pass over those keys (the
    /// signature's cardinality is the statistics' `distinct_count`).
    pub fn profile(column: &Column) -> (ColumnStats, MinHash) {
        let keys = column.distinct_keys();
        let stats = ColumnStats {
            name: column.name.clone(),
            dtype: column.dtype(),
            null_count: column.null_count(),
            distinct_count: keys.len(),
            min: column.min(),
            max: column.max(),
            mean: column.mean(),
            std: column.std(),
        };
        (stats, MinHash::from_keys(&keys))
    }

    /// Display name (anonymous columns render as `_colN`).
    pub fn display_name(&self, index: usize) -> String {
        metam_table::schema::display_name(self.name.as_deref(), index)
    }
}

/// Stable string form of a [`DataType`] for reports (`profile`).
pub fn dtype_to_str(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Str => "str",
        DataType::Bool => "bool",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reflect_column() {
        let c = Column::from_floats(
            Some("x".into()),
            vec![Some(1.0), None, Some(3.0), Some(3.0)],
        );
        let (s, minhash) = ColumnStats::profile(&c);
        assert_eq!(s.dtype, DataType::Float);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct_count, 2);
        assert_eq!(s.distinct_count, c.distinct_count());
        assert_eq!(minhash.cardinality, s.distinct_count);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(3.0));
        assert!((s.mean.unwrap() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.display_name(0), "x");
    }

    #[test]
    fn anonymous_column_displays_positionally() {
        let c = Column::from_ints(None, vec![Some(1)]);
        let (s, _) = ColumnStats::profile(&c);
        assert_eq!(s.display_name(2), "_col2");
    }
}
