//! Typed, nullable columns with cheap numeric/key views and basic statistics.

use crate::schema::DataType;
use crate::value::Value;

/// Homogeneous storage behind a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Nullable integers.
    Int(Vec<Option<i64>>),
    /// Nullable floats (never NaN; NaN normalizes to null).
    Float(Vec<Option<f64>>),
    /// Nullable strings.
    Str(Vec<Option<String>>),
    /// Nullable booleans.
    Bool(Vec<Option<bool>>),
}

/// Map `values` into a typed vector whose capacity equals its length. A
/// plain `collect` may reuse the `Vec<Value>` buffer in place, which keeps
/// the wider source allocation (24 B per row for an `Int` column instead
/// of 16) for the column's whole life.
fn exact_collect<T>(values: Vec<Value>, f: impl FnMut(Value) -> Option<T>) -> Vec<Option<T>> {
    let mut data: Vec<Option<T>> = values.into_iter().map(f).collect();
    data.shrink_to_fit();
    data
}

/// A named, typed, nullable column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Attribute name, possibly missing (noisy schema).
    pub name: Option<String>,
    data: ColumnData,
}

impl Column {
    /// Integer column.
    pub fn from_ints(name: impl Into<Option<String>>, data: Vec<Option<i64>>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Int(data),
        }
    }

    /// Float column. NaNs are normalized to nulls.
    pub fn from_floats(name: impl Into<Option<String>>, data: Vec<Option<f64>>) -> Self {
        let data = data
            .into_iter()
            .map(|v| v.filter(|x| !x.is_nan()))
            .collect();
        Column {
            name: name.into(),
            data: ColumnData::Float(data),
        }
    }

    /// String column.
    pub fn from_strings(name: impl Into<Option<String>>, data: Vec<Option<String>>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Str(data),
        }
    }

    /// Boolean column.
    pub fn from_bools(name: impl Into<Option<String>>, data: Vec<Option<bool>>) -> Self {
        Column {
            name: name.into(),
            data: ColumnData::Bool(data),
        }
    }

    /// Build a column from dynamic values, choosing the narrowest type that
    /// fits every non-null value (Int ⊂ Float; anything else ⇒ Str).
    pub fn from_values(name: impl Into<Option<String>>, values: Vec<Value>) -> Self {
        let name = name.into();
        let mut all_int = true;
        let mut all_num = true;
        let mut all_bool = true;
        for v in &values {
            match v {
                Value::Null => {}
                Value::Int(_) => {
                    all_bool = false;
                }
                Value::Float(_) => {
                    all_int = false;
                    all_bool = false;
                }
                Value::Bool(_) => {
                    all_int = false;
                    all_num = false;
                }
                Value::Str(_) => {
                    all_int = false;
                    all_num = false;
                    all_bool = false;
                }
            }
        }
        if all_bool {
            let data = exact_collect(values, |v| match v {
                Value::Bool(b) => Some(b),
                _ => None,
            });
            return Column {
                name,
                data: ColumnData::Bool(data),
            };
        }
        if all_int {
            let data = exact_collect(values, |v| match v {
                Value::Int(i) => Some(i),
                _ => None,
            });
            return Column {
                name,
                data: ColumnData::Int(data),
            };
        }
        if all_num {
            let data = exact_collect(values, |v| v.as_f64());
            return Column {
                name,
                data: ColumnData::Float(data),
            };
        }
        let data = exact_collect(values, |v| match v {
            Value::Null => None,
            other => Some(other.to_string()),
        });
        Column {
            name,
            data: ColumnData::Str(data),
        }
    }

    /// Logical type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Raw storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dynamic value at `row` (out-of-bounds ⇒ `Null`).
    pub fn get(&self, row: usize) -> Value {
        match &self.data {
            ColumnData::Int(v) => v
                .get(row)
                .copied()
                .flatten()
                .map_or(Value::Null, Value::Int),
            ColumnData::Float(v) => v
                .get(row)
                .copied()
                .flatten()
                .map_or(Value::Null, Value::Float),
            ColumnData::Str(v) => v
                .get(row)
                .and_then(|o| o.clone())
                .map_or(Value::Null, Value::Str),
            ColumnData::Bool(v) => v
                .get(row)
                .copied()
                .flatten()
                .map_or(Value::Null, Value::Bool),
        }
    }

    /// Number of missing values.
    pub fn null_count(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Fraction of non-null values.
    pub fn fill_ratio(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.null_count() as f64 / self.len() as f64
    }

    /// Numeric view: `None` per row when the value is null or non-numeric.
    pub fn as_f64(&self) -> Vec<Option<f64>> {
        match &self.data {
            ColumnData::Int(v) => v.iter().map(|x| x.map(|i| i as f64)).collect(),
            ColumnData::Float(v) => v.clone(),
            ColumnData::Bool(v) => v.iter().map(|x| x.map(bool_to_f64)).collect(),
            ColumnData::Str(v) => v.iter().map(|x| x.as_deref().and_then(parse_f64)).collect(),
        }
    }

    /// One row of [`as_f64`](Self::as_f64), converting only that row
    /// (out-of-bounds ⇒ `None`).
    pub fn f64_at(&self, row: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Int(v) => v.get(row).copied().flatten().map(|i| i as f64),
            ColumnData::Float(v) => v.get(row).copied().flatten(),
            ColumnData::Bool(v) => v.get(row).copied().flatten().map(bool_to_f64),
            ColumnData::Str(v) => v.get(row).and_then(|x| x.as_deref()).and_then(parse_f64),
        }
    }

    /// Write the normalized join key of `row` into `out`, replacing its
    /// contents, and return `true`; return `false` (with `out` empty) where
    /// [`Value::join_key`] of the row is `None`. The text equals
    /// `self.get(row).join_key()`, without cloning the cell or allocating
    /// the key.
    pub fn write_join_key(&self, row: usize, out: &mut String) -> bool {
        use std::fmt::Write as _;
        out.clear();
        // Writing into a `String` cannot fail.
        match &self.data {
            ColumnData::Int(v) => v
                .get(row)
                .copied()
                .flatten()
                .is_some_and(|i| write!(out, "{i}").is_ok()),
            ColumnData::Float(v) => v.get(row).copied().flatten().is_some_and(|x| {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(out, "{}", x as i64).is_ok()
                } else {
                    write!(out, "{x}").is_ok()
                }
            }),
            ColumnData::Str(v) => {
                if let Some(s) = v.get(row).and_then(|x| x.as_deref()) {
                    out.push_str(s.trim());
                    out.make_ascii_lowercase();
                }
                !out.is_empty()
            }
            ColumnData::Bool(v) => v
                .get(row)
                .copied()
                .flatten()
                .is_some_and(|b| write!(out, "{b}").is_ok()),
        }
    }

    /// The rows of this column at `rows`, in order, with a null wherever
    /// an entry is `None` or out of bounds. The result keeps this column's
    /// type and name; an all-null result (an empty one too) is a `Bool`
    /// column. That is exactly what [`Column::from_values`] infers from the
    /// same rows' [`Value`]s, without building one per row.
    pub fn gather(&self, rows: impl IntoIterator<Item = Option<usize>>) -> Column {
        fn pick<T: Clone>(
            v: &[Option<T>],
            rows: impl Iterator<Item = Option<usize>>,
        ) -> Vec<Option<T>> {
            rows.map(|r| r.and_then(|r| v.get(r).cloned().flatten()))
                .collect()
        }
        let rows = rows.into_iter();
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(pick(v, rows)),
            ColumnData::Float(v) => ColumnData::Float(pick(v, rows)),
            ColumnData::Str(v) => ColumnData::Str(pick(v, rows)),
            ColumnData::Bool(v) => ColumnData::Bool(pick(v, rows)),
        };
        let mut col = Column {
            name: self.name.clone(),
            data,
        };
        if col.null_count() == col.len() {
            col.data = ColumnData::Bool(vec![None; col.len()]);
        }
        col
    }

    /// Normalized join keys per row (see [`Value::join_key`]).
    pub fn join_keys(&self) -> Vec<Option<String>> {
        (0..self.len()).map(|i| self.get(i).join_key()).collect()
    }

    /// Sorted, deduplicated set of normalized keys. Used by the discovery
    /// index for containment estimation.
    pub fn distinct_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.join_keys().into_iter().flatten().collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Mean of the numeric view (ignoring nulls); `None` when no numeric
    /// values exist.
    pub fn mean(&self) -> Option<f64> {
        let vals: Vec<f64> = self.as_f64().into_iter().flatten().collect();
        if vals.is_empty() {
            return None;
        }
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }

    /// Population standard deviation of the numeric view.
    pub fn std(&self) -> Option<f64> {
        let vals: Vec<f64> = self.as_f64().into_iter().flatten().collect();
        if vals.is_empty() {
            return None;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / vals.len() as f64;
        Some(var.sqrt())
    }

    /// Minimum of the numeric view.
    pub fn min(&self) -> Option<f64> {
        self.as_f64()
            .into_iter()
            .flatten()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.min(x))))
    }

    /// Maximum of the numeric view.
    pub fn max(&self) -> Option<f64> {
        self.as_f64()
            .into_iter()
            .flatten()
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Number of distinct non-null keys.
    pub fn distinct_count(&self) -> usize {
        self.distinct_keys().len()
    }

    /// Keep only the rows at `indices` (cloning values), e.g. for sampling.
    pub fn take(&self, indices: &[usize]) -> Column {
        self.gather(indices.iter().map(|&i| Some(i)))
    }

    /// Rename, builder style.
    pub fn with_name(mut self, name: impl Into<String>) -> Column {
        self.name = Some(name.into());
        self
    }
}

fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn parse_f64(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_col(vals: &[f64]) -> Column {
        Column::from_floats(
            Some("x".to_string()),
            vals.iter().map(|&v| Some(v)).collect(),
        )
    }

    #[test]
    fn from_values_narrows_types() {
        let c = Column::from_values(None, vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert_eq!(c.dtype(), DataType::Int);
        let c = Column::from_values(None, vec![Value::Int(1), Value::Float(0.5)]);
        assert_eq!(c.dtype(), DataType::Float);
        let c = Column::from_values(None, vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(c.dtype(), DataType::Str);
        let c = Column::from_values(None, vec![Value::Bool(true), Value::Null]);
        assert_eq!(c.dtype(), DataType::Bool);
    }

    #[test]
    fn from_values_allocates_exactly_its_rows() {
        let kinds: [fn(usize) -> Value; 4] = [
            |i| Value::Int(i as i64),
            |i| Value::Float(i as f64 + 0.5),
            |i| Value::Str(format!("s{i}")),
            |i| Value::Bool(i % 2 == 0),
        ];
        for make in kinds {
            // A source with spare capacity, as a pushed-to `Vec` has.
            let mut values = Vec::with_capacity(1500);
            values.extend((0..1000).map(|i| if i % 7 == 0 { Value::Null } else { make(i) }));
            let c = Column::from_values(None, values);
            let (len, capacity) = match &c.data {
                ColumnData::Int(v) => (v.len(), v.capacity()),
                ColumnData::Float(v) => (v.len(), v.capacity()),
                ColumnData::Str(v) => (v.len(), v.capacity()),
                ColumnData::Bool(v) => (v.len(), v.capacity()),
            };
            assert_eq!((len, capacity), (1000, 1000), "{:?}", c.dtype());
        }
    }

    #[test]
    fn stats_ignore_nulls() {
        let c = Column::from_floats(None, vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.mean(), Some(2.0));
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(3.0));
        assert_eq!(c.null_count(), 1);
        assert!((c.fill_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn std_of_constant_is_zero() {
        let c = float_col(&[5.0, 5.0, 5.0]);
        assert_eq!(c.std(), Some(0.0));
    }

    #[test]
    fn numeric_view_parses_strings() {
        let c = Column::from_strings(None, vec![Some("1.5".into()), Some("oops".into()), None]);
        assert_eq!(c.as_f64(), vec![Some(1.5), None, None]);
    }

    #[test]
    fn distinct_keys_normalize_and_dedup() {
        let c = Column::from_strings(
            None,
            vec![
                Some("Chicago".into()),
                Some(" chicago ".into()),
                Some("NYC".into()),
                None,
            ],
        );
        assert_eq!(
            c.distinct_keys(),
            vec!["chicago".to_string(), "nyc".to_string()]
        );
        assert_eq!(c.distinct_count(), 2);
    }

    #[test]
    fn take_selects_rows() {
        let c = Column::from_ints(None, vec![Some(10), Some(20), Some(30)]);
        let t = c.take(&[2, 0]);
        assert_eq!(t.get(0), Value::Int(30));
        assert_eq!(t.get(1), Value::Int(10));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn get_out_of_bounds_is_null() {
        let c = float_col(&[1.0]);
        assert_eq!(c.get(5), Value::Null);
    }

    /// One column of each type, with a null row among its values.
    fn one_of_each_type() -> Vec<Column> {
        vec![
            Column::from_ints(Some("i".into()), vec![Some(-3), None, Some(i64::MIN)]),
            Column::from_floats(Some("f".into()), vec![Some(1.5), Some(-0.0), None]),
            Column::from_strings(
                Some("s".into()),
                vec![None, Some(" Ab ".into()), Some("".into())],
            ),
            Column::from_bools(Some("b".into()), vec![Some(true), None, Some(false)]),
        ]
    }

    #[test]
    fn gather_equals_from_values_of_the_same_rows() {
        let row_sets: [&[Option<usize>]; 6] = [
            &[Some(0), None, Some(2), Some(0)],
            &[Some(2), Some(1)],
            &[None, None, None],
            &[Some(7), None],
            &[Some(1)],
            &[],
        ];
        for col in one_of_each_type() {
            for rows in row_sets {
                let values: Vec<Value> = rows
                    .iter()
                    .map(|r| r.map_or(Value::Null, |r| col.get(r)))
                    .collect();
                let expected = Column::from_values(col.name.clone(), values);
                let got = col.gather(rows.iter().copied());
                assert_eq!(got, expected, "{:?} at {rows:?}", col.dtype());
            }
        }
    }

    #[test]
    fn f64_at_reads_one_row_of_the_numeric_view() {
        let mut cols = one_of_each_type();
        cols.push(Column::from_strings(
            None,
            vec![Some(" 2.5 ".into()), Some("x".into()), Some("-1e3".into())],
        ));
        for col in cols {
            let full = col.as_f64();
            for row in 0..full.len() + 2 {
                let want = full.get(row).copied().flatten();
                assert_eq!(col.f64_at(row).map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn nan_is_normalized_to_null() {
        let c = Column::from_floats(None, vec![Some(f64::NAN), Some(1.0)]);
        assert_eq!(c.null_count(), 1);
    }
}
