//! Schemas with possibly-missing attribute names (paper Definition 1).

use std::fmt;

/// Logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integers.
    Int,
    /// 64-bit floats.
    Float,
    /// UTF-8 strings / categorical data.
    Str,
    /// Booleans.
    Bool,
}

impl DataType {
    /// Whether values of this type have a numeric view.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Bool)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
        };
        write!(f, "{s}")
    }
}

/// One attribute of a relation. The name may be absent: noisy open-data
/// tables frequently ship without header rows (`Ai = φ` in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name, if known.
    pub name: Option<String>,
    /// Logical type.
    pub dtype: DataType,
}

impl Field {
    /// Named field.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Field {
            name: Some(name.into()),
            dtype,
        }
    }

    /// Field with a missing header value.
    pub fn anonymous(dtype: DataType) -> Self {
        Field { name: None, dtype }
    }
}

/// Display name of the column at `index` named `name`: anonymous columns
/// render as `_colN`. The one naming rule for tables, descriptors and
/// catalog statistics.
pub fn display_name(name: Option<&str>, index: usize) -> String {
    name.map_or_else(|| format!("_col{index}"), String::from)
}

/// An ordered list of fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the first field with the given name (case-sensitive).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields
            .iter()
            .position(|f| f.name.as_deref() == Some(name))
    }

    /// Append a field.
    pub fn push(&mut self, field: Field) {
        self.fields.push(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_finds_named_fields() {
        let schema = Schema::new(vec![
            Field::new("zipcode", DataType::Str),
            Field::anonymous(DataType::Float),
            Field::new("price", DataType::Float),
        ]);
        assert_eq!(schema.index_of("price"), Some(2));
        assert_eq!(schema.index_of("zipcode"), Some(0));
        assert_eq!(schema.index_of("missing"), None);
    }

    #[test]
    fn display_name_falls_back_to_index() {
        assert_eq!(display_name(None, 3), "_col3");
        assert_eq!(display_name(Some("x"), 3), "x");
    }

    #[test]
    fn numeric_types() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(DataType::Bool.is_numeric());
        assert!(!DataType::Str.is_numeric());
    }
}
