//! Hash joins used to materialize join paths.
//!
//! Join-path materialization (paper Definition 3/4) always keeps the input
//! dataset's rows intact, so everything here is a *left* join: each left row
//! picks up the first matching right row, or nulls when no match exists.
//! First-match semantics keeps the augmented table row-aligned with `Din`,
//! which the paper's `Γ(Din, P[j])` projection requires.

use crate::column::Column;
use crate::error::TableError;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// A single equi-join hop: `left.left_key == right.right_key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Key column index on the left side.
    pub left_key: usize,
    /// Key column index on the right side.
    pub right_key: usize,
}

/// A first-match lookup from normalized join key ([`Value::join_key`]) to
/// the first row holding it, stored compactly: the distinct keys' bytes in
/// one buffer and an open-addressing table over them, with no allocation
/// per key. Built and probed through [`Column::write_join_key`], so
/// neither side allocates a key. Rows and key bytes count in `u32`: an
/// indexed column holds fewer than 2^32 rows and key bytes.
///
/// Exposed because multi-hop materialization in the discovery crate chains
/// row mappings through intermediate tables.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// The distinct keys, concatenated in first-seen order.
    text: String,
    /// Per distinct key: where it ends in `text` (it starts where the
    /// previous one ends), and its first row.
    entries: Vec<(u32, u32)>,
    /// Open addressing with linear probing: entry number + 1 per slot,
    /// 0 when empty. A power of two, at most half full.
    slots: Vec<u32>,
}

/// FNV-1a over the key's bytes.
fn key_hash(key: &[u8]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl KeyIndex {
    /// Index the join keys of `col`.
    pub fn new(col: &Column) -> KeyIndex {
        let mut index = KeyIndex {
            text: String::new(),
            entries: Vec::new(),
            slots: vec![0; (2 * col.len()).next_power_of_two()],
        };
        let mut key = String::new();
        for row in 0..col.len() {
            if !col.write_join_key(row, &mut key) {
                continue;
            }
            if let Err(slot) = index.find(key.as_bytes()) {
                index.text.push_str(&key);
                index.entries.push((index.text.len() as u32, row as u32));
                index.slots[slot] = index.entries.len() as u32;
            }
        }
        index.text.shrink_to_fit();
        index.entries.shrink_to_fit();
        index
    }

    /// The entry holding `key`, or the empty slot where it would go.
    fn find(&self, key: &[u8]) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (key_hash(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                n => {
                    let entry = n as usize - 1;
                    let start = entry
                        .checked_sub(1)
                        .map_or(0, |prev| self.entries[prev].0 as usize);
                    let end = self.entries[entry].0 as usize;
                    if &self.text.as_bytes()[start..end] == key {
                        return Ok(entry);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The first row whose join key is `key`.
    pub fn get(&self, key: &str) -> Option<usize> {
        let entry = self.find(key.as_bytes()).ok()?;
        Some(self.entries[entry].1 as usize)
    }

    /// The first row whose join key is `column`'s at `row` (none for a
    /// row without one); `key` is scratch.
    pub fn find_row(&self, column: &Column, row: usize, key: &mut String) -> Option<usize> {
        if column.write_join_key(row, key) {
            self.get(key)
        } else {
            None
        }
    }

    /// `true` when the column holds no join key.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// For each left row, the matching right row (first match), if any.
pub fn match_rows(left_key: &Column, right_key: &Column) -> Result<Vec<Option<usize>>> {
    let index = KeyIndex::new(right_key);
    if index.is_empty() {
        return Err(TableError::EmptyJoinKey);
    }
    let mut key = String::new();
    Ok((0..left_key.len())
        .map(|row| index.find_row(left_key, row, &mut key))
        .collect())
}

/// Fraction of left keys that find a match on the right; the *dataset
/// overlap* statistic used by the overlap profile and the Overlap baseline.
pub fn match_ratio(left_key: &Column, right_key: &Column) -> f64 {
    let index = KeyIndex::new(right_key);
    if left_key.is_empty() || index.is_empty() {
        return 0.0;
    }
    let mut key = String::new();
    let hits = (0..left_key.len())
        .filter(|&row| index.find_row(left_key, row, &mut key).is_some())
        .count();
    hits as f64 / left_key.len() as f64
}

/// Left-join a single value column: for every left row, the value of
/// `right[value_col]` on the first matching right row (null on no match).
///
/// This is the workhorse of augmentation materialization: a candidate
/// augmentation is exactly one such projected column.
pub fn left_join_column(
    left: &Table,
    left_key: usize,
    right: &Table,
    right_key: usize,
    value_col: usize,
) -> Result<Column> {
    let lk = left.column(left_key)?;
    let rk = right.column(right_key)?;
    let vc = right.column(value_col)?;
    let matches = match_rows(lk, rk)?;
    let values: Vec<Value> = matches
        .into_iter()
        .map(|m| m.map_or(Value::Null, |row| vc.get(row)))
        .collect();
    Ok(Column::from_values(vc.name.clone(), values))
}

/// Left-join whole tables: the result keeps all left columns and appends all
/// right columns except the join key, with name-collision suffixing.
pub fn join_tables(left: &Table, right: &Table, spec: &JoinSpec) -> Result<Table> {
    let lk = left.column(spec.left_key)?;
    let rk = right.column(spec.right_key)?;
    let matches = match_rows(lk, rk)?;

    let mut out = left.clone();
    for (ci, col) in right.columns().iter().enumerate() {
        if ci == spec.right_key {
            continue;
        }
        let values: Vec<Value> = matches
            .iter()
            .map(|m| m.map_or(Value::Null, |row| col.get(row)))
            .collect();
        let mut new_col = Column::from_values(col.name.clone(), values);
        if let Some(name) = &new_col.name {
            if out.column_index(name).is_ok() {
                new_col.name = Some(format!("{}_{}", name, right.name));
            }
        }
        out.add_column(new_col)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_index_finds_what_the_first_match_map_finds() {
        let columns = [
            Column::from_strings(
                Some("s".into()),
                vec![
                    Some(" Z1 ".into()),
                    Some("z1".into()),
                    None,
                    Some("".into()),
                    Some("  ".into()),
                    Some("é".into()),
                    Some("z2".into()),
                    Some("Z10".into()),
                ],
            ),
            Column::from_ints(
                Some("i".into()),
                (0..300).map(|i| (i % 7 != 0).then_some(i % 120)).collect(),
            ),
            Column::from_floats(
                Some("f".into()),
                vec![
                    Some(1.0),
                    Some(1.5),
                    Some(-0.0),
                    Some(0.0),
                    Some(1e16),
                    None,
                ],
            ),
            Column::from_ints(Some("none".into()), vec![None; 4]),
            Column::from_ints(Some("empty".into()), Vec::new()),
        ];
        for col in &columns {
            let index = KeyIndex::new(col);
            let mut map = std::collections::HashMap::new();
            for (row, key) in col.join_keys().into_iter().enumerate() {
                if let Some(key) = key {
                    map.entry(key).or_insert(row);
                }
            }
            assert_eq!(index.is_empty(), map.is_empty(), "{:?}", col.name);
            for (key, &row) in &map {
                assert_eq!(index.get(key), Some(row), "{key:?}");
            }
            for missing in ["", "z", "z1 ", "Z1", "1.50", "-0", "121", "zz1"] {
                assert_eq!(index.get(missing), map.get(missing).copied(), "{missing:?}");
            }
        }
    }

    fn left() -> Table {
        Table::from_columns(
            "din",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    vec![
                        Some("60614".into()),
                        Some("60615".into()),
                        Some("99999".into()),
                        None,
                    ],
                ),
                Column::from_floats(
                    Some("price".into()),
                    vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)],
                ),
            ],
        )
        .unwrap()
    }

    fn right() -> Table {
        Table::from_columns(
            "crime",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    vec![
                        Some("60615".into()),
                        Some("60614".into()),
                        Some("60614".into()),
                    ],
                ),
                Column::from_floats(
                    Some("crimes".into()),
                    vec![Some(10.0), Some(20.0), Some(999.0)],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn left_join_column_first_match_and_nulls() {
        let c = left_join_column(&left(), 0, &right(), 0, 1).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(0), Value::Float(20.0), "first match wins, not 999");
        assert_eq!(c.get(1), Value::Float(10.0));
        assert_eq!(c.get(2), Value::Null, "unmatched key");
        assert_eq!(c.get(3), Value::Null, "null key never matches");
    }

    #[test]
    fn match_ratio_counts_hits() {
        // 2 of 4 left rows (60614, 60615) match.
        assert!(
            (match_ratio(left().column(0).unwrap(), right().column(0).unwrap()) - 0.5).abs()
                < 1e-12
        );
    }

    #[test]
    fn join_tables_appends_non_key_columns() {
        let j = join_tables(
            &left(),
            &right(),
            &JoinSpec {
                left_key: 0,
                right_key: 0,
            },
        )
        .unwrap();
        assert_eq!(j.ncols(), 3);
        assert_eq!(j.nrows(), 4);
        assert_eq!(
            j.column_by_name("crimes").unwrap().get(1),
            Value::Float(10.0)
        );
    }

    #[test]
    fn join_tables_suffixes_collisions() {
        let r = Table::from_columns(
            "other",
            vec![
                Column::from_strings(Some("zipcode".into()), vec![Some("60614".into())]),
                Column::from_floats(Some("price".into()), vec![Some(7.0)]),
            ],
        )
        .unwrap();
        let j = join_tables(
            &left(),
            &r,
            &JoinSpec {
                left_key: 0,
                right_key: 0,
            },
        )
        .unwrap();
        assert!(j.column_by_name("price_other").is_ok());
    }

    #[test]
    fn empty_key_errors() {
        let r = Table::from_columns(
            "empty",
            vec![
                Column::from_strings(Some("k".into()), vec![None, None]),
                Column::from_floats(Some("v".into()), vec![Some(1.0), Some(2.0)]),
            ],
        )
        .unwrap();
        assert!(matches!(
            left_join_column(&left(), 0, &r, 0, 1),
            Err(TableError::EmptyJoinKey)
        ));
    }

    #[test]
    fn numeric_keys_join_with_string_keys() {
        let l = Table::from_columns(
            "l",
            vec![Column::from_ints(Some("zip".into()), vec![Some(60614)])],
        )
        .unwrap();
        let c = left_join_column(&l, 0, &right(), 0, 1).unwrap();
        assert_eq!(c.get(0), Value::Float(20.0));
    }
}
