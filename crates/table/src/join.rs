//! The first-match left join that materializes join paths.
//!
//! Join-path materialization (paper Definition 3/4) always keeps the input
//! dataset's rows intact, so the one join here is a *left* join: each left
//! row picks up the first matching right row, or nothing when no match
//! exists. First-match semantics keeps the augmented table row-aligned
//! with `Din`, which the paper's `Γ(Din, P[j])` projection requires.
//!
//! One lookup loop serves every hop: [`KeyIndex::map_rows`] maps probe
//! rows through an index of the right key column. [`match_rows`] is that
//! loop over every left row, and [`left_join_column`] projects one right
//! column through its result with [`Column::gather`]. The discovery
//! crate's materializer chains the same loop along multi-hop paths.

use crate::column::Column;
use crate::error::TableError;
use crate::table::Table;
use crate::Result;

/// A first-match lookup from normalized join key
/// ([`Value::join_key`](crate::Value::join_key)) to the first row holding
/// it, stored compactly: the distinct keys' bytes in one buffer and an
/// open-addressing table over them, with no allocation per key. Built
/// and probed through [`Column::write_join_key`], so neither side
/// allocates a key. Rows and key bytes count in `u32`: an indexed column
/// holds fewer than 2^32 rows and key bytes.
///
/// Exposed because multi-hop materialization in the discovery crate maps
/// row mappings through the indexes of intermediate tables
/// ([`KeyIndex::map_rows`]).
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

    /// Map probe rows through the index: per entry of `rows`, the first
    /// indexed row whose join key is `probe`'s at that row, or `None` for
    /// a `None` entry, a row without a key and a key without a match.
    /// Fails with [`TableError::EmptyJoinKey`] when the indexed column
    /// holds no join key.
    pub fn map_rows(
        &self,
        probe: &Column,
        rows: impl IntoIterator<Item = Option<usize>>,
    ) -> Result<Vec<Option<usize>>> {
        if self.is_empty() {
            return Err(TableError::EmptyJoinKey);
        }
        let mut key = String::new();
        Ok(rows
            .into_iter()
            .map(|row| {
                let row = row?;
                if probe.write_join_key(row, &mut key) {
                    self.get(&key)
                } else {
                    None
                }
            })
            .collect())
    }

    /// `true` when the column holds no join key.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// For each left row, the matching right row (first match), if any.
pub fn match_rows(left_key: &Column, right_key: &Column) -> Result<Vec<Option<usize>>> {
    KeyIndex::new(right_key).map_rows(left_key, (0..left_key.len()).map(Some))
}

/// Left-join a single value column: for every left row, the value of
/// `right[value_col]` on the first matching right row (null on no match).
/// The column is what [`Column::from_values`] builds from those values
/// (see [`Column::gather`]).
///
/// This is a candidate augmentation along a one-hop path: exactly one such
/// projected column.
pub fn left_join_column(
    left: &Table,
    left_key: usize,
    right: &Table,
    right_key: usize,
    value_col: usize,
) -> Result<Column> {
    let rows = match_rows(left.column(left_key)?, right.column(right_key)?);
    Ok(right.column(value_col)?.gather(rows?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

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
