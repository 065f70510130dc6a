//! Property-based tests for the table substrate.

use metam_table::colbin;
use metam_table::csv::{read_csv_str, to_csv_string};
use metam_table::join::left_join_column;
use metam_table::sample::sample_indices;
use metam_table::union::union_tables;
use metam_table::{Column, Table, Value};
use proptest::prelude::*;

fn float_opt() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        3 => (-1e6f64..1e6).prop_map(Some),
        1 => Just(None),
    ]
}

fn string_cell() -> impl Strategy<Value = Option<String>> {
    // Prefix with a letter that can never form a null marker ("na",
    // "none", "null", "nan", "-"): those strings legitimately round-trip
    // to nulls by the CSV convention.
    prop_oneof![
        4 => "w[a-z]{0,7}".prop_map(Some),
        1 => Just(None),
    ]
}

/// Adversarial string cells: null-marker spellings, numeric and boolean
/// spellings, padded whitespace, quotes/commas/newlines — everything the
/// quoting-aware CSV writer must pin down, plus ordinary text and nulls.
fn tricky_string_cell() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        2 => prop_oneof![
            Just("NA".to_string()),
            Just("-".to_string()),
            Just("null".to_string()),
            Just("n/a".to_string()),
            Just("NaN".to_string()),
            Just(String::new()),
        ].prop_map(Some),
        2 => prop_oneof![
            Just("42".to_string()),
            Just("-7.5".to_string()),
            Just("1e3".to_string()),
            Just("true".to_string()),
            Just(" padded ".to_string()),
        ].prop_map(Some),
        1 => "x[a-z]{0,5}".prop_map(|s| Some(format!(" {s},\"\n"))),
        3 => "w[a-z]{0,7}".prop_map(Some),
        1 => Just(None),
    ]
}

/// Integers, `i64::MIN` and negatives included.
fn int_cell() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        3 => (i64::MIN..i64::MAX).prop_map(Some),
        2 => (-1000i64..1000).prop_map(Some),
        1 => Just(Some(i64::MIN)),
        1 => Just(None),
    ]
}

/// Floats around every branch of the join-key spelling: signed zero,
/// integral values either side of 1e15, tiny and fractional values and
/// infinities.
fn float_key_cell() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        4 => prop_oneof![
            Just(-0.0),
            Just(0.0),
            Just(1e15),
            Just(1e15 - 1.0),
            Just(1e15 + 2.0),
            Just(-1e15 + 1.0),
            Just(1e-7),
            Just(-2.5),
            Just(1e300),
            Just(5e-324),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ].prop_map(Some),
        2 => (-1e6f64..1e6).prop_map(Some),
        2 => (-1_000_000i64..1_000_000).prop_map(|i| Some(i as f64)),
        1 => Just(None),
    ]
}

/// Text with mixed case, ASCII and Unicode whitespace, non-ASCII letters
/// and punctuation, including strings that are empty once trimmed.
fn str_key_cell() -> impl Strategy<Value = Option<String>> {
    let piece = prop_oneof![
        3 => "[a-z]{1,4}",
        2 => "[A-Z]{1,3}",
        1 => Just(" ".to_string()),
        1 => Just("\t".to_string()),
        1 => Just("\u{3000}".to_string()),
        1 => Just("\u{a0}".to_string()),
        1 => Just("Émile".to_string()),
        1 => Just("straße".to_string()),
        1 => Just("-_.,/".to_string()),
        1 => Just("42".to_string()),
    ];
    prop_oneof![
        6 => prop::collection::vec(piece, 0..6).prop_map(|p| Some(p.concat())),
        1 => Just(Some(" \u{2003}\n".to_string())),
        1 => Just(None),
    ]
}

fn bool_cell() -> impl Strategy<Value = Option<bool>> {
    prop_oneof![
        2 => (0u32..2).prop_map(|b| Some(b == 1)),
        1 => Just(None),
    ]
}

/// `Column::write_join_key` spells every row's key exactly as
/// `Value::join_key` does, and reports the rows without a key.
fn assert_writer_matches_value_keys(col: &Column) {
    let mut key = "stale".to_string();
    for row in 0..col.len() + 1 {
        let expected = col.get(row).join_key();
        let written = col.write_join_key(row, &mut key);
        assert_eq!(written, expected.is_some(), "row {row} of {col:?}");
        assert_eq!(key, expected.unwrap_or_default(), "row {row} of {col:?}");
    }
}

proptest! {
    #[test]
    fn join_key_writer_spells_value_join_keys(
        ints in prop::collection::vec(int_cell(), 0..12),
        floats in prop::collection::vec(float_key_cell(), 0..12),
        strs in prop::collection::vec(str_key_cell(), 0..12),
        bools in prop::collection::vec(bool_cell(), 0..6),
    ) {
        assert_writer_matches_value_keys(&Column::from_ints(None, ints));
        assert_writer_matches_value_keys(&Column::from_floats(None, floats));
        assert_writer_matches_value_keys(&Column::from_strings(None, strs));
        assert_writer_matches_value_keys(&Column::from_bools(None, bools));
    }

    #[test]
    fn csv_roundtrip_preserves_shape(rows in prop::collection::vec(
        (float_opt(), string_cell()), 0..40)) {
        let floats: Vec<Option<f64>> = rows.iter().map(|(f, _)| *f).collect();
        let strs: Vec<Option<String>> = rows.iter().map(|(_, s)| s.clone()).collect();
        let t = Table::from_columns(
            "t",
            vec![
                Column::from_floats(Some("num".into()), floats),
                Column::from_strings(Some("txt".into()), strs),
            ],
        ).unwrap();
        let csv = to_csv_string(&t).unwrap();
        let t2 = read_csv_str("t", &csv, true).unwrap();
        prop_assert_eq!(t2.nrows(), t.nrows());
        prop_assert_eq!(t2.ncols(), t.ncols());
        // Null pattern of the string column survives the roundtrip.
        for r in 0..t.nrows() {
            let orig = t.columns()[1].get(r).is_null();
            let back = t2.columns()[1].get(r).is_null();
            prop_assert_eq!(orig, back, "row {}", r);
        }
    }

    #[test]
    fn join_output_is_left_aligned(
        left_keys in prop::collection::vec("[a-c]", 1..30),
        right_keys in prop::collection::vec("[a-e]", 1..30),
    ) {
        let left = Table::from_columns(
            "l",
            vec![Column::from_strings(Some("k".into()), left_keys.iter().cloned().map(Some).collect())],
        ).unwrap();
        let right = Table::from_columns(
            "r",
            vec![
                Column::from_strings(Some("k".into()), right_keys.iter().cloned().map(Some).collect()),
                Column::from_ints(Some("v".into()), (0..right_keys.len() as i64).map(Some).collect()),
            ],
        ).unwrap();
        let joined = left_join_column(&left, 0, &right, 0, 1).unwrap();
        prop_assert_eq!(joined.len(), left.nrows());
        // Every non-null joined value is the *first* right occurrence of the key.
        #[allow(clippy::needless_range_loop)]
        for r in 0..left.nrows() {
            if let Value::Int(v) = joined.get(r) {
                let key = &left_keys[r];
                let first = right_keys.iter().position(|k| k == key).unwrap() as i64;
                prop_assert_eq!(v, first);
            } else {
                prop_assert!(!right_keys.contains(&left_keys[r]));
            }
        }
    }

    #[test]
    fn sample_indices_distinct_and_bounded(n in 0usize..500, k in 0usize..600, seed: u64) {
        let s = sample_indices(n, k, seed);
        prop_assert_eq!(s.len(), k.min(n));
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), s.len());
        prop_assert!(s.iter().all(|&i| i < n.max(1)));
    }

    #[test]
    fn union_row_count_adds(
        a_rows in prop::collection::vec(float_opt(), 0..20),
        b_rows in prop::collection::vec(float_opt(), 0..20),
    ) {
        let a = Table::from_columns("a", vec![Column::from_floats(Some("x".into()), a_rows.clone())]).unwrap();
        let b = Table::from_columns("b", vec![Column::from_floats(Some("x".into()), b_rows.clone())]).unwrap();
        let u = union_tables(&a, &b).unwrap();
        prop_assert_eq!(u.nrows(), a_rows.len() + b_rows.len());
        prop_assert_eq!(u.ncols(), 1);
    }

    #[test]
    fn column_stats_within_range(vals in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let c = Column::from_floats(None, vals.iter().map(|&v| Some(v)).collect());
        let mn = c.min().unwrap();
        let mx = c.max().unwrap();
        let mean = c.mean().unwrap();
        prop_assert!(mn <= mean + 1e-9 && mean <= mx + 1e-9);
        prop_assert!(c.std().unwrap() >= 0.0);
    }

    #[test]
    fn csv_roundtrip_preserves_tricky_strings_exactly(
        cells in prop::collection::vec(tricky_string_cell(), 0..40),
    ) {
        // Strings that spell null markers, numbers or booleans must come
        // back verbatim — the writer quotes them, the reader keeps quoted
        // cells as strings.
        let t = Table::from_columns(
            "t",
            vec![Column::from_strings(Some("s".into()), cells.clone())],
        ).unwrap();
        let csv = to_csv_string(&t).unwrap();
        let t2 = read_csv_str("t", &csv, true).unwrap();
        prop_assert_eq!(t2.nrows(), t.nrows());
        let col = t2.columns()[0].clone();
        for (r, cell) in cells.iter().enumerate() {
            let expect = cell.clone().map_or(Value::Null, Value::Str);
            prop_assert_eq!(col.get(r), expect, "row {}", r);
        }
    }

    #[test]
    fn colbin_roundtrip_preserves_everything(
        floats in prop::collection::vec(float_opt(), 1..30),
        strings in prop::collection::vec(tricky_string_cell(), 1..30),
        ints in prop::collection::vec(prop_oneof![
            3 => (-1_000_000i64..1_000_000).prop_map(Some),
            1 => Just(None),
        ], 1..30),
    ) {
        // Equal-length columns (Table requires it).
        let n = floats.len().min(strings.len()).min(ints.len());
        let mut t = Table::from_columns(
            "prop",
            vec![
                Column::from_floats(Some("f".into()), floats[..n].to_vec()),
                Column::from_strings(None, strings[..n].to_vec()),
                Column::from_ints(Some("i".into()), ints[..n].to_vec()),
            ],
        ).unwrap();
        t.source = "proptest".into();
        let back = colbin::read_table(&colbin::to_bytes(&t)).unwrap();
        // Exact equality: values, nulls, dtypes, names, source.
        prop_assert_eq!(back, t);
    }

    #[test]
    fn colbin_roundtrip_normalizes_nan_to_null(
        x in -1e6f64..1e6,
        nan_first in prop_oneof![Just(true), Just(false)],
    ) {
        // NaN can't exist inside a Column (normalized at construction),
        // so the write side never emits it — this property pins the whole
        // chain: NaN in, null bitmap out, null back.
        let data = if nan_first {
            vec![Some(f64::NAN), Some(x)]
        } else {
            vec![Some(x), Some(f64::NAN)]
        };
        let t = Table::from_columns(
            "t",
            vec![Column::from_floats(Some("x".into()), data)],
        ).unwrap();
        let back = colbin::read_table(&colbin::to_bytes(&t)).unwrap();
        prop_assert_eq!(back.columns()[0].null_count(), 1);
        let kept = if nan_first { 1 } else { 0 };
        prop_assert_eq!(back.columns()[0].get(kept), Value::Float(x));
    }

    #[test]
    fn csv_then_colbin_chain_is_lossless(
        cells in prop::collection::vec(tricky_string_cell(), 1..25),
        nums in prop::collection::vec(float_opt(), 1..25),
    ) {
        // The full lake chain: Table → CSV → Table → .mtc → Table. The
        // CSV hop is the only lossy-prone link; after it, colbin must be
        // an exact fixpoint.
        let n = cells.len().min(nums.len());
        let t = Table::from_columns(
            "chain",
            vec![
                Column::from_strings(Some("s".into()), cells[..n].to_vec()),
                Column::from_floats(Some("v".into()), nums[..n].to_vec()),
            ],
        ).unwrap();
        let from_csv = read_csv_str("chain", &to_csv_string(&t).unwrap(), true).unwrap();
        // String values survive the CSV hop exactly (an *all-null* column
        // legitimately loses its dtype — no value carries type evidence —
        // so compare cell values, not column storage).
        for r in 0..n {
            prop_assert_eq!(
                from_csv.columns()[0].get(r),
                t.columns()[0].get(r),
                "row {}", r
            );
            // Null pattern of the numeric column survives.
            prop_assert_eq!(
                from_csv.columns()[1].get(r).is_null(),
                t.columns()[1].get(r).is_null(),
                "row {}", r
            );
        }
        let from_bin = colbin::read_table(&colbin::to_bytes(&from_csv)).unwrap();
        prop_assert_eq!(from_bin, from_csv);
    }

    #[test]
    fn value_parse_roundtrip_numbers(x in -1e9f64..1e9) {
        let shown = format!("{x}");
        let v = Value::parse(&shown);
        let back = v.as_f64().unwrap();
        prop_assert!((back - x).abs() <= 1e-9 * x.abs().max(1.0));
    }
}
