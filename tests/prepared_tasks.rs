//! A prepared forest task (`Task::prepare`) answers every table with the
//! utility its unprepared form gives, bit for bit: `din` alone, `din` plus
//! candidate columns of every kind (numeric, string, id-like, all-null,
//! NaN-normalized), through the query engine at one and two threads, and
//! tables whose leading columns only look like `din`'s (reordered, one
//! value changed, `-0.0` where `din` holds `0.0`), which take the
//! unprepared path. The forest utilities' bits on fixed tables are pinned.

use std::collections::BTreeSet;
use std::sync::Arc;

use metam::core::engine::{QueryEngine, QueryPlan, SearchInputs};
use metam::discovery::path::PathConfig;
use metam::discovery::{generate_candidates, DiscoveryIndex, Materializer};
use metam::table::{Column, Table};
use metam::tasks::{ClassificationTask, RegressionTask};
use metam::{QueryKind, Task};
use metam_datagen::supervised::{build_supervised, SupervisedConfig};
use metam_datagen::Scenario;

fn scenario(classification: bool) -> Scenario {
    build_supervised(&SupervisedConfig {
        seed: 11,
        n_rows: 160,
        n_informative: 2,
        n_duplicates: 1,
        n_irrelevant_tables: 2,
        n_erroneous_tables: 1,
        classification,
        ..Default::default()
    })
}

/// SplitMix64: the test's own deterministic choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A repository table keyed like `din` (its first column) whose columns
/// cover the kinds a candidate can have.
fn odd_columns(din: &Table) -> Table {
    let keys = din.columns()[0].clone().with_name("key");
    let n = din.nrows();
    let cities = ["north", "south", "east"];
    Table::from_columns(
        "odd_columns",
        vec![
            keys,
            Column::from_strings(
                Some("city".into()),
                (0..n).map(|i| Some(cities[i % 3].to_string())).collect(),
            ),
            Column::from_strings(
                Some("uid".into()),
                (0..n).map(|i| Some(format!("u{i}"))).collect(),
            ),
            Column::from_floats(Some("empty".into()), vec![None; n]),
            Column::from_floats(
                Some("nan_metric".into()),
                (0..n)
                    .map(|i| Some(if i % 3 == 0 { f64::NAN } else { i as f64 / 7.0 }))
                    .collect(),
            ),
            Column::from_ints(
                Some("count".into()),
                (0..n).map(|i| Some((i % 11) as i64)).collect(),
            ),
        ],
    )
    .expect("equal-length columns")
}

fn tasks(classification: bool) -> Vec<Box<dyn Task>> {
    if classification {
        vec![Box::new(ClassificationTask::new("label", 5))]
    } else {
        vec![Box::new(RegressionTask::new("label", 5))]
    }
}

fn assert_same(task: &dyn Task, prepared: &dyn Task, table: &Table, what: &str) -> f64 {
    let plain = task.utility(table);
    assert_eq!(
        plain.to_bits(),
        prepared.utility(table).to_bits(),
        "{} on {what}",
        task.name()
    );
    plain
}

#[test]
fn prepared_forest_tasks_match_unprepared_through_the_engine() {
    for classification in [true, false] {
        let s = scenario(classification);
        let mut tables: Vec<Arc<Table>> = s.tables.clone();
        tables.push(Arc::new(odd_columns(&s.din)));
        let index = DiscoveryIndex::build(tables.clone());
        let candidates = generate_candidates(&s.din, &index, &PathConfig::default(), 10_000);
        let materializer = Materializer::new(tables);
        for name in ["city", "uid", "empty", "nan_metric", "count"] {
            assert!(
                candidates.iter().any(|c| c.column_name == name),
                "a candidate of kind {name}"
            );
        }
        let mut rng = Rng(if classification { 1 } else { 2 });
        let mut plans = vec![QueryPlan::new(QueryKind::Base, BTreeSet::new())];
        for _ in 0..24 {
            let size = 1 + rng.below(3);
            let set = (0..size).map(|_| rng.below(candidates.len())).collect();
            plans.push(QueryPlan::new(QueryKind::Sequential, set));
        }
        // Every odd column on its own, and all of them together.
        let odd: BTreeSet<usize> = candidates
            .iter()
            .filter(|c| c.source_table == "odd_columns")
            .map(|c| c.id)
            .collect();
        for &id in &odd {
            plans.push(QueryPlan::new(QueryKind::Sequential, [id].into()));
        }
        plans.push(QueryPlan::new(QueryKind::Sequential, odd));

        for task in tasks(classification) {
            let prepared = task.prepare(&s.din).expect("forest tasks prepare");
            assert_eq!(prepared.name(), task.name());
            let base = assert_same(task.as_ref(), prepared.as_ref(), &s.din, "din");
            assert!(base > 0.0, "{}: din alone fits", task.name());
            let profiles = vec![vec![0.5]; candidates.len()];
            let names = vec!["p".to_string()];
            let run = |task: &dyn Task, threads: usize| -> Vec<u64> {
                let inputs = SearchInputs {
                    din: &s.din,
                    target_column: s.din.column_index("label").ok(),
                    candidates: &candidates,
                    profiles: &profiles,
                    profile_names: &names,
                    materializer: &materializer,
                    task,
                    threads,
                };
                let mut engine = QueryEngine::new(&inputs, usize::MAX);
                engine
                    .evaluate_batch(&plans)
                    .into_iter()
                    .map(|u| u.expect("unbounded budget").to_bits())
                    .collect()
            };
            let expected = run(task.as_ref(), 1);
            for threads in [1, 2] {
                assert_eq!(
                    run(prepared.as_ref(), threads),
                    expected,
                    "{} prepared at {threads} thread(s)",
                    task.name()
                );
            }
            assert!(
                expected.iter().collect::<BTreeSet<_>>().len() > 1,
                "the candidate sets move the utility"
            );
        }
    }
}

/// `din` with the given float column's first value replaced.
fn with_first_value(din: &Table, column: &str, value: f64) -> Table {
    let columns = din
        .columns()
        .iter()
        .map(|c| {
            if c.name.as_deref() != Some(column) {
                return c.clone();
            }
            let mut values = c.as_f64();
            values[0] = Some(value);
            Column::from_floats(c.name.clone(), values)
        })
        .collect();
    Table::from_columns(din.name.clone(), columns).expect("same shape")
}

#[test]
fn look_alike_leading_columns_take_the_unprepared_path() {
    for classification in [true, false] {
        let s = scenario(classification);
        // `din` holds a 0.0, so a table can hold -0.0 in its place.
        let din = with_first_value(&s.din, "base_metric", 0.0);
        let extra = Column::from_floats(
            Some("aug0_extra".into()),
            (0..din.nrows()).map(|i| Some((i % 5) as f64)).collect(),
        );
        let n = din.ncols();
        let mut reversed: Vec<usize> = (0..n).collect();
        reversed.reverse();
        let look_alikes = [
            ("reordered", din.select(&reversed).expect("in range")),
            (
                "one value differs",
                with_first_value(&din, "base_metric", 0.25),
            ),
            ("-0.0 for 0.0", with_first_value(&din, "base_metric", -0.0)),
            (
                "a prefix of din",
                din.select(&[0, n - 1]).expect("in range"),
            ),
        ];
        for task in tasks(classification) {
            let prepared = task.prepare(&din).expect("forest tasks prepare");
            for (what, table) in &look_alikes {
                assert_same(task.as_ref(), prepared.as_ref(), table, what);
                let augmented = table.with_column(extra.clone()).expect("same rows");
                assert_same(task.as_ref(), prepared.as_ref(), &augmented, what);
            }
        }
    }
}

#[test]
fn a_din_without_the_target_prepares_to_the_unprepared_task() {
    let s = scenario(true);
    let task = ClassificationTask::new("label", 5);
    let label = s.din.column_index("label").expect("label");
    let keep: Vec<usize> = (0..s.din.ncols()).filter(|&i| i != label).collect();
    let no_target = s.din.select(&keep).expect("in range");
    let prepared = task.prepare(&no_target).expect("forest tasks prepare");
    assert_eq!(prepared.utility(&no_target), 0.0);
    // A table that brings the target along after din's columns.
    let with_target = no_target
        .with_column(s.din.columns()[label].clone())
        .expect("same rows");
    let u = assert_same(&task, prepared.as_ref(), &with_target, "target after din");
    assert!(u > 0.0);
}

/// `price_classification(7)`'s `din` plus `extra` of three fixed columns:
/// a float column with a null, -0.0 and a NaN, an integer column and a
/// string column.
fn pinned_table(extra: usize) -> Table {
    let din = metam_datagen::repo::price_classification(7).din;
    let n = din.nrows();
    let columns = [
        Column::from_floats(
            Some("aug0_f".to_string()),
            (0..n)
                .map(|i| match i % 97 {
                    0 => None,
                    1 => Some(-0.0),
                    2 => Some(f64::NAN),
                    _ => Some(((i * 37) % 101) as f64 / 10.0),
                })
                .collect(),
        ),
        Column::from_ints(
            Some("aug1_i".to_string()),
            (0..n).map(|i| Some((i % 7) as i64)).collect(),
        ),
        Column::from_strings(
            Some("aug2_s".to_string()),
            (0..n)
                .map(|i| Some(["north", "south", "east"][(i * 5 / 3) % 3].to_string()))
                .collect(),
        ),
    ];
    columns.into_iter().take(extra).fold(din, |table, column| {
        table.with_column(column).expect("same rows")
    })
}

/// The forest utilities' bits on fixed tables, prepared and unprepared: a
/// drift in the fit that moves both paths alike fails here.
#[test]
fn forest_utility_bits_are_pinned() {
    let pins: [(Box<dyn Task>, [u64; 4]); 2] = [
        (
            Box::new(ClassificationTask::new("label", 7)),
            [
                0x3fe2_8677_51b1_4737,
                0x3fe2_39a9_dba0_93b0,
                0x3fe2_aaed_3279_f3c7,
                0x3fe2_8183_638a_8b85,
            ],
        ),
        (
            Box::new(RegressionTask::new("aux_metric", 7)),
            [
                0x3fe7_f8c5_67c0_a357,
                0x3fe7_e63b_380d_4873,
                0x3fe7_fe40_c42a_e073,
                0x3fe7_f92d_cb2d_79c4,
            ],
        ),
    ];
    for (task, bits) in &pins {
        let din = pinned_table(0);
        let prepared = task.prepare(&din).expect("forest tasks prepare");
        for (extra, &pinned) in bits.iter().enumerate() {
            let table = pinned_table(extra);
            let plain = task.utility(&table).to_bits();
            assert_eq!(plain, pinned, "{} with {extra} columns", task.name());
            assert_eq!(
                prepared.utility(&table).to_bits(),
                pinned,
                "{} prepared, with {extra} columns",
                task.name()
            );
        }
    }
}
