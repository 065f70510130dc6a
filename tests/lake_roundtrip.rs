//! The lake subsystem's self-validating round trip: export a synthetic
//! scenario (with planted ground truth) as a CSV lake on disk, scan it
//! back through the catalog, run goal-oriented discovery over the files,
//! and check that the search still recovers the planted augmentations.
//!
//! This exercises every lake layer at once: CSV writer → reader, catalog
//! scan, manifest persistence + cache invalidation, candidate generation
//! over file-backed tables, and the search itself.

use std::path::PathBuf;

use metam::lake::{export_scenario, LakeCatalog};
use metam::{Metam, MetamConfig, NoopObserver, Session};
use metam_datagen::supervised::{build_supervised, SupervisedConfig};
use metam_datagen::Scenario;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metam-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_scenario(seed: u64) -> Scenario {
    build_supervised(&SupervisedConfig {
        seed,
        n_rows: 300,
        n_informative: 2,
        n_duplicates: 1,
        n_irrelevant_tables: 6,
        n_erroneous_tables: 3,
        n_redundant_tables: 2,
        classification: true,
        ..Default::default()
    })
}

#[test]
fn exported_lake_rediscovers_planted_candidates() {
    let dir = tmp_dir("discover");
    let scenario = small_scenario(11);
    export_scenario(&scenario, &dir).expect("export");

    let catalog = LakeCatalog::scan(&dir).expect("scan");
    assert_eq!(
        catalog.len(),
        scenario.tables.len() + 1,
        "every repo table plus din.csv is cataloged"
    );

    let din = catalog.load_table("din").expect("din");
    assert_eq!(din.nrows(), scenario.din.nrows());
    assert_eq!(din.ncols(), scenario.din.ncols());

    let prepared = Session::from_catalog(catalog)
        .din("din")
        .task_spec("classification:label")
        .seed(11)
        .prepare()
        .expect("prepare");
    assert!(
        !prepared.candidates.is_empty(),
        "discovery over the file-backed lake must find candidates"
    );
    // The planted signal survives the CSV round trip: at least one
    // candidate maps to a ground-truth-relevant (table, column) pair.
    let planted: Vec<&str> = prepared
        .candidates
        .iter()
        .filter(|c| {
            scenario
                .ground_truth
                .is_relevant(&c.source_table, &c.column_name)
        })
        .map(|c| c.name.as_str())
        .collect();
    assert!(
        !planted.is_empty(),
        "planted candidates must be rediscoverable from disk"
    );

    let result = Metam::new(MetamConfig {
        theta: Some(0.9),
        max_queries: 400,
        seed: 11,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);

    assert!(
        result.utility >= result.base_utility,
        "augmentation must not hurt: base={} final={}",
        result.base_utility,
        result.utility
    );
    assert!(
        result.utility > result.base_utility + 0.01,
        "planted signal must lift utility: base={} final={}",
        result.base_utility,
        result.utility
    );
    assert!(
        !result.selected.is_empty(),
        "the search must select at least one augmentation"
    );
    assert!(
        result.selected.iter().any(|&id| {
            let c = &prepared.candidates[id];
            scenario
                .ground_truth
                .is_relevant(&c.source_table, &c.column_name)
        }),
        "at least one selected augmentation must be a planted one: {:?}",
        result
            .selected
            .iter()
            .map(|&id| prepared.candidates[id].name.clone())
            .collect::<Vec<_>>()
    );
    assert!(result.queries <= result.budget);
    assert_eq!(result.queries_remaining(), result.budget - result.queries);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_scan_hits_the_profile_cache() {
    let dir = tmp_dir("cache");
    let scenario = small_scenario(5);
    export_scenario(&scenario, &dir).expect("export");

    let first = LakeCatalog::scan(&dir).expect("first scan");
    assert_eq!(first.cache_hits(), 0);
    assert_eq!(first.cache_misses(), first.len());

    // Unchanged lake ⇒ every profile comes from the persisted cache.
    let second = LakeCatalog::scan(&dir).expect("second scan");
    assert_eq!(second.cache_hits(), second.len(), "all files unchanged");
    assert_eq!(second.cache_misses(), 0);
    assert_eq!(
        second.entries(),
        first.entries(),
        "cached profiles are identical"
    );

    // Touching one file invalidates exactly that file.
    let touched = dir.join("din.csv");
    let mut text = std::fs::read_to_string(&touched).unwrap();
    text.push_str("extra,0,0,extra\n");
    std::fs::write(&touched, text).unwrap();
    let third = LakeCatalog::scan(&dir).expect("third scan");
    assert_eq!(third.cache_misses(), 1, "only the touched file re-profiles");
    assert_eq!(third.cache_hits(), third.len() - 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn null_marker_strings_roundtrip_without_spurious_nulls() {
    // Regression: string cells spelling a null marker ("NA", "-", …) or a
    // number used to collapse on CSV read-back. The writer now quotes
    // them and the reader keeps quoted cells verbatim, so
    // export_scenario → scan → load_table is value-lossless.
    use metam_datagen::{GroundTruth, Scenario, TaskSpec};
    use metam_table::{Column, Table, Value};
    use std::sync::Arc;

    let tricky: Vec<Option<String>> = vec![
        Some("NA".into()),
        Some("-".into()),
        Some("null".into()),
        Some("42".into()),
        Some("plain".into()),
        None,
    ];
    let keys: Vec<Option<String>> = (0..tricky.len()).map(|i| Some(format!("z{i}"))).collect();
    let notes = Arc::new(
        Table::from_columns(
            "notes",
            vec![
                Column::from_strings(Some("zip".into()), keys.clone()),
                Column::from_strings(Some("note".into()), tricky.clone()),
            ],
        )
        .unwrap(),
    );
    let scenario = Scenario {
        name: "markers".into(),
        din: Table::from_columns(
            "d",
            vec![
                Column::from_strings(Some("zip".into()), keys),
                Column::from_ints(Some("label".into()), (0..6).map(|i| Some(i % 2)).collect()),
            ],
        )
        .unwrap(),
        tables: vec![notes],
        spec: TaskSpec::Classification {
            target: "label".into(),
        },
        ground_truth: GroundTruth::default(),
        union_tables: Vec::new(),
        eval_table: None,
    };

    let dir = tmp_dir("markers");
    export_scenario(&scenario, &dir).expect("export");
    let catalog = LakeCatalog::scan(&dir).expect("scan");
    let loaded = catalog.load_table("notes").expect("load");
    let note_col = loaded.column_by_name("note").expect("note column");
    assert_eq!(note_col.null_count(), 1, "only the real null is null");
    for (r, cell) in tricky.iter().enumerate() {
        let expect = cell.clone().map_or(Value::Null, Value::Str);
        assert_eq!(note_col.get(r), expect, "row {r}");
    }

    // The same guarantee holds when the load is served by the `.mtc`
    // columnar cache (scan populated it) — and when it heals from CSV.
    let counters = catalog.load_counters();
    assert_eq!(counters.hits(), 1, "load came from the columnar cache");
    let _ = std::fs::remove_dir_all(metam::lake::cache::cache_dir(&dir));
    let from_csv = catalog.load_table("notes").expect("reload");
    assert_eq!(from_csv, loaded, "CSV fallback is value-identical");
    assert_eq!(counters.misses(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn discover_loads_only_din_and_candidate_tables_from_the_cache() {
    // A sketch-backed prepare builds the discovery index from persisted
    // catalog records, so the only table payloads that load are the input
    // dataset plus the tables some candidate's join path actually touches
    // — and every one of those loads deserializes from `.mtc`, not CSV
    // (asserted via the shared counters, which outlive the catalog's move
    // into the session).
    let dir = tmp_dir("mtc-discover");
    let scenario = small_scenario(17);
    export_scenario(&scenario, &dir).expect("export");

    let catalog = LakeCatalog::scan(&dir).expect("scan");
    let n_tables = catalog.len();
    let repo_names = catalog.repository_names(&["din"]);
    let counters = catalog.load_counters();
    let sketch_counters = catalog.sketch_load_counters();
    let prepared = Session::from_catalog(catalog)
        .din("din")
        .task_spec("classification:label")
        .seed(17)
        .prepare()
        .expect("prepare");
    assert!(!prepared.candidates.is_empty());

    // Candidate generation itself ran entirely off sketch records.
    assert_eq!(
        sketch_counters.hits(),
        n_tables - 1,
        "every repository descriptor comes from its persisted sketch"
    );
    assert_eq!(sketch_counters.misses(), 0, "no table-load fallbacks");

    // Payload loads are bounded by what the candidates touch: din plus
    // each distinct table on some candidate's join path.
    let mut touched: Vec<&str> = prepared
        .candidates
        .iter()
        .flat_map(|c| c.path.hops.iter())
        .map(|h| repo_names[h.table].as_str())
        .collect();
    touched.sort_unstable();
    touched.dedup();
    assert_eq!(
        counters.hits(),
        1 + touched.len(),
        "loads = din + candidate-path tables, nothing else"
    );
    assert_eq!(counters.misses(), 0, "no CSV re-parsing on a warm lake");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lake_prepare_matches_in_memory_prepare_candidates() {
    // The same scenario, prepared in memory and via the on-disk round
    // trip, must discover the same (table, column) candidate set — the
    // CSV layer may retype values but must not change what joins.
    let dir = tmp_dir("parity");
    let scenario = small_scenario(23);
    export_scenario(&scenario, &dir).expect("export");

    let in_memory = Session::from_scenario(scenario)
        .seed(23)
        .prepare()
        .expect("prepare");
    let catalog = LakeCatalog::scan(&dir).expect("scan");
    let from_disk = Session::from_catalog(catalog)
        .din("din")
        .task_spec("classification:label")
        .seed(23)
        .prepare()
        .expect("prepare");

    let key = |cands: &[metam_discovery::Candidate]| {
        let mut keys: Vec<(String, String)> = cands
            .iter()
            .map(|c| (c.source_table.clone(), c.column_name.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    };
    let mem = key(&in_memory.candidates);
    let disk = key(&from_disk.candidates);
    let missing: Vec<_> = mem.iter().filter(|k| !disk.contains(k)).collect();
    assert!(
        missing.is_empty(),
        "candidates lost in the CSV round trip: {missing:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
