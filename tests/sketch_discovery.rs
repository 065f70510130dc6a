//! Sketch-backed discovery end to end: persisted `.mks` records must be
//! a lossless stand-in for the tables they summarize.
//!
//! The contract under test — candidate generation from persisted catalog
//! sketches is **indistinguishable** from candidate generation over loaded
//! tables: byte-identical record round trips, version bumps and corruption
//! turn into re-profiling (which heals the record in place), the decoder
//! rejects damaged bytes without panicking, and the candidate set on a
//! real fixture matches the in-memory path exactly.

use std::path::PathBuf;
use std::sync::Arc;

use metam::core::{assemble, AssembleOptions, Repository};
use metam::discovery::path::PathConfig;
use metam::discovery::{
    generate_candidates, Candidate, DiscoveryIndex, Materializer, TableProvider,
};
use metam::lake::prepare::{repository_candidates, repository_descriptors};
use metam::lake::{export_scenario, parse_task, sketch, LakeCatalog};
use metam::profile::default_profiles;
use metam::table::colbin::fnv1a;
use metam::table::Column;
use metam::{Session, Table};
use metam_datagen::causal_scenario::{build_causal, CausalConfig, CausalKind};
use metam_datagen::Scenario;
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metam-sketch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The causal how-to fixture shared with `causal_end_to_end.rs` /
/// `observability.rs` — a realistic lake with planted relevant, erroneous,
/// and confounder tables.
fn howto_scenario() -> Scenario {
    build_causal(&CausalConfig {
        seed: 32,
        kind: CausalKind::HowTo,
        n_irrelevant_tables: 20,
        n_erroneous_tables: 6,
        n_confounder_tables: 8,
        ..Default::default()
    })
}

#[test]
fn persisted_records_roundtrip_bit_identically_through_disk() {
    // Record-level contract via the public API: scan writes one `.mks`
    // per file, and decoding it yields the exact sketch computed from the
    // loaded table — same slots, cardinalities, nulls, ranges.
    let dir = tmp_dir("roundtrip");
    let scenario = howto_scenario();
    export_scenario(&scenario, &dir).expect("export");
    let catalog = LakeCatalog::scan(&dir).expect("scan");

    for entry in catalog.entries() {
        let from_disk = sketch::load(&dir, &entry.file_name, entry.fingerprint())
            .expect("record exists and validates");
        let table = catalog.load_table(&entry.name).expect("load");
        let from_table = sketch::TableSketch::from_table(&table);
        assert_eq!(
            from_disk, from_table,
            "persisted sketch for {} must equal the freshly computed one",
            entry.name
        );
        // And the encode→decode cycle is bit-stable: re-encoding what we
        // decoded reproduces the on-disk bytes exactly.
        let path = sketch::sketch_path(&dir, &entry.file_name);
        let bytes = std::fs::read(&path).expect("read record");
        let (fp, decoded) = sketch::decode(&bytes).expect("decode");
        assert_eq!(sketch::encode(fp, &decoded), bytes, "{}", entry.name);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bump_invalidates_and_rescan_heals() {
    let dir = tmp_dir("version");
    let scenario = howto_scenario();
    export_scenario(&scenario, &dir).expect("export");
    let first = LakeCatalog::scan(&dir).expect("scan");
    assert_eq!(first.cache_misses(), first.len(), "cold lake writes all");

    // Forge a future-version record with a *valid* checksum: bump the
    // version field, then re-seal. Freshness must reject it on version
    // alone — a newer writer's records are not readable by this build.
    let entry = first.get("din").expect("din entry");
    let path = sketch::sketch_path(&dir, &entry.file_name);
    let mut bytes = std::fs::read(&path).expect("read record");
    let bumped = (sketch::SKETCH_VERSION + 1).to_le_bytes();
    bytes[4..8].copy_from_slice(&bumped);
    let body_len = bytes.len() - 8;
    let seal = fnv1a(&bytes[..body_len]).to_le_bytes();
    bytes[body_len..].copy_from_slice(&seal);
    std::fs::write(&path, &bytes).expect("write forged record");
    assert!(
        sketch::load(&dir, &entry.file_name, entry.fingerprint()).is_none(),
        "future version rejected"
    );

    // Re-scan: the one rejected file re-profiles and heals its record back
    // to the current version; everything else stays a hit.
    let second = LakeCatalog::scan(&dir).expect("rescan");
    assert_eq!(second.cache_misses(), 1, "only the forged record demotes");
    assert_eq!(second.cache_hits(), second.len() - 1);
    let healed = std::fs::read(&path).expect("read healed record");
    assert_eq!(
        u32::from_le_bytes(healed[4..8].try_into().expect("4 bytes")),
        sketch::SKETCH_VERSION,
        "healed record is written at the current version"
    );
    assert!(
        sketch::load(&dir, &entry.file_name, entry.fingerprint()).is_some(),
        "record validates again"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_self_heals_during_prepare() {
    // A record that rots *after* scan (so the catalog still trusts it)
    // must not poison prepare: `sketch_descriptors` falls back to the
    // table payload for that one file, produces the same descriptor, and
    // rewrites the record in place.
    let dir = tmp_dir("heal");
    let scenario = howto_scenario();
    export_scenario(&scenario, &dir).expect("export");
    LakeCatalog::scan(&dir).expect("warm scan");

    let catalog = LakeCatalog::scan(&dir).expect("scan");
    let n_tables = catalog.len();
    let victim = catalog
        .entries()
        .iter()
        .find(|e| e.name != "din")
        .expect("repository table")
        .clone();
    let path = sketch::sketch_path(&dir, &victim.file_name);
    let mut bytes = std::fs::read(&path).expect("read record");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("corrupt record");

    let sketch_counters = catalog.sketch_load_counters();
    let prepared = Session::from_catalog(catalog)
        .din("din")
        .task_spec("regression:critical_reading")
        .seed(32)
        .prepare()
        .expect("prepare");
    assert!(!prepared.candidates.is_empty());
    assert_eq!(
        sketch_counters.hits(),
        n_tables - 2,
        "every record but the corrupt one serves its descriptor"
    );
    assert_eq!(sketch_counters.misses(), 1, "one table-load fallback");

    // The fallback healed the record on disk: it validates again and
    // matches the sketch of the table it summarizes.
    let healed = sketch::load(&dir, &victim.file_name, victim.fingerprint())
        .expect("healed record validates");
    let catalog = LakeCatalog::scan(&dir).expect("rescan");
    assert_eq!(catalog.cache_hits(), catalog.len(), "no demotions left");
    let table = catalog.load_table(&victim.name).expect("load");
    assert_eq!(healed, sketch::TableSketch::from_table(&table));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sketch_backed_candidates_match_in_memory_build_on_howto_fixture() {
    // Lake-wide parity on the causal how-to fixture: preparing from
    // persisted sketches (descriptors + lazy provider) yields a candidate
    // set **byte-identical** to `DiscoveryIndex::build` over eagerly
    // loaded tables — same candidates, same order, same join paths.
    let dir = tmp_dir("parity");
    let scenario = howto_scenario();
    export_scenario(&scenario, &dir).expect("export");
    let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan"));

    let options = AssembleOptions {
        seed: 32,
        ..Default::default()
    };
    let task = || parse_task("regression:critical_reading", 32).expect("task");

    let din = catalog.load_table("din").expect("din");
    let target_column = din.column_index("critical_reading").ok();
    let tables: Vec<Arc<Table>> = catalog
        .repository_names(&[din.name.as_str()])
        .iter()
        .map(|name| Arc::new(catalog.load_table(name).expect("tables")))
        .collect();
    let max_candidates = 100_000;
    let repository = Repository::eager(&din, tables, max_candidates);
    let eager = assemble(
        din,
        repository,
        target_column,
        task().task,
        &default_profiles(),
        &options,
    );

    let din = catalog.load_table("din").expect("din");
    let (candidates, provider) =
        repository_candidates(&catalog, &din, None, &PathConfig::default(), max_candidates)
            .expect("sketches");
    let lazy = assemble(
        din,
        Repository {
            candidates,
            materializer: Materializer::lazy(Box::new(provider)),
        },
        target_column,
        task().task,
        &default_profiles(),
        &options,
    );

    assert!(
        !eager.candidates.is_empty(),
        "fixture must yield candidates"
    );
    assert_eq!(
        eager.candidates, lazy.candidates,
        "sketch-backed candidate set must be identical to the in-memory build"
    );
    assert_eq!(
        eager.profiles, lazy.profiles,
        "profile vectors must be identical too"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A lake of `din` (a `zip` key, a `rate` feature and a `label`) plus
/// `n_joinable` tables keyed on the same zips, each with two value
/// columns too repetitive to be keys (so no two-hop paths), and one table
/// nothing joins.
fn memo_lake(tag: &str, n_joinable: usize) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).expect("lake dir");
    let rows = |f: &dyn Fn(usize) -> String| (0..60).map(f).collect::<String>();
    let din = rows(&|i| format!("z{i},{},{}\n", i % 7, i % 2));
    std::fs::write(dir.join("din.csv"), format!("zip,rate,label\n{din}")).expect("din");
    for t in 0..n_joinable {
        add_joinable(&dir, &format!("ext{t}"));
    }
    let lone = rows(&|i| format!("q{i},{i}\n"));
    std::fs::write(dir.join("lone.csv"), format!("code,v\n{lone}")).expect("lone");
    dir
}

/// Write a table keyed on `din`'s zips into the lake.
fn add_joinable(dir: &std::path::Path, name: &str) {
    let rows: String = (0..60)
        .map(|i| format!("z{i},{},{}\n", i * 3 % 11, (i % 13) as f64 * 0.5))
        .collect();
    std::fs::write(
        dir.join(format!("{name}.csv")),
        format!("zipcode,a,b\n{rows}"),
    )
    .expect("joinable table");
}

/// What a prepare enumerated before the memo: every record decoded, a
/// fresh index, a fresh join search.
fn fresh_candidates(
    catalog: &Arc<LakeCatalog>,
    din: &Table,
    path: &PathConfig,
    cap: usize,
) -> Vec<Candidate> {
    let (descriptors, _) = repository_descriptors(catalog, din, None).expect("descriptors");
    generate_candidates(din, &DiscoveryIndex::from_catalog(descriptors), path, cap)
}

#[test]
fn candidate_memo_hit_equals_a_fresh_enumeration() {
    let dir = memo_lake("memo-hit", 3);
    let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan"));
    let records = catalog.sketch_load_counters();
    let din = catalog.load_table("din").expect("din");
    let path = PathConfig::default();

    let (first, provider) = repository_candidates(&catalog, &din, None, &path, 100).expect("miss");
    assert_eq!(
        records.hits(),
        catalog.len() - 1,
        "a miss reads every record"
    );
    let (second, _) = repository_candidates(&catalog, &din, None, &path, 100).expect("hit");
    assert!(Arc::ptr_eq(&first, &second), "a hit shares the memo's list");
    assert_eq!(records.hits(), catalog.len() - 1, "a hit reads no record");

    let fresh = fresh_candidates(&catalog, &din, &path, 100);
    assert_eq!(fresh.len(), 6, "two value columns of each joinable table");
    assert_eq!(*second, fresh);
    assert_eq!(provider.len(), catalog.len() - 1, "din is withheld");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn candidate_memo_misses_on_anything_enumeration_reads() {
    let dir = memo_lake("memo-key", 2);
    let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan"));
    let records = catalog.sketch_load_counters();
    let din = catalog.load_table("din").expect("din");
    let path = PathConfig::default();
    // Each lookup: the list, and whether it read the records (a miss).
    let lookup = |din: &Table, path: &PathConfig, cap: usize| {
        let before = records.hits();
        let (candidates, _) =
            repository_candidates(&catalog, din, None, path, cap).expect("candidates");
        let missed = records.hits() > before;
        assert_eq!(*candidates, fresh_candidates(&catalog, din, path, cap));
        missed
    };
    assert!(lookup(&din, &path, 100), "the first lookup misses");
    assert!(!lookup(&din, &path, 100), "the same input hits");

    let replaced = |i: usize, column: Column| {
        let mut columns = din.columns().to_vec();
        columns[i] = column;
        Table::from_columns("din", columns).expect("same row count")
    };

    // Feature and target columns are not probed: changing one still hits.
    let flipped = (0..din.nrows()).map(|i| Some(1 - i as i64 % 2)).collect();
    let relabeled = replaced(2, Column::from_ints(Some("label".into()), flipped));
    assert!(
        !lookup(&relabeled, &path, 100),
        "a non-key column is not read"
    );

    // A changed key column, path config or cap misses.
    let zips = (0..din.nrows())
        .map(|i| Some(format!("z{}", i + 30)))
        .collect();
    let rekeyed = replaced(0, Column::from_strings(Some("zip".into()), zips));
    assert!(lookup(&rekeyed, &path, 100), "a changed key column misses");
    assert!(
        lookup(&din, &path, 100),
        "the single slot now holds the rekeyed input"
    );
    let stricter = PathConfig {
        containment_threshold: 0.9,
        ..path
    };
    assert!(lookup(&din, &stricter, 100), "a changed threshold misses");
    let one_hop = PathConfig {
        max_hops: 1,
        ..stricter
    };
    assert!(lookup(&din, &one_hop, 100), "a changed hop limit misses");
    assert!(lookup(&din, &one_hop, 3), "a changed cap misses");
    assert!(!lookup(&din, &one_hop, 3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_hit_rescan_enumerates_a_landed_joinable_table() {
    let dir = memo_lake("memo-rescan", 1);
    let registry =
        metam::serve::LakeRegistry::open(&[("memo".to_string(), dir.clone())]).expect("open");
    let path = PathConfig::default();
    let candidates_of = |catalog: &Arc<LakeCatalog>| {
        let din = catalog.load_table("din").expect("din");
        let (candidates, _) =
            repository_candidates(catalog, &din, None, &path, 100).expect("candidates");
        assert_eq!(*candidates, fresh_candidates(catalog, &din, &path, 100));
        candidates
    };
    let before = candidates_of(&registry.hot("memo").expect("hot"));
    assert_eq!(before.len(), 2);
    assert!(Arc::ptr_eq(
        &before,
        &candidates_of(&registry.hot("memo").expect("hot"))
    ));

    add_joinable(&dir, "landed");
    let after = candidates_of(&registry.hot("memo").expect("stale hit rescans"));
    assert_eq!(after.len(), 4, "the landed table's two columns join in");
    assert!(after.iter().any(|c| c.source_table == "landed"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_first_discovers_on_one_snapshot_enumerate_once() {
    let dir = memo_lake("memo-flight", 4);
    let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan"));
    let records = catalog.sketch_load_counters();
    let start = Arc::new(std::sync::Barrier::new(8));
    let sessions: Vec<_> = (0..8u64)
        .map(|seed| {
            let catalog = Arc::clone(&catalog);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                Session::from_shared_catalog(catalog)
                    .din("din")
                    .task_spec("classification:label")
                    .seed(seed)
                    .prepare()
                    .expect("prepare")
                    .candidates
            })
        })
        .collect();
    let lists: Vec<Arc<Vec<Candidate>>> = sessions
        .into_iter()
        .map(|s| s.join().expect("session thread"))
        .collect();
    assert_eq!(
        records.hits(),
        catalog.len() - 1,
        "one enumeration read the records; the other seven hit the memo"
    );
    assert!(lists.iter().all(|l| Arc::ptr_eq(l, &lists[0])));
    assert_eq!(lists[0].len(), 8);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small table whose layout and content follow `seed`: `ncols` columns
/// of mixed dtypes (named or anonymous, with nulls) over `nrows` rows.
fn fuzz_table(ncols: usize, nrows: usize, seed: u64) -> Table {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let columns = (0..ncols)
        .map(|c| {
            let name = (next() % 4 != 0).then(|| format!("c{c}\t\\é"));
            let kind = next() % 4;
            let mut present = || next() % 5 != 0;
            match kind {
                0 => {
                    let data = (0..nrows)
                        .map(|r| present().then_some(r as i64 - 3))
                        .collect();
                    Column::from_ints(name, data)
                }
                1 => {
                    let data = (0..nrows)
                        .map(|r| present().then_some(r as f64 * -0.375))
                        .collect();
                    Column::from_floats(name, data)
                }
                2 => {
                    let data = (0..nrows)
                        .map(|r| present().then(|| format!("k{}", r % 3)))
                        .collect();
                    Column::from_strings(name, data)
                }
                _ => {
                    let data = (0..nrows)
                        .map(|r| present().then_some(r % 2 == 0))
                        .collect();
                    Column::from_bools(name, data)
                }
            }
        })
        .collect();
    Table::from_columns("fuzz", columns).expect("equal-length columns")
}

fn fuzz_record(ncols: usize, nrows: usize, seed: u64) -> Vec<u8> {
    let table = fuzz_table(ncols, nrows, seed);
    sketch::encode(
        (seed, seed >> 7, 3),
        &sketch::TableSketch::from_table(&table),
    )
}

proptest! {
    /// Arbitrary bytes never panic the decoder — neither raw, nor sealed
    /// behind a valid magic, version and checksum so the column parser
    /// itself sees the garbage.
    #[test]
    fn decoder_survives_arbitrary_bytes(
        bytes in prop::collection::vec((0u32..256).prop_map(|b| b as u8), 0..4097),
    ) {
        assert!(sketch::decode(&bytes).is_none());
        let mut sealed = sketch::SKETCH_MAGIC.to_vec();
        sealed.extend_from_slice(&sketch::SKETCH_VERSION.to_le_bytes());
        sealed.extend_from_slice(&bytes);
        let sum = fnv1a(&sealed);
        sealed.extend_from_slice(&sum.to_le_bytes());
        let _ = sketch::decode(&sealed);
    }

    /// Every strict prefix of a valid record decodes to `None`.
    #[test]
    fn every_strict_prefix_of_a_record_is_rejected(
        ncols in 0usize..3,
        nrows in 0usize..9,
        seed: u64,
    ) {
        let bytes = fuzz_record(ncols, nrows, seed);
        assert!(sketch::decode(&bytes).is_some(), "the record itself is valid");
        for cut in 0..bytes.len() {
            assert!(sketch::decode(&bytes[..cut]).is_none(), "prefix of {cut} bytes");
        }
    }

    /// Every single-byte change of a valid record decodes to `None`.
    #[test]
    fn every_single_byte_flip_of_a_record_is_rejected(
        ncols in 0usize..3,
        nrows in 0usize..9,
        seed: u64,
    ) {
        let mut bytes = fuzz_record(ncols, nrows, seed);
        for i in 0..bytes.len() {
            let mask = 1 + (seed.rotate_left(i as u32 % 64) % 255) as u8;
            bytes[i] ^= mask;
            assert!(sketch::decode(&bytes).is_none(), "byte {i} ^ {mask:#04x}");
            bytes[i] ^= mask;
        }
    }
}
