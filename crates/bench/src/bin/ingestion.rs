//! Lake ingestion benchmark: parallel scan vs sequential, per-file record
//! rewrites, and `.mtc` columnar-cache loads vs CSV re-parsing.
//!
//! Generates a many-file CSV lake (500 files; 60 with `--quick`), then
//! measures and **asserts** the ingestion properties the lake layer
//! promises:
//!
//! 1. a cold parallel scan produces byte-identical catalog state to a
//!    sequential scan (and beats it on wall-clock when >1 core is up),
//! 2. a warm rescan is all cache hits and rewrites no `.mks` record,
//! 3. touching one file re-profiles one file and rewrites exactly its own
//!    record,
//! 4. repository loads deserialize from the columnar cache, not CSV.
//!
//! `--quick` is the CI smoke mode (run by `ci.sh`): small lake, all
//! structural assertions, no timing assertions.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use metam::lake::{sketch, LakeCatalog, ScanOptions};
use metam::Table;
use metam_bench::{save_json, Args, TableReport};

/// Deterministic row data (tiny splitmix; no rand dependency needed).
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate_lake(dir: &Path, n_files: usize, n_rows: usize, seed: u64) {
    std::fs::create_dir_all(dir).expect("create lake dir");
    for f in 0..n_files {
        let mut csv = String::from("zip,value,count,note\n");
        for r in 0..n_rows {
            let h = mix(seed ^ ((f as u64) << 32) ^ r as u64);
            csv.push_str(&format!(
                "z{},{:.3},{},n{}\n",
                r,
                (h % 10_000) as f64 / 7.0,
                h % 97,
                h % 13,
            ));
        }
        std::fs::write(dir.join(format!("t{f:04}.csv")), csv).expect("write lake file");
    }
}

fn wipe_meta(dir: &Path) {
    let _ = std::fs::remove_dir_all(LakeCatalog::meta_dir(dir));
}

/// Every file's `.mks` record as (modification time, bytes), in catalog
/// order: a record that was rewritten, or rewritten differently, shows up
/// as a changed pair.
fn records(catalog: &LakeCatalog) -> Vec<(SystemTime, Vec<u8>)> {
    catalog
        .entries()
        .iter()
        .map(|e| {
            let path = sketch::sketch_path(catalog.root(), &e.file_name);
            let mtime = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .expect("record mtime");
            (mtime, std::fs::read(&path).expect("read record"))
        })
        .collect()
}

/// Every table of the catalog, loaded through the catalog.
fn load_all(catalog: &LakeCatalog) -> Vec<Table> {
    catalog
        .repository_names(&[])
        .iter()
        .map(|name| catalog.load_table(name).expect("load"))
        .collect()
}

fn timed_scan(dir: &Path, options: &ScanOptions) -> (LakeCatalog, f64) {
    let start = Instant::now();
    let catalog = LakeCatalog::scan_with(dir, options).expect("scan");
    (catalog, start.elapsed().as_secs_f64())
}

fn main() {
    let args = Args::parse();
    let (n_files, n_rows) = if args.quick { (60, 40) } else { (500, 200) };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir: PathBuf =
        std::env::temp_dir().join(format!("metam-ingestion-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "generating lake: {n_files} files x {n_rows} rows (seed {})",
        args.seed
    );
    generate_lake(&dir, n_files, n_rows, args.seed);

    // 1. Cold scans: sequential, then parallel, from identical blank state.
    let (seq_catalog, seq_secs) = timed_scan(&dir, &ScanOptions::sequential());
    assert_eq!(
        seq_catalog.cache_misses(),
        n_files,
        "cold scan profiles all"
    );
    let seq_entries = seq_catalog.entries().to_vec();
    drop(seq_catalog);
    wipe_meta(&dir);
    let (par_catalog, par_secs) = timed_scan(
        &dir,
        &ScanOptions {
            threads: Some(workers),
        },
    );
    assert_eq!(
        par_catalog.entries(),
        seq_entries.as_slice(),
        "parallel scan must be deterministic"
    );
    let speedup = seq_secs / par_secs.max(1e-9);
    println!(
        "cold scan: sequential {seq_secs:.3}s | parallel({workers}) {par_secs:.3}s | speedup {speedup:.2}x"
    );
    if !args.quick && workers > 1 {
        assert!(
            par_secs < seq_secs,
            "parallel cold scan must beat sequential on {workers} workers \
             (sequential {seq_secs:.3}s vs parallel {par_secs:.3}s)"
        );
    }

    // 2. Warm rescan: all hits, no record rewritten.
    let cold_records = records(&par_catalog);
    let (warm, warm_secs) = timed_scan(&dir, &ScanOptions::default());
    assert_eq!(warm.cache_hits(), n_files, "warm rescan is all cache hits");
    assert_eq!(warm.cache_misses(), 0);
    let warm_records = records(&warm);
    assert!(
        warm_records == cold_records,
        "unchanged lake rewrites no record"
    );
    println!(
        "warm rescan: {warm_secs:.3}s, {}/{} hits",
        warm.cache_hits(),
        n_files,
    );

    // 3. Touch one file: one re-profile, exactly its record rewritten.
    let touched = dir.join("t0000.csv");
    let mut text = std::fs::read_to_string(&touched).expect("read");
    text.push_str("z9999,1.0,1,extra\n");
    std::fs::write(&touched, text).expect("touch");
    let (after_touch, _) = timed_scan(&dir, &ScanOptions::default());
    assert_eq!(after_touch.cache_misses(), 1, "only the touched file");
    assert_eq!(after_touch.cache_hits(), n_files - 1);
    let rewritten: Vec<&str> = after_touch
        .entries()
        .iter()
        .zip(records(&after_touch).iter().zip(&warm_records))
        .filter(|(_, (now, before))| now != before)
        .map(|(e, _)| e.file_name.as_str())
        .collect();
    assert_eq!(
        rewritten,
        ["t0000.csv"],
        "touching one file rewrites exactly its own record"
    );

    // 4. Repository loads: CSV re-parse (cache wiped) vs `.mtc` columns.
    let _ = std::fs::remove_dir_all(metam::lake::cache::cache_dir(&dir));
    let counters = after_touch.load_counters();
    let start = Instant::now();
    let from_csv = load_all(&after_touch);
    let csv_secs = start.elapsed().as_secs_f64();
    assert_eq!(counters.misses(), n_files, "wiped cache forces CSV parsing");
    // That pass healed the cache; the next load is columnar end to end.
    let start = Instant::now();
    let from_mtc = load_all(&after_touch);
    let mtc_secs = start.elapsed().as_secs_f64();
    assert_eq!(counters.hits(), n_files, "healed cache serves every load");
    assert_eq!(from_mtc.len(), from_csv.len());
    for (a, b) in from_mtc.iter().zip(&from_csv) {
        assert_eq!(a, b, "cache must be value-identical");
    }
    println!(
        "load {} tables: csv {csv_secs:.3}s | .mtc {mtc_secs:.3}s | speedup {:.2}x",
        n_files,
        csv_secs / mtc_secs.max(1e-9)
    );

    let mut table = TableReport::new(
        "ingestion",
        format!("Lake ingestion on {n_files} files ({workers} worker(s))"),
        vec!["phase", "seconds"],
    );
    for (phase, secs) in [
        ("cold scan, sequential", seq_secs),
        ("cold scan, parallel", par_secs),
        ("warm rescan (all hits)", warm_secs),
        ("load all via CSV", csv_secs),
        ("load all via .mtc", mtc_secs),
    ] {
        table.push_row(vec![phase.to_string(), format!("{secs:.4}")]);
    }
    table.print();
    save_json(&args.out, "ingestion", &table);

    let _ = std::fs::remove_dir_all(&dir);
    println!("ingestion bench OK");
}
