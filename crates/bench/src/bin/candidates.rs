//! Candidate-generation scalability: sketch-backed prepare vs
//! load-everything, as the lake grows.
//!
//! Generates lakes with a growing number of tables (100 → 2000; 20 → 60
//! with `--quick`) where only a fixed handful of tables actually join the
//! input dataset — the realistic shape where a lake is much bigger than
//! any one query's neighborhood. For every lake size it runs prepare both
//! ways and **asserts** the properties the sketch layer promises:
//!
//! 1. the sketch-backed candidate set is **byte-identical** to the eager
//!    (load-everything) candidate set at every table count,
//! 2. a sketch-backed prepare touches a **bounded** number of table
//!    payloads — the input dataset plus the tables on candidate join
//!    paths (the fixed joinable handful), independent of lake size,
//! 3. every repository descriptor comes from a persisted sketch record
//!    (zero table-load fallbacks),
//! 4. (full mode only) sketch-backed prepare beats load-everything on
//!    wall-clock once the lake dwarfs the join neighborhood.
//!
//! `--quick` is the CI smoke mode (run by `ci.sh`): small lakes, all
//! structural assertions, no timing assertions.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use metam::core::prepared::{assemble, AssembleOptions};
use metam::lake::prepare::repository_descriptors;
use metam::lake::{parse_task, LakeCatalog};
use metam::profile::default_profiles;
use metam::Table;
use metam_bench::{save_json, Args, TableReport};

/// Tables that genuinely join the input dataset, whatever the lake size.
const N_JOINABLE: usize = 3;

/// Deterministic row data (tiny splitmix; no rand dependency needed).
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A lake of `n_tables` repository tables plus `din.csv`. The first
/// [`N_JOINABLE`] tables share din's `z<r>` keyspace; every other table
/// keys on its own `d<f>_<r>` namespace, so it can never join din.
fn generate_lake(dir: &Path, n_tables: usize, n_rows: usize, seed: u64) {
    std::fs::create_dir_all(dir).expect("create lake dir");
    let mut din = String::from("zip,label\n");
    for r in 0..n_rows {
        din.push_str(&format!("z{r},{}\n", mix(seed ^ r as u64) % 2));
    }
    std::fs::write(dir.join("din.csv"), din).expect("write din");
    for f in 0..n_tables {
        let joinable = f < N_JOINABLE;
        let mut csv = String::from("key,metric\n");
        for r in 0..n_rows {
            let h = mix(seed ^ ((f as u64) << 32) ^ r as u64);
            let key = if joinable {
                format!("z{r}")
            } else {
                format!("d{f}_{r}")
            };
            csv.push_str(&format!("{key},{:.3}\n", (h % 10_000) as f64 / 7.0));
        }
        std::fs::write(dir.join(format!("t{f:04}.csv")), csv).expect("write lake file");
    }
}

fn main() {
    let args = Args::parse();
    let sizes: &[usize] = if args.quick {
        &[20, 60]
    } else {
        &[100, 500, 1000, 2000]
    };
    let n_rows = if args.quick { 30 } else { 60 };

    let mut table = TableReport::new(
        "candidates",
        "Sketch-backed vs load-everything prepare",
        vec![
            "tables",
            "candidates",
            "payloads loaded",
            "eager s",
            "sketch s",
            "speedup",
        ],
    );

    for &n_tables in sizes {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "metam-candidates-bench-{n_tables}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        generate_lake(&dir, n_tables, n_rows, args.seed);

        let options = AssembleOptions {
            seed: args.seed,
            ..Default::default()
        };

        // Eager path: load every repository table up front, sketch them
        // all in memory, then generate candidates.
        let catalog = LakeCatalog::scan(&dir).expect("scan");
        assert_eq!(catalog.len(), n_tables + 1);
        let eager_start = Instant::now();
        let din = catalog.load_table("din").expect("din");
        let tables: Vec<Arc<Table>> = catalog
            .repository_names(&[din.name.as_str()])
            .iter()
            .map(|name| Arc::new(catalog.load_table(name).expect("repository")))
            .collect();
        let eager = assemble(
            din,
            tables,
            Some(1),
            parse_task("classification:label", args.seed)
                .expect("task")
                .task,
            &default_profiles(),
            &options,
        );
        let eager_secs = eager_start.elapsed().as_secs_f64();
        drop(catalog);

        // Sketch path: descriptors from persisted records, payloads
        // lazily through the catalog — under fresh load counters.
        let catalog = Arc::new(LakeCatalog::scan(&dir).expect("rescan"));
        assert_eq!(catalog.cache_hits(), n_tables + 1, "records are warm");
        let counters = catalog.load_counters();
        let sketch_counters = catalog.sketch_load_counters();
        let sketch_start = Instant::now();
        let din = catalog.load_table("din").expect("din");
        let (descriptors, provider) =
            repository_descriptors(&catalog, &din, None).expect("descriptors");
        let sketch = assemble(
            din,
            metam::core::Repository::Deferred {
                descriptors,
                provider: Box::new(provider),
            },
            Some(1),
            parse_task("classification:label", args.seed)
                .expect("task")
                .task,
            &default_profiles(),
            &options,
        );
        let sketch_secs = sketch_start.elapsed().as_secs_f64();

        // 1. Byte-identical candidate sets at every table count.
        assert_eq!(
            eager.candidates, sketch.candidates,
            "sketch-backed candidates must equal the in-memory set at {n_tables} tables"
        );
        assert!(
            !sketch.candidates.is_empty(),
            "the joinable handful must produce candidates"
        );

        // 2. Bounded payload loads: din + the tables on candidate join
        // paths — never the whole lake.
        let mut touched: Vec<usize> = sketch
            .candidates
            .iter()
            .flat_map(|c| c.path.hops.iter())
            .map(|h| h.table)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let loads = counters.hits() + counters.misses();
        assert_eq!(
            loads,
            1 + touched.len(),
            "prepare must load din + candidate-path tables only ({n_tables} tables)"
        );
        assert_eq!(
            touched.len(),
            N_JOINABLE,
            "the join neighborhood stays fixed as the lake grows"
        );

        // 3. Candidate generation ran entirely off persisted records.
        assert_eq!(sketch_counters.hits(), n_tables, "all records served");
        assert_eq!(sketch_counters.misses(), 0, "no table-load fallbacks");

        // 4. Wall-clock: once the lake dwarfs the join neighborhood, the
        // sketch path must win (skipped in --quick and at small sizes,
        // where constant factors and 1-core CI boxes dominate).
        let speedup = eager_secs / sketch_secs.max(1e-9);
        println!(
            "{n_tables:>5} tables: {} candidates | {loads} payload load(s) | eager {eager_secs:.3}s | sketch {sketch_secs:.3}s | speedup {speedup:.2}x",
            sketch.candidates.len(),
        );
        if !args.quick && n_tables >= 500 {
            assert!(
                sketch_secs < eager_secs,
                "sketch-backed prepare must beat load-everything at {n_tables} tables \
                 (eager {eager_secs:.3}s vs sketch {sketch_secs:.3}s)"
            );
        }

        table.push_row(vec![
            n_tables.to_string(),
            sketch.candidates.len().to_string(),
            loads.to_string(),
            format!("{eager_secs:.4}"),
            format!("{sketch_secs:.4}"),
            format!("{speedup:.2}x"),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    table.print();
    save_json(&args.out, "candidates", &table);
    println!("candidates bench OK");
}
