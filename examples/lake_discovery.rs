//! Goal-oriented discovery over an **on-disk CSV lake**.
//!
//! The example builds its own lake by exporting a synthetic scenario to a
//! temp directory — in real use, point `LakeCatalog::scan` at any folder
//! of CSV files (or try the CLI: `metam demo ./lake && metam scan ./lake`).
//!
//! Run with: `cargo run --release --example lake_discovery`

use metam::lake::{export_scenario, LakeCatalog};
use metam::{Metam, MetamConfig, NoopObserver, Session};

fn main() {
    let dir = std::env::temp_dir().join(format!("metam-lake-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. A lake on disk. (Stand-in for a downloaded open-data portal.)
    let scenario = metam::datagen::repo::price_classification(7);
    export_scenario(&scenario, &dir).expect("export");
    println!("lake: {} ({} tables)", dir.display(), scenario.tables.len());

    // 2. Scan it: schema + column statistics land in <lake>/.metam/ so the
    //    next scan skips every unchanged file.
    let catalog = LakeCatalog::scan(&dir).expect("scan");
    println!(
        "scanned {} tables, {} rows ({} profile-cache misses)",
        catalog.len(),
        catalog.total_rows(),
        catalog.cache_misses()
    );
    let rescan = LakeCatalog::scan(&dir).expect("rescan");
    println!(
        "re-scan: {} cache hits, {} misses",
        rescan.cache_hits(),
        rescan.cache_misses()
    );

    // 3. Pick an input dataset + task through the Session builder,
    //    assemble, search.
    let prepared = Session::from_catalog(rescan)
        .din("din")
        .task_spec("classification:label")
        .seed(7)
        .prepare()
        .expect("prepare");
    println!("{} candidate augmentations", prepared.candidates.len());

    let result = Metam::new(MetamConfig {
        theta: Some(0.85),
        max_queries: 150,
        seed: 7,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);

    println!(
        "utility {:.3} (base {:.3}) | {} queries used, {} remaining | {:?}",
        result.utility,
        result.base_utility,
        result.queries,
        result.queries_remaining(),
        result.stop_reason,
    );
    for &id in &result.selected {
        println!("  selected: {}", prepared.candidates[id].name);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
