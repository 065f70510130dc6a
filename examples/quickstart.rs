//! Quickstart: goal-oriented data discovery in ~30 lines.
//!
//! Builds a synthetic housing-price classification scenario (a `Din` table
//! plus a repository of joinable tables, most of them useless), then lets
//! Metam query the task until it finds a minimal augmentation set that
//! lifts the classifier's F-score past the target θ.
//!
//! Run with: `cargo run --release --example quickstart`

use metam::{Metam, MetamConfig, NoopObserver, Session};

fn main() {
    // 1. A scenario: Din = housing table; repository = crime/taxi/Walmart
    //    tables + duplicates + noise + erroneous joins.
    let scenario = metam::datagen::repo::price_classification(42);
    println!(
        "repository: {} tables; Din: {} rows × {} columns",
        scenario.tables.len(),
        scenario.din.nrows(),
        scenario.din.ncols()
    );

    // 2. Discover candidates, compute data profiles, instantiate the task.
    let prepared = Session::from_scenario(scenario)
        .seed(42)
        .prepare()
        .expect("prepare");
    println!(
        "candidate augmentations discovered: {}",
        prepared.candidates.len()
    );

    // 3. Search: query the task adaptively until utility ≥ θ.
    let config = MetamConfig {
        theta: Some(0.75),
        max_queries: 400,
        ..Default::default()
    };
    let result = Metam::new(config).run(&prepared.inputs(), &mut NoopObserver);

    println!(
        "\nutility: {:.3} → {:.3} in {} task queries ({:?})",
        result.base_utility, result.utility, result.queries, result.stop_reason
    );
    println!("selected augmentations:");
    for &id in &result.selected {
        println!("  - {}", prepared.candidates[id].name);
    }
}
