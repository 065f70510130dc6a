//! Prescriptive analytics: what-if analysis on student SAT scores.
//!
//! "What will be affected if the critical-reading score is updated?" The
//! task scores a candidate augmentation set by the fraction of the truly
//! affected attributes it exposes (p ≤ 0.05 under Fisher-z tests); Metam
//! hunts the repository for exactly those attribute tables.
//!
//! Run with: `cargo run --release --example causal_whatif`

use metam::{Metam, MetamConfig, NoopObserver, Session};

fn main() {
    let seed = 3;
    let scenario = metam::datagen::repo::sat_whatif(seed);
    if let metam::datagen::TaskSpec::WhatIf {
        intervened,
        affected,
    } = &scenario.spec
    {
        println!("intervened attribute: {intervened}");
        println!("ground-truth affected attributes: {affected:?}\n");
    }
    let prepared = Session::from_scenario(scenario)
        .seed(seed)
        .prepare()
        .expect("prepare");
    println!(
        "{} candidate augmentations (incl. erroneous joins)",
        prepared.candidates.len()
    );

    let result = Metam::new(MetamConfig {
        theta: Some(1.0), // find *all* affected attributes
        max_queries: 600,
        seed,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);

    println!(
        "\nrecovered {:.0}% of the affected attributes in {} queries ({:?})",
        result.utility * 100.0,
        result.queries,
        result.stop_reason
    );
    println!("augmentations Metam joined:");
    for &id in &result.selected {
        println!("  - {}", prepared.candidates[id].name);
    }
}
