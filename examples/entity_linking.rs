//! Generalization beyond ML: entity linking (paper §VI-A.4).
//!
//! A CDC-style table lists ambiguous city names ("Birmingham" exists in
//! several states and in the UK). Linking accuracy is terrible until a
//! state-abbreviation column is augmented — Metam finds that column among
//! dozens of joinable distractors in a handful of queries.
//!
//! Run with: `cargo run --release --example entity_linking`

use metam::{run_method, MetamConfig, Method, NoopObserver, Session};

fn main() {
    let seed = 11;
    let scenario =
        metam::datagen::linking::build_linking(&metam::datagen::linking::LinkingConfig {
            seed,
            ..Default::default()
        });
    let prepared = Session::from_scenario(scenario)
        .seed(seed)
        .prepare()
        .expect("prepare");
    println!("{} candidate augmentations\n", prepared.candidates.len());

    println!(
        "{:<10} {:>9} {:>9} {:>8}",
        "method", "base acc", "final acc", "queries"
    );
    let methods = [
        Method::Metam(MetamConfig {
            seed,
            ..Default::default()
        }),
        Method::Mw { seed },
        Method::Overlap,
        Method::Uniform { seed },
    ];
    for method in &methods {
        let r = run_method(
            method,
            &prepared.inputs(),
            Some(0.95),
            200,
            &mut NoopObserver,
        );
        println!(
            "{:<10} {:>9.3} {:>9.3} {:>8}",
            r.method, r.base_utility, r.utility, r.queries
        );
    }

    let r = run_method(
        &Method::Metam(MetamConfig {
            seed,
            ..Default::default()
        }),
        &prepared.inputs(),
        Some(0.95),
        200,
        &mut NoopObserver,
    );
    println!("\nMetam's disambiguating augmentation:");
    for &id in &r.selected {
        println!("  - {}", prepared.candidates[id].name);
    }
}
