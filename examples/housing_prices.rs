//! The paper's introduction anecdote: predicting housing prices.
//!
//! Goal-oriented discovery finds the "obvious" augmentations (income,
//! crime) *and* the non-obvious ones (Walmart presence, taxi trips) that
//! sociologists discovered manually [5, 39] — here, with zero human
//! intervention. Also compares Metam's query bill against the
//! discover-then-augment baselines.
//!
//! Run with: `cargo run --release --example housing_prices`

use metam::{run_method, MetamConfig, Method, NoopObserver, Session};

fn main() {
    let seed = 7;
    let scenario = metam::datagen::repo::price_classification(seed);
    let prepared = Session::from_scenario(scenario)
        .seed(seed)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.as_deref().expect("planted truth");
    let theta = Some(0.75);
    let budget = 500;

    println!("{} candidate augmentations\n", prepared.candidates.len());
    println!(
        "{:<10} {:>8} {:>9} {:>8}  selected",
        "method", "base", "utility", "queries"
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
        let r = run_method(method, &prepared.inputs(), theta, budget, &mut NoopObserver);
        let names: Vec<&str> = r
            .selected
            .iter()
            .map(|&id| prepared.candidates[id].name.as_str())
            .collect();
        println!(
            "{:<10} {:>8.3} {:>9.3} {:>8}  {}",
            r.method,
            r.base_utility,
            r.utility,
            r.queries,
            if names.len() > 3 {
                format!("{} augmentations", names.len())
            } else {
                names.join(" | ")
            }
        );
    }

    println!("\nMetam's picks in detail:");
    let r = run_method(
        &Method::Metam(MetamConfig {
            seed,
            ..Default::default()
        }),
        &prepared.inputs(),
        theta,
        budget,
        &mut NoopObserver,
    );
    for &id in &r.selected {
        let c = &prepared.candidates[id];
        println!(
            "  {} (planted relevance {:.2}) — joined from table {:?}",
            c.name, relevance[id], c.source_table
        );
    }
}
