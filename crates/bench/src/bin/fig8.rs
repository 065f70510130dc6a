//! Figure 8: number of queries needed to identify the single planted
//! ground-truth augmentation while sweeping (a) irrelevant and
//! (b) erroneous distractor augmentations.
//!
//! "Found" = reaching 70 % of the ground-truth augmentation's utility
//! lift, probed with a separate engine so the probe doesn't count.

use std::collections::BTreeSet;

use metam::core::engine::QueryEngine;
use metam::datagen::supervised::{build_supervised, SupervisedConfig};
use metam::{Metam, MetamConfig, NoopObserver, StopReason};
use metam_bench::{save_json, Args, Panel, Series};

/// Queries Metam needs to reach the 70 % ground-truth lift.
fn queries_to_ground_truth(scenario: metam::datagen::Scenario, seed: u64, budget: usize) -> usize {
    let prepared = metam::Session::from_scenario(scenario)
        .seed(seed)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let gt = relevance
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .expect("one planted candidate");

    // Probe the target utility (separate engine; not billed).
    let inputs = prepared.inputs();
    let mut probe = QueryEngine::new(&inputs, usize::MAX);
    let base = probe.base_utility().expect("unbounded budget");
    let gt_u = probe
        .utility_of(&BTreeSet::from([gt]))
        .expect("unbounded budget");
    let theta = base + 0.7 * (gt_u - base);

    // Relaxed mode (τ = 1, no minimality pass): accept the first improving
    // augmentation — the cleanest proxy for "queries until the ground truth
    // is identified".
    let result = Metam::new(MetamConfig {
        theta: Some(theta),
        max_queries: budget,
        tau: Some(1),
        minimality: false,
        seed,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    if result.stop_reason == StopReason::ThetaReached {
        result.queries
    } else {
        budget
    }
}

fn main() {
    let args = Args::parse();
    let budget = if args.quick { 150 } else { 400 };
    // Distractor *candidate* counts (each distractor table yields ~3
    // candidates; the paper sweeps up to 100K — we sweep a laptop-scale
    // version with the same shape).
    let counts: Vec<usize> = if args.quick {
        vec![0, 60, 300]
    } else {
        vec![0, 300, 900, 1800]
    };

    let base_cfg = SupervisedConfig {
        seed: args.seed,
        n_rows: 300,
        n_informative: 1,
        n_duplicates: 0,
        n_irrelevant_tables: 0,
        n_erroneous_tables: 0,
        classification: true,
        name: "fig8".to_string(),
        ..Default::default()
    };

    // (a) fixed erroneous (≈100 candidates), varying irrelevant.
    let mut panel_a = Panel::new("fig8a", "(a) queries to ground truth vs #irrelevant");
    panel_a.x_label = "irrelevant".into();
    panel_a.y_label = "queries".into();
    let mut points = Vec::new();
    for &count in &counts {
        let cfg = SupervisedConfig {
            n_irrelevant_tables: count / 3,
            n_erroneous_tables: 33,
            name: format!("fig8a_{count}"),
            ..base_cfg.clone()
        };
        let q = queries_to_ground_truth(build_supervised(&cfg), args.seed, budget);
        eprintln!("[fig8a] irrelevant={count}: {q} queries");
        points.push((count, q as f64));
    }
    panel_a.series.push(Series {
        label: "Metam".into(),
        points,
    });
    panel_a.print();

    // (b) fixed irrelevant, varying erroneous.
    let mut panel_b = Panel::new("fig8b", "(b) queries to ground truth vs #erroneous");
    panel_b.x_label = "erroneous".into();
    panel_b.y_label = "queries".into();
    let mut points = Vec::new();
    for &count in &counts {
        let cfg = SupervisedConfig {
            n_irrelevant_tables: 33,
            n_erroneous_tables: count, // one candidate per erroneous table
            name: format!("fig8b_{count}"),
            ..base_cfg.clone()
        };
        let q = queries_to_ground_truth(build_supervised(&cfg), args.seed, budget);
        eprintln!("[fig8b] erroneous={count}: {q} queries");
        points.push((count, q as f64));
    }
    panel_b.series.push(Series {
        label: "Metam".into(),
        points,
    });
    panel_b.print();

    save_json(&args.out, "fig8", &vec![panel_a, panel_b]);
}
