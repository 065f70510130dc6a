//! τ ablation (§IV-B "Impact of τ" / §VI-A.2 relaxed solutions).
//!
//! τ = |C| (default) optimizes solution size; τ = 1 accepts the first
//! improving augmentation — fewer queries per round, larger solutions
//! (the paper reports ≈9 augmentations relaxed vs 2 minimal).

use metam::{Metam, MetamConfig, NoopObserver};
use metam_bench::{save_json, Args, TableReport};

fn main() {
    let args = Args::parse();
    let budget = if args.quick { 150 } else { 800 };

    let scenario = metam::datagen::repo::price_classification(args.seed);
    let prepared = metam::Session::from_scenario(scenario)
        .seed(args.seed)
        .prepare()
        .expect("prepare");

    // Discover |C| once so τ = |C|/2 is meaningful.
    let clustering = metam::core::cluster::cluster_partition(&prepared.profiles, 0.05, args.seed);
    let n_clusters = clustering.len().max(2);
    eprintln!(
        "[tau] {} candidates in {} clusters",
        prepared.candidates.len(),
        n_clusters
    );

    let mut table = TableReport::new(
        "ablation_tau",
        "Effect of τ (queries per round before committing)",
        vec!["tau", "utility", "queries", "|solution|", "stop"],
    );

    for (label, tau) in [
        ("1 (relaxed)", Some(1)),
        ("|C|/2", Some(n_clusters / 2)),
        ("|C| (default)", None),
    ] {
        // Without the minimality post-check, so solution sizes show the
        // raw effect of τ, as in the paper's discussion.
        let cfg = MetamConfig {
            tau,
            theta: Some(0.75),
            max_queries: budget,
            minimality: false,
            seed: args.seed,
            ..Default::default()
        };
        let r = Metam::new(cfg).run(&prepared.inputs(), &mut NoopObserver);
        table.push_row(vec![
            label.to_string(),
            format!("{:.3}", r.utility),
            r.queries.to_string(),
            r.selected.len().to_string(),
            format!("{:?}", r.stop_reason),
        ]);
        eprintln!("[tau] {label} done");
    }
    table.print();
    save_json(&args.out, "ablation_tau", &table);
}
