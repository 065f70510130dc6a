//! Figure 11: ablations. (a) cluster radius ε ∈ {0.03, 0.05, 0.07};
//! (b) Metam vs its variants Nc (no clustering), Eq (no Thompson
//! sampling) and NcEq (neither).

use metam::{MetamConfig, Method};
use metam_bench::{panels_json, query_grid, run_methods, save_json, Args, Panel};

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 8 } else { 1 };
    let budget = 500 / scale;
    let grid = query_grid(budget, 12);
    let mut reports = Vec::new();

    let scenario = metam::datagen::repo::price_classification(args.seed);
    let prepared = metam::Session::from_scenario(scenario)
        .seed(args.seed)
        .prepare()
        .expect("prepare");
    eprintln!("[fig11] {} candidates", prepared.candidates.len());

    // (a) ε sweep.
    let mut panel_a = Panel::new("fig11a", "(a) varying cluster radius ε");
    for &eps in &[0.03f64, 0.05, 0.07] {
        let method = Method::Metam(MetamConfig {
            epsilon: eps,
            seed: args.seed,
            ..Default::default()
        });
        let mut series = run_methods(&prepared, &[method], None, budget, &grid);
        if let Some(mut s) = series.pop() {
            s.label = format!("eps={eps}");
            panel_a.series.push(s);
        }
        eprintln!("[fig11a] eps={eps} done");
    }
    panel_a.print();
    reports.push(panel_a);

    // (b) variants.
    let mut panel_b = Panel::new("fig11b", "(b) Metam vs Nc / Eq / NcEq variants");
    let variants: Vec<(&str, bool, bool)> = vec![
        ("Metam", true, true),
        ("Nc", false, true),
        ("Eq", true, false),
        ("NcEq", false, false),
    ];
    for (label, use_clustering, use_thompson) in variants {
        let method = Method::Metam(MetamConfig {
            use_clustering,
            use_thompson,
            seed: args.seed,
            ..Default::default()
        });
        let mut series = run_methods(&prepared, &[method], None, budget, &grid);
        if let Some(mut s) = series.pop() {
            s.label = label.to_string();
            panel_b.series.push(s);
        }
        eprintln!("[fig11b] {label} done");
    }
    panel_b.print();
    reports.push(panel_b);

    save_json(&args.out, "fig11", &panels_json(&reports));
}
