//! Figure 3: utility vs #queries for four tasks (classification,
//! regression, what-if, how-to) — Metam vs MW / Overlap / Uniform, plus
//! iARDA on the supervised tasks.

use metam_bench::{panels_json, query_grid, run_methods, save_json, Args, Panel};

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 8 } else { 1 };

    let panels: Vec<(&str, &str, metam::datagen::Scenario, usize, Option<bool>)> = vec![
        (
            "fig3a",
            "(a) Classification — housing prices",
            metam::datagen::repo::price_classification(args.seed),
            600 / scale,
            Some(true),
        ),
        (
            "fig3b",
            "(b) Regression — NYC collisions",
            metam::datagen::repo::collisions_regression(args.seed),
            300 / scale,
            Some(false),
        ),
        (
            "fig3c",
            "(c) What-if — SAT scores",
            metam::datagen::repo::sat_whatif(args.seed),
            700 / scale,
            None,
        ),
        (
            "fig3d",
            "(d) How-to — SAT scores",
            metam::datagen::repo::sat_howto(args.seed),
            400 / scale,
            None,
        ),
    ];

    let mut reports = Vec::new();
    for (id, title, scenario, budget, iarda) in panels {
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[{id}] {} candidates", prepared.candidates.len());
        let methods = metam_bench::standard_methods(args.seed, iarda);
        let grid = query_grid(budget, 12);
        let series = run_methods(&prepared, &methods, None, budget, &grid);
        let mut panel = Panel::new(id, title);
        panel.series = series;
        panel.print();
        reports.push(panel);
    }
    save_json(&args.out, "fig3", &panels_json(&reports));
}
