//! Figure 4: (a) classification with AutoML as the task implementation;
//! (b) unions — augmentation by adding records.

use metam_bench::{panels_json, query_grid, run_methods, save_json, Args, Panel};
use metam_datagen::scenario::TaskSpec;

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 8 } else { 1 };
    let mut reports = Vec::new();

    // (a) AutoML classification on the schools scenario.
    {
        let mut scenario = metam::datagen::repo::schools_classification(args.seed);
        if let TaskSpec::Classification { target } = &scenario.spec {
            scenario.spec = TaskSpec::AutoMlClassification {
                target: target.clone(),
            };
        }
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[fig4a] {} candidates", prepared.candidates.len());
        let budget = 500 / scale;
        let methods = metam_bench::standard_methods(args.seed, Some(true));
        let grid = query_grid(budget, 12);
        let series = run_methods(&prepared, &methods, None, budget, &grid);
        let mut panel = Panel::new("fig4a", "(a) AutoML classification — schools");
        panel.series = series;
        panel.print();
        reports.push(panel);
    }

    // (b) Unions: record-addition augmentations for NYC rent.
    {
        let scenario =
            metam::datagen::unions::build_unions(&metam::datagen::unions::UnionsConfig {
                seed: args.seed,
                ..Default::default()
            });
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[fig4b] {} union candidates", prepared.candidates.len());
        let budget = 200 / scale.min(4);
        let methods = metam_bench::standard_methods(args.seed, None);
        let grid = query_grid(budget, 10);
        let series = run_methods(&prepared, &methods, None, budget, &grid);
        let mut panel = Panel::new("fig4b", "(b) Unions — NYC rent (record addition)");
        panel.series = series;
        panel.print();
        reports.push(panel);
    }

    save_json(&args.out, "fig4", &panels_json(&reports));
}
