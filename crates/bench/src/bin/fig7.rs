//! Figure 7: adding informative *task-specific* profiles (ARDA feature
//! importance \[37\]) accelerates Metam further; generic-profile Metam is
//! also plotted for the paper's "fewer queries with specialized profiles"
//! comparison.

use metam::profile::task_specific::TaskSpecificProfile;
use metam::profile::{default_profiles, ProfileSet};
use metam::{MetamConfig, Method};
use metam_bench::{query_grid, run_methods, save_json, Args, Panel, Series};

fn arda_profiles(classification: bool, seed: u64) -> ProfileSet {
    let mut set = default_profiles();
    set.push(Box::new(TaskSpecificProfile {
        classification,
        seed,
    }));
    set
}

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 8 } else { 1 };
    let mut reports = Vec::new();

    let panels: Vec<(&str, &str, metam::datagen::Scenario, usize, bool)> = vec![
        (
            "fig7a",
            "(a) Classification with ARDA profiles",
            metam::datagen::repo::price_classification(args.seed),
            400 / scale,
            true,
        ),
        (
            "fig7b",
            "(b) Regression with ARDA profiles",
            metam::datagen::repo::collisions_regression(args.seed),
            300 / scale,
            false,
        ),
    ];

    for (id, title, scenario, budget, classification) in panels {
        let grid = query_grid(budget, 12);
        // With task-specific profiles.
        let prepared_arda = metam::Session::from_scenario(scenario.clone())
            .profiles(arda_profiles(classification, args.seed))
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[{id}] {} candidates", prepared_arda.candidates.len());
        let methods = [
            Method::Metam(MetamConfig {
                seed: args.seed,
                ..Default::default()
            }),
            Method::Mw { seed: args.seed },
            Method::Overlap,
            Method::Uniform { seed: args.seed },
        ];
        let mut series = run_methods(&prepared_arda, &methods, None, budget, &grid);
        for s in &mut series {
            s.label = format!("{}+ARDA", s.label);
        }
        // Generic-profile Metam for contrast.
        let prepared_generic = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        let generic = run_methods(
            &prepared_generic,
            &[Method::Metam(MetamConfig {
                seed: args.seed,
                ..Default::default()
            })],
            None,
            budget,
            &grid,
        );
        series.push(Series {
            label: "Metam(generic)".to_string(),
            points: generic
                .into_iter()
                .next()
                .map(|s| s.points)
                .unwrap_or_default(),
        });

        let mut panel = Panel::new(id, title);
        panel.series = series;
        panel.print();
        reports.push(panel);
    }
    save_json(&args.out, "fig7", &reports);
}
