//! Figure 9: Metam with a growing number of *uninformative* profiles
//! (UI ∈ {0, 2, 4, 8}) on top of the 5 informative defaults — the solution
//! quality should hold, at the cost of a few more queries.

use metam::profile::synthetic::FixedProfile;
use metam::profile::{default_profiles, ProfileSet};
use metam::{MetamConfig, Method};
use metam_bench::{panels_json, query_grid, run_methods, save_json, Args, Panel};

fn profiles_with_noise(n_uninformative: usize, n_candidates_hint: usize, seed: u64) -> ProfileSet {
    let mut set = default_profiles();
    for u in 0..n_uninformative {
        set.push(Box::new(FixedProfile::uninformative(
            format!("noise_{u}"),
            n_candidates_hint,
            seed ^ (u as u64 + 1),
        )));
    }
    set
}

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 8 } else { 1 };
    let mut reports = Vec::new();

    let panels: Vec<(&str, &str, metam::datagen::Scenario, usize)> = vec![
        (
            "fig9a",
            "(a) Classification with UI uninformative profiles",
            metam::datagen::repo::price_classification(args.seed),
            500 / scale,
        ),
        (
            "fig9b",
            "(b) Regression with UI uninformative profiles",
            metam::datagen::repo::collisions_regression(args.seed),
            500 / scale,
        ),
    ];

    for (id, title, scenario, budget) in panels {
        let grid = query_grid(budget, 12);
        let mut panel = Panel::new(id, title);
        for &ui in &[0usize, 2, 4, 8] {
            // Enough noise values for any candidate count we'll see.
            let prepared = metam::Session::from_scenario(scenario.clone())
                .profiles(profiles_with_noise(ui, 100_000, args.seed))
                .seed(args.seed)
                .prepare()
                .expect("prepare");
            let mut series = run_methods(
                &prepared,
                &[Method::Metam(MetamConfig {
                    seed: args.seed,
                    ..Default::default()
                })],
                None,
                budget,
                &grid,
            );
            if let Some(mut s) = series.pop() {
                s.label = format!("UI:{ui}");
                panel.series.push(s);
            }
            eprintln!("[{id}] UI={ui} done");
        }
        panel.print();
        reports.push(panel);
    }
    save_json(&args.out, "fig9", &panels_json(&reports));
}
