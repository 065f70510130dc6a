//! Figure 10: removing profiles. Sweeps (informative, uninformative)
//! profile counts: I:5 UI:5 → I:5 UI:2 → I:5 UI:0 → I:3 UI:0. Removing
//! noise helps; removing informative profiles costs queries.

use metam::profile::correlation::CorrelationProfile;
use metam::profile::embedding::EmbeddingProfile;
use metam::profile::metadata::MetadataProfile;
use metam::profile::mutual_info::MutualInfoProfile;
use metam::profile::overlap::OverlapProfile;
use metam::profile::synthetic::FixedProfile;
use metam::profile::ProfileSet;
use metam::{MetamConfig, Method};
use metam_bench::{panels_json, query_grid, run_methods, save_json, Args, Panel};

/// Build a profile set with `informative ∈ {3, 5}` real profiles and
/// `uninformative` noise profiles.
fn profile_set(informative: usize, uninformative: usize, seed: u64) -> ProfileSet {
    let mut set = ProfileSet::new();
    set.push(Box::new(CorrelationProfile));
    set.push(Box::new(MutualInfoProfile::default()));
    set.push(Box::new(OverlapProfile));
    if informative >= 5 {
        set.push(Box::new(EmbeddingProfile));
        set.push(Box::new(MetadataProfile));
    }
    for u in 0..uninformative {
        set.push(Box::new(FixedProfile::uninformative(
            format!("noise_{u}"),
            100_000,
            seed ^ (u as u64 + 0x10),
        )));
    }
    set
}

fn main() {
    let args = Args::parse();
    let scale = if args.quick { 8 } else { 1 };
    let settings = [(5usize, 5usize), (5, 2), (5, 0), (3, 0)];
    let mut reports = Vec::new();

    let panels: Vec<(&str, &str, metam::datagen::Scenario, usize)> = vec![
        (
            "fig10a",
            "(a) Classification — removing profiles",
            metam::datagen::repo::price_classification(args.seed),
            500 / scale,
        ),
        (
            "fig10b",
            "(b) Regression — removing profiles",
            metam::datagen::repo::collisions_regression(args.seed),
            500 / scale,
        ),
    ];

    for (id, title, scenario, budget) in panels {
        let grid = query_grid(budget, 12);
        let mut panel = Panel::new(id, title);
        for &(i, ui) in &settings {
            let prepared = metam::Session::from_scenario(scenario.clone())
                .profiles(profile_set(i, ui, args.seed))
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
                s.label = format!("I:{i} UI:{ui}");
                panel.series.push(s);
            }
            eprintln!("[{id}] I:{i} UI:{ui} done");
        }
        panel.print();
        reports.push(panel);
    }
    save_json(&args.out, "fig10", &panels_json(&reports));
}
