//! Figure 5: semi-synthetic evaluation — a synthesized target planted from
//! five random augmentations, averaged over many instantiations (the paper
//! uses 100; `--quick` shrinks both instances and budgets).

use metam::core::trace::utility_at;
use metam::{run_method, Method, NoopObserver};
use metam_bench::{panels_json, query_grid, save_json, Args, Panel, Series};

fn averaged_panel(
    id: &str,
    title: &str,
    instances: u64,
    budget: usize,
    seed: u64,
    build: impl Fn(u64) -> metam::datagen::Scenario,
) -> Panel {
    let grid = query_grid(budget, 10);
    let method_names = ["Metam", "MW", "Overlap", "Uniform"];
    let mut sums: Vec<Vec<f64>> = vec![vec![0.0; grid.len()]; method_names.len()];

    for inst in 0..instances {
        let scenario = build(inst);
        let prepared = metam::Session::from_scenario(scenario)
            .seed(seed ^ inst)
            .prepare()
            .expect("prepare");
        let methods = [
            Method::Metam(metam::MetamConfig {
                seed: seed ^ inst,
                ..Default::default()
            }),
            Method::Mw { seed: seed ^ inst },
            Method::Overlap,
            Method::Uniform { seed: seed ^ inst },
        ];
        for (mi, m) in methods.iter().enumerate() {
            let r = run_method(m, &prepared.inputs(), None, budget, &mut NoopObserver);
            for (gi, &q) in grid.iter().enumerate() {
                sums[mi][gi] += utility_at(&r.trace, q);
            }
        }
        eprintln!("[{id}] instance {}/{instances} done", inst + 1);
    }

    let mut panel = Panel::new(id, title);
    for (mi, name) in method_names.iter().enumerate() {
        panel.series.push(Series {
            label: name.to_string(),
            points: grid
                .iter()
                .zip(&sums[mi])
                .map(|(&q, &s)| (q, s / instances as f64))
                .collect(),
        });
    }
    panel
}

fn main() {
    let args = Args::parse();
    let (instances, scale) = if args.quick { (2, 8) } else { (8, 4) };

    let mut reports = Vec::new();
    let p = averaged_panel(
        "fig5a",
        "(a) Classification (semi-synthetic avg)",
        instances,
        500 / scale,
        args.seed,
        metam::datagen::semisynthetic::semisynthetic_classification,
    );
    p.print();
    reports.push(p);

    let p = averaged_panel(
        "fig5b",
        "(b) Causality — regression outcome (semi-synthetic avg)",
        instances,
        500 / scale,
        args.seed,
        metam::datagen::semisynthetic::semisynthetic_regression,
    );
    p.print();
    reports.push(p);

    let seed = args.seed;
    let p = averaged_panel(
        "fig5c",
        "(c) What-if (semi-synthetic avg)",
        instances,
        1400 / scale,
        args.seed,
        move |inst| {
            metam::datagen::causal_scenario::build_causal(
                &metam::datagen::causal_scenario::CausalConfig {
                    seed: seed ^ (0xF15C + inst),
                    n_irrelevant_tables: 80,
                    n_erroneous_tables: 30,
                    n_confounder_tables: 25,
                    ..Default::default()
                },
            )
        },
    );
    p.print();
    reports.push(p);

    let p = averaged_panel(
        "fig5d",
        "(d) How-to (semi-synthetic avg)",
        instances,
        800 / scale,
        args.seed,
        move |inst| {
            metam::datagen::causal_scenario::build_causal(
                &metam::datagen::causal_scenario::CausalConfig {
                    seed: seed ^ (0x407F + inst),
                    kind: metam::datagen::causal_scenario::CausalKind::HowTo,
                    n_irrelevant_tables: 80,
                    n_erroneous_tables: 30,
                    n_confounder_tables: 25,
                    ..Default::default()
                },
            )
        },
    );
    p.print();
    reports.push(p);

    save_json(&args.out, "fig5", &panels_json(&reports));
}
