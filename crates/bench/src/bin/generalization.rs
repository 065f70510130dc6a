//! §VI-A.4 generalization experiments: entity linking, fair
//! classification and clustering. Reports queries-to-target per method —
//! the paper's "Metam in 4 queries, MW in 10, others > 40" style numbers.

use metam::{run_method, MetamConfig, Method, NoopObserver};
use metam_bench::{save_json, Args, TableReport};

fn row_for(prepared: &metam::Prepared, theta: f64, budget: usize, seed: u64) -> Vec<String> {
    let methods = [
        Method::Metam(MetamConfig {
            seed,
            ..Default::default()
        }),
        Method::Mw { seed },
        Method::Overlap,
        Method::Uniform { seed },
    ];
    methods
        .iter()
        .map(|m| {
            let r = run_method(
                m,
                &prepared.inputs(),
                Some(theta),
                budget,
                &mut NoopObserver,
            );
            if r.utility >= theta {
                format!("{} q (u={:.2})", r.queries, r.utility)
            } else {
                format!(">{budget} q (u={:.2})", r.utility)
            }
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let budget = if args.quick { 60 } else { 200 };

    let mut table = TableReport::new(
        "generalization",
        "Queries to reach the target utility (θ per task)",
        vec!["Task", "Metam", "MW", "Overlap", "Uniform"],
    );

    // Entity linking: 1 useful column among dozens of joinable distractors.
    {
        let scenario =
            metam::datagen::linking::build_linking(&metam::datagen::linking::LinkingConfig {
                seed: args.seed,
                ..Default::default()
            });
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!(
            "[gen] entity linking: {} candidates",
            prepared.candidates.len()
        );
        let mut row = vec!["Entity linking (θ=0.95)".to_string()];
        row.extend(row_for(&prepared, 0.95, budget, args.seed));
        table.push_row(row);
    }

    // Fair classification: unfair features are filtered by the task.
    {
        let scenario =
            metam::datagen::fairness::build_fairness(&metam::datagen::fairness::FairnessConfig {
                seed: args.seed,
                ..Default::default()
            });
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[gen] fairness: {} candidates", prepared.candidates.len());
        // Target: a solid lift over the fair baseline.
        let base = {
            let inputs = prepared.inputs();
            let mut probe = metam::core::engine::QueryEngine::new(&inputs, usize::MAX);
            probe.base_utility().expect("unbounded")
        };
        let theta = (base + 0.13).min(0.99);
        let mut row = vec![format!("Fair classification (θ={theta:.2})")];
        row.extend(row_for(&prepared, theta, budget, args.seed));
        table.push_row(row);
    }

    // Clustering: 8 candidates, one useful (ONI).
    {
        let scenario = metam::datagen::clustering::build_clustering(
            &metam::datagen::clustering::ClusteringConfig {
                seed: args.seed,
                ..Default::default()
            },
        );
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[gen] clustering: {} candidates", prepared.candidates.len());
        let mut row = vec!["Clustering (θ=0.9)".to_string()];
        row.extend(row_for(&prepared, 0.9, budget.min(50), args.seed));
        table.push_row(row);
    }

    table.print();
    println!("\n(paper: linking Metam 4 / MW 10 / rest >40; fairness Metam <10 / rest >50;");
    println!("        clustering all ≈4 queries)");
    save_json(&args.out, "generalization", &table.to_json());
}
