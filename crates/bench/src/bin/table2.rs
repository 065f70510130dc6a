//! Table II: utility achieved within ≤ 1000 queries across six datasets
//! (four causal tasks, two predictive-analytics tasks) for Metam, MW,
//! Overlap and Uniform.

use metam::obs::json;
use metam::{run_method, Method, NoopObserver};
use metam_bench::{save_json, Args, TableReport};

fn main() {
    let args = Args::parse();
    let budget = if args.quick { 120 } else { 300 };

    let mut table = TableReport::new(
        "table2",
        format!("Utility within {budget} queries ((C) = causal task)"),
        vec!["Dataset", "Metam", "MW", "Overlap", "Uniform"],
    );

    let mut dump = json::array();
    for (name, scenario) in metam::datagen::repo::table2_scenarios(args.seed) {
        let prepared = metam::Session::from_scenario(scenario)
            .seed(args.seed)
            .prepare()
            .expect("prepare");
        eprintln!("[table2] {name}: {} candidates", prepared.candidates.len());
        let methods = [
            Method::Metam(metam::MetamConfig {
                seed: args.seed,
                ..Default::default()
            }),
            Method::Mw { seed: args.seed },
            Method::Overlap,
            Method::Uniform { seed: args.seed },
        ];
        let mut row = vec![name.to_string()];
        for m in &methods {
            let r = run_method(m, &prepared.inputs(), None, budget, &mut NoopObserver);
            row.push(format!("{:.2}", r.utility));
            let run = json::array().str(name).str(&r.method).f64(r.utility);
            dump = dump.raw(&run.int(r.queries).finish());
        }
        table.push_row(row);
    }
    table.print();
    println!("\n(paper Table II: Metam 0.75–1.0, MW 0.20–0.50, Overlap 0.0–0.5, Uniform 0.1–0.5)");
    save_json(&args.out, "table2", &table.to_json());
    save_json(&args.out, "table2_raw", &dump.finish());
}
