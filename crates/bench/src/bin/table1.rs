//! Table I: characteristics of the data repositories.
//!
//! The paper indexes Open Data (69K tables, 119 GB) and Kaggle (1950
//! tables); we generate scaled-down repositories with the same *structure*
//! (varied widths, shared key domains, missing headers/values) and report
//! the same statistics columns.

use std::sync::Arc;

use metam::discovery::DiscoveryIndex;
use metam_bench::{save_json, Args, TableReport};

fn main() {
    let args = Args::parse();
    let (n_open, n_kaggle) = if args.quick { (200, 50) } else { (2000, 500) };

    let mut table = TableReport::new(
        "table1",
        "Characteristics of datasets (scaled synthetic repositories)",
        vec![
            "Dataset",
            "#Tables",
            "#Columns",
            "#Joinable Columns",
            "Size",
        ],
    );

    for (name, n, seed_off) in [("Open-Data", n_open, 0u64), ("Kaggle", n_kaggle, 1)] {
        let repo = metam::datagen::repo::random_repository(args.seed + seed_off, n, name);
        let index = DiscoveryIndex::build(repo.into_iter().map(Arc::new).collect());
        let stats = index.stats();
        table.push_row(vec![
            name.to_string(),
            stats.n_tables.to_string(),
            stats.n_columns.to_string(),
            stats.n_keyish.to_string(),
            format!("{:.1}M", stats.bytes as f64 / 1e6),
        ]);
    }
    table.print();
    println!("\n(paper: Open-Data 69K tables / 29.5M cols / 28.6M joinable / 119G;");
    println!("        Kaggle 1950 tables / 91231 cols / 6.7M joinable / 18G)");
    save_json(&args.out, "table1", &table.to_json());
}
