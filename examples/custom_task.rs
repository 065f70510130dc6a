//! Bring your own task: goal-oriented discovery for a custom utility.
//!
//! Metam only needs `u: Table → [0, 1]` (paper Definition 5). This example
//! defines a bespoke "data completeness + diversity" utility — reward
//! augmented columns that are well-filled *and* not redundant with what's
//! already there — and lets Metam optimize it. No ML model involved at
//! all: any black box works.
//!
//! Run with: `cargo run --release --example custom_task`

use metam::{Metam, MetamConfig, NoopObserver, Session, Task};
use metam_table::Table;

/// Utility = average over augmented columns of
/// `fill_ratio × (1 − max |corr| with previous columns)`, scaled by how
/// many useful columns were added (capped at 3).
struct CoverageDiversityTask;

impl Task for CoverageDiversityTask {
    fn name(&self) -> &str {
        "coverage-diversity"
    }

    fn utility(&self, table: &Table) -> f64 {
        let aug_indices: Vec<usize> = (0..table.ncols())
            .filter(|&i| table.column_display_name(i).starts_with("aug"))
            .collect();
        if aug_indices.is_empty() {
            return 0.1; // base utility of the bare Din
        }
        let mut seen: Vec<Vec<Option<f64>>> = Vec::new();
        let mut score = 0.0;
        for &i in &aug_indices {
            let col = &table.columns()[i];
            let fill = col.fill_ratio();
            let numeric = col.as_f64();
            let max_corr = seen
                .iter()
                .map(|prev| pearson_opt(&numeric, prev).abs())
                .fold(0.0f64, f64::max);
            score += fill * (1.0 - max_corr);
            seen.push(numeric);
        }
        (0.1 + score / 3.0).clamp(0.0, 1.0)
    }
}

fn pearson_opt(xs: &[Option<f64>], ys: &[Option<f64>]) -> f64 {
    let pairs: Vec<(f64, f64)> = xs.iter().zip(ys).filter_map(|(a, b)| a.zip(*b)).collect();
    if pairs.len() < 3 {
        return 0.0;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pairs.iter().map(|(a, b)| (a - mx) * (b - my)).sum::<f64>() / n;
    let vx: f64 = pairs.iter().map(|(a, _)| (a - mx) * (a - mx)).sum::<f64>() / n;
    let vy: f64 = pairs.iter().map(|(_, b)| (b - my) * (b - my)).sum::<f64>() / n;
    if vx < 1e-12 || vy < 1e-12 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

fn main() {
    let seed = 5;
    // Reuse a synthetic repository, but swap in our own task — the
    // builder's `.task(...)` overrides the scenario's default.
    let scenario = metam::datagen::repo::price_classification(seed);
    let prepared = Session::from_scenario(scenario)
        .task(CoverageDiversityTask)
        .seed(seed)
        .prepare()
        .expect("prepare");

    let result = Metam::new(MetamConfig {
        theta: Some(0.85),
        max_queries: 300,
        seed,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);

    println!(
        "custom utility: {:.3} → {:.3} in {} queries ({:?})",
        result.base_utility, result.utility, result.queries, result.stop_reason
    );
    println!("chosen augmentations (well-filled, mutually diverse):");
    for &id in &result.selected {
        let c = &prepared.candidates[id];
        println!(
            "  - {} (containment {:.2})",
            c.name, c.discovered_containment
        );
    }
}
