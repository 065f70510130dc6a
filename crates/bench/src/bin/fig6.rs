//! Figure 6: scalability — running time for a fixed 1000-query budget,
//! (a) varying the number of join paths / candidates, (b) varying the
//! number of data profiles.
//!
//! As in the paper, the framework cost is what's measured (candidate
//! scoring, clustering, ranking), so the task is a cheap synthetic one;
//! see DESIGN.md's experiment index.

use metam::{MetamConfig, Method};
use metam_bench::synthetic::{scaled_fixture, time_method};
use metam_bench::{panels_json, save_json, Args, Panel, Series};

fn main() {
    let args = Args::parse();
    let budget = if args.quick { 200 } else { 1000 };
    let candidate_grid: Vec<usize> = if args.quick {
        vec![20_000, 60_000, 100_000]
    } else {
        vec![200_000, 400_000, 600_000, 800_000, 1_000_000]
    };
    let profile_grid: Vec<usize> = if args.quick {
        vec![10, 20, 40]
    } else {
        vec![20, 40, 60, 80, 100]
    };

    let methods: Vec<(&str, Method)> = vec![
        (
            "Metam",
            Method::Metam(MetamConfig {
                seed: args.seed,
                ..Default::default()
            }),
        ),
        ("MW", Method::Mw { seed: args.seed }),
        ("Overlap", Method::Overlap),
        ("Uniform", Method::Uniform { seed: args.seed }),
    ];

    // (a) time vs #candidates at 5 profiles.
    let mut panel_a = Panel::new("fig6a", "(a) runtime vs #join paths (fixed 5 profiles)");
    panel_a.x_label = "candidates".into();
    panel_a.y_label = "seconds".into();
    for (label, method) in &methods {
        let mut points = Vec::new();
        for &n in &candidate_grid {
            let fixture = scaled_fixture(n, 5, 24, args.seed);
            let secs = time_method(&fixture, method, budget);
            eprintln!("[fig6a] {label} n={n}: {secs:.2}s");
            points.push((n, secs));
        }
        panel_a.series.push(Series {
            label: label.to_string(),
            points,
        });
    }
    panel_a.print();

    // (b) time vs #profiles at a fixed candidate count.
    let n_fixed = if args.quick { 20_000 } else { 100_000 };
    let mut panel_b = Panel::new(
        "fig6b",
        format!("(b) runtime vs #profiles ({n_fixed} candidates)"),
    );
    panel_b.x_label = "profiles".into();
    panel_b.y_label = "seconds".into();
    for (label, method) in &methods {
        let mut points = Vec::new();
        for &l in &profile_grid {
            let fixture = scaled_fixture(n_fixed, l, 24, args.seed);
            let secs = time_method(&fixture, method, budget);
            eprintln!("[fig6b] {label} l={l}: {secs:.2}s");
            points.push((l, secs));
        }
        panel_b.series.push(Series {
            label: label.to_string(),
            points,
        });
    }
    panel_b.print();

    save_json(&args.out, "fig6", &panels_json(&[panel_a, panel_b]));
}
