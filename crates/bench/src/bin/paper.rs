//! The paper's §VI experiments, one binary. Every table and figure is a row
//! of [`EXPERIMENTS`]: the 18 utility-vs-queries panels are data rows of
//! [`PANELS`], all run by [`run_panel`]; the experiments of another shape
//! are functions below.
//!
//! `cargo run --release -p metam-bench --bin paper -- [--seed N] [--quick]
//! [--out DIR] [EXPERIMENT...]`: no experiment name runs them all. Each
//! experiment prints its table or panels and writes `<name>.json` under
//! `--out` (`table2` also writes `table2_raw.json`); a dump that cannot be
//! written exits 1.

use std::collections::BTreeSet;
use std::io;
use std::sync::Arc;

use metam::core::engine::QueryEngine;
use metam::core::trace::utility_at;
use metam::datagen::scenario::TaskSpec;
use metam::datagen::{causal_scenario, repo, semisynthetic, Scenario};
use metam::discovery::DiscoveryIndex;
use metam::obs::json;
use metam::profile::correlation::CorrelationProfile;
use metam::profile::embedding::EmbeddingProfile;
use metam::profile::metadata::MetadataProfile;
use metam::profile::mutual_info::MutualInfoProfile;
use metam::profile::overlap::OverlapProfile;
use metam::profile::synthetic::FixedProfile;
use metam::profile::task_specific::TaskSpecificProfile;
use metam::profile::{default_profiles, ProfileSet};
use metam::{run_method, Metam, MetamConfig, Method, NoopObserver, Prepared, StopReason};
use metam_bench::synthetic::{scaled_fixture, time_method};
use metam_bench::{
    panels_json, query_grid, save_json, standard_methods, Args, Panel, Series, TableReport,
};

/// What an experiment name runs.
enum Experiment {
    /// A figure whose panels are the [`PANELS`] rows `<name>a`, `<name>b`, ….
    Panels,
    /// An experiment of its own shape.
    Custom(fn(&Args) -> io::Result<()>),
}

/// Every experiment, in the order a bare `paper` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", Experiment::Custom(table1)),
    ("table2", Experiment::Custom(table2)),
    ("fig3", Experiment::Panels),
    ("fig4", Experiment::Panels),
    ("fig5", Experiment::Panels),
    ("fig6", Experiment::Custom(fig6)),
    ("fig7", Experiment::Panels),
    ("fig8", Experiment::Custom(fig8)),
    ("fig9", Experiment::Panels),
    ("fig10", Experiment::Panels),
    ("fig11", Experiment::Panels),
    ("generalization", Experiment::Custom(generalization)),
    ("ablation_tau", Experiment::Custom(ablation_tau)),
];

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let args = Args::parse(&names);
    for (name, experiment) in EXPERIMENTS {
        if !args.experiments.is_empty() && !args.experiments.iter().any(|e| e == name) {
            continue;
        }
        let done = match experiment {
            Experiment::Panels => figure(name, &args),
            Experiment::Custom(run) => run(&args),
        };
        if let Err(e) = done {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The profile set a panel line searches with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Profiles {
    /// The five generic defaults.
    Default,
    /// The defaults plus ARDA's task-specific feature importance \[37\].
    Arda { classification: bool },
    /// The defaults plus `n` uninformative profiles.
    Noise(usize),
    /// `informative` ∈ {3, 5} real profiles plus `uninformative` noise.
    Removed {
        informative: usize,
        uninformative: usize,
    },
}

impl Profiles {
    fn build(self, seed: u64) -> ProfileSet {
        // Enough noise values for any candidate count a scenario yields.
        let with_noise = |mut set: ProfileSet, n: usize, salt: u64| {
            for u in 0..n {
                set.push(Box::new(FixedProfile::uninformative(
                    format!("noise_{u}"),
                    100_000,
                    seed ^ (u as u64 + salt),
                )));
            }
            set
        };
        match self {
            Profiles::Default => default_profiles(),
            Profiles::Arda { classification } => {
                let mut set = default_profiles();
                set.push(Box::new(TaskSpecificProfile {
                    classification,
                    seed,
                }));
                set
            }
            Profiles::Noise(n) => with_noise(default_profiles(), n, 1),
            Profiles::Removed {
                informative,
                uninformative,
            } => {
                let mut set = ProfileSet::new();
                set.push(Box::new(CorrelationProfile));
                set.push(Box::new(MutualInfoProfile::default()));
                set.push(Box::new(OverlapProfile));
                if informative >= 5 {
                    set.push(Box::new(EmbeddingProfile));
                    set.push(Box::new(MetadataProfile));
                }
                with_noise(set, uninformative, 0x10)
            }
        }
    }
}

/// One plotted line of a panel.
struct Line {
    label: String,
    profiles: Profiles,
    method: Method,
}

/// One utility-vs-queries panel.
struct PanelRow {
    id: &'static str,
    title: &'static str,
    /// The scenario for `(seed, instance)`.
    scenario: fn(u64, u64) -> Scenario,
    /// Query budget at full scale and under `--quick`.
    budget: [usize; 2],
    /// Samples on the query grid.
    grid_points: usize,
    /// Scenario instances averaged, at full scale and under `--quick`.
    instances: [u64; 2],
    /// The lines, given the instance's seed. Consecutive lines with the
    /// same [`Profiles`] share one prepared scenario.
    lines: fn(u64) -> Vec<Line>,
}

fn metam(seed: u64) -> Method {
    Method::Metam(MetamConfig {
        seed,
        ..Default::default()
    })
}

fn line(label: impl Into<String>, profiles: Profiles, method: Method) -> Line {
    Line {
        label: label.into(),
        profiles,
        method,
    }
}

/// [`standard_methods`] on the default profiles, labelled by method name.
fn standard(seed: u64, iarda: Option<bool>) -> Vec<Line> {
    standard_methods(seed, iarda)
        .into_iter()
        .map(|m| line(m.name(), Profiles::Default, m))
        .collect()
}

/// Fig. 7: the four methods with ARDA profiles, then generic-profile Metam.
fn with_arda(seed: u64, classification: bool) -> Vec<Line> {
    let arda = Profiles::Arda { classification };
    let mut lines: Vec<Line> = standard_methods(seed, None)
        .into_iter()
        .map(|m| line(format!("{}+ARDA", m.name()), arda, m))
        .collect();
    lines.push(line("Metam(generic)", Profiles::Default, metam(seed)));
    lines
}

/// Fig. 9: Metam with UI ∈ {0, 2, 4, 8} uninformative profiles.
fn with_noise(seed: u64) -> Vec<Line> {
    [0, 2, 4, 8]
        .map(|ui| line(format!("UI:{ui}"), Profiles::Noise(ui), metam(seed)))
        .into()
}

/// Fig. 10: Metam with (informative, uninformative) profiles removed.
fn with_removed(seed: u64) -> Vec<Line> {
    [(5, 5), (5, 2), (5, 0), (3, 0)]
        .map(|(informative, uninformative)| {
            let profiles = Profiles::Removed {
                informative,
                uninformative,
            };
            line(
                format!("I:{informative} UI:{uninformative}"),
                profiles,
                metam(seed),
            )
        })
        .into()
}

/// Fig. 11a: cluster radius ε ∈ {0.03, 0.05, 0.07}.
fn epsilons(seed: u64) -> Vec<Line> {
    [0.03f64, 0.05, 0.07]
        .map(|epsilon| {
            let method = Method::Metam(MetamConfig {
                epsilon,
                seed,
                ..Default::default()
            });
            line(format!("eps={epsilon}"), Profiles::Default, method)
        })
        .into()
}

/// Fig. 11b: Metam and its variants without clustering (Nc), without
/// Thompson sampling (Eq), and without either (NcEq).
fn variants(seed: u64) -> Vec<Line> {
    [
        ("Metam", true, true),
        ("Nc", false, true),
        ("Eq", true, false),
        ("NcEq", false, false),
    ]
    .map(|(label, use_clustering, use_thompson)| {
        let method = Method::Metam(MetamConfig {
            use_clustering,
            use_thompson,
            seed,
            ..Default::default()
        });
        line(label, Profiles::Default, method)
    })
    .into()
}

fn automl_schools(seed: u64, _: u64) -> Scenario {
    let mut scenario = repo::schools_classification(seed);
    if let TaskSpec::Classification { target } = &scenario.spec {
        scenario.spec = TaskSpec::AutoMlClassification {
            target: target.clone(),
        };
    }
    scenario
}

fn semisynthetic_causal(seed: u64, kind: causal_scenario::CausalKind) -> Scenario {
    causal_scenario::build_causal(&causal_scenario::CausalConfig {
        seed,
        kind,
        n_irrelevant_tables: 80,
        n_erroneous_tables: 30,
        n_confounder_tables: 25,
        ..Default::default()
    })
}

/// The utility-vs-queries panels of Figs. 3, 4, 5, 7, 9, 10 and 11.
const PANELS: &[PanelRow] = &[
    // Fig. 3: four tasks, Metam vs MW / Overlap / Uniform, plus iARDA on
    // the supervised ones.
    PanelRow {
        id: "fig3a",
        title: "(a) Classification — housing prices",
        scenario: |seed, _| repo::price_classification(seed),
        budget: [600, 75],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| standard(seed, Some(true)),
    },
    PanelRow {
        id: "fig3b",
        title: "(b) Regression — NYC collisions",
        scenario: |seed, _| repo::collisions_regression(seed),
        budget: [300, 37],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| standard(seed, Some(false)),
    },
    PanelRow {
        id: "fig3c",
        title: "(c) What-if — SAT scores",
        scenario: |seed, _| repo::sat_whatif(seed),
        budget: [700, 87],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| standard(seed, None),
    },
    PanelRow {
        id: "fig3d",
        title: "(d) How-to — SAT scores",
        scenario: |seed, _| repo::sat_howto(seed),
        budget: [400, 50],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| standard(seed, None),
    },
    // Fig. 4: AutoML as the task implementation; unions (record addition).
    PanelRow {
        id: "fig4a",
        title: "(a) AutoML classification — schools",
        scenario: automl_schools,
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| standard(seed, Some(true)),
    },
    PanelRow {
        id: "fig4b",
        title: "(b) Unions — NYC rent (record addition)",
        scenario: |seed, _| {
            metam::datagen::unions::build_unions(&metam::datagen::unions::UnionsConfig {
                seed,
                ..Default::default()
            })
        },
        budget: [200, 50],
        grid_points: 10,
        instances: [1, 1],
        lines: |seed| standard(seed, None),
    },
    // Fig. 5: semi-synthetic targets planted from five random
    // augmentations, averaged over instances (the paper uses 100).
    PanelRow {
        id: "fig5a",
        title: "(a) Classification (semi-synthetic avg)",
        scenario: |_, instance| semisynthetic::semisynthetic_classification(instance),
        budget: [125, 62],
        grid_points: 10,
        instances: [8, 2],
        lines: |seed| standard(seed, None),
    },
    PanelRow {
        id: "fig5b",
        title: "(b) Causality — regression outcome (semi-synthetic avg)",
        scenario: |_, instance| semisynthetic::semisynthetic_regression(instance),
        budget: [125, 62],
        grid_points: 10,
        instances: [8, 2],
        lines: |seed| standard(seed, None),
    },
    PanelRow {
        id: "fig5c",
        title: "(c) What-if (semi-synthetic avg)",
        scenario: |seed, instance| {
            let kind = causal_scenario::CausalKind::WhatIf;
            semisynthetic_causal(seed ^ (0xF15C + instance), kind)
        },
        budget: [350, 175],
        grid_points: 10,
        instances: [8, 2],
        lines: |seed| standard(seed, None),
    },
    PanelRow {
        id: "fig5d",
        title: "(d) How-to (semi-synthetic avg)",
        scenario: |seed, instance| {
            let kind = causal_scenario::CausalKind::HowTo;
            semisynthetic_causal(seed ^ (0x407F + instance), kind)
        },
        budget: [200, 100],
        grid_points: 10,
        instances: [8, 2],
        lines: |seed| standard(seed, None),
    },
    // Fig. 7: informative task-specific profiles accelerate Metam further.
    PanelRow {
        id: "fig7a",
        title: "(a) Classification with ARDA profiles",
        scenario: |seed, _| repo::price_classification(seed),
        budget: [400, 50],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| with_arda(seed, true),
    },
    PanelRow {
        id: "fig7b",
        title: "(b) Regression with ARDA profiles",
        scenario: |seed, _| repo::collisions_regression(seed),
        budget: [300, 37],
        grid_points: 12,
        instances: [1, 1],
        lines: |seed| with_arda(seed, false),
    },
    // Fig. 9: uninformative profiles cost a few queries, not quality.
    PanelRow {
        id: "fig9a",
        title: "(a) Classification with UI uninformative profiles",
        scenario: |seed, _| repo::price_classification(seed),
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: with_noise,
    },
    PanelRow {
        id: "fig9b",
        title: "(b) Regression with UI uninformative profiles",
        scenario: |seed, _| repo::collisions_regression(seed),
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: with_noise,
    },
    // Fig. 10: removing noise helps; removing informative profiles costs
    // queries.
    PanelRow {
        id: "fig10a",
        title: "(a) Classification — removing profiles",
        scenario: |seed, _| repo::price_classification(seed),
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: with_removed,
    },
    PanelRow {
        id: "fig10b",
        title: "(b) Regression — removing profiles",
        scenario: |seed, _| repo::collisions_regression(seed),
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: with_removed,
    },
    // Fig. 11: ablations.
    PanelRow {
        id: "fig11a",
        title: "(a) varying cluster radius ε",
        scenario: |seed, _| repo::price_classification(seed),
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: epsilons,
    },
    PanelRow {
        id: "fig11b",
        title: "(b) Metam vs Nc / Eq / NcEq variants",
        scenario: |seed, _| repo::price_classification(seed),
        budget: [500, 62],
        grid_points: 12,
        instances: [1, 1],
        lines: variants,
    },
];

fn prepare(scenario: &Scenario, profiles: Profiles, seed: u64) -> Prepared {
    metam::Session::from_scenario(scenario.clone())
        .profiles(profiles.build(seed))
        .seed(seed)
        .prepare()
        .expect("scenario sessions are infallible")
}

/// Run every line of a panel for each instance (instance `i` uses seed
/// `seed ^ i`) and average its utility-vs-queries trace on the grid.
fn run_panel(row: &PanelRow, args: &Args) -> Panel {
    let budget = row.budget[usize::from(args.quick)];
    let instances = row.instances[usize::from(args.quick)];
    let grid = query_grid(budget, row.grid_points);
    let mut labels = Vec::new();
    let mut sums: Vec<Vec<f64>> = Vec::new();
    for instance in 0..instances {
        let seed = args.seed ^ instance;
        let scenario = (row.scenario)(args.seed, instance);
        let lines = (row.lines)(seed);
        labels = lines.iter().map(|l| l.label.clone()).collect();
        sums.resize(lines.len(), vec![0.0; grid.len()]);
        let mut sum = sums.iter_mut();
        for group in lines.chunk_by(|a, b| a.profiles == b.profiles) {
            let prepared = prepare(&scenario, group[0].profiles, seed);
            eprintln!("[{}] {} candidates", row.id, prepared.candidates.len());
            for (line, sum) in group.iter().zip(&mut sum) {
                let r = run_method(
                    &line.method,
                    &prepared.inputs(),
                    None,
                    budget,
                    &mut NoopObserver,
                );
                for (s, &q) in sum.iter_mut().zip(&grid) {
                    *s += utility_at(&r.trace, q);
                }
            }
        }
    }
    let mut panel = Panel::new(row.id, row.title);
    panel.series = labels
        .into_iter()
        .zip(sums)
        .map(|(label, sum)| Series {
            label,
            points: grid
                .iter()
                .zip(sum)
                .map(|(&q, s)| (q, s / instances as f64))
                .collect(),
        })
        .collect();
    panel
}

/// A figure made of [`PANELS`] rows: run and print each, dump them together.
fn figure(name: &str, args: &Args) -> io::Result<()> {
    let panels: Vec<Panel> = PANELS
        .iter()
        .filter(|row| row.id.strip_prefix(name).is_some_and(|s| s.len() == 1))
        .map(|row| {
            let panel = run_panel(row, args);
            panel.print();
            panel
        })
        .collect();
    save_json(&args.out, name, &panels_json(&panels))
}

/// Table I: characteristics of the data repositories. The paper indexes
/// Open Data (69K tables) and Kaggle (1950 tables); scaled-down generated
/// repositories of the same structure report the same columns.
fn table1(args: &Args) -> io::Result<()> {
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
        let repo = repo::random_repository(args.seed + seed_off, n, name);
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
    save_json(&args.out, "table1", &table.to_json())
}

/// Table II: utility within the budget on six datasets (four causal tasks,
/// two predictive ones).
fn table2(args: &Args) -> io::Result<()> {
    let budget = if args.quick { 120 } else { 300 };
    let mut table = TableReport::new(
        "table2",
        format!("Utility within {budget} queries ((C) = causal task)"),
        vec!["Dataset", "Metam", "MW", "Overlap", "Uniform"],
    );
    let mut dump = json::array();
    for (name, scenario) in repo::table2_scenarios(args.seed) {
        let prepared = prepare(&scenario, Profiles::Default, args.seed);
        eprintln!("[table2] {name}: {} candidates", prepared.candidates.len());
        let mut row = vec![name.to_string()];
        for m in &standard_methods(args.seed, None) {
            let r = run_method(m, &prepared.inputs(), None, budget, &mut NoopObserver);
            row.push(format!("{:.2}", r.utility));
            let run = json::array().str(name).str(&r.method).f64(r.utility);
            dump = dump.raw(&run.int(r.queries).finish());
        }
        table.push_row(row);
    }
    table.print();
    println!("\n(paper Table II: Metam 0.75–1.0, MW 0.20–0.50, Overlap 0.0–0.5, Uniform 0.1–0.5)");
    save_json(&args.out, "table2", &table.to_json())?;
    save_json(&args.out, "table2_raw", &dump.finish())
}

/// Fig. 6: running time for a fixed query budget, (a) varying the number
/// of candidates, (b) varying the number of profiles. As in the paper the
/// framework cost is what is measured, so the task is a cheap synthetic
/// one ([`metam_bench::synthetic`]). The y values are wall-clock seconds.
fn fig6(args: &Args) -> io::Result<()> {
    let budget = if args.quick { 200 } else { 1000 };
    let (candidate_grid, profile_grid, n_fixed) = if args.quick {
        (vec![20_000, 60_000, 100_000], vec![10, 20, 40], 20_000)
    } else {
        (
            vec![200_000, 400_000, 600_000, 800_000, 1_000_000],
            vec![20, 40, 60, 80, 100],
            100_000,
        )
    };
    let methods = standard_methods(args.seed, None);
    // `size(x)` is the fixture's (candidates, profiles) at sweep value `x`.
    let sweep = |id: &str,
                 title: String,
                 x_label: &str,
                 xs: &[usize],
                 size: &dyn Fn(usize) -> (usize, usize)| {
        let mut panel = Panel::new(id, title);
        panel.x_label = x_label.into();
        panel.y_label = "seconds".into();
        for method in &methods {
            let points = xs
                .iter()
                .map(|&x| {
                    let (n, l) = size(x);
                    let secs = time_method(&scaled_fixture(n, l, 24, args.seed), method, budget);
                    eprintln!("[{id}] {} {x_label}={x}: {secs:.2}s", method.name());
                    (x, secs)
                })
                .collect();
            panel.series.push(Series {
                label: method.name().to_string(),
                points,
            });
        }
        panel.print();
        panel
    };
    let a = sweep(
        "fig6a",
        "(a) runtime vs #join paths (fixed 5 profiles)".into(),
        "candidates",
        &candidate_grid,
        &|n| (n, 5),
    );
    let b = sweep(
        "fig6b",
        format!("(b) runtime vs #profiles ({n_fixed} candidates)"),
        "profiles",
        &profile_grid,
        &|l| (n_fixed, l),
    );
    save_json(&args.out, "fig6", &panels_json(&[a, b]))
}

/// Queries Metam needs to reach 70 % of the planted ground-truth
/// augmentation's utility lift (probed with a separate engine, so the
/// probe is not billed).
fn queries_to_ground_truth(scenario: &Scenario, seed: u64, budget: usize) -> usize {
    let prepared = prepare(scenario, Profiles::Default, seed);
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let gt = relevance
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .expect("one planted candidate");
    let inputs = prepared.inputs();
    let mut probe = QueryEngine::new(&inputs, usize::MAX);
    let base = probe.base_utility().expect("unbounded budget");
    let gt_u = probe
        .utility_of(&BTreeSet::from([gt]))
        .expect("unbounded budget");
    let theta = base + 0.7 * (gt_u - base);

    // Relaxed mode (τ = 1, no minimality pass): accept the first improving
    // augmentation — the cleanest proxy for "queries until the ground truth
    // is identified".
    let result = Metam::new(MetamConfig {
        theta: Some(theta),
        max_queries: budget,
        tau: Some(1),
        minimality: false,
        seed,
        ..Default::default()
    })
    .run(&inputs, &mut NoopObserver);
    if result.stop_reason == StopReason::ThetaReached {
        result.queries
    } else {
        budget
    }
}

/// Fig. 8: queries to identify the single planted ground-truth
/// augmentation while sweeping (a) irrelevant and (b) erroneous
/// distractors.
fn fig8(args: &Args) -> io::Result<()> {
    use metam::datagen::supervised::{build_supervised, SupervisedConfig};
    let budget = if args.quick { 150 } else { 400 };
    // Distractor counts: irrelevant tables are count / 3, erroneous tables
    // count (the paper sweeps up to 100K distractors; this is a
    // laptop-scale sweep of the same shape). Through 2-hop join paths the
    // candidate count grows much faster than the count.
    let counts: &[usize] = if args.quick {
        &[0, 60, 300]
    } else {
        &[0, 300, 900, 1800]
    };
    let base = SupervisedConfig {
        seed: args.seed,
        n_rows: 300,
        n_informative: 1,
        n_duplicates: 0,
        n_irrelevant_tables: 0,
        n_erroneous_tables: 0,
        classification: true,
        name: "fig8".to_string(),
        ..Default::default()
    };
    let sweep = |id: &str, title: &str, x_label: &str, vary: fn(usize) -> (usize, usize)| {
        let points = counts
            .iter()
            .map(|&count| {
                let (irrelevant, erroneous) = vary(count);
                let cfg = SupervisedConfig {
                    n_irrelevant_tables: irrelevant,
                    n_erroneous_tables: erroneous,
                    name: format!("{id}_{count}"),
                    ..base.clone()
                };
                let q = queries_to_ground_truth(&build_supervised(&cfg), args.seed, budget);
                eprintln!("[{id}] {x_label}={count}: {q} queries");
                (count, q as f64)
            })
            .collect();
        let mut panel = Panel::new(id, title);
        panel.x_label = x_label.into();
        panel.y_label = "queries".into();
        panel.series.push(Series {
            label: "Metam".into(),
            points,
        });
        panel.print();
        panel
    };
    let a = sweep(
        "fig8a",
        "(a) queries to ground truth vs #irrelevant",
        "irrelevant",
        |count| (count / 3, 33),
    );
    let b = sweep(
        "fig8b",
        "(b) queries to ground truth vs #erroneous",
        "erroneous",
        |count| (33, count),
    );
    save_json(&args.out, "fig8", &panels_json(&[a, b]))
}

/// §VI-A.4: entity linking, fair classification and clustering — queries
/// to reach the target utility per method.
fn generalization(args: &Args) -> io::Result<()> {
    use metam::datagen::{clustering, fairness, linking};
    let budget = if args.quick { 60 } else { 200 };
    let seed = args.seed;
    let mut table = TableReport::new(
        "generalization",
        "Queries to reach the target utility (θ per task)",
        vec!["Task", "Metam", "MW", "Overlap", "Uniform"],
    );
    let mut row = |task: String, prepared: &Prepared, theta: f64, budget: usize| {
        let mut row = vec![task];
        for m in &standard_methods(seed, None) {
            let r = run_method(
                m,
                &prepared.inputs(),
                Some(theta),
                budget,
                &mut NoopObserver,
            );
            row.push(if r.utility >= theta {
                format!("{} q (u={:.2})", r.queries, r.utility)
            } else {
                format!(">{budget} q (u={:.2})", r.utility)
            });
        }
        table.push_row(row);
    };

    // Entity linking: 1 useful column among dozens of joinable distractors.
    let linking = linking::build_linking(&linking::LinkingConfig {
        seed,
        ..Default::default()
    });
    let prepared = prepare(&linking, Profiles::Default, seed);
    eprintln!(
        "[gen] entity linking: {} candidates",
        prepared.candidates.len()
    );
    row("Entity linking (θ=0.95)".into(), &prepared, 0.95, budget);

    // Fair classification: unfair features are filtered by the task. The
    // target is a solid lift over the fair baseline.
    let fairness = fairness::build_fairness(&fairness::FairnessConfig {
        seed,
        ..Default::default()
    });
    let prepared = prepare(&fairness, Profiles::Default, seed);
    eprintln!("[gen] fairness: {} candidates", prepared.candidates.len());
    let base = QueryEngine::new(&prepared.inputs(), usize::MAX)
        .base_utility()
        .expect("unbounded");
    let theta = (base + 0.13).min(0.99);
    row(
        format!("Fair classification (θ={theta:.2})"),
        &prepared,
        theta,
        budget,
    );

    // Clustering: 8 candidates, one useful (ONI).
    let clustering = clustering::build_clustering(&clustering::ClusteringConfig {
        seed,
        ..Default::default()
    });
    let prepared = prepare(&clustering, Profiles::Default, seed);
    eprintln!("[gen] clustering: {} candidates", prepared.candidates.len());
    row("Clustering (θ=0.9)".into(), &prepared, 0.9, budget.min(50));

    table.print();
    println!("\n(paper: linking Metam 4 / MW 10 / rest >40; fairness Metam <10 / rest >50;");
    println!("        clustering all ≈4 queries)");
    save_json(&args.out, "generalization", &table.to_json())
}

/// τ ablation (§IV-B "Impact of τ"): τ = |C| (default) optimizes solution
/// size; τ = 1 accepts the first improving augmentation — fewer queries
/// per round, larger solutions (the paper reports ≈9 augmentations
/// relaxed vs 2 minimal).
fn ablation_tau(args: &Args) -> io::Result<()> {
    let budget = if args.quick { 150 } else { 800 };
    let scenario = repo::price_classification(args.seed);
    let prepared = prepare(&scenario, Profiles::Default, args.seed);
    // Discover |C| once so τ = |C|/2 is meaningful.
    let clustering = metam::core::cluster::cluster_partition(&prepared.profiles, 0.05, args.seed);
    let n_clusters = clustering.len().max(2);
    eprintln!(
        "[tau] {} candidates in {n_clusters} clusters",
        prepared.candidates.len()
    );
    let mut table = TableReport::new(
        "ablation_tau",
        "Effect of τ (queries per round before committing)",
        vec!["tau", "utility", "queries", "|solution|", "stop"],
    );
    for (label, tau) in [
        ("1 (relaxed)", Some(1)),
        ("|C|/2", Some(n_clusters / 2)),
        ("|C| (default)", None),
    ] {
        // Without the minimality post-check, so solution sizes show the
        // raw effect of τ, as in the paper's discussion.
        let cfg = MetamConfig {
            tau,
            theta: Some(0.75),
            max_queries: budget,
            minimality: false,
            seed: args.seed,
            ..Default::default()
        };
        let r = Metam::new(cfg).run(&prepared.inputs(), &mut NoopObserver);
        table.push_row(vec![
            label.to_string(),
            format!("{:.3}", r.utility),
            r.queries.to_string(),
            r.selected.len().to_string(),
            format!("{:?}", r.stop_reason),
        ]);
    }
    table.print();
    save_json(&args.out, "ablation_tau", &table.to_json())
}
