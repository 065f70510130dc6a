//! Builder misuse must fail with typed [`SessionError`]s, never panic —
//! the `Session` front door is the CLI's error surface.

use std::fs;
use std::path::PathBuf;

use metam::session::{RoundEvent, Session, SessionError};
use metam::{MetamConfig, Method, StopReason};

fn tmp_lake(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metam-session-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let rows: String = (0..30)
        .map(|i| format!("z{i},{}\n", if i % 2 == 0 { "a" } else { "b" }))
        .collect();
    fs::write(dir.join("din.csv"), format!("zip,label\n{rows}")).unwrap();
    let ext: String = (0..30).map(|i| format!("z{i},{}\n", i as f64)).collect();
    fs::write(dir.join("ext.csv"), format!("zipcode,rate\n{ext}")).unwrap();
    dir
}

#[test]
fn missing_task_is_typed() {
    let dir = tmp_lake("no-task");
    let err = Session::from_lake(&dir)
        .din("din")
        .prepare()
        .expect_err("a lake has no default task");
    assert!(matches!(err, SessionError::MissingTask), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_input_is_typed() {
    let dir = tmp_lake("no-din");
    let err = Session::from_lake(&dir)
        .task_spec("classification:label")
        .prepare()
        .expect_err("a lake needs .din(...)");
    assert!(matches!(err, SessionError::MissingInput), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_task_kind_is_typed() {
    let dir = tmp_lake("bad-kind");
    let err = Session::from_lake(&dir)
        .din("din")
        .task_spec("frobnicate:label")
        .prepare()
        .expect_err("unknown kind");
    assert!(matches!(err, SessionError::BadTaskSpec(_)), "{err}");
    // Malformed clustering arity is also a typed spec error.
    let err = Session::from_lake(&dir)
        .din("din")
        .task_spec("clustering:zero")
        .prepare()
        .expect_err("non-numeric k");
    assert!(matches!(err, SessionError::BadTaskSpec(_)), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn absent_target_is_typed() {
    let dir = tmp_lake("bad-target");
    let err = Session::from_lake(&dir)
        .din("din")
        .task_spec("classification:label")
        .target("nope")
        .prepare()
        .expect_err("target absent from din");
    match err {
        SessionError::TargetNotFound { target, din } => {
            assert_eq!(target, "nope");
            assert_eq!(din, "din");
        }
        other => panic!("expected TargetNotFound, got {other}"),
    }
    // The same misuse over a synthetic scenario is equally typed.
    let scenario = metam::datagen::repo::price_classification(1);
    let err = Session::from_scenario(scenario)
        .target("missing_column")
        .prepare()
        .expect_err("bad explicit target");
    assert!(matches!(err, SessionError::TargetNotFound { .. }), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scenario_prepare_produces_aligned_artifacts() {
    // (Formerly covered by the removed pipeline::prepare wrapper tests.)
    use metam_datagen::supervised::{build_supervised, SupervisedConfig};
    let scenario = build_supervised(&SupervisedConfig {
        n_rows: 200,
        n_informative: 2,
        n_irrelevant_tables: 3,
        n_erroneous_tables: 2,
        ..Default::default()
    });
    let p = Session::from_scenario(scenario)
        .seed(1)
        .prepare()
        .expect("scenario preparation is infallible");
    assert!(!p.candidates.is_empty());
    assert_eq!(p.candidates.len(), p.profiles.len());
    assert_eq!(p.profile_names.len(), 5, "default profile set has 5");
    assert!(p.target_column.is_some());
    let rel = p.relevance.as_deref().expect("scenarios carry truth");
    assert_eq!(rel.len(), p.candidates.len());
    assert!(
        rel.iter().any(|&r| r > 0.0),
        "planted candidates must be discoverable"
    );
    assert!(rel.iter().all(|&r| (0.0..=1.0).contains(&r)));
}

#[test]
fn unresolvable_source_default_target_degrades_to_unsupervised() {
    // A spec target absent from din is tolerated when it comes from the
    // *source* (scenario defaults), not the user: target_column = None
    // instead of a TargetNotFound error.
    use metam_datagen::supervised::{build_supervised, SupervisedConfig};
    let mut scenario = build_supervised(&SupervisedConfig {
        n_rows: 60,
        n_irrelevant_tables: 1,
        ..Default::default()
    });
    scenario.spec = metam_datagen::TaskSpec::Classification {
        target: "ghost_column".into(),
    };
    let p = Session::from_scenario(scenario)
        .seed(2)
        .prepare()
        .expect("lenient for source defaults");
    assert_eq!(p.target_column, None, "degrades instead of erroring");
}

#[test]
fn zero_budget_is_typed() {
    let dir = tmp_lake("zero-budget");
    let err = Session::from_lake(&dir)
        .din("din")
        .task_spec("classification:label")
        .budget(0)
        .prepare()
        .expect_err("budget 0 can never query");
    assert!(matches!(err, SessionError::InvalidBudget), "{err}");
    // run() validates too, before any expensive work.
    let err = Session::from_lake(&dir)
        .din("din")
        .task_spec("classification:label")
        .budget(0)
        .run(Method::Metam(MetamConfig::default()))
        .expect_err("budget 0 rejected by run");
    assert!(matches!(err, SessionError::InvalidBudget), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_table_is_typed() {
    let dir = tmp_lake("no-table");
    let err = Session::from_lake(&dir)
        .din("zzz")
        .task_spec("classification:label")
        .prepare()
        .expect_err("no such table or file");
    assert!(matches!(err, SessionError::Lake(_)), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_reports_budget_and_streams_rounds() {
    let dir = tmp_lake("report");
    // Arc<Mutex>: session observers must be Send (sessions move across
    // threads whole).
    let rounds: std::sync::Arc<std::sync::Mutex<Vec<(usize, usize)>>> = Default::default();
    let sink = std::sync::Arc::clone(&rounds);
    let report = Session::from_lake(&dir)
        .din("din")
        .task_spec("classification:label")
        .seed(3)
        .budget(40)
        .observer(move |e: &RoundEvent<'_>| {
            sink.lock().expect("unpoisoned").push((e.round, e.queries));
        })
        .run(Method::Metam(MetamConfig::default()))
        .expect("run");
    let rounds = rounds.lock().expect("unpoisoned");
    assert_eq!(report.method, "Metam");
    assert_eq!(report.din_name, "din");
    assert_eq!(report.din_rows, 30);
    assert!(report.queries <= 40);
    assert_eq!(report.budget, 40);
    assert_eq!(report.queries_remaining(), 40 - report.queries);
    assert!(report.stop_reason.is_some());
    assert!(report.n_clusters.is_some());
    assert!(report.utility >= report.base_utility);
    assert!(!report.trace.is_empty());
    assert!(report.prepare_secs >= 0.0 && report.search_secs >= 0.0);
    assert_eq!(report.selected.len(), report.selected_names.len());
    assert!(!rounds.is_empty(), "the observer must see every round");
    assert!(
        rounds.windows(2).all(|w| w[0].0 < w[1].0),
        "rounds arrive in order: {rounds:?}"
    );
    assert!(rounds.iter().all(|&(_, q)| q <= 40));

    // JSON payload is well-formed enough for scripting.
    let json = report.to_json();
    assert!(json.contains("\"method\":\"Metam\""));
    assert!(json.contains("\"budget\":40"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn observed_runs_match_unobserved_runs() {
    // Observation must be passive: same seed → bit-identical outcome.
    let scenario = metam::datagen::repo::price_classification(9);
    let observed = Session::from_scenario(scenario.clone())
        .seed(9)
        .theta(0.75)
        .budget(200)
        .observer(|_: &RoundEvent<'_>| {})
        .run(Method::Metam(MetamConfig::default()))
        .expect("observed run");
    let unobserved = Session::from_scenario(scenario)
        .seed(9)
        .theta(0.75)
        .budget(200)
        .run(Method::Metam(MetamConfig::default()))
        .expect("unobserved run");
    assert_eq!(observed.selected, unobserved.selected);
    assert_eq!(observed.queries, unobserved.queries);
    assert_eq!(observed.utility, unobserved.utility);
}

#[test]
fn baselines_run_without_metam_only_fields() {
    let scenario = metam::datagen::repo::price_classification(4);
    let report = Session::from_scenario(scenario)
        .seed(4)
        .theta(0.75)
        .budget(60)
        .run(Method::Uniform { seed: 4 })
        .expect("uniform run");
    assert_eq!(report.method, "Uniform");
    assert_eq!(report.stop_reason, Some(StopReason::BudgetExhausted));
    assert!(report.n_clusters.is_none());
    assert!(report.certification_ignored.is_none());
    assert!(report.queries <= 60);
    assert!(report
        .to_json()
        .contains("\"stop_reason\":\"budget exhausted (query limit hit)\""));
}

#[test]
fn clustering_spec_runs_unsupervised_over_a_lake() {
    let dir = tmp_lake("clustering");
    // A bimodal external column that carves the rows into two groups.
    let ext: String = (0..30)
        .map(|i| format!("z{i},{}\n", if i % 2 == 0 { 0.0 } else { 100.0 }))
        .collect();
    fs::write(dir.join("groups.csv"), format!("zipcode,g\n{ext}")).unwrap();
    let report = Session::from_lake(&dir)
        .din("din")
        .task_spec("clustering:2")
        .seed(5)
        .budget(30)
        .run(Method::Metam(MetamConfig::default()))
        .expect("clustering run");
    assert!((0.0..=1.0).contains(&report.utility));
    assert!(report.queries <= 30);
    let _ = fs::remove_dir_all(&dir);
}
