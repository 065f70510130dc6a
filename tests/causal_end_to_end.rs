//! What-if and how-to analyses end to end: Metam recovers the planted
//! causal structure while baselines burn queries (Fig. 3c/3d at test
//! scale).

use metam::Session;
use metam::{run_method, Metam, MetamConfig, Method, NoopObserver, StopReason};
use metam_datagen::causal_scenario::{build_causal, CausalConfig, CausalKind};

fn whatif_scenario(seed: u64) -> metam::datagen::Scenario {
    build_causal(&CausalConfig {
        seed,
        n_irrelevant_tables: 20,
        n_erroneous_tables: 6,
        n_confounder_tables: 8,
        ..Default::default()
    })
}

#[test]
fn whatif_recovers_all_affected_attributes() {
    let prepared = Session::from_scenario(whatif_scenario(31))
        .seed(31)
        .prepare()
        .expect("prepare");
    let result = Metam::new(MetamConfig {
        theta: Some(1.0),
        max_queries: 400,
        seed: 31,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert_eq!(
        result.stop_reason,
        StopReason::ThetaReached,
        "u={} after {} queries",
        result.utility,
        result.queries
    );
    // The selected set must be the affected-attribute tables.
    let names: Vec<&str> = result
        .selected
        .iter()
        .map(|&id| prepared.candidates[id].source_table.as_str())
        .collect();
    assert!(
        names.iter().any(|n| n.contains("writing_score")),
        "{names:?}"
    );
    assert!(names.iter().any(|n| n.contains("math_score")), "{names:?}");
    assert!(
        names.iter().any(|n| n.contains("college_admission")),
        "{names:?}"
    );
}

#[test]
fn howto_beats_uniform_on_queries() {
    let scenario = build_causal(&CausalConfig {
        seed: 32,
        kind: CausalKind::HowTo,
        n_irrelevant_tables: 20,
        n_erroneous_tables: 6,
        n_confounder_tables: 8,
        ..Default::default()
    });
    let prepared = Session::from_scenario(scenario)
        .seed(32)
        .prepare()
        .expect("prepare");
    let budget = 250;
    let metam_r = run_method(
        &Method::Metam(MetamConfig {
            seed: 32,
            ..Default::default()
        }),
        &prepared.inputs(),
        Some(1.0),
        budget,
        &mut NoopObserver,
    );
    let uniform_r = run_method(
        &Method::Uniform { seed: 32 },
        &prepared.inputs(),
        Some(1.0),
        budget,
        &mut NoopObserver,
    );
    assert!(
        metam_r.utility >= uniform_r.utility,
        "metam {} vs uniform {}",
        metam_r.utility,
        uniform_r.utility
    );
    if metam_r.utility >= 1.0 && uniform_r.utility >= 1.0 {
        assert!(metam_r.queries <= uniform_r.queries);
    }
}

#[test]
fn confounders_are_not_selected() {
    let prepared = Session::from_scenario(whatif_scenario(33))
        .seed(33)
        .prepare()
        .expect("prepare");
    let result = Metam::new(MetamConfig {
        theta: Some(1.0),
        max_queries: 400,
        seed: 33,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    for &id in &result.selected {
        let table = &prepared.candidates[id].source_table;
        assert!(
            !table.starts_with("poll_"),
            "confounder decoy {table} must not survive the minimality check"
        );
    }
}
