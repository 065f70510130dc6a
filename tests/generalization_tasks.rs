//! §VI-A.4 generalization: entity linking, fair classification and
//! clustering, end to end through the full pipeline.

use metam::Session;
use metam::{run_method, Metam, MetamConfig, Method, NoopObserver, StopReason};

#[test]
fn entity_linking_found_in_few_queries() {
    let scenario =
        metam::datagen::linking::build_linking(&metam::datagen::linking::LinkingConfig {
            seed: 21,
            n_irrelevant_tables: 30,
            ..Default::default()
        });
    let prepared = Session::from_scenario(scenario)
        .seed(21)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let result = Metam::new(MetamConfig {
        theta: Some(0.95),
        max_queries: 120,
        seed: 21,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert_eq!(
        result.stop_reason,
        StopReason::ThetaReached,
        "u={}",
        result.utility
    );
    assert!(result.utility > 0.95);
    assert!(
        result.selected.iter().any(|&id| relevance[id] > 0.0),
        "the state column must be selected"
    );
    // The paper reports a handful of queries; leave generous slack for the
    // smaller candidate pool here.
    assert!(result.queries <= 80, "queries={}", result.queries);
}

#[test]
fn fair_classification_prefers_fair_useful_feature() {
    let scenario =
        metam::datagen::fairness::build_fairness(&metam::datagen::fairness::FairnessConfig {
            seed: 22,
            ..Default::default()
        });
    let prepared = Session::from_scenario(scenario)
        .seed(22)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let result = Metam::new(MetamConfig {
        max_queries: 80,
        seed: 22,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert!(
        result.utility > result.base_utility + 0.04,
        "{} → {}",
        result.base_utility,
        result.utility
    );
    assert!(
        result.selected.iter().any(|&id| relevance[id] > 0.0),
        "a fair+useful employment feature must be selected: {:?}",
        result
            .selected
            .iter()
            .map(|&i| prepared.candidates[i].name.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn clustering_finds_oni_quickly() {
    let scenario = metam::datagen::clustering::build_clustering(
        &metam::datagen::clustering::ClusteringConfig {
            seed: 23,
            ..Default::default()
        },
    );
    let prepared = Session::from_scenario(scenario)
        .seed(23)
        .prepare()
        .expect("prepare");
    assert!(prepared.candidates.len() >= 8, "paper: 8 candidates");
    let result = Metam::new(MetamConfig {
        theta: Some(0.9),
        max_queries: 40,
        seed: 23,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert_eq!(
        result.stop_reason,
        StopReason::ThetaReached,
        "u={}",
        result.utility
    );
    assert!(
        result.queries <= 25,
        "small candidate set ⇒ few queries: {}",
        result.queries
    );
}

#[test]
fn unions_task_improves_with_good_batches() {
    let scenario = metam::datagen::unions::build_unions(&metam::datagen::unions::UnionsConfig {
        seed: 24,
        ..Default::default()
    });
    let prepared = Session::from_scenario(scenario)
        .seed(24)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let result = run_method(
        &Method::Metam(MetamConfig {
            seed: 24,
            ..Default::default()
        }),
        &prepared.inputs(),
        None,
        60,
        &mut NoopObserver,
    );
    assert!(
        result.utility >= result.base_utility,
        "{} → {}",
        result.base_utility,
        result.utility
    );
    // If anything was selected, the good batches must dominate.
    if !result.selected.is_empty() {
        let good = result
            .selected
            .iter()
            .filter(|&&id| relevance[id] > 0.0)
            .count();
        assert!(
            good * 2 >= result.selected.len(),
            "mostly good batches expected: {good}/{}",
            result.selected.len()
        );
    }
}
