//! §VI-C robustness: what happens when profiles are uninformative, and
//! when the homogeneity check detects mixed clusters.

use metam::core::engine::SearchInputs;
use metam::core::task::LinearSyntheticTask;
use metam::profile::synthetic::FixedProfile;
use metam::profile::ProfileSet;
use metam::Session;
use metam::{Metam, MetamConfig, NoopObserver, StopReason};
use metam_datagen::supervised::{build_supervised, SupervisedConfig};
use metam_discovery::path::PathConfig;
use metam_discovery::{generate_candidates, DiscoveryIndex, Materializer};
use metam_table::{Column, Table};
use std::sync::Arc;

/// "What if all profiles are uninformative?" — Metam still finds the
/// optimal augmentation set; only the query bill grows toward Uniform's.
#[test]
fn all_uninformative_profiles_still_find_solution() {
    let scenario = build_supervised(&SupervisedConfig {
        seed: 41,
        n_rows: 300,
        n_informative: 1,
        n_duplicates: 0,
        n_irrelevant_tables: 6,
        n_erroneous_tables: 3,
        ..Default::default()
    });
    let mut noise_only = ProfileSet::new();
    for u in 0..5 {
        noise_only.push(Box::new(FixedProfile::uninformative(
            format!("noise_{u}"),
            10_000,
            41 ^ u,
        )));
    }
    let prepared = Session::from_scenario(scenario)
        .profiles(noise_only)
        .seed(41)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let result = Metam::new(MetamConfig {
        max_queries: 250,
        seed: 41,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert!(
        result.utility > result.base_utility + 0.05,
        "{} → {}",
        result.base_utility,
        result.utility
    );
    assert!(
        result.selected.iter().any(|&id| relevance[id] > 0.0),
        "the planted signal must still be found"
    );
}

/// Homogeneity checking: when profiles lie (dissimilar utilities inside one
/// cluster), the log|C|-sample test notices and the search falls back to
/// singleton clusters — and still succeeds.
#[test]
fn homogeneity_check_survives_lying_profiles() {
    // Candidates over a toy repository; synthetic task where candidate 3 is
    // the only useful one.
    let rows = 25;
    let din = Table::from_columns(
        "din",
        vec![Column::from_strings(
            Some("k".into()),
            (0..rows).map(|i| Some(format!("k{i}"))).collect(),
        )],
    )
    .unwrap();
    let n = 10;
    let mut tables = Vec::new();
    for t in 0..n {
        tables.push(Arc::new(
            Table::from_columns(
                format!("t{t}"),
                vec![
                    Column::from_strings(
                        Some("key".into()),
                        (0..rows).map(|i| Some(format!("k{i}"))).collect(),
                    ),
                    Column::from_floats(
                        Some(format!("v{t}")),
                        (0..rows).map(|i| Some(i as f64)).collect(),
                    ),
                ],
            )
            .unwrap(),
        ));
    }
    let index = DiscoveryIndex::build(tables.clone());
    let cfg = PathConfig {
        max_hops: 1,
        ..Default::default()
    };
    let candidates = generate_candidates(&din, &index, &cfg, 100);
    let materializer = Materializer::new(tables);

    let mut weights = vec![0.0; candidates.len()];
    weights[3] = 0.5;
    let task = LinearSyntheticTask { base: 0.3, weights };
    // All candidates share one profile vector — a maximally lying cluster:
    // identical profiles, very different utilities.
    let profiles = vec![vec![0.5, 0.5]; candidates.len()];
    let names = vec!["a".to_string(), "b".to_string()];
    let inputs = SearchInputs {
        din: &din,
        target_column: None,
        candidates: &candidates,
        profiles: &profiles,
        profile_names: &names,
        materializer: &materializer,
        task: &task,
        threads: 1,
    };
    let result = Metam::new(MetamConfig {
        theta: Some(0.75),
        max_queries: 300,
        check_homogeneity: true,
        seed: 9,
        ..Default::default()
    })
    .run(&inputs, &mut NoopObserver);
    assert_eq!(
        result.stop_reason,
        StopReason::ThetaReached,
        "u={}",
        result.utility
    );
    assert_eq!(result.selected, vec![3]);
}

/// With honest clusters, the homogeneity probe passes and costs only the
/// log|C| sampling queries.
#[test]
fn homogeneity_check_cheap_when_clusters_honest() {
    let scenario = build_supervised(&SupervisedConfig {
        seed: 43,
        n_rows: 250,
        n_informative: 1,
        n_duplicates: 1,
        n_irrelevant_tables: 5,
        n_erroneous_tables: 2,
        ..Default::default()
    });
    let prepared = metam::Session::from_scenario(scenario)
        .seed(43)
        .prepare()
        .expect("prepare");
    let with_check = Metam::new(MetamConfig {
        max_queries: 200,
        check_homogeneity: true,
        seed: 43,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    let without_check = Metam::new(MetamConfig {
        max_queries: 200,
        check_homogeneity: false,
        seed: 43,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    // Both must reach comparable utility; the probe is an overhead, not a
    // quality change.
    assert!(
        (with_check.utility - without_check.utility).abs() < 0.1,
        "with={} without={}",
        with_check.utility,
        without_check.utility
    );
}
