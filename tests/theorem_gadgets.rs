//! Tests built on the paper's §V theory gadgets: the set-cover reduction
//! (Theorem 1) and the θ-achievement guarantee (Theorem 3).

use std::collections::BTreeSet;

use metam::core::engine::{QueryEngine, SearchInputs};
use metam::core::task::SetCoverTask;
use metam::{Metam, MetamConfig, NoopObserver, StopReason};
use metam_discovery::path::PathConfig;
use metam_discovery::{generate_candidates, DiscoveryIndex, Materializer};
use metam_table::{Column, Table};
use std::sync::Arc;

/// Fixture: `n` joinable single-column tables so candidate ids 0..n exist.
fn fixture(n: usize) -> (Table, Vec<metam_discovery::Candidate>, Materializer) {
    let rows = 30;
    let din = Table::from_columns(
        "din",
        vec![Column::from_strings(
            Some("k".into()),
            (0..rows).map(|i| Some(format!("k{i}"))).collect(),
        )],
    )
    .unwrap();
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
    let candidates = generate_candidates(&din, &index, &cfg, 10 * n);
    (din, candidates, Materializer::new(tables))
}

#[test]
fn theorem3_reaches_theta_on_set_cover() {
    // Universe {0..9}; three sets cover it exactly; distractors cover
    // nothing new.
    let covers = vec![
        vec![0, 1, 2, 3],
        vec![4, 5, 6],
        vec![7, 8, 9],
        vec![0, 1],
        vec![4, 5],
        vec![9],
        vec![],
        vec![],
    ];
    let (din, candidates, mat) = fixture(covers.len());
    assert_eq!(candidates.len(), covers.len());
    let task = SetCoverTask {
        covers,
        universe: 10,
    };
    let profiles = vec![vec![0.5, 0.5]; candidates.len()];
    let names = vec!["a".to_string(), "b".to_string()];
    let inputs = SearchInputs {
        din: &din,
        target_column: None,
        candidates: &candidates,
        profiles: &profiles,
        profile_names: &names,
        materializer: &mat,
        task: &task,
        threads: 1,
    };
    let result = Metam::new(MetamConfig {
        theta: Some(1.0),
        max_queries: 5000,
        seed: 0,
        ..Default::default()
    })
    .run(&inputs, &mut NoopObserver);
    assert_eq!(
        result.stop_reason,
        StopReason::ThetaReached,
        "Theorem 3: θ achievable ⇒ found"
    );
    assert!((result.utility - 1.0).abs() < 1e-12);
    // The minimal cover is the three big sets.
    assert_eq!(
        result.selected,
        vec![0, 1, 2],
        "minimality finds the optimal cover"
    );
}

#[test]
fn greedy_matches_submodular_bound() {
    // Lemma 3 flavour: on a monotone submodular utility, the greedy value
    // after k rounds is ≥ (1 − 1/e)·OPT.
    let covers: Vec<Vec<usize>> = vec![
        (0..30).collect(),  // big set
        (20..45).collect(), // overlaps
        (40..60).collect(),
        (0..10).collect(),
        (55..60).collect(),
    ];
    let (din, candidates, mat) = fixture(covers.len());
    let task = SetCoverTask {
        covers,
        universe: 60,
    };
    let profiles = vec![vec![0.5]; candidates.len()];
    let names = vec!["p".to_string()];
    let inputs = SearchInputs {
        din: &din,
        target_column: None,
        candidates: &candidates,
        profiles: &profiles,
        profile_names: &names,
        materializer: &mat,
        task: &task,
        threads: 1,
    };
    let result = Metam::new(MetamConfig {
        max_queries: 2000,
        seed: 1,
        minimality: false,
        ..Default::default()
    })
    .run(&inputs, &mut NoopObserver);
    // OPT = 1.0 (all 60 coverable); greedy bound (1 − 1/e) ≈ 0.632.
    assert!(
        result.utility >= 1.0 - 1.0 / std::f64::consts::E,
        "greedy value {} below the submodular bound",
        result.utility
    );
}

#[test]
fn np_hardness_gadget_utility_is_cover_fraction() {
    // Sanity of the Theorem 1 reduction: utility equals |∪ S_i| / n.
    let covers = vec![vec![0, 1], vec![1, 2]];
    let (din, candidates, mat) = fixture(2);
    let task = SetCoverTask {
        covers,
        universe: 4,
    };
    let profiles = vec![vec![0.0]; candidates.len()];
    let names = vec!["p".to_string()];
    let inputs = SearchInputs {
        din: &din,
        target_column: None,
        candidates: &candidates,
        profiles: &profiles,
        profile_names: &names,
        materializer: &mat,
        task: &task,
        threads: 1,
    };
    let mut engine = QueryEngine::new(&inputs, 100);
    assert_eq!(engine.utility_of(&BTreeSet::new()).unwrap(), 0.0);
    assert_eq!(engine.utility_of(&BTreeSet::from([0])).unwrap(), 0.5);
    assert_eq!(engine.utility_of(&BTreeSet::from([0, 1])).unwrap(), 0.75);
}
