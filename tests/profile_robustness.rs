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

/// Append a table whose join key is all null to `tables`, and insert two
/// candidates on a path into it in the middle of `candidates`: their
/// materialization fails (`EmptyJoinKey`). Ids are renumbered.
fn with_failing_candidates(
    tables: &mut Vec<Arc<Table>>,
    candidates: &mut Vec<metam_discovery::Candidate>,
) {
    let void = Table::from_columns(
        "void",
        vec![
            Column::from_strings(Some("key".into()), vec![None; 3]),
            Column::from_floats(Some("x".into()), vec![Some(1.0); 3]),
        ],
    )
    .unwrap();
    tables.push(Arc::new(void));
    let at = candidates.len() / 2;
    for _ in 0..2 {
        let mut c = candidates[0].clone();
        c.path = metam_discovery::JoinPath::single(c.path.hops[0].left_column, tables.len() - 1, 0);
        c.value_column = 1;
        candidates.insert(at, c);
    }
    for (id, c) in candidates.iter_mut().enumerate() {
        c.id = id;
    }
}

/// One `evaluate_all` — the `din` side computed once, candidates
/// materialized a path run at a time — against every candidate recomputed
/// from scratch: a materializer and a `DinState` of its own.
fn assert_vectors_match_recomputation(scenario: metam_datagen::Scenario, target: Option<usize>) {
    use metam::profile::{default_profiles, DinState, ProfileContext};
    use metam::table::sample::sample_indices;

    let (din, mut tables) = (scenario.din, scenario.tables);
    let index = DiscoveryIndex::build(tables.clone());
    let mut candidates = generate_candidates(&din, &index, &PathConfig::default(), 100_000);
    with_failing_candidates(&mut tables, &mut candidates);
    let set = default_profiles();
    let (sample, seed) = (100, 9);
    let shared = set.evaluate_all(
        &din,
        target,
        &candidates,
        &Materializer::new(tables.clone()),
        sample,
        seed,
    );
    assert_eq!(shared.len(), candidates.len());
    let indices = sample_indices(din.nrows(), sample, seed);
    let mut failed = 0;
    for (candidate, got) in candidates.iter().zip(&shared) {
        let aug = Materializer::new(tables.clone())
            .materialize(&din, candidate)
            .ok();
        failed += usize::from(aug.is_none());
        let state = DinState::new(&din, target, &indices);
        let want = set.evaluate_one(&ProfileContext {
            din: &state,
            candidate,
            aug: aug.as_deref(),
        });
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(&want), "{}", candidate.name);
    }
    assert_eq!(
        failed, 2,
        "the two candidates into the null-keyed table fail"
    );
}

#[test]
fn evaluate_all_matches_per_candidate_recomputation_on_howto_fixture() {
    use metam_datagen::causal_scenario::{build_causal, CausalConfig, CausalKind};
    let scenario = build_causal(&CausalConfig {
        seed: 32,
        kind: CausalKind::HowTo,
        n_irrelevant_tables: 20,
        n_erroneous_tables: 6,
        n_confounder_tables: 8,
        ..Default::default()
    });
    let target = scenario.target_column_index();
    assert!(target.is_some());
    assert_vectors_match_recomputation(scenario, target);
}

#[test]
fn evaluate_all_matches_per_candidate_recomputation_without_a_target() {
    use metam_datagen::clustering::{build_clustering, ClusteringConfig};
    let scenario = build_clustering(&ClusteringConfig {
        seed: 4,
        ..Default::default()
    });
    assert!(scenario.target_column_index().is_none());
    assert_vectors_match_recomputation(scenario, None);
}
