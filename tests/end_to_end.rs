//! Cross-crate integration tests: the full pipeline on generated
//! scenarios, checking the paper's headline claims at test scale.

use metam::Session;
use metam::{run_method, Metam, MetamConfig, Method, NoopObserver, StopReason};
use metam_datagen::supervised::{build_supervised, SupervisedConfig};

fn small_classification(seed: u64) -> metam::datagen::Scenario {
    build_supervised(&SupervisedConfig {
        seed,
        n_rows: 350,
        n_informative: 2,
        n_duplicates: 1,
        n_irrelevant_tables: 8,
        n_erroneous_tables: 6,
        n_redundant_tables: 4,
        ..Default::default()
    })
}

#[test]
fn metam_improves_utility_end_to_end() {
    let prepared = Session::from_scenario(small_classification(1))
        .seed(1)
        .prepare()
        .expect("prepare");
    let result = Metam::new(MetamConfig {
        max_queries: 120,
        seed: 1,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert!(
        result.utility > result.base_utility + 0.05,
        "expected a real lift: {} → {}",
        result.base_utility,
        result.utility
    );
    assert!(!result.selected.is_empty());
}

#[test]
fn metam_finds_planted_augmentations() {
    let prepared = Session::from_scenario(small_classification(2))
        .seed(2)
        .prepare()
        .expect("prepare");
    let relevance = prepared.relevance.clone().expect("scenarios carry truth");
    let result = Metam::new(MetamConfig {
        max_queries: 150,
        seed: 2,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    // At least one selected augmentation must be planted ground truth.
    assert!(
        result.selected.iter().any(|&id| relevance[id] > 0.0),
        "selected {:?} are all junk",
        result
            .selected
            .iter()
            .map(|&id| prepared.candidates[id].name.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn p1_solutions_are_small() {
    // Property P1: k ≪ n. With ~60 candidates the solution stays tiny.
    let prepared = Session::from_scenario(small_classification(3))
        .seed(3)
        .prepare()
        .expect("prepare");
    let n = prepared.candidates.len();
    assert!(n > 30, "scenario should have many candidates, got {n}");
    let result = Metam::new(MetamConfig {
        max_queries: 150,
        seed: 3,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    assert!(
        result.selected.len() <= 6,
        "solution should be small (P1): {} of {n}",
        result.selected.len()
    );
}

#[test]
fn all_methods_produce_valid_traces() {
    let prepared = Session::from_scenario(small_classification(4))
        .seed(4)
        .prepare()
        .expect("prepare");
    let methods = [
        Method::Metam(MetamConfig {
            seed: 4,
            ..Default::default()
        }),
        Method::Uniform { seed: 4 },
        Method::Overlap,
        Method::Mw { seed: 4 },
        Method::IArda {
            classification: true,
            seed: 4,
        },
        Method::JoinAll,
    ];
    for m in &methods {
        let r = run_method(m, &prepared.inputs(), None, 40, &mut NoopObserver);
        assert!(r.queries <= 40, "{}: {}", r.method, r.queries);
        assert!(
            r.trace
                .windows(2)
                .all(|w| w[0].utility <= w[1].utility + 1e-12),
            "{}: trace must be nondecreasing",
            r.method
        );
        assert!(
            (0.0..=1.0).contains(&r.utility),
            "{}: {}",
            r.method,
            r.utility
        );
    }
}

#[test]
fn runs_are_reproducible() {
    let prepared_a = Session::from_scenario(small_classification(5))
        .seed(5)
        .prepare()
        .expect("prepare");
    let prepared_b = Session::from_scenario(small_classification(5))
        .seed(5)
        .prepare()
        .expect("prepare");
    let cfg = MetamConfig {
        max_queries: 80,
        seed: 5,
        ..Default::default()
    };
    let a = Metam::new(cfg.clone()).run(&prepared_a.inputs(), &mut NoopObserver);
    let b = Metam::new(cfg).run(&prepared_b.inputs(), &mut NoopObserver);
    assert_eq!(a.selected, b.selected);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.utility, b.utility);
}

#[test]
fn theta_run_is_minimal() {
    // Definition 6: removing any element of the returned set must break θ.
    let prepared = Session::from_scenario(small_classification(6))
        .seed(6)
        .prepare()
        .expect("prepare");
    let theta = 0.70;
    let result = Metam::new(MetamConfig {
        theta: Some(theta),
        max_queries: 200,
        seed: 6,
        ..Default::default()
    })
    .run(&prepared.inputs(), &mut NoopObserver);
    if result.stop_reason == StopReason::ThetaReached {
        let inputs = prepared.inputs();
        let mut engine = metam::core::engine::QueryEngine::new(&inputs, usize::MAX);
        let full: std::collections::BTreeSet<usize> = result.selected.iter().copied().collect();
        assert!(engine.utility_of(&full).unwrap() >= theta);
        for &id in &result.selected {
            let mut without = full.clone();
            without.remove(&id);
            assert!(
                engine.utility_of(&without).unwrap() < theta,
                "solution not minimal: {id} is removable"
            );
        }
    }
}
