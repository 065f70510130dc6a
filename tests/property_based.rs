//! Property-based tests over the core invariants, with random utilities
//! and profile vectors.

use std::collections::BTreeSet;

use metam::core::cluster::cluster_partition;
use metam::core::engine::{QueryEngine, SearchInputs};
use metam::core::minimal::identify_minimal;
use metam::core::task::{LinearSyntheticTask, NonMonotoneTask};
use metam::core::trace::{resample, utility_at, TracePoint};
use metam::{Metam, MetamConfig, NoopObserver};
use metam_discovery::path::PathConfig;
use metam_discovery::{generate_candidates, DiscoveryIndex, Materializer};
use metam_table::{Column, Table};
use proptest::prelude::*;
use std::sync::Arc;

fn fixture(n: usize) -> (Table, Vec<metam_discovery::Candidate>, Materializer) {
    let rows = 20;
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
    let candidates = generate_candidates(&din, &index, &cfg, 10 * n.max(1));
    (din, candidates, Materializer::new(tables))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The ε-cover invariant (Algorithm 2): every point is within ε of its
    /// center, for arbitrary profile vectors.
    #[test]
    fn cluster_radius_never_exceeds_epsilon(
        profiles in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 3), 1..80),
        eps in 0.01f64..0.5,
        seed: u64,
    ) {
        let clustering = cluster_partition(&profiles, eps, seed);
        prop_assert!(clustering.radius() <= eps + 1e-9);
        // And it is a partition.
        let mut all: Vec<usize> = clustering.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..profiles.len()).collect::<Vec<_>>());
    }

    /// Metam's reported utility always matches re-evaluating its selected
    /// set, and never falls below the base utility.
    #[test]
    fn reported_utility_is_consistent(
        weights in prop::collection::vec(0.0f64..0.2, 6),
        seed in 0u64..50,
    ) {
        let (din, candidates, mat) = fixture(6);
        let task = LinearSyntheticTask { base: 0.3, weights: weights.clone() };
        let profiles: Vec<Vec<f64>> = (0..candidates.len())
            .map(|i| vec![(i % 5) as f64 / 5.0])
            .collect();
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
            max_queries: 200, seed, ..Default::default()
        }).run(&inputs, &mut NoopObserver);
        prop_assert!(result.utility >= result.base_utility - 1e-12);
        let mut engine = QueryEngine::new(&inputs, usize::MAX);
        let set: BTreeSet<usize> = result.selected.iter().copied().collect();
        let recheck = engine.utility_of(&set).unwrap();
        prop_assert!((recheck - result.utility).abs() < 1e-9,
            "reported {} vs recheck {}", result.utility, recheck);
    }

    /// IDENTIFY-MINIMAL postcondition, for random additive utilities:
    /// the result keeps θ and no element is removable.
    #[test]
    fn identify_minimal_is_minimal(
        weights in prop::collection::vec(0.0f64..0.3, 5),
        theta_frac in 0.2f64..0.9,
    ) {
        let (din, candidates, mat) = fixture(5);
        let task = LinearSyntheticTask { base: 0.1, weights: weights.clone() };
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
        let mut engine = QueryEngine::new(&inputs, usize::MAX);
        let full: BTreeSet<usize> = (0..candidates.len()).collect();
        let full_u = engine.utility_of(&full).unwrap();
        let theta = 0.1 + theta_frac * (full_u - 0.1);
        let minimal = identify_minimal(&mut engine, &full, theta);
        prop_assert!(engine.utility_of(&minimal).unwrap() >= theta - 1e-12);
        for &id in &minimal {
            let mut without = minimal.clone();
            without.remove(&id);
            prop_assert!(engine.utility_of(&without).unwrap() < theta);
        }
    }

    /// Certification invariant under arbitrary (possibly harmful) deltas.
    #[test]
    fn certified_extension_never_decreases(
        deltas in prop::collection::vec(-0.3f64..0.3, 6),
    ) {
        let (din, candidates, mat) = fixture(6);
        let task = NonMonotoneTask { base: 0.5, deltas };
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
        let mut engine = QueryEngine::new(&inputs, usize::MAX);
        let base: BTreeSet<usize> = BTreeSet::new();
        let base_u = engine.utility_of(&base).unwrap();
        for c in 0..candidates.len() {
            let (eff, _, _) = engine.utility_extend(&base, c, true).unwrap();
            prop_assert!(eff >= base_u - 1e-12);
        }
    }

    /// Trace resampling is consistent with pointwise lookup.
    #[test]
    fn resample_matches_utility_at(
        utilities in prop::collection::vec(0.0f64..1.0, 1..30),
        budget in 1usize..100,
    ) {
        let trace: Vec<TracePoint> = utilities
            .iter()
            .enumerate()
            .scan(0.0f64, |best, (i, &u)| {
                *best = best.max(u);
                Some(TracePoint { queries: i + 1, utility: *best })
            })
            .collect();
        let grid: Vec<usize> = (0..=budget).step_by(7.max(budget / 5)).collect();
        let sampled = resample(&trace, &grid);
        for (q, u) in sampled {
            prop_assert_eq!(u, utility_at(&trace, q));
        }
    }
}
