//! Synthetic large-scale fixtures for the scalability experiments
//! (Fig. 6).
//!
//! Real model fits would drown the framework costs being measured, so
//! these fixtures use a cheap [`LinearSyntheticTask`] and candidates that
//! all materialize against one tiny repository table. Profile vectors are
//! drawn from a mixture of tight blobs — matching the paper's observation
//! that real candidates cluster well (|C| ≪ n).

use std::sync::Arc;

use metam::core::task::LinearSyntheticTask;
use metam::discovery::{Candidate, JoinPath, Materializer};
use metam::NoopObserver;
use metam::Prepared;
use metam_table::sample::splitmix64;
use metam_table::{Column, Table};

fn splitmix(state: &mut u64) -> f64 {
    splitmix64(state) as f64 / u64::MAX as f64
}

/// Build a fixture with `n_candidates` candidates, `n_profiles` profile
/// dimensions and `n_blobs` profile clusters, bundled as the same unified
/// [`Prepared`] struct the real pipeline produces. A small fraction of
/// candidates (1 in 499) is useful to the synthetic task.
pub fn scaled_fixture(
    n_candidates: usize,
    n_profiles: usize,
    n_blobs: usize,
    seed: u64,
) -> Prepared {
    let rows = 16;
    let din = Table::from_columns(
        "din",
        vec![Column::from_strings(
            Some("key".into()),
            (0..rows).map(|i| Some(format!("k{i}"))).collect(),
        )],
    )
    .expect("aligned"); // metam-analyze: allow(panic-in-lib): fixture columns share the fixed row count
    let ext = Table::from_columns(
        "ext",
        vec![
            Column::from_strings(
                Some("key".into()),
                (0..rows).map(|i| Some(format!("k{i}"))).collect(),
            ),
            Column::from_floats(
                Some("v".into()),
                (0..rows).map(|i| Some(i as f64)).collect(),
            ),
        ],
    )
    .expect("aligned"); // metam-analyze: allow(panic-in-lib): fixture columns share the fixed row count
    let tables = vec![Arc::new(ext)];

    let mut state = seed ^ 0xF16;
    // Blob centers in [0,1]^l.
    let centers: Vec<Vec<f64>> = (0..n_blobs.max(1))
        .map(|_| (0..n_profiles).map(|_| splitmix(&mut state)).collect())
        .collect();
    let mut candidates = Vec::with_capacity(n_candidates);
    let mut profiles = Vec::with_capacity(n_candidates);
    let mut weights = vec![0.0; n_candidates];
    for id in 0..n_candidates {
        candidates.push(Candidate {
            id,
            path: JoinPath::single(0, 0, 0),
            value_column: 1,
            name: format!("cand_{id}"),
            source_table: "ext".into(),
            column_name: "v".into(),
            source: String::new(),
            discovered_containment: splitmix(&mut state),
        });
        let c = &centers[id % centers.len()];
        profiles.push(
            c.iter()
                .map(|&v| (v + 0.02 * (splitmix(&mut state) - 0.5)).clamp(0.0, 1.0))
                .collect(),
        );
        if id % 499 == 0 {
            weights[id] = 0.02;
        }
    }
    let task = LinearSyntheticTask { base: 0.2, weights };
    let profile_names = (0..n_profiles).map(|i| format!("p{i}")).collect();
    Prepared {
        din,
        target_column: None,
        candidates: Arc::new(candidates),
        profiles,
        profile_names,
        materializer: Materializer::new(tables),
        task: Box::new(task),
        relevance: None,
        threads: 1,
    }
}

/// Run one method for a fixed query budget and return wall-clock seconds.
pub fn time_method(fixture: &Prepared, method: &metam::Method, budget: usize) -> f64 {
    let start = std::time::Instant::now();
    let r = metam::run_method(method, &fixture.inputs(), None, budget, &mut NoopObserver);
    let elapsed = start.elapsed().as_secs_f64();
    // Touch the result so the run cannot be optimized away.
    assert!(r.utility >= 0.0);
    elapsed
}

/// Guard used by tests: synthetic tasks must respond to the planted useful
/// candidates.
pub fn sanity_check(fixture: &Prepared) -> bool {
    let mut t = fixture.din.clone();
    let col = fixture
        .materializer
        .materialize(&fixture.din, &fixture.candidates[0])
        .expect("materializes"); // metam-analyze: allow(panic-in-lib): bench fixture plants candidate 0 as materializable
    t.add_column((*col).clone()).expect("row counts match"); // metam-analyze: allow(panic-in-lib): materialized column matches din rows by construction
    fixture.task.utility(&t) > fixture.task.utility(&fixture.din)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_shapes() {
        let f = scaled_fixture(1000, 5, 10, 1);
        assert_eq!(f.candidates.len(), 1000);
        assert_eq!(f.profiles.len(), 1000);
        assert_eq!(f.profiles[0].len(), 5);
        assert!(sanity_check(&f));
    }

    #[test]
    fn blobby_profiles_cluster_small() {
        let f = scaled_fixture(5000, 5, 12, 2);
        let clustering = metam::core::cluster::cluster_partition(&f.profiles, 0.05, 0);
        assert!(
            clustering.len() <= 24,
            "expected ~12 blobs, got {}",
            clustering.len()
        );
    }
}
