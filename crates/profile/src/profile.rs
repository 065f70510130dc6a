//! The [`Profile`] trait and parallel [`ProfileSet`] evaluation.

use std::sync::Arc;

use metam_discovery::{first_hop_groups, Candidate, Materializer, NextIndexes};
use metam_table::sample::sample_indices;
use metam_table::{Column, Table};

use crate::embedding::{din_embedding, release_thread_memo, EMBED_DIM};
use crate::metadata::din_metadata_tokens;
use crate::vector::ProfileVector;

/// The `din` side of one evaluation: `din`, its target and the row
/// sample, plus every value profiles derive from them alone. Those values
/// are the same for every candidate, so [`DinState::new`] computes them
/// once and every [`ProfileContext`] of the evaluation borrows them.
pub struct DinState<'a> {
    /// The input dataset.
    pub table: &'a Table,
    /// Index of the task's target attribute in `din`, when one exists
    /// (supervised tasks); profiles relating the augmentation to the target
    /// fall back to the best-matching `din` column otherwise.
    pub target_column: Option<usize>,
    /// Row sample (indices into `din` / the materialized column) on which
    /// value-based profiles are estimated.
    pub sample_indices: &'a [usize],
    target_sample: Vec<Option<f64>>,
    numeric_samples: Vec<Vec<Option<f64>>>,
    embedding: [f64; EMBED_DIM],
    metadata_tokens: Vec<String>,
}

/// Numeric values of `col` at the sampled rows (converting only those
/// rows; the values are [`Column::as_f64`]'s at the same rows).
fn sample_of(col: &Column, sample_indices: &[usize]) -> Vec<Option<f64>> {
    sample_indices.iter().map(|&i| col.f64_at(i)).collect()
}

impl<'a> DinState<'a> {
    /// Compute the `din`-side values for profiling candidates of `table`
    /// on the rows `sample_indices`.
    pub fn new(
        table: &'a Table,
        target_column: Option<usize>,
        sample_indices: &'a [usize],
    ) -> DinState<'a> {
        let target_sample = match target_column {
            Some(t) => sample_of(&table.columns()[t], sample_indices),
            None => Vec::new(),
        };
        // The no-target fallback of the correlation profile compares the
        // augmentation with every numeric column instead.
        let numeric_samples = if target_sample.is_empty() {
            table
                .numeric_column_indices()
                .into_iter()
                .map(|ci| sample_of(&table.columns()[ci], sample_indices))
                .collect()
        } else {
            Vec::new()
        };
        DinState {
            table,
            target_column,
            sample_indices,
            target_sample,
            numeric_samples,
            embedding: din_embedding(table, sample_indices),
            metadata_tokens: din_metadata_tokens(table),
        }
    }

    /// Numeric samples of `din`'s numeric columns, in column order, when
    /// the target sample is empty (empty otherwise).
    pub(crate) fn numeric_samples(&self) -> &[Vec<Option<f64>>] {
        &self.numeric_samples
    }

    /// Hashed embedding of `din`'s name, source, column names and sampled
    /// values (see [`crate::embedding`]).
    pub(crate) fn embedding(&self) -> &[f64; EMBED_DIM] {
        &self.embedding
    }

    /// Tokens of `din`'s name and column names (see [`crate::metadata`]).
    pub(crate) fn metadata_tokens(&self) -> &[String] {
        &self.metadata_tokens
    }
}

/// Everything a profile may look at when scoring one candidate: the
/// evaluation's shared [`DinState`] and the candidate itself.
pub struct ProfileContext<'a> {
    /// The `din` side, shared by every candidate of the evaluation.
    pub din: &'a DinState<'a>,
    /// The candidate being profiled.
    pub candidate: &'a Candidate,
    /// The materialized augmentation column (aligned with `din` rows), or
    /// `None` when materialization failed (noisy candidate).
    pub aug: Option<&'a Column>,
}

impl ProfileContext<'_> {
    /// Numeric sample of the augmentation column (row-aligned with
    /// [`Self::target_sample`]).
    pub fn aug_sample(&self) -> Vec<Option<f64>> {
        match self.aug {
            Some(col) => sample_of(col, self.din.sample_indices),
            None => vec![None; self.din.sample_indices.len()],
        }
    }

    /// Numeric sample of the target column (empty when no target).
    pub fn target_sample(&self) -> &[Option<f64>] {
        &self.din.target_sample
    }
}

/// A task-independent property of a candidate augmentation, valued in
/// `[0, 1]` (Definition 7).
pub trait Profile: Send + Sync {
    /// Stable display name.
    fn name(&self) -> &str;
    /// Score one candidate. Implementations must return a finite value;
    /// the set clamps to `[0, 1]`.
    fn compute(&self, ctx: &ProfileContext<'_>) -> f64;
}

/// An ordered collection of profiles evaluated together.
#[derive(Default)]
pub struct ProfileSet {
    profiles: Vec<Box<dyn Profile>>,
}

impl ProfileSet {
    /// Empty set.
    pub fn new() -> ProfileSet {
        ProfileSet {
            profiles: Vec::new(),
        }
    }

    /// Register a profile (order defines vector coordinates).
    pub fn push(&mut self, profile: Box<dyn Profile>) {
        self.profiles.push(profile);
    }

    /// Number of profiles (`l` in the paper's analysis).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Profile names in coordinate order.
    pub fn names(&self) -> Vec<&str> {
        self.profiles.iter().map(|p| p.name()).collect()
    }

    /// Evaluate one candidate.
    pub fn evaluate_one(&self, ctx: &ProfileContext<'_>) -> ProfileVector {
        self.profiles
            .iter()
            .map(|p| {
                let v = p.compute(ctx);
                if v.is_finite() {
                    v.clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Evaluate every candidate, in parallel, on a seeded row sample of
    /// `sample_size` records (the paper's setting is 100).
    ///
    /// The `din` side ([`DinState`]) is computed once, and the candidates
    /// are materialized a [`first_hop_groups`] group at a time, so each
    /// first hop and each join path is mapped once; the groups share the
    /// key indexes of later hops ([`NextIndexes`]), none past the call. Candidates whose
    /// materialization fails get an all-zero vector — they are the
    /// "erroneous" candidates the search must discard on its own.
    pub fn evaluate_all(
        &self,
        din: &Table,
        target_column: Option<usize>,
        candidates: &[Candidate],
        materializer: &Materializer,
        sample_size: usize,
        seed: u64,
    ) -> Vec<ProfileVector> {
        let indices = sample_indices(din.nrows(), sample_size, seed);
        let state = DinState::new(din, target_column, &indices);
        let groups: Vec<&[Candidate]> = first_hop_groups(candidates).collect();
        let indexes = NextIndexes::new(candidates);
        let vectors = metam_pool::map(&groups, metam_pool::available_threads(), |group| {
            let columns = materializer.materialize_run(din, group, &indexes);
            group
                .iter()
                .zip(columns)
                .map(|(candidate, aug)| {
                    let aug: Option<Arc<Column>> = aug.ok();
                    self.evaluate_one(&ProfileContext {
                        din: &state,
                        candidate,
                        aug: aug.as_deref(),
                    })
                })
                .collect::<Vec<_>>()
        });
        release_thread_memo();
        vectors.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_discovery::{generate_candidates, DiscoveryIndex};
    use metam_table::Column;

    struct ConstProfile(f64);
    impl Profile for ConstProfile {
        fn name(&self) -> &str {
            "const"
        }
        fn compute(&self, _ctx: &ProfileContext<'_>) -> f64 {
            self.0
        }
    }

    fn setup() -> (Table, Materializer, Vec<Candidate>) {
        let din = Table::from_columns(
            "din",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (0..30).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(Some("y".into()), (0..30).map(|i| Some(i as f64)).collect()),
            ],
        )
        .unwrap();
        let t = Table::from_columns(
            "ext",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    (0..30).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("v".into()),
                    (0..30).map(|i| Some(2.0 * i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        let tables = vec![Arc::new(t)];
        let index = DiscoveryIndex::build(tables.clone());
        let cands = generate_candidates(
            &din,
            &index,
            &metam_discovery::path::PathConfig::default(),
            10,
        );
        (din, Materializer::new(tables), cands)
    }

    #[test]
    fn clamping_and_nan_handling() {
        let mut set = ProfileSet::new();
        set.push(Box::new(ConstProfile(3.0)));
        set.push(Box::new(ConstProfile(-1.0)));
        set.push(Box::new(ConstProfile(f64::NAN)));
        let (din, mat, cands) = setup();
        let vecs = set.evaluate_all(&din, Some(1), &cands, &mat, 10, 0);
        assert_eq!(vecs[0], vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn evaluation_is_deterministic_and_parallel_safe() {
        let mut set = ProfileSet::new();
        set.push(Box::new(crate::overlap::OverlapProfile));
        let (din, mat, cands) = setup();
        let a = set.evaluate_all(&din, Some(1), &cands, &mat, 10, 7);
        let b = set.evaluate_all(&din, Some(1), &cands, &mat, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), cands.len());
    }

    #[test]
    fn names_in_order() {
        let mut set = ProfileSet::new();
        set.push(Box::new(ConstProfile(0.5)));
        set.push(Box::new(crate::overlap::OverlapProfile));
        assert_eq!(set.names(), vec!["const", "overlap"]);
        assert_eq!(set.len(), 2);
    }
}
