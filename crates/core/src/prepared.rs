//! The unified "everything materialized for searching" bundle.
//!
//! Every data world — synthetic scenarios, on-disk CSV lakes, custom
//! [`DataSource`](https://docs.rs/metam) implementations — hands over one
//! [`Repository`]: the candidate augmentations of `din` (Definition 4),
//! enumerated with [`enumerate_candidates`], plus a materializer over the
//! tables they join. [`assemble`] turns it into one [`Prepared`] value:
//! it evaluates the profile vectors on a seeded row sample (§VI
//! "Settings") and bundles the downstream task. Search methods then
//! borrow [`Prepared::inputs`].

use std::sync::Arc;

use metam_discovery::path::PathConfig;
use metam_discovery::{
    candidates_on_paths, din_probes, enumerate_paths_from, first_hop_groups, path_runs, Candidate,
    DiscoveryIndex, Materializer, MinHash, NextIndexes,
};
use metam_obs::Span;
use metam_profile::ProfileSet;
use metam_table::Table;

use crate::engine::SearchInputs;
use crate::task::Task;

/// The repository a prepare run searches over: the candidate
/// augmentations of `din`, enumerated once with [`enumerate_candidates`],
/// and a materializer over the tables they join. A lake snapshot hands
/// over its memoized candidates and a lazy materializer, whose tables
/// load only when a candidate materializes; [`Repository::eager`] builds
/// both from tables already in memory.
pub struct Repository {
    /// The candidate list, shared with the source's memo.
    pub candidates: Arc<Vec<Candidate>>,
    /// Materializer over the repository tables, indexed like the
    /// [`DiscoveryIndex`] that produced the candidates.
    pub materializer: Materializer,
}

impl Repository {
    /// The repository of in-memory `tables` (the scenario path): index
    /// them (`prepare.index`), enumerate `din`'s candidates under the
    /// default join-path limits and `max_candidates`
    /// (`prepare.candidates`), and materialize from the tables. The index
    /// is dropped once the candidates are enumerated.
    pub fn eager(din: &Table, tables: Vec<Arc<Table>>, max_candidates: usize) -> Repository {
        let index = {
            let mut span = metam_obs::span("prepare.index", &din.name);
            span.field("tables", tables.len() as f64);
            DiscoveryIndex::build(tables.clone())
        };
        let mut span = metam_obs::span("prepare.candidates", &din.name);
        let candidates = enumerate_candidates(
            din,
            &din_probes(din),
            &index,
            &PathConfig::default(),
            max_candidates,
            &mut span,
        );
        Repository {
            candidates: Arc::new(candidates),
            materializer: Materializer::new(tables),
        }
    }
}

/// Enumerate the candidate augmentations of `din` over `index`: its join
/// paths (Definition 3) from `probes` (`din`'s [`din_probes`]), then one
/// candidate per projected column (Definition 4), capped at
/// `max_candidates`. The search's cost (`probes`, `postings_hops`,
/// `scored`) and the candidate count go on `span`, the caller's
/// `prepare.candidates`. This is the one enumeration routine:
/// [`Repository::eager`] runs it over in-memory tables, and a lake
/// snapshot runs it when its memo misses.
pub fn enumerate_candidates(
    din: &Table,
    probes: &[(usize, MinHash)],
    index: &DiscoveryIndex,
    path: &PathConfig,
    max_candidates: usize,
    span: &mut Span,
) -> Vec<Candidate> {
    let search = enumerate_paths_from(probes, index, path);
    let candidates = candidates_on_paths(din, index, &search.paths, max_candidates);
    span.field("probes", search.probes as f64);
    span.field("postings_hops", search.postings_hops as f64);
    span.field("scored", search.scored as f64);
    span.field("candidates", candidates.len() as f64);
    candidates
}

/// Assembly knobs shared by every data source.
#[derive(Debug, Clone)]
pub struct AssembleOptions {
    /// Rows sampled for profile estimation (paper: 100).
    pub profile_sample: usize,
    /// Seed for profile sampling.
    pub seed: u64,
}

impl Default for AssembleOptions {
    fn default() -> Self {
        AssembleOptions {
            profile_sample: 100,
            seed: 0,
        }
    }
}

/// A data source with everything materialized for searching: the input
/// dataset, candidate augmentations, their profile vectors, a materializer
/// over the repository, and the downstream task. One type serves both the
/// synthetic-scenario and on-disk-lake worlds.
pub struct Prepared {
    /// The input dataset `Din`.
    pub din: Table,
    /// Index of the target column in `din`, if supervised.
    pub target_column: Option<usize>,
    /// Candidate augmentations (shared with the lake snapshot's memo when
    /// the source enumerated them).
    pub candidates: Arc<Vec<Candidate>>,
    /// Profile vectors per candidate.
    pub profiles: Vec<Vec<f64>>,
    /// Profile names.
    pub profile_names: Vec<String>,
    /// Materializer over the repository tables.
    pub materializer: Materializer,
    /// The instantiated downstream task, [`Task::prepare`]d for `din`
    /// when it offers a prepared form.
    pub task: Box<dyn Task>,
    /// Planted relevance per candidate, when the source carries ground
    /// truth (synthetic scenarios) — used by Fig. 8's "queries to ground
    /// truth" metric. `None` for real lakes.
    pub relevance: Option<Vec<f64>>,
    /// Worker threads for batched query execution (1 = sequential);
    /// forwarded into [`SearchInputs::threads`]. Never changes results.
    pub threads: usize,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("din", &self.din.name)
            .field("target_column", &self.target_column)
            .field("candidates", &self.candidates.len())
            .field("profile_names", &self.profile_names)
            .field("task", &self.task.name())
            .field("relevance", &self.relevance.is_some())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// Borrow as the search-input bundle every method consumes.
    pub fn inputs(&self) -> SearchInputs<'_> {
        SearchInputs {
            din: &self.din,
            target_column: self.target_column,
            candidates: &self.candidates,
            profiles: &self.profiles,
            profile_names: &self.profile_names,
            materializer: &self.materializer,
            task: self.task.as_ref(),
            threads: self.threads,
        }
    }
}

/// Assemble search inputs from a resolved input dataset and repository:
/// evaluate the candidates' profiles, bundle the task (in its
/// [`Task::prepare`]d form for `din` when it has one). This is the
/// single assembly path behind `metam::session::Session`; every source
/// enumerated its candidates with [`enumerate_candidates`], so candidate
/// generation is identical whatever the source, and only *when* table
/// data loads differs.
pub fn assemble(
    din: Table,
    repository: Repository,
    target_column: Option<usize>,
    task: Box<dyn Task>,
    profile_set: &ProfileSet,
    options: &AssembleOptions,
) -> Prepared {
    let Repository {
        candidates,
        materializer,
    } = repository;
    let profiles = {
        let mut span = metam_obs::span("prepare.profiles", &din.name);
        span.field("candidates", candidates.len() as f64);
        span.field("paths", path_runs(&candidates).count() as f64);
        span.field("first_hops", first_hop_groups(&candidates).count() as f64);
        span.field("next_indexes", NextIndexes::new(&candidates).len() as f64);
        profile_set.evaluate_all(
            &din,
            target_column,
            &candidates,
            &materializer,
            options.profile_sample,
            options.seed,
        )
    };
    let profile_names = profile_set.names().into_iter().map(String::from).collect();
    let task = {
        let _span = metam_obs::span("prepare.task", &din.name);
        task.prepare(&din).unwrap_or(task)
    };
    Prepared {
        din,
        target_column,
        candidates,
        profiles,
        profile_names,
        materializer,
        task,
        relevance: None,
        threads: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::LinearSyntheticTask;
    use metam_profile::default_profiles;
    use metam_table::Column;

    #[test]
    fn assemble_aligns_candidates_and_profiles() {
        let n = 30;
        let din = Table::from_columns(
            "din",
            vec![
                Column::from_strings(
                    Some("zip".into()),
                    (0..n).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(Some("y".into()), (0..n).map(|i| Some(i as f64)).collect()),
            ],
        )
        .unwrap();
        let ext = Table::from_columns(
            "ext",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    (0..n).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("v".into()),
                    (0..n).map(|i| Some(i as f64 * 2.0)).collect(),
                ),
            ],
        )
        .unwrap();
        let task = Box::new(LinearSyntheticTask {
            base: 0.5,
            weights: vec![0.1],
        });
        let repository = Repository::eager(&din, vec![Arc::new(ext)], 100_000);
        let prepared = assemble(
            din,
            repository,
            Some(1),
            task,
            &default_profiles(),
            &AssembleOptions::default(),
        );
        assert!(!prepared.candidates.is_empty());
        assert_eq!(prepared.candidates.len(), prepared.profiles.len());
        assert_eq!(prepared.profile_names.len(), 5);
        assert!(prepared.relevance.is_none());
        let inputs = prepared.inputs();
        assert_eq!(inputs.target_column, Some(1));
        assert_eq!(inputs.candidates.len(), prepared.candidates.len());
    }
}
