//! The unified "everything materialized for searching" bundle.
//!
//! Every data world — synthetic scenarios, on-disk CSV lakes, custom
//! [`DataSource`](https://docs.rs/metam) implementations — funnels into one
//! [`Prepared`] value via [`assemble`]: enumerate candidate augmentations
//! (Definition 4) with [`enumerate_candidates`], evaluate the profile
//! vectors on a seeded row sample (§VI "Settings"), and bundle the
//! downstream task. Search methods then borrow [`Prepared::inputs`].

use std::sync::Arc;

use metam_discovery::path::PathConfig;
use metam_discovery::{
    candidates_on_paths, din_probes, enumerate_paths_from, first_hop_groups, path_runs, Candidate,
    DiscoveryIndex, Materializer, MinHash, NextIndexes, TableProvider,
};
use metam_obs::Span;
use metam_profile::ProfileSet;
use metam_table::Table;

use crate::engine::SearchInputs;
use crate::task::Task;

/// The repository a prepare run searches over, in either of its two
/// forms: tables already in memory (the scenario path), whose candidates
/// [`assemble`] enumerates, or the candidates a source already enumerated
/// plus a deferred [`TableProvider`] (the sketch-backed catalog path,
/// where a lake snapshot enumerates once per input and table data loads
/// lazily only when a candidate materializes). [`assemble`] accepts
/// `impl Into<Repository>`, so `Vec<Arc<Table>>` call sites read as-is.
pub enum Repository {
    /// Materialized repository tables, indexed in order.
    Eager(Vec<Arc<Table>>),
    /// Candidates enumerated by the source with [`enumerate_candidates`],
    /// plus a provider resolving their table indices to payloads on
    /// demand.
    Enumerated {
        /// The candidate list, shared with the source's memo.
        candidates: Arc<Vec<Candidate>>,
        /// Lazy source of the repository's table payloads.
        provider: Box<dyn TableProvider>,
    },
}

impl Repository {
    /// Number of repository tables.
    pub fn len(&self) -> usize {
        match self {
            Repository::Eager(tables) => tables.len(),
            Repository::Enumerated { provider, .. } => provider.len(),
        }
    }

    /// `true` when the repository holds no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Repository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Repository::Eager(tables) => f.debug_tuple("Eager").field(&tables.len()).finish(),
            Repository::Enumerated { candidates, .. } => f
                .debug_struct("Enumerated")
                .field("candidates", &candidates.len())
                .field("tables", &self.len())
                .finish_non_exhaustive(),
        }
    }
}

impl From<Vec<Arc<Table>>> for Repository {
    fn from(tables: Vec<Arc<Table>>) -> Repository {
        Repository::Eager(tables)
    }
}

/// Enumerate the candidate augmentations of `din` over `index`: its join
/// paths (Definition 3) from `probes` (`din`'s [`din_probes`]), then one
/// candidate per projected column (Definition 4), capped at
/// `max_candidates`. The search's cost (`probes`, `postings_hops`) and the
/// candidate count go on `span`, the caller's `prepare.candidates`. This
/// is the one enumeration routine: [`assemble`] runs it over an eager
/// repository, and a lake snapshot runs it when its memo misses.
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
    span.field("candidates", candidates.len() as f64);
    candidates
}

/// Assembly knobs shared by every data source.
#[derive(Debug, Clone)]
pub struct AssembleOptions {
    /// Cap on generated candidates for an eager repository (a
    /// [`Repository::Enumerated`] source applied its own).
    pub max_candidates: usize,
    /// Rows sampled for profile estimation (paper: 100).
    pub profile_sample: usize,
    /// Seed for profile sampling.
    pub seed: u64,
}

impl Default for AssembleOptions {
    fn default() -> Self {
        AssembleOptions {
            max_candidates: 100_000,
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
/// enumerate candidates, evaluate profiles, bundle the task (in its
/// [`Task::prepare`]d form for `din` when it has one). This is the
/// single assembly path behind `metam::session::Session`.
///
/// The repository is either eager tables (a `Vec<Arc<Table>>` converts
/// implicitly), indexed and enumerated here under the default join-path
/// limits and `options.max_candidates`, or a [`Repository::Enumerated`]
/// list the source enumerated with the same routine — so candidate
/// generation is identical in both cases, only *when* table data loads
/// differs.
pub fn assemble(
    din: Table,
    repository: impl Into<Repository>,
    target_column: Option<usize>,
    task: Box<dyn Task>,
    profile_set: &ProfileSet,
    options: &AssembleOptions,
) -> Prepared {
    let (candidates, materializer) = match repository.into() {
        Repository::Eager(tables) => {
            let index = {
                let mut span = metam_obs::span("prepare.index", &din.name);
                span.field("tables", tables.len() as f64);
                DiscoveryIndex::build(tables.clone())
            };
            // The index (and the slot postings a search may build in it)
            // is done once the candidates are; it is dropped before
            // profiles evaluate.
            let mut span = metam_obs::span("prepare.candidates", &din.name);
            let candidates = enumerate_candidates(
                &din,
                &din_probes(&din),
                &index,
                &PathConfig::default(),
                options.max_candidates,
                &mut span,
            );
            (Arc::new(candidates), Materializer::new(tables))
        }
        Repository::Enumerated {
            candidates,
            provider,
        } => (candidates, Materializer::lazy(provider)),
    };
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
        let prepared = assemble(
            din,
            vec![Arc::new(ext)],
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
