//! The candidate memo of one catalog snapshot.
//!
//! Candidate generation depends on the input dataset and the lake, never
//! on the task or the seed, so a hot catalog answers every discover over
//! the same input with one enumeration. [`LakeCatalog::candidates`] keeps
//! the last list it enumerated, keyed on exactly what enumeration reads:
//! the withheld table names, `din`'s column names, its key-like probe
//! columns with their MinHash sketches, the [`PathConfig`] and the
//! candidate cap. A snapshot never changes, so nothing invalidates the
//! memo; a rescan builds a new catalog, whose memo starts empty. Only the
//! candidate list is kept — the sketch descriptors and the
//! [`DiscoveryIndex`] are rebuilt on a miss and dropped after it.

use std::sync::{Arc, Mutex, PoisonError};

use metam_core::prepared::enumerate_candidates;
use metam_discovery::path::PathConfig;
use metam_discovery::{din_probes, Candidate, DiscoveryIndex, MinHash};
use metam_table::Table;

use crate::{LakeCatalog, Result};

/// What candidate enumeration reads besides the snapshot itself.
#[derive(Debug, PartialEq)]
struct MemoKey {
    /// Withheld table names, sorted and deduplicated.
    excluded: Vec<String>,
    /// `din`'s column display names (candidate names quote the join
    /// column's).
    din_columns: Vec<String>,
    /// `din`'s probe columns: index and MinHash of each key-like column.
    probes: Vec<(usize, MinHash)>,
    /// [`PathConfig::containment_threshold`], compared by bits.
    threshold_bits: u64,
    max_hops: usize,
    max_paths: usize,
    max_candidates: usize,
}

/// A single-slot, single-flight memo: the last key and its candidates.
/// The lock is held while a miss enumerates, so concurrent first
/// discovers over one input enumerate once and the rest read the result.
#[derive(Debug, Default)]
pub(crate) struct CandidateMemo {
    slot: Mutex<Option<(MemoKey, Arc<Vec<Candidate>>)>>,
}

impl LakeCatalog {
    /// The candidate augmentations of `din` over every table except
    /// `exclude`, enumerated by [`enumerate_candidates`] over an index of
    /// this catalog's sketch records (see
    /// [`sketch_descriptors`](Self::sketch_descriptors)). The list is
    /// memoized per snapshot: a repeated call with the same `din` probes
    /// and column names, exclusions, `path` and `max_candidates` returns
    /// the same list without reading a record. The `prepare.candidates`
    /// span carries `memo` (1 = hit, 0 = miss), and the
    /// `lake.candidate_memo.hits` / `.misses` counters count lookups.
    pub fn candidates(
        &self,
        din: &Table,
        exclude: &[&str],
        path: &PathConfig,
        max_candidates: usize,
    ) -> Result<Arc<Vec<Candidate>>> {
        let mut excluded: Vec<String> = exclude.iter().map(|&name| name.to_string()).collect();
        excluded.sort_unstable();
        excluded.dedup();
        let key = MemoKey {
            excluded,
            din_columns: (0..din.ncols())
                .map(|i| din.column_display_name(i))
                .collect(),
            probes: din_probes(din),
            threshold_bits: path.containment_threshold.to_bits(),
            max_hops: path.max_hops,
            max_paths: path.max_paths,
            max_candidates,
        };
        let mut slot = self
            .candidate_memo
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((memo_key, candidates)) = slot.as_ref() {
            if *memo_key == key {
                let mut span = metam_obs::span("prepare.candidates", &din.name);
                span.field("memo", 1.0);
                span.field("candidates", candidates.len() as f64);
                metam_obs::counter_add("lake.candidate_memo.hits", 1);
                return Ok(Arc::clone(candidates));
            }
        }
        metam_obs::counter_add("lake.candidate_memo.misses", 1);
        let descriptors = self.sketch_descriptors(exclude)?;
        let index = {
            let mut span = metam_obs::span("prepare.index", &din.name);
            span.field("tables", descriptors.len() as f64);
            DiscoveryIndex::from_catalog(descriptors)
        };
        let mut span = metam_obs::span("prepare.candidates", &din.name);
        span.field("memo", 0.0);
        let candidates = Arc::new(enumerate_candidates(
            din,
            &key.probes,
            &index,
            path,
            max_candidates,
            &mut span,
        ));
        *slot = Some((key, Arc::clone(&candidates)));
        Ok(candidates)
    }
}
