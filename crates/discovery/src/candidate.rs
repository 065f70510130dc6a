//! Candidate augmentations: `Γ(Din, P[j])` (paper Definition 4).

use metam_table::Table;

use crate::index::DiscoveryIndex;
use crate::path::{describe_path, enumerate_paths, JoinPath, PathConfig};

/// Stable identifier of a candidate within one generation run.
pub type CandidateId = usize;

/// One candidate augmentation: a join path plus the projected column.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Identifier (position in the generated candidate list).
    pub id: CandidateId,
    /// The join path to materialize.
    pub path: JoinPath,
    /// Column of the path's final table projected as the new attribute.
    pub value_column: usize,
    /// Human-readable description (`din_key→table.key ⊳ column`).
    pub name: String,
    /// Name of the repository table providing the value.
    pub source_table: String,
    /// Name of the projected column (display form).
    pub column_name: String,
    /// Provenance tag of the source table.
    pub source: String,
    /// First-hop containment estimated at discovery time.
    pub discovered_containment: f64,
}

/// Generate candidate augmentations for `din` over an indexed repository.
///
/// Every non-key column of every enumerated join path becomes one
/// candidate. The list is deterministic: paths in enumeration order,
/// columns in table order, ids sequential from zero.
pub fn generate_candidates(
    din: &Table,
    index: &DiscoveryIndex,
    config: &PathConfig,
    max_candidates: usize,
) -> Vec<Candidate> {
    let paths = enumerate_paths(din, index, config).paths;
    candidates_on_paths(din, index, &paths, max_candidates)
}

/// The candidates [`generate_candidates`] makes from already enumerated
/// `paths` (see [`crate::path::enumerate_paths`]). Each path's candidates
/// are contiguous, so they form one of the [`path_runs`].
pub fn candidates_on_paths(
    din: &Table,
    index: &DiscoveryIndex,
    paths: &[(JoinPath, f64)],
    max_candidates: usize,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (path, containment) in paths {
        let table_idx = path.last_table();
        let table = index.descriptor(table_idx);
        let used_key = path.last_hop().key_column;
        let described = describe_path(din, path, index);
        for ci in 0..table.columns.len() {
            if ci == used_key {
                continue;
            }
            if out.len() >= max_candidates {
                return out;
            }
            let column_name = table.column_display_name(ci);
            let name = format!("{described} ⊳ {column_name}");
            out.push(Candidate {
                id: out.len(),
                path: path.clone(),
                value_column: ci,
                name,
                source_table: table.name.clone(),
                column_name,
                source: table.source.clone(),
                discovered_containment: *containment,
            });
        }
    }
    out
}

/// The runs of consecutive candidates that share one join path. A list
/// from [`generate_candidates`] has one run per path, so work that depends
/// only on the path (the row mapping of
/// [`Materializer::materialize_run`](crate::Materializer::materialize_run))
/// is done once per run.
pub fn path_runs(candidates: &[Candidate]) -> impl Iterator<Item = &[Candidate]> {
    candidates.chunk_by(|a, b| a.path == b.path)
}

/// The groups of consecutive candidates whose paths share a first hop.
/// Path enumeration extends each first hop's paths together, so a list
/// from [`generate_candidates`] has one group per first hop, made of
/// whole [`path_runs`]; [`Materializer::materialize_run`](crate::Materializer::materialize_run)
/// joins `din` into a group's first table once.
pub fn first_hop_groups(candidates: &[Candidate]) -> impl Iterator<Item = &[Candidate]> {
    candidates.chunk_by(|a, b| a.path.hops[0] == b.path.hops[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_table::Column;
    use std::sync::Arc;

    fn setup() -> (Table, DiscoveryIndex) {
        let din = Table::from_columns(
            "din",
            vec![Column::from_strings(
                Some("zip".into()),
                (0..50).map(|i| Some(format!("z{i}"))).collect(),
            )],
        )
        .unwrap();
        let t0 = Table::from_columns(
            "stats",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    (0..50).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_floats(Some("a".into()), (0..50).map(|i| Some(i as f64)).collect()),
                Column::from_floats(
                    Some("b".into()),
                    (0..50).map(|i| Some(-(i as f64))).collect(),
                ),
            ],
        )
        .unwrap();
        (din, DiscoveryIndex::build(vec![Arc::new(t0)]))
    }

    #[test]
    fn one_candidate_per_non_key_column() {
        let (din, idx) = setup();
        let cands = generate_candidates(&din, &idx, &PathConfig::default(), 100);
        assert_eq!(cands.len(), 2, "columns a and b, not the key");
        assert_eq!(cands[0].column_name, "a");
        assert_eq!(cands[1].column_name, "b");
    }

    #[test]
    fn ids_are_sequential() {
        let (din, idx) = setup();
        let cands = generate_candidates(&din, &idx, &PathConfig::default(), 100);
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn cap_respected() {
        let (din, idx) = setup();
        let cands = generate_candidates(&din, &idx, &PathConfig::default(), 1);
        assert_eq!(cands.len(), 1);
    }

    #[test]
    fn names_are_descriptive() {
        let (din, idx) = setup();
        let cands = generate_candidates(&din, &idx, &PathConfig::default(), 100);
        assert!(cands[0].name.contains("stats"), "{}", cands[0].name);
        assert!(cands[0].name.contains("⊳ a"), "{}", cands[0].name);
    }
}
