//! Building blocks the session front door assembles a lake run from.
//!
//! The supported front door is `metam::session::Session::from_catalog` /
//! `from_lake` in the umbrella crate — it resolves the input dataset, the
//! task and the target, then assembles one `Prepared` bundle through
//! `metam_core::prepared::assemble`. This module contributes the
//! lake-specific pieces: [`parse_task`], the single authority on CLI task
//! specs, and [`repository_candidates`], which decides what a prepare run
//! searches over. It returns the candidates of the catalog snapshot's
//! memo (enumerated from persisted sketch records on a miss) plus a
//! [`CatalogTableProvider`] that loads a table through the catalog only
//! when the materializer first needs it — so a discover run touches the
//! input dataset plus only candidate-winning tables.
//! [`repository_descriptors`] exposes the payload-free descriptors a miss
//! enumerates over.

use std::sync::Arc;

use metam_core::Task;
use metam_discovery::path::PathConfig;
use metam_discovery::{Candidate, TableDescriptor, TableProvider};
use metam_table::Table;
use metam_tasks::classification::ClassificationTask;
use metam_tasks::clustering::ClusteringFitTask;
use metam_tasks::regression::RegressionTask;

use crate::{LakeCatalog, LakeError, Result};

/// A deferred [`TableProvider`] over a [`LakeCatalog`]: table `idx` is the
/// `idx`-th repository name, loaded through the catalog (columnar cache
/// first, CSV fallback) only when the materializer first asks for it.
#[derive(Debug)]
pub struct CatalogTableProvider {
    catalog: Arc<LakeCatalog>,
    names: Vec<String>,
}

impl TableProvider for CatalogTableProvider {
    fn len(&self) -> usize {
        self.names.len()
    }

    fn fetch(&self, idx: usize) -> std::result::Result<Arc<Table>, String> {
        let name = self.names.get(idx).ok_or_else(|| {
            format!(
                "table index {idx} out of bounds for {} tables",
                self.names.len()
            )
        })?;
        self.catalog
            .load_table(name)
            .map(Arc::new)
            .map_err(|e| e.to_string())
    }
}

/// The table names withheld from the repository (see `exclude_tables` on
/// [`repository_candidates`]).
fn withheld<'a>(din: &'a Table, exclude_tables: Option<&'a [String]>) -> Vec<&'a str> {
    match exclude_tables {
        Some(names) => names.iter().map(String::as_str).collect(),
        None => vec![din.name.as_str()],
    }
}

/// The lazy provider over every catalog table but `excluded`, in catalog
/// order: the table indices of the candidates' join paths.
fn provider(catalog: &Arc<LakeCatalog>, excluded: &[&str]) -> CatalogTableProvider {
    CatalogTableProvider {
        catalog: Arc::clone(catalog),
        names: catalog.repository_names(excluded),
    }
}

/// Resolve the repository a prepare run should search over — everything
/// in the catalog except the withheld names (see `exclude_tables` on
/// [`repository_candidates`]), in catalog order — as payload-free
/// descriptors read from the catalog's persisted sketch records, plus a
/// lazy [`CatalogTableProvider`] aligned index-for-index with them.
/// Candidate generation over the descriptors is byte-identical to
/// generation over the loaded tables; payloads load only at
/// materialization time.
pub fn repository_descriptors(
    catalog: &Arc<LakeCatalog>,
    din: &Table,
    exclude_tables: Option<&[String]>,
) -> Result<(Vec<TableDescriptor>, CatalogTableProvider)> {
    let excluded = withheld(din, exclude_tables);
    let descriptors = catalog.sketch_descriptors(&excluded)?;
    Ok((descriptors, provider(catalog, &excluded)))
}

/// The candidates a prepare run searches — [`LakeCatalog::candidates`]
/// of `din` under `path` and `max_candidates`, memoized per snapshot —
/// plus the lazy [`CatalogTableProvider`] their join paths index into.
/// `None` for `exclude_tables` withholds the table named like `din`
/// (which must not join with itself when it was loaded from the catalog);
/// pass `Some(&[])` when `din` is external to the lake, so a lake table
/// that merely shares its name still participates in discovery.
pub fn repository_candidates(
    catalog: &Arc<LakeCatalog>,
    din: &Table,
    exclude_tables: Option<&[String]>,
    path: &PathConfig,
    max_candidates: usize,
) -> Result<(Arc<Vec<Candidate>>, CatalogTableProvider)> {
    let excluded = withheld(din, exclude_tables);
    let candidates = catalog.candidates(din, &excluded, path, max_candidates)?;
    Ok((candidates, provider(catalog, &excluded)))
}

/// A CLI-parsable task kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Random-forest classification on a named target.
    Classification,
    /// Random-forest regression on a named target.
    Regression,
    /// Unsupervised k-means clustering scored by silhouette (no target).
    Clustering,
}

/// A task parsed from a CLI spec: the boxed task, its target column (when
/// the kind is supervised), and the recognized kind (so callers never
/// re-parse the spec string).
pub struct ParsedTask {
    /// The instantiated task.
    pub task: Box<dyn Task>,
    /// Target column name in the input dataset; `None` for unsupervised
    /// kinds (clustering).
    pub target: Option<String>,
    /// Which kind the spec named.
    pub kind: TaskKind,
}

/// Parse a CLI task spec `kind:arg` into a task plus its target column.
///
/// Supported kinds (the tasks runnable on any table, no ground truth
/// needed): `classification:<column>`, `regression:<column>` and
/// `clustering:<k>` (unsupervised, `k ≥ 2` clusters).
pub fn parse_task(spec: &str, seed: u64) -> Result<ParsedTask> {
    let (kind, arg) = spec.split_once(':').ok_or_else(|| {
        LakeError::BadArgument(format!(
            "task spec must be kind:arg (e.g. classification:label or clustering:3), got {spec:?}"
        ))
    })?;
    let arg = arg.trim();
    if arg.is_empty() {
        return Err(LakeError::BadArgument(
            "task spec has an empty argument".into(),
        ));
    }
    let (task, target, kind): (Box<dyn Task>, Option<String>, TaskKind) = match kind.trim() {
        "classification" => (
            Box::new(ClassificationTask::new(arg, seed)),
            Some(arg.into()),
            TaskKind::Classification,
        ),
        "regression" => (
            Box::new(RegressionTask::new(arg, seed)),
            Some(arg.into()),
            TaskKind::Regression,
        ),
        "clustering" => {
            let k: usize = arg.parse().map_err(|_| {
                LakeError::BadArgument(format!(
                    "clustering needs a cluster count (e.g. clustering:3), got {arg:?}"
                ))
            })?;
            if k < 2 {
                return Err(LakeError::BadArgument(format!(
                    "clustering needs at least 2 clusters, got {k}"
                )));
            }
            (
                Box::new(ClusteringFitTask::new(k, seed)),
                None,
                TaskKind::Clustering,
            )
        }
        other => {
            return Err(LakeError::BadArgument(format!(
                "unknown task kind {other:?} (expected classification, regression or clustering)"
            )))
        }
    };
    Ok(ParsedTask { task, target, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_core::prepared::{assemble, AssembleOptions, Repository};
    use metam_profile::default_profiles;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_lake(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metam-prepare-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn catalog_repository_feeds_a_full_assembly() {
        let dir = tmp_lake("ok");
        let din_rows: String = (0..40)
            .map(|i| format!("z{i},{}\n", if i % 2 == 0 { "a" } else { "b" }))
            .collect();
        fs::write(dir.join("din.csv"), format!("zip,label\n{din_rows}")).unwrap();
        let ext_rows: String = (0..40).map(|i| format!("z{i},{}\n", i as f64)).collect();
        fs::write(dir.join("ext.csv"), format!("zipcode,rate\n{ext_rows}")).unwrap();

        let catalog = LakeCatalog::scan(&dir).unwrap();
        let din = catalog.load_table("din").unwrap();
        let parsed = parse_task("classification:label", 3).unwrap();
        let target_column = parsed
            .target
            .as_deref()
            .and_then(|t| din.column_index(t).ok());
        let tables: Vec<Arc<Table>> = catalog
            .repository_names(&[din.name.as_str()])
            .iter()
            .map(|name| Arc::new(catalog.load_table(name).unwrap()))
            .collect();
        assert_eq!(tables.len(), 1, "din itself is withheld");
        let repository = Repository::eager(&din, tables, 100_000);
        let prepared = assemble(
            din,
            repository,
            target_column,
            parsed.task,
            &default_profiles(),
            &AssembleOptions {
                seed: 3,
                ..Default::default()
            },
        );

        assert!(
            !prepared.candidates.is_empty(),
            "ext.rate must be discovered"
        );
        assert_eq!(prepared.candidates.len(), prepared.profiles.len());
        assert_eq!(prepared.profile_names.len(), 5);
        assert_eq!(prepared.target_column, Some(1));
        assert!(prepared.relevance.is_none(), "a real lake has no truth");
        // The din table itself must not appear as a candidate source.
        assert!(prepared.candidates.iter().all(|c| c.source_table != "din"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_exclusion_keeps_same_named_lake_table_in_play() {
        let dir = tmp_lake("external");
        // The lake owns a table also called "din" — different data.
        let rows: String = (0..30).map(|i| format!("z{i},{}\n", i as f64)).collect();
        fs::write(dir.join("din.csv"), format!("zipcode,rate\n{rows}")).unwrap();
        // The *external* input dataset shares the stem but lives elsewhere.
        let ext_dir = tmp_lake("external-home");
        let ext = ext_dir.join("din.csv");
        let din_rows: String = (0..30)
            .map(|i| format!("z{i},{}\n", if i % 2 == 0 { "a" } else { "b" }))
            .collect();
        fs::write(&ext, format!("zip,label\n{din_rows}")).unwrap();

        let catalog = Arc::new(LakeCatalog::scan(&dir).unwrap());
        let din = crate::catalog::read_table_file(&ext).unwrap();
        assert_eq!(din.name, "din", "stems collide by construction");
        let (withheld, _) = repository_descriptors(&catalog, &din, None).unwrap();
        assert!(withheld.is_empty(), "default withholds the name collision");
        let (kept, _) = repository_descriptors(&catalog, &din, Some(&[])).unwrap();
        assert_eq!(kept.len(), 1, "empty exclusion keeps the lake's own din");
        assert_eq!(kept[0].name, "din");
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&ext_dir);
    }

    #[test]
    fn parse_task_accepts_known_kinds() {
        let parsed = parse_task("classification:label", 0).unwrap();
        assert_eq!(parsed.kind, TaskKind::Classification);
        assert_eq!(parsed.target.as_deref(), Some("label"));
        assert!(parse_task("regression: price ", 0).is_ok());
        assert!(matches!(
            parse_task("regression:", 0),
            Err(LakeError::BadArgument(_))
        ));
        assert!(matches!(
            parse_task("classification", 0),
            Err(LakeError::BadArgument(_))
        ));
        assert!(matches!(
            parse_task("frobnicate:x", 0),
            Err(LakeError::BadArgument(_))
        ));
    }

    #[test]
    fn parse_task_accepts_clustering() {
        let parsed = parse_task("clustering:3", 0).unwrap();
        assert_eq!(parsed.kind, TaskKind::Clustering);
        assert_eq!(parsed.target, None, "clustering is unsupervised");
        assert_eq!(parsed.task.name(), "clustering-fit");
        assert!(matches!(
            parse_task("clustering:x", 0),
            Err(LakeError::BadArgument(_))
        ));
        assert!(matches!(
            parse_task("clustering:1", 0),
            Err(LakeError::BadArgument(_))
        ));
    }
}
