//! Pluggable data sources behind the [`Session`](super::Session) builder.
//!
//! A [`DataSource`] resolves "where the data lives" into the uniform
//! [`SourceData`] bundle the session assembles from: the input dataset, the
//! repository tables, and whatever the source can volunteer about the task
//! (a default task implementation, a target column, planted ground truth).
//! Two sources ship in-tree — [`ScenarioSource`] for synthetic scenarios
//! with planted truth and [`LakeSource`] for on-disk CSV lakes — and any
//! third-party backend (a warehouse, a sharded catalog, an HTTP data
//! portal) plugs in by implementing the same trait.
//!
//! A [`LakeSource`] over a directory scans it with one worker per
//! available core, and enumerates candidates under the default join-path
//! limits ([`PathConfig::default`]); only the candidate cap
//! ([`SourceRequest::max_candidates`]) comes from the session.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use metam_core::{Repository, Task};
use metam_datagen::{GroundTruth, Scenario};
use metam_discovery::path::PathConfig;
use metam_discovery::Materializer;
use metam_lake::catalog::read_table_file;
use metam_lake::{LakeCatalog, LakeError};
use metam_table::Table;
use metam_tasks::build_task;

use super::SessionError;

/// What the session asks of a source when preparing.
#[derive(Debug, Clone)]
pub struct SourceRequest {
    /// The session seed (drives source-default task construction).
    pub seed: u64,
    /// The requested input dataset, when the user named one (`.din(...)`).
    /// Sources that own exactly one input (scenarios) may ignore it.
    pub input: Option<String>,
    /// Cap on the candidates a source enumerates into its
    /// [`Repository`], under the default join-path limits
    /// ([`PathConfig::default`]).
    pub max_candidates: usize,
}

/// Everything a data source resolves for one prepare: the input dataset,
/// the repository to search, and optional task/target/truth defaults.
pub struct SourceData {
    /// The input dataset `Din`.
    pub din: Table,
    /// The candidates the source enumerated and a materializer over its
    /// tables: in memory for scenarios, lazy for sketch-backed lakes
    /// (which enumerate once per input and snapshot, and where only
    /// candidate-winning tables ever load).
    pub repository: Repository,
    /// A default downstream task, when the source can build one (synthetic
    /// scenarios carry a task spec; real lakes return `None`).
    pub task: Option<Box<dyn Task>>,
    /// Default target column name in `din`, when known.
    pub target: Option<String>,
    /// Planted relevance, when the source is synthetic.
    pub ground_truth: Option<GroundTruth>,
}

/// A place discovery can run over. Implementations resolve an input
/// dataset plus a repository of joinable tables on demand.
///
/// `Send` so a whole [`Session`](super::Session) can move across threads
/// (the stepping stone toward a long-lived `metam serve` daemon handing
/// sessions to request workers).
pub trait DataSource: Send {
    /// One-line description for errors and logs.
    fn describe(&self) -> String;

    /// Resolve the source into concrete tables for one prepare.
    fn load(&self, request: &SourceRequest) -> Result<SourceData, SessionError>;
}

/// A synthetic [`Scenario`] with planted ground truth.
pub struct ScenarioSource {
    scenario: Scenario,
}

impl ScenarioSource {
    /// Wrap a generated scenario.
    pub fn new(scenario: Scenario) -> ScenarioSource {
        ScenarioSource { scenario }
    }
}

impl DataSource for ScenarioSource {
    fn describe(&self) -> String {
        format!(
            "synthetic scenario ({} repository tables)",
            self.scenario.tables.len()
        )
    }

    fn load(&self, request: &SourceRequest) -> Result<SourceData, SessionError> {
        let din = self.scenario.din.clone();
        let repository =
            Repository::eager(&din, self.scenario.tables.clone(), request.max_candidates);
        Ok(SourceData {
            din,
            repository,
            task: Some(build_task(&self.scenario, request.seed)),
            target: self.scenario.spec.target_name().map(String::from),
            ground_truth: Some(self.scenario.ground_truth.clone()),
        })
    }
}

enum LakeBacking {
    /// Scan the directory at prepare time.
    Path(PathBuf),
    /// An already-scanned catalog (shared, so the lazy table provider
    /// keeps resolving loads through the very same counters).
    Catalog(Arc<LakeCatalog>),
}

/// An on-disk CSV lake, backed by a directory path (scanned at prepare
/// time) or an already-scanned [`LakeCatalog`].
///
/// The requested input (`SourceRequest::input`) is a catalog table name or
/// a path to an external CSV file. Only a catalog-owned input dataset is
/// withheld from the repository (it must not join with itself); an
/// external file leaves every lake table in play, even one that happens to
/// share its name.
pub struct LakeSource {
    backing: LakeBacking,
}

impl LakeSource {
    /// Lake at a directory path; scanned when the session prepares
    /// ([`LakeCatalog::scan`]: changed files profile in parallel, one
    /// worker per available core).
    pub fn from_path(path: impl Into<PathBuf>) -> LakeSource {
        LakeSource {
            backing: LakeBacking::Path(path.into()),
        }
    }

    /// Lake behind an already-scanned catalog.
    pub fn from_catalog(catalog: LakeCatalog) -> LakeSource {
        LakeSource::from_shared(Arc::new(catalog))
    }

    /// Lake behind a catalog shared with other holders (`metam serve`
    /// workers all preparing over one hot catalog). Loads resolve through
    /// the shared catalog's counters and caches; nothing is rescanned.
    pub fn from_shared(catalog: Arc<LakeCatalog>) -> LakeSource {
        LakeSource {
            backing: LakeBacking::Catalog(catalog),
        }
    }
}

impl DataSource for LakeSource {
    fn describe(&self) -> String {
        match &self.backing {
            LakeBacking::Path(p) => format!("CSV lake at {}", p.display()),
            LakeBacking::Catalog(c) => {
                format!("CSV lake at {} ({} tables)", c.root().display(), c.len())
            }
        }
    }

    fn load(&self, request: &SourceRequest) -> Result<SourceData, SessionError> {
        let catalog: Arc<LakeCatalog> = match &self.backing {
            LakeBacking::Path(p) => Arc::new(LakeCatalog::scan(p)?),
            LakeBacking::Catalog(c) => Arc::clone(c),
        };
        let input = request.input.as_deref().ok_or(SessionError::MissingInput)?;
        let (din, from_catalog) = if catalog.get(input).is_some() {
            (catalog.load_table(input)?, true)
        } else if Path::new(input).is_file() {
            (read_table_file(Path::new(input))?, false)
        } else {
            return Err(SessionError::Lake(LakeError::UnknownTable(input.into())));
        };
        let excluded: Vec<String> = if from_catalog {
            vec![din.name.clone()]
        } else {
            vec![]
        };
        // Sketch-backed prepare: candidates come from the snapshot's memo
        // (enumerated from persisted catalog records on a miss), and
        // repository payloads load lazily through the provider only when
        // a candidate materializes.
        let (candidates, provider) = metam_lake::prepare::repository_candidates(
            &catalog,
            &din,
            Some(&excluded),
            &PathConfig::default(),
            request.max_candidates,
        )?;
        Ok(SourceData {
            din,
            repository: Repository {
                candidates,
                materializer: Materializer::lazy(Box::new(provider)),
            },
            task: None,
            target: None,
            ground_truth: None,
        })
    }
}
