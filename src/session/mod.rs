//! The single front door for goal-oriented discovery.
//!
//! A [`Session`] is a builder over the whole pipeline — candidates →
//! profiles → clustered group queries → task utility — regardless of where
//! the data lives. Point it at a synthetic [`Scenario`]
//! ([`Session::from_scenario`]), at a directory of CSV files
//! ([`Session::from_lake`]), at a pre-scanned catalog
//! ([`Session::from_catalog`]), or at any custom [`DataSource`]; chain
//! configuration; then either [`prepare`](Session::prepare) into the
//! unified [`Prepared`] bundle or [`run`](Session::run) a method end to end
//! into a [`RunReport`]:
//!
//! ```
//! use metam::session::Session;
//! use metam::{Method, MetamConfig};
//!
//! let scenario = metam::datagen::repo::price_classification(7);
//! let report = Session::from_scenario(scenario)
//!     .seed(7)
//!     .theta(0.75)
//!     .budget(300)
//!     .run(Method::Metam(MetamConfig::default()))
//!     .expect("scenario sessions are infallible");
//! assert!(report.utility >= report.base_utility);
//! assert!(report.queries <= 300);
//! ```
//!
//! Fallible configuration (a lake without a task, an unknown target
//! column, a zero budget) surfaces as a typed [`SessionError`] instead of
//! a panic. Attach a [`RunObserver`] with
//! [`observer`](Session::observer) to stream per-query and per-round
//! progress while the search is in flight — every method (Metam and all
//! baselines) raises [`QueryEvent`]s through the shared query engine.

mod error;
mod report;
mod source;

pub use error::SessionError;
pub use metam_core::observer::{NoopObserver, QueryEvent, QueryKind, RoundEvent, RunObserver};
pub use metam_core::prepared::Prepared;
pub use report::RunReport;
pub use source::{DataSource, LakeSource, ScenarioSource, SourceData, SourceRequest};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use metam_core::prepared::{assemble, AssembleOptions};
use metam_core::{run_method, MetamConfig, Method, Task};
use metam_datagen::Scenario;
use metam_discovery::path::PathConfig;
use metam_lake::{parse_task, LakeCatalog, LakeError};
use metam_profile::{default_profiles, ProfileSet};

/// Builder-style configuration of one discovery run. See the
/// [module docs](self) for the workflow.
pub struct Session {
    source: Box<dyn DataSource>,
    input: Option<String>,
    task: Option<Box<dyn Task>>,
    task_spec: Option<String>,
    target: Option<String>,
    profile_set: ProfileSet,
    theta: Option<f64>,
    budget: usize,
    seed: u64,
    path: PathConfig,
    max_candidates: usize,
    profile_sample: usize,
    threads: usize,
    observer: Option<Box<dyn RunObserver + Send>>,
}

impl Session {
    /// Session over any pluggable [`DataSource`].
    pub fn from_source(source: Box<dyn DataSource>) -> Session {
        Session {
            source,
            input: None,
            task: None,
            task_spec: None,
            target: None,
            profile_set: default_profiles(),
            theta: None,
            budget: usize::MAX,
            seed: 0,
            path: PathConfig::default(),
            max_candidates: 100_000,
            profile_sample: 100,
            threads: 1,
            observer: None,
        }
    }

    /// Session over a synthetic scenario with planted ground truth. The
    /// scenario's task spec becomes the default task and target.
    pub fn from_scenario(scenario: Scenario) -> Session {
        Session::from_source(Box::new(ScenarioSource::new(scenario)))
    }

    /// Session over a directory of CSV files, scanned at prepare time.
    /// Requires [`din`](Self::din) (the input dataset) and a task.
    pub fn from_lake(path: impl Into<PathBuf>) -> Session {
        Session::from_source(Box::new(LakeSource::from_path(path)))
    }

    /// Session over an already-scanned [`LakeCatalog`]. Requires
    /// [`din`](Self::din) (the input dataset) and a task.
    pub fn from_catalog(catalog: LakeCatalog) -> Session {
        Session::from_source(Box::new(LakeSource::from_catalog(catalog)))
    }

    /// Session over a catalog shared with other holders — the `metam
    /// serve` worker path, where many concurrent sessions prepare over
    /// one hot catalog (legal because the whole data plane is `Send`).
    /// Requires [`din`](Self::din) (the input dataset) and a task.
    pub fn from_shared_catalog(catalog: Arc<LakeCatalog>) -> Session {
        Session::from_source(Box::new(LakeSource::from_shared(catalog)))
    }

    /// Name the input dataset: a catalog table name or a path to an
    /// external CSV file (lake sources; scenarios carry their own `Din`).
    pub fn din(mut self, name_or_path: impl Into<String>) -> Session {
        self.input = Some(name_or_path.into());
        self
    }

    /// Use this downstream task (overrides any task spec or source
    /// default). Metam only needs `u: Table → [0, 1]`.
    pub fn task(mut self, task: impl Task + 'static) -> Session {
        self.task = Some(Box::new(task));
        self
    }

    /// Use an already-boxed downstream task.
    pub fn boxed_task(mut self, task: Box<dyn Task>) -> Session {
        self.task = Some(task);
        self
    }

    /// Parse the task from a CLI-style spec (`classification:<column>`,
    /// `regression:<column>`, `clustering:<k>`) at prepare time. The
    /// spec's target column becomes the default target.
    pub fn task_spec(mut self, spec: impl Into<String>) -> Session {
        self.task_spec = Some(spec.into());
        self
    }

    /// Name the task's target column in the input dataset (drives the
    /// target-aware profiles and the iARDA baseline). Overrides the task
    /// spec's target and the source default.
    pub fn target(mut self, column: impl Into<String>) -> Session {
        self.target = Some(column.into());
        self
    }

    /// Evaluate this profile set instead of the paper's default five.
    pub fn profiles(mut self, profile_set: ProfileSet) -> Session {
        self.profile_set = profile_set;
        self
    }

    /// Target utility θ; the search stops once it is reached.
    pub fn theta(mut self, theta: f64) -> Session {
        self.theta = Some(theta);
        self
    }

    /// Query budget (default: unbounded). A budget of 0 is rejected with
    /// [`SessionError::InvalidBudget`] at prepare/run time.
    pub fn budget(mut self, max_queries: usize) -> Session {
        self.budget = max_queries;
        self
    }

    /// Seed for the whole run: profile sampling, the default task's
    /// internals, and the search itself. [`run`](Session::run) replaces
    /// any seed embedded in the [`Method`] value with this one, so one
    /// knob reproduces the entire trajectory.
    pub fn seed(mut self, seed: u64) -> Session {
        self.seed = seed;
        self
    }

    /// Join-path enumeration limits.
    pub fn path_config(mut self, path: PathConfig) -> Session {
        self.path = path;
        self
    }

    /// Cap on generated candidates (default 100 000).
    pub fn max_candidates(mut self, cap: usize) -> Session {
        self.max_candidates = cap;
        self
    }

    /// Rows sampled for profile estimation (default 100, the paper's
    /// setting).
    pub fn profile_sample(mut self, rows: usize) -> Session {
        self.profile_sample = rows;
        self
    }

    /// Worker threads for batched query execution during the search
    /// (default 1 = fully sequential). The thread count **never changes
    /// results** — uncached task fits execute speculatively over the
    /// shared worker pool and merge in plan order, so the report, trace
    /// and event stream are byte-identical to a sequential run.
    pub fn threads(mut self, threads: usize) -> Session {
        self.threads = threads.max(1);
        self
    }

    /// Stream per-query and per-round progress to this observer during
    /// [`run`](Session::run). Observation is passive: the result is
    /// identical to an unobserved run. (`Send` so a whole `Session` can
    /// move across threads, e.g. into a request-serving worker.)
    pub fn observer(mut self, observer: impl RunObserver + Send + 'static) -> Session {
        self.observer = Some(Box::new(observer));
        self
    }

    fn validate(&self) -> Result<(), SessionError> {
        if self.budget == 0 {
            return Err(SessionError::InvalidBudget);
        }
        Ok(())
    }

    /// Assemble everything needed to search: resolve the source, the task
    /// and the target, enumerate candidates, evaluate profiles. Returns
    /// the unified [`Prepared`] bundle; run any method over
    /// [`Prepared::inputs`] (or use [`run`](Session::run) to do both in
    /// one step).
    pub fn prepare(self) -> Result<Prepared, SessionError> {
        self.validate()?;
        let Session {
            source,
            input,
            task,
            task_spec,
            target,
            profile_set,
            seed,
            path,
            max_candidates,
            profile_sample,
            threads,
            ..
        } = self;

        let mut data = source.load(&SourceRequest { seed, input })?;

        let (spec_task, spec_target) = match task_spec.as_deref() {
            Some(spec) => {
                let parsed = parse_task(spec, seed).map_err(|e| match e {
                    LakeError::BadArgument(msg) => SessionError::BadTaskSpec(msg),
                    other => SessionError::Lake(other),
                })?;
                (Some(parsed.task), parsed.target)
            }
            None => (None, None),
        };
        let task = task
            .or(spec_task)
            .or(data.task)
            .ok_or(SessionError::MissingTask)?;

        // A target the user named (explicitly or through a task spec) must
        // exist; a source-volunteered default that doesn't resolve degrades
        // to unsupervised, as scenario preparation always has.
        let (target, user_named) = match target.or(spec_target) {
            Some(t) => (Some(t), true),
            None => (data.target.take(), false),
        };
        let target_column = match target.as_deref() {
            Some(t) => match data.din.column_index(t) {
                Ok(i) => Some(i),
                Err(_) if !user_named => None,
                Err(_) => {
                    return Err(SessionError::TargetNotFound {
                        target: t.to_string(),
                        din: data.din.name.clone(),
                    })
                }
            },
            None => None,
        };

        let mut prepared = assemble(
            data.din,
            data.repository,
            target_column,
            task,
            &profile_set,
            &AssembleOptions {
                path,
                max_candidates,
                profile_sample,
                seed,
            },
        );
        prepared.threads = threads;
        if let Some(gt) = &data.ground_truth {
            prepared.relevance = Some(
                prepared
                    .candidates
                    .iter()
                    .map(|c| gt.relevance(&c.source_table, &c.column_name))
                    .collect(),
            );
        }
        Ok(prepared)
    }

    /// Prepare, then run `method` under this session's θ, budget and seed,
    /// streaming queries (every method) and rounds (Metam — baselines have
    /// no round structure) to the configured observer. The session seed
    /// replaces any seed embedded in the `method` value, so every method
    /// draws from the same reproducible stream. Returns the bundled
    /// [`RunReport`].
    pub fn run(mut self, method: Method) -> Result<RunReport, SessionError> {
        self.validate()?;
        let theta = self.theta;
        let budget = self.budget;
        let seed = self.seed;
        let mut observer = self.observer.take();

        let prepare_start = Instant::now();
        let prepared = {
            let _span = metam_obs::span("session.prepare", method.name());
            self.prepare()?
        };
        let prepare_secs = prepare_start.elapsed().as_secs_f64();

        let search_start = Instant::now();
        let search_span = metam_obs::span("session.search", method.name());
        let mut noop = NoopObserver;
        let obs: &mut dyn RunObserver = match observer.as_deref_mut() {
            Some(o) => o,
            None => &mut noop,
        };
        let method = match method {
            Method::Metam(config) => Method::Metam(MetamConfig { seed, ..config }),
            Method::Uniform { .. } => Method::Uniform { seed },
            Method::Mw { .. } => Method::Mw { seed },
            Method::IArda { classification, .. } => Method::IArda {
                classification,
                seed,
            },
            m @ (Method::Overlap | Method::JoinAll) => m,
        };
        let result = run_method(&method, &prepared.inputs(), theta, budget, obs);
        drop(search_span);
        let search_secs = search_start.elapsed().as_secs_f64();

        let selected_names = result
            .selected
            .iter()
            .map(|&id| prepared.candidates[id].name.clone())
            .collect();
        Ok(RunReport {
            method: result.method,
            din_name: prepared.din.name.clone(),
            din_rows: prepared.din.nrows(),
            din_cols: prepared.din.ncols(),
            n_candidates: prepared.candidates.len(),
            selected: result.selected,
            selected_names,
            utility: result.utility,
            base_utility: result.base_utility,
            queries: result.queries,
            budget: result.budget,
            stop_reason: Some(result.stop_reason),
            n_clusters: result.n_clusters,
            certification_ignored: result.certification_ignored,
            trace: result.trace,
            threads: prepared.threads,
            prepare_secs,
            search_secs,
            metrics: {
                let snap = metam_obs::metrics_snapshot();
                (!snap.is_empty()).then_some(snap)
            },
        })
    }
}
