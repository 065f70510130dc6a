//! The query engine: utility evaluation with memoization, query
//! accounting, budget enforcement and monotonicity certification.
//!
//! A *query* (the unit of the paper's x-axes) is one evaluation of the task
//! on a distinct augmented dataset; repeated evaluations of the same
//! augmentation set hit the memo and are free.
//!
//! The engine is also the **one telemetry chokepoint** every method shares:
//! each counted query notifies the attached [`RunObserver`] (a
//! [`QueryEvent`]) and — when a `metam-obs` trace sink is installed —
//! emits a JSONL `query` event. Observation is passive (no RNG, no budget,
//! no result impact) and costs one atomic load per query when off.
//!
//! # Plan → execute → merge
//!
//! Evaluation is phrased as explicit [`QueryPlan`]s (kind + candidate +
//! set). A batch ([`QueryEngine::evaluate_batch`]) first *prefetches*:
//! uncached plans run their task fit + materialization concurrently over
//! the shared worker pool (`metam-pool`) into a side cache — workers touch
//! no RNG, no budget, no observer. A single-threaded *merge* then commits
//! results **in plan order**, so query accounting, memoization, the budget
//! cutoff, [`TracePoint`]s, [`QueryEvent`]s and the JSONL trace are
//! byte-identical to sequential execution ([`SearchInputs::threads`]` = 1`
//! skips the pool entirely).

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use metam_discovery::{Candidate, CandidateId, Materializer};
use metam_table::Table;

use crate::metam::StopReason;
use crate::observer::{QueryEvent, QueryKind, RoundEvent, RunObserver};
use crate::runner::RunResult;
use crate::task::Task;
use crate::trace::TracePoint;

/// Everything a search method needs to run.
pub struct SearchInputs<'a> {
    /// The input dataset.
    pub din: &'a Table,
    /// Index of the task's target attribute in `din`, when the task is
    /// supervised. Metam itself never reads it (the task is a black box);
    /// the task-aware iARDA baseline does.
    pub target_column: Option<usize>,
    /// Candidate augmentations (ids must equal their position).
    pub candidates: &'a [Candidate],
    /// Profile vectors aligned with `candidates`.
    pub profiles: &'a [Vec<f64>],
    /// Profile names (coordinate order).
    pub profile_names: &'a [String],
    /// Materializer over the repository the candidates came from.
    pub materializer: &'a Materializer,
    /// The downstream task.
    pub task: &'a dyn Task,
    /// Worker threads for batched query execution. `1` (the conventional
    /// default) evaluates inline with no thread machinery; any value
    /// never changes results — only wall-clock.
    pub threads: usize,
}

/// One planned query: the mechanism issuing it, the candidate that
/// motivated it (for telemetry), and the augmentation set to evaluate.
///
/// Kind and candidate ride on the plan — not on engine-global mutable
/// state — so a batch that is partially memo-served still labels every
/// [`QueryEvent`] with the mechanism that actually planned it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// The mechanism issuing the query (pure telemetry).
    pub kind: QueryKind,
    /// The candidate whose evaluation this query is, when it is one
    /// (pure telemetry; `None` for whole-set queries).
    pub candidate: Option<CandidateId>,
    /// The augmentation set to evaluate.
    pub set: BTreeSet<CandidateId>,
}

impl QueryPlan {
    /// A whole-set query (no single motivating candidate).
    pub fn new(kind: QueryKind, set: BTreeSet<CandidateId>) -> QueryPlan {
        QueryPlan {
            kind,
            candidate: None,
            set,
        }
    }

    /// The singleton extension `base ∪ {add}`, tagged with `add`.
    pub fn extend(kind: QueryKind, base: &BTreeSet<CandidateId>, add: CandidateId) -> QueryPlan {
        let mut set = base.clone();
        set.insert(add);
        QueryPlan {
            kind,
            candidate: Some(add),
            set,
        }
    }
}

/// Raised when the query budget is exhausted; searches unwind and report
/// their best-so-far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopSearch;

/// Budget left after `spent` queries — the one unbounded-aware computation
/// every surface (engine, results, reports) shares. A `usize::MAX` budget
/// stays `usize::MAX` (unbounded), never a huge finite number.
pub fn remaining_budget(budget: usize, spent: usize) -> usize {
    if budget == usize::MAX {
        usize::MAX
    } else {
        budget.saturating_sub(spent)
    }
}

/// Memoizing, counting wrapper around the task (plus the monotonicity
/// certification component of Fig. 2).
pub struct QueryEngine<'a> {
    inputs: &'a SearchInputs<'a>,
    cache: HashMap<BTreeSet<CandidateId>, f64>,
    queries: usize,
    budget: usize,
    trace: Vec<TracePoint>,
    best_utility: f64,
    best_set: BTreeSet<CandidateId>,
    certification_ignored: usize,
    cache_hits: usize,
    observer: Option<&'a mut dyn RunObserver>,
    /// Speculatively executed, not-yet-committed results: set →
    /// `(utility, duration_secs)`. Entries are pure functions of the set
    /// (tasks are deterministic), so a stale entry can never be wrong —
    /// mis-speculation only wastes worker wall-clock.
    warm: HashMap<BTreeSet<CandidateId>, (f64, f64)>,
}

impl<'a> QueryEngine<'a> {
    /// New engine with a query budget (`usize::MAX` for unbounded).
    pub fn new(inputs: &'a SearchInputs<'a>, budget: usize) -> QueryEngine<'a> {
        QueryEngine {
            inputs,
            cache: HashMap::new(),
            queries: 0,
            budget,
            trace: Vec::new(),
            best_utility: 0.0,
            best_set: BTreeSet::new(),
            certification_ignored: 0,
            cache_hits: 0,
            observer: None,
            warm: HashMap::new(),
        }
    }

    /// [`new`](Self::new) with a streaming observer attached: every
    /// counted query (from any method) raises
    /// [`RunObserver::on_query`]; round/start/finish notifications route
    /// through [`notify_round`](Self::notify_round) and friends.
    pub fn observed(
        inputs: &'a SearchInputs<'a>,
        budget: usize,
        observer: &'a mut dyn RunObserver,
    ) -> QueryEngine<'a> {
        let mut engine = QueryEngine::new(inputs, budget);
        engine.observer = Some(observer);
        engine
    }

    /// Queries issued so far.
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// Memoized evaluations served for free so far.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Worker threads available for batched execution (≥ 1).
    pub fn threads(&self) -> usize {
        self.inputs.threads.max(1)
    }

    /// `true` when per-query telemetry is live (an observer is attached or
    /// a trace sink is installed) — the guard for timing overhead.
    fn observing(&self) -> bool {
        self.observer.is_some() || metam_obs::enabled()
    }

    /// Forward "search is starting" to the observer and the trace sink.
    pub fn notify_search_start(&mut self, n_candidates: usize, n_clusters: usize) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_search_start(n_candidates, n_clusters);
        }
        if metam_obs::enabled() {
            metam_obs::Event::event("search_start", "search")
                .int("candidates", n_candidates)
                .int("clusters", n_clusters)
                .int("budget", self.budget)
                .emit();
        }
    }

    /// Forward a finished round to the observer and the trace sink.
    pub fn notify_round(&mut self, event: &RoundEvent<'_>) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_round(event);
        }
        if metam_obs::enabled() {
            metam_obs::Event::event("round", "round")
                .int("round", event.round)
                .int("queries", event.queries)
                .int("queries_remaining", event.queries_remaining)
                .num("best_utility", event.best_utility)
                .num("base_utility", event.base_utility)
                .ints("selected", event.selected)
                .emit();
        }
    }

    /// End the search: forward the stop reason to the observer and the
    /// trace sink, flush this run's engine counters into the metrics
    /// registry, and package the outcome as a [`RunResult`] (the
    /// Metam-only fields left `None`).
    pub fn finish(
        mut self,
        method: &str,
        selected: BTreeSet<CandidateId>,
        utility: f64,
        base_utility: f64,
        stop_reason: StopReason,
    ) -> RunResult {
        metam_obs::counter_add("engine.queries", self.queries as u64);
        metam_obs::counter_add("engine.cache_hits", self.cache_hits as u64);
        metam_obs::counter_add(
            "engine.certification_ignored",
            self.certification_ignored as u64,
        );
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_finish(stop_reason);
        }
        if metam_obs::enabled() {
            metam_obs::Event::event("finish", stop_reason.label())
                .int("queries", self.queries)
                .int("queries_remaining", self.remaining())
                .num("best_utility", self.best_utility)
                .emit();
        }
        RunResult {
            method: method.to_string(),
            selected: selected.into_iter().collect(),
            utility,
            base_utility,
            queries: self.queries,
            budget: self.budget,
            trace: self.trace,
            stop_reason,
            n_clusters: None,
            certification_ignored: None,
        }
    }

    /// Remaining budget (`usize::MAX` for an unbounded search).
    pub fn remaining(&self) -> usize {
        remaining_budget(self.budget, self.queries)
    }

    /// Number of augmentations the certification component ignored.
    pub fn certification_ignored(&self) -> usize {
        self.certification_ignored
    }

    /// The recorded best-utility trace.
    pub fn trace(&self) -> &[TracePoint] {
        &self.trace
    }

    /// Best set seen so far and its utility.
    pub fn best(&self) -> (&BTreeSet<CandidateId>, f64) {
        (&self.best_set, self.best_utility)
    }

    /// Materialize `Din` augmented with the given candidate set (sorted id
    /// order, so the table is unique per set).
    pub fn augmented_table(&self, set: &BTreeSet<CandidateId>) -> Table {
        Self::augmented_table_of(self.inputs, set)
    }

    /// [`augmented_table`](Self::augmented_table) as a free function of
    /// the inputs, callable from pool workers.
    fn augmented_table_of(inputs: &SearchInputs<'_>, set: &BTreeSet<CandidateId>) -> Table {
        let mut table = inputs.din.clone();
        for &id in set {
            let cand = &inputs.candidates[id];
            if let Ok(col) = inputs.materializer.materialize(inputs.din, cand) {
                // Column names are unique per candidate; errors (noisy
                // candidates) contribute nothing.
                let _ = table.add_column((*col).clone());
            }
        }
        table
    }

    /// The *execute* stage, pure per-set work safe to run on a worker:
    /// materialize the augmented table and fit the task. No RNG, no
    /// budget, no observer — returns `(utility, duration_secs)`.
    fn execute_raw(
        inputs: &SearchInputs<'_>,
        set: &BTreeSet<CandidateId>,
        timed: bool,
    ) -> (f64, f64) {
        let started = timed.then(Instant::now);
        let table = Self::augmented_table_of(inputs, set);
        let u = inputs.task.utility(&table).clamp(0.0, 1.0);
        (u, started.map_or(0.0, |t| t.elapsed().as_secs_f64()))
    }

    /// Speculatively execute any plans not already memoized, fanning the
    /// task fits out over the worker pool into the warm side cache. A
    /// no-op with one worker (the sequential path evaluates inline).
    ///
    /// Prefetching never commits anything: queries, budget, trace and
    /// events advance only in [`evaluate`](Self::evaluate), so a wrong
    /// speculation costs wall-clock, never correctness.
    pub fn prefetch(&mut self, plans: &[QueryPlan]) {
        let threads = self.threads();
        if threads <= 1 {
            return;
        }
        let mut sets: Vec<&BTreeSet<CandidateId>> = Vec::new();
        for plan in plans {
            if self.cache.contains_key(&plan.set)
                || self.warm.contains_key(&plan.set)
                || sets.iter().any(|s| **s == plan.set)
            {
                continue;
            }
            sets.push(&plan.set);
        }
        // Plans past the budget cutoff can never commit; don't execute them.
        let remaining = self.remaining();
        if sets.len() > remaining {
            sets.truncate(remaining);
        }
        if sets.is_empty() {
            return;
        }
        let inputs = self.inputs;
        let timed = self.observing();
        let results = metam_pool::map(&sets, threads, |set| Self::execute_raw(inputs, set, timed));
        for (set, result) in sets.into_iter().zip(results) {
            self.warm.insert(set.clone(), result);
        }
    }

    /// The *merge* stage: commit one plan's result — memo lookup, budget
    /// cutoff, query accounting, trace and telemetry — on the calling
    /// thread. Consumes a warm prefetched result when one exists,
    /// otherwise evaluates inline; either way the committed state is
    /// identical to a fully sequential run.
    pub fn evaluate(&mut self, plan: &QueryPlan) -> Result<f64, StopSearch> {
        if let Some(&u) = self.cache.get(&plan.set) {
            self.cache_hits += 1;
            return Ok(u);
        }
        if self.queries >= self.budget {
            return Err(StopSearch);
        }
        let observing = self.observing();
        let (u, duration_secs) = match self.warm.remove(&plan.set) {
            Some(executed) => executed,
            None => Self::execute_raw(self.inputs, &plan.set, observing),
        };
        self.queries += 1;
        self.cache.insert(plan.set.clone(), u);
        let first = self.trace.is_empty();
        let prev_best = self.best_utility;
        if first || u > self.best_utility {
            self.best_utility = if first { u } else { self.best_utility.max(u) };
            self.best_set = plan.set.clone();
        }
        self.trace.push(TracePoint {
            queries: self.queries,
            utility: self.best_utility,
        });
        if observing {
            let set_vec: Vec<CandidateId> = plan.set.iter().copied().collect();
            let event = QueryEvent {
                query: self.queries,
                kind: plan.kind,
                set: &set_vec,
                candidate: plan.candidate,
                utility: u,
                best_utility: self.best_utility,
                delta: if first { 0.0 } else { u - prev_best },
                duration_secs,
                queries_remaining: remaining_budget(self.budget, self.queries),
            };
            metam_obs::record("engine.query_secs", duration_secs);
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_query(&event);
            }
            if metam_obs::enabled() {
                let mut line = metam_obs::Event::event("query", event.kind.label())
                    .int("query", event.query)
                    .ints("set", &set_vec)
                    .num("utility", event.utility)
                    .num("best_utility", event.best_utility)
                    .num("delta", event.delta)
                    .num("secs", event.duration_secs)
                    .int("queries_remaining", event.queries_remaining);
                if let Some(c) = event.candidate {
                    line = line.int("candidate", c);
                }
                line.emit();
            }
        }
        Ok(u)
    }

    /// Evaluate an ordered batch: prefetch all uncached plans over the
    /// pool, then merge in plan order. Merging halts at the first budget
    /// exhaustion — the remaining slots report `Err(StopSearch)` with no
    /// state (not even a cache-hit counter) advanced past the cutoff,
    /// exactly as a sequential `?`-chain would leave the engine.
    pub fn evaluate_batch(&mut self, plans: &[QueryPlan]) -> Vec<Result<f64, StopSearch>> {
        self.prefetch(plans);
        let mut out = Vec::with_capacity(plans.len());
        let mut stopped = false;
        for plan in plans {
            if stopped {
                out.push(Err(StopSearch));
                continue;
            }
            let result = self.evaluate(plan);
            stopped = result.is_err();
            out.push(result);
        }
        out
    }

    /// Utility of `Din ⊕ set` as a plain sequential-kind query. Counts one
    /// query on a cache miss; returns `Err(StopSearch)` when the budget is
    /// exhausted *before* evaluating.
    pub fn utility_of(&mut self, set: &BTreeSet<CandidateId>) -> Result<f64, StopSearch> {
        self.evaluate(&QueryPlan::new(QueryKind::Sequential, set.clone()))
    }

    /// Utility of the singleton extension `base ∪ {add}`, with the
    /// monotonicity-certification wrapper (P3) applied when `certify`:
    /// the reported utility never drops below `u(base)` — a worsening
    /// augmentation is *ignored* (the paper's wrapper) and flagged.
    ///
    /// Returns `(effective_utility, raw_utility, ignored)`.
    pub fn utility_extend(
        &mut self,
        base: &BTreeSet<CandidateId>,
        add: CandidateId,
        certify: bool,
    ) -> Result<(f64, f64, bool), StopSearch> {
        let raw = self.evaluate(&QueryPlan::extend(QueryKind::Sequential, base, add))?;
        if !certify {
            return Ok((raw, raw, false));
        }
        let base_u = self.evaluate(&QueryPlan::new(QueryKind::Sequential, base.clone()))?;
        if raw < base_u {
            self.certification_ignored += 1;
            Ok((base_u, raw, true))
        } else {
            Ok((raw, raw, false))
        }
    }

    /// Convenience: utility of the un-augmented `Din` (a base-kind query).
    pub fn base_utility(&mut self) -> Result<f64, StopSearch> {
        self.evaluate(&QueryPlan::new(QueryKind::Base, BTreeSet::new()))
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! A tiny shared fixture: `Din` with a numeric target, a repository of
    //! joinable single-column tables, and candidates/profiles over them.

    use std::sync::Arc;

    use metam_discovery::path::PathConfig;
    use metam_discovery::{generate_candidates, Candidate, DiscoveryIndex, Materializer};
    use metam_table::{Column, Table};

    /// Build a fixture with `n_ext` external joinable columns.
    pub fn fixture(n_ext: usize) -> (Table, Vec<Candidate>, Materializer) {
        let n = 40;
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
        let mut tables = Vec::new();
        for t in 0..n_ext {
            let table = Table::from_columns(
                format!("ext{t}"),
                vec![
                    Column::from_strings(
                        Some("zipcode".into()),
                        (0..n).map(|i| Some(format!("z{i}"))).collect(),
                    ),
                    Column::from_floats(
                        Some(format!("v{t}")),
                        (0..n).map(|i| Some((i * (t + 1)) as f64)).collect(),
                    ),
                ],
            )
            .unwrap();
            tables.push(Arc::new(table));
        }
        let index = DiscoveryIndex::build(tables.clone());
        let candidates = generate_candidates(&din, &index, &PathConfig::default(), 10_000);
        (din, candidates, Materializer::new(tables))
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::fixture;
    use super::*;
    use crate::task::LinearSyntheticTask;

    fn names() -> Vec<String> {
        vec!["p".into()]
    }

    #[test]
    fn cache_hits_are_free() {
        let (din, candidates, mat) = fixture(3);
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.1; candidates.len()],
        };
        let profiles = vec![vec![0.5]; candidates.len()];
        let pnames = names();
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &pnames,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let mut engine = QueryEngine::new(&inputs, 100);
        let set: BTreeSet<usize> = [0].into();
        let u1 = engine.utility_of(&set).unwrap();
        let q = engine.queries();
        let u2 = engine.utility_of(&set).unwrap();
        assert_eq!(u1, u2);
        assert_eq!(engine.queries(), q, "cache hit must not count");
    }

    #[test]
    fn budget_stops_search() {
        let (din, candidates, mat) = fixture(3);
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.1; candidates.len()],
        };
        let profiles = vec![vec![0.5]; candidates.len()];
        let pnames = names();
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &pnames,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let mut engine = QueryEngine::new(&inputs, 2);
        assert!(engine.utility_of(&[0].into()).is_ok());
        assert!(engine.utility_of(&[1].into()).is_ok());
        assert_eq!(engine.utility_of(&[2].into()), Err(StopSearch));
        assert_eq!(engine.queries(), 2);
    }

    #[test]
    fn certification_ignores_worsening() {
        let (din, candidates, mat) = fixture(2);
        // Candidate 0 helps, candidate 1 hurts.
        let mut deltas = vec![0.0; candidates.len()];
        deltas[0] = 0.2;
        deltas[1] = -0.3;
        let task = crate::task::NonMonotoneTask { base: 0.5, deltas };
        let profiles = vec![vec![0.5]; candidates.len()];
        let pnames = names();
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &pnames,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let mut engine = QueryEngine::new(&inputs, 100);
        let base: BTreeSet<usize> = BTreeSet::new();
        let (eff, raw, ignored) = engine.utility_extend(&base, 1, true).unwrap();
        assert!(ignored);
        assert!(raw < 0.5);
        assert_eq!(eff, 0.5, "wrapper reports the base utility");
        let (eff0, _, ignored0) = engine.utility_extend(&base, 0, true).unwrap();
        assert!(!ignored0);
        assert!((eff0 - 0.7).abs() < 1e-9);
        assert_eq!(engine.certification_ignored(), 1);
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let (din, candidates, mat) = fixture(4);
        let mut weights = vec![0.0; candidates.len()];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = (i % 3) as f64 * 0.1;
        }
        let task = LinearSyntheticTask { base: 0.1, weights };
        let profiles = vec![vec![0.5]; candidates.len()];
        let pnames = names();
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &pnames,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let mut engine = QueryEngine::new(&inputs, 100);
        for i in 0..candidates.len().min(6) {
            let _ = engine.utility_of(&[i].into());
        }
        let trace = engine.trace();
        assert!(trace
            .windows(2)
            .all(|w| w[0].utility <= w[1].utility + 1e-12));
        assert!(trace.windows(2).all(|w| w[0].queries < w[1].queries));
    }

    #[test]
    fn augmented_table_grows_by_set_size() {
        let (din, candidates, mat) = fixture(3);
        let task = LinearSyntheticTask {
            base: 0.0,
            weights: vec![0.0; candidates.len()],
        };
        let profiles = vec![vec![0.5]; candidates.len()];
        let pnames = names();
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &pnames,
            materializer: &mat,
            task: &task,
            threads: 1,
        };
        let engine = QueryEngine::new(&inputs, 10);
        let t = engine.augmented_table(&[0, 1].into());
        assert_eq!(t.ncols(), din.ncols() + 2);
        assert_eq!(t.nrows(), din.nrows());
    }
}
