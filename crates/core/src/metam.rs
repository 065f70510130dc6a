//! Algorithm 1: the Metam adaptive querying strategy.
//!
//! The search alternates two complementary mechanisms per inner iteration:
//!
//! * **sequential** (blue in the paper): pick the highest-quality-score
//!   candidate from a not-yet-touched cluster, query `u(Γ(D, {P}))`,
//!   update quality scores and the cluster bandit;
//! * **group** (red): Thompson-sample a size-`t` cluster subset, query it
//!   on `Din`, and keep the best group solution `T*_c`.
//!
//! After `τ` queries (once something improved), the best candidate of the
//! round joins `T*` and `D` grows. The search stops at `θ`, on budget
//! exhaustion, or when neither mechanism can improve; the winner of
//! `T*` vs `T*_c` then passes the minimality check.

use std::collections::BTreeSet;
use std::fmt;

use metam_discovery::CandidateId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bandit::ThompsonSampler;
use crate::cluster::{cluster_partition, Clustering};
use crate::engine::{QueryEngine, QueryPlan, SearchInputs, StopSearch};
use crate::group::GroupState;
use crate::minimal::identify_minimal;
use crate::observer::{QueryKind, RoundEvent, RunObserver};
use crate::quality::QualityModel;
use crate::runner::RunResult;

/// Why the search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The target utility θ was reached.
    ThetaReached,
    /// The query budget ran out.
    BudgetExhausted,
    /// Neither mechanism could improve any further.
    Exhausted,
    /// The round safety limit was hit.
    MaxRounds,
}

impl StopReason {
    /// Stable machine-readable label (trace events, metrics names).
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::ThetaReached => "theta_reached",
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::Exhausted => "exhausted",
            StopReason::MaxRounds => "max_rounds",
        }
    }
}

impl fmt::Display for StopReason {
    /// The one human-readable rendering every surface (CLI, reports,
    /// benches) shares.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::ThetaReached => "theta reached (target utility met)",
            StopReason::BudgetExhausted => "budget exhausted (query limit hit)",
            StopReason::Exhausted => "exhausted (no candidate improves further)",
            StopReason::MaxRounds => "max rounds (safety bound hit)",
        })
    }
}

/// Per-size cap of the group mechanism before `t` escalates.
pub const GROUP_CAP: usize = 25;

/// Safety bound on outer rounds ([`StopReason::MaxRounds`]).
pub const MAX_ROUNDS: usize = 1000;

/// Configuration of Algorithm 1. Defaults mirror §VI "Settings":
/// ε = 0.05, τ = |C|, clustering + Thompson sampling on.
///
/// Weight learning and P3 certification are always on; the group
/// mechanism's per-size cap is [`GROUP_CAP`] and the outer-round safety
/// bound is [`MAX_ROUNDS`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetamConfig {
    /// Cluster radius ε.
    pub epsilon: f64,
    /// Queries per round before committing (`None` → |C|; `Some(1)` is the
    /// relaxed "any solution size" mode of §VI-A.2).
    pub tau: Option<usize>,
    /// Target utility θ (`None` → run to budget/exhaustion).
    pub theta: Option<f64>,
    /// Query budget.
    pub max_queries: usize,
    /// RNG seed (drives the first cluster center, Thompson draws, group
    /// member picks and homogeneity sampling).
    pub seed: u64,
    /// `false` = the `Nc` ablation variant (every candidate its own
    /// cluster).
    pub use_clustering: bool,
    /// `false` = the `Eq` ablation variant (clusters equally likely:
    /// the bandit posterior is never updated).
    pub use_thompson: bool,
    /// Run the log|C|-sample homogeneity test before searching (§IV-B
    /// "Generalization").
    pub check_homogeneity: bool,
    /// Run IDENTIFY-MINIMAL on the final solution.
    pub minimality: bool,
}

impl Default for MetamConfig {
    fn default() -> Self {
        MetamConfig {
            epsilon: 0.05,
            tau: None,
            theta: None,
            max_queries: usize::MAX,
            seed: 0,
            use_clustering: true,
            use_thompson: true,
            check_homogeneity: false,
            minimality: true,
        }
    }
}

/// The Metam search (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct Metam {
    /// Knobs.
    pub config: MetamConfig,
}

impl Metam {
    /// New search with the given configuration.
    pub fn new(config: MetamConfig) -> Metam {
        Metam { config }
    }

    /// Run goal-oriented discovery over the inputs, streaming per-query
    /// and per-round callbacks to `observer`. Observation is passive —
    /// pass [`NoopObserver`](crate::observer::NoopObserver) for an
    /// unobserved run with an identical result.
    pub fn run(&self, inputs: &SearchInputs<'_>, observer: &mut dyn RunObserver) -> RunResult {
        let cfg = &self.config;
        let n = inputs.candidates.len();
        let mut engine = QueryEngine::observed(inputs, cfg.max_queries, observer);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut clustering = if cfg.use_clustering {
            let _span = metam_obs::span("search.cluster", "cluster_partition");
            cluster_partition(inputs.profiles, cfg.epsilon, cfg.seed)
        } else {
            Clustering::singletons(n)
        };
        let mut quality = QualityModel::new(n, inputs.profile_names.len());
        let mut sampler = ThompsonSampler::new(clustering.len());

        // Homogeneity probe (optional): if any cluster mixes utilities,
        // fall back to singleton clusters and drop utility propagation.
        let mut stop_reason: Option<StopReason> = None;
        if cfg.check_homogeneity && cfg.use_clustering && n > 0 {
            match homogeneity_ok(&mut engine, &clustering, cfg.epsilon, &mut rng) {
                Ok(true) => {}
                Ok(false) => {
                    clustering = Clustering::singletons(n);
                    quality.disable_propagation();
                    sampler = ThompsonSampler::new(n);
                }
                Err(StopSearch) => stop_reason = Some(StopReason::BudgetExhausted),
            }
        }

        engine.notify_search_start(n, clustering.len());
        let mut search = Search {
            cfg,
            inputs,
            clustering: &clustering,
            quality,
            sampler,
            group_state: GroupState::new(GROUP_CAP),
            rng,
            t_star: BTreeSet::new(),
            t_star_c: BTreeSet::new(),
            u_d: 0.0,
            u_group_best: f64::NEG_INFINITY,
            base_utility: 0.0,
            tried: BTreeSet::new(),
        };

        let reason = match stop_reason {
            Some(r) => r,
            None => match search.run_loop(&mut engine) {
                Ok(r) => r,
                Err(StopSearch) => StopReason::BudgetExhausted,
            },
        };

        // Line 23: best of T* and T*_c.
        let (mut final_set, mut final_u) = if search.u_group_best > search.u_d {
            (search.t_star_c.clone(), search.u_group_best)
        } else {
            (search.t_star.clone(), search.u_d)
        };

        // Line 24: minimality check against θ (or the achieved utility when
        // no θ was given — keep what we reached, with fewer columns).
        if cfg.minimality && !final_set.is_empty() {
            let theta_eff = cfg.theta.unwrap_or(final_u).min(final_u);
            final_set = identify_minimal(&mut engine, &final_set, theta_eff);
            if let Ok(u) =
                engine.evaluate(&QueryPlan::new(QueryKind::Minimality, final_set.clone()))
            {
                final_u = u;
            }
        }

        let certification_ignored = engine.certification_ignored();
        RunResult {
            n_clusters: Some(clustering.len()),
            certification_ignored: Some(certification_ignored),
            ..engine.finish("Metam", final_set, final_u, search.base_utility, reason)
        }
    }
}

/// Mutable search state for one run.
struct Search<'a, 'b> {
    cfg: &'a MetamConfig,
    inputs: &'a SearchInputs<'b>,
    clustering: &'a Clustering,
    quality: QualityModel,
    sampler: ThompsonSampler,
    group_state: GroupState,
    rng: StdRng,
    /// Sequential solution (built greedily on D).
    t_star: BTreeSet<CandidateId>,
    /// Best group solution (evaluated on Din).
    t_star_c: BTreeSet<CandidateId>,
    /// u(Γ(Din, T*)).
    u_d: f64,
    /// u(Γ(Din, T*_c)).
    u_group_best: f64,
    base_utility: f64,
    /// Candidates already tried against the *current* T* (cleared when T*
    /// grows) — later rounds sweep deeper into each cluster instead of
    /// re-picking the same representative.
    tried: BTreeSet<CandidateId>,
}

impl Search<'_, '_> {
    fn theta_reached(&self) -> bool {
        self.cfg
            .theta
            .is_some_and(|t| self.u_d >= t || self.u_group_best >= t)
    }

    fn run_loop(&mut self, engine: &mut QueryEngine<'_>) -> Result<StopReason, StopSearch> {
        let n = self.inputs.candidates.len();
        if n == 0 {
            self.base_utility = engine.base_utility()?;
            self.u_d = self.base_utility;
            return Ok(StopReason::Exhausted);
        }
        self.base_utility = engine.base_utility()?;
        self.u_d = self.base_utility;
        let tau = self.cfg.tau.unwrap_or_else(|| self.clustering.len()).max(1);

        for _round in 0..MAX_ROUNDS {
            if self.theta_reached() {
                return Ok(StopReason::ThetaReached);
            }
            let queries_before = engine.queries();
            let (progressed, attempted) = self.one_round(engine, tau)?;
            self.emit_round(_round + 1, engine);
            if self.theta_reached() {
                return Ok(StopReason::ThetaReached);
            }
            // Exhausted only when the round neither improved anything *nor*
            // learned anything new — i.e. every remaining candidate has
            // been queried against the current solution and none help
            // ("all augmentations are queried and none of them improve").
            // A round that evaluated candidates entirely from the memo (the
            // homogeneity probe pre-warms the cache) still counts as
            // learning: `tried` grew, so later rounds sweep further.
            if !progressed && !attempted && engine.queries() == queries_before {
                return Ok(StopReason::Exhausted);
            }
        }
        Ok(StopReason::MaxRounds)
    }

    /// Stream the round outcome to the observer (no effect on the search).
    fn emit_round(&mut self, round: usize, engine: &mut QueryEngine<'_>) {
        let (winner, best) = if self.u_group_best > self.u_d {
            (&self.t_star_c, self.u_group_best)
        } else {
            (&self.t_star, self.u_d)
        };
        let selected: Vec<CandidateId> = winner.iter().copied().collect();
        engine.notify_round(&RoundEvent {
            round,
            queries: engine.queries(),
            queries_remaining: engine.remaining(),
            best_utility: best,
            base_utility: self.base_utility,
            selected: &selected,
        });
    }

    /// Lines 7–22 of Algorithm 1. Returns `(improved, attempted)`: whether
    /// T* or T*_c improved, and whether any sequential candidate was tried
    /// at all (an empty round means the candidate pool is truly spent).
    fn one_round(
        &mut self,
        engine: &mut QueryEngine<'_>,
        tau: usize,
    ) -> Result<(bool, bool), StopSearch> {
        let n = self.inputs.candidates.len();
        let mut excluded_clusters: BTreeSet<usize> = BTreeSet::new();
        // (candidate, u' = utility of T* ∪ {candidate}) queried this round.
        let mut q_round: Vec<(CandidateId, f64)> = Vec::new();
        let group_best_before = self.u_group_best;
        let mut i = 0usize;

        loop {
            // Line 9: Pmax over candidates outside T*, untouched clusters,
            // and not yet tried against the current T*.
            let eligible = (0..n).filter(|c| {
                !self.t_star.contains(c)
                    && !self.tried.contains(c)
                    && !excluded_clusters.contains(&self.clustering.cluster_of(*c))
            });
            let Some(pmax) = self.quality.best_candidate(eligible, self.inputs.profiles) else {
                break;
            };

            // Plan → execute: speculatively prefetch this iteration's
            // queries over the worker pool before committing any of them.
            // The sequential extension (and its certification companion)
            // is certain; the group set depends on the sequential gain
            // only through the binary Thompson update, so both branches
            // are simulated on cloned sampler/RNG/group state — all RNG
            // stays on this thread, and a wrong branch merely wastes a
            // worker's wall-clock.
            if engine.threads() > 1 {
                let mut plans = vec![
                    QueryPlan::extend(QueryKind::Sequential, &self.t_star, pmax),
                    QueryPlan::new(QueryKind::Sequential, self.t_star.clone()),
                ];
                let cluster = self.clustering.cluster_of(pmax);
                let branches: &[bool] = if self.cfg.use_thompson {
                    &[true, false]
                } else {
                    &[true]
                };
                for &gained in branches {
                    let mut sampler = self.sampler.clone();
                    if self.cfg.use_thompson {
                        sampler.update(cluster, gained);
                    }
                    let mut group_state = self.group_state.clone();
                    let mut rng = self.rng.clone();
                    if let Some(group) = group_state.propose(self.clustering, &sampler, &mut rng) {
                        plans.push(QueryPlan::new(
                            QueryKind::Group,
                            group.iter().copied().collect(),
                        ));
                    }
                }
                engine.prefetch(&plans);
            }

            // Line 10: sequential query (with P3 certification).
            let (effective, raw, _ignored) = engine.utility_extend(&self.t_star, pmax, true)?;
            let cluster = self.clustering.cluster_of(pmax);
            excluded_clusters.insert(cluster);
            self.tried.insert(pmax);
            let gain = raw - self.u_d;
            // Line 12: propagate the observation.
            self.quality
                .record(pmax, gain, self.inputs.profiles, self.clustering);
            if self.cfg.use_thompson {
                self.sampler.update(cluster, gain > 1e-9);
            }
            q_round.push((pmax, effective));

            // Line 8's guard, applied eagerly: once a sequential query
            // already meets θ there is nothing left for this round's group
            // query to improve — commit without spending further budget.
            if self.cfg.theta.is_some_and(|t| effective >= t) {
                break;
            }

            // Lines 13–15: group query on Din.
            if let Some(group) =
                self.group_state
                    .propose(self.clustering, &self.sampler, &mut self.rng)
            {
                let gset: BTreeSet<CandidateId> = group.iter().copied().collect();
                let ug = engine.evaluate(&QueryPlan::new(QueryKind::Group, gset.clone()))?;
                if ug > self.u_group_best {
                    self.u_group_best = ug;
                    self.t_star_c = gset;
                    if self.cfg.use_thompson {
                        for &m in &group {
                            self.sampler.update(self.clustering.cluster_of(m), true);
                        }
                    }
                }
            }

            i += 1;
            // Line 8 condition: stop once τ queries done AND something improved.
            let best_u_prime = q_round
                .iter()
                .map(|&(_, u)| u)
                .fold(f64::NEG_INFINITY, f64::max);
            if i >= tau && best_u_prime > self.u_d {
                break;
            }
            if self.theta_reached() {
                break;
            }
        }

        // Lines 17–20: commit the round's best candidate if it improves.
        let mut committed = false;
        let mut best: Option<(CandidateId, f64)> = None;
        for &(c, u) in &q_round {
            match best {
                Some((_, bu)) if u <= bu => {}
                _ => best = Some((c, u)),
            }
        }
        if let Some((pmax, u_prime)) = best {
            if u_prime > self.u_d {
                self.t_star.insert(pmax);
                self.u_d = u_prime;
                committed = true;
                // T* changed: marginal gains reset, everything is worth
                // re-trying against the new solution.
                self.tried.clear();
            }
        }
        Ok((
            committed || self.u_group_best > group_best_before,
            !q_round.is_empty(),
        ))
    }
}

/// The log|C|-sample homogeneity test (§IV-B "Generalization"): for every
/// multi-member cluster, query a few members alone on `Din`; the cluster is
/// homogeneous when a majority of samples lie within ε of the sample mean.
fn homogeneity_ok(
    engine: &mut QueryEngine<'_>,
    clustering: &Clustering,
    epsilon: f64,
    rng: &mut StdRng,
) -> Result<bool, StopSearch> {
    use rand::seq::SliceRandom;
    let n_clusters = clustering.len().max(2);
    let k = (n_clusters as f64).ln().ceil().max(2.0) as usize;
    for members in &clustering.clusters {
        if members.len() < 2 {
            continue;
        }
        let mut pool = members.clone();
        pool.shuffle(rng);
        pool.truncate(k.min(members.len()));
        // One batch per cluster — not one over all clusters — so an early
        // inhomogeneity return consumes exactly as much RNG (and budget)
        // as the sequential loop did.
        let plans: Vec<QueryPlan> = pool
            .iter()
            .map(|&m| QueryPlan::new(QueryKind::Probe, [m].into()))
            .collect();
        let mut utilities = Vec::with_capacity(plans.len());
        for result in engine.evaluate_batch(&plans) {
            utilities.push(result?);
        }
        let mean = utilities.iter().sum::<f64>() / utilities.len() as f64;
        let close = utilities
            .iter()
            .filter(|u| (**u - mean).abs() <= epsilon)
            .count();
        if close * 2 < utilities.len() {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_fixtures::fixture;
    use crate::observer::NoopObserver;
    use crate::task::{LinearSyntheticTask, NonMonotoneTask};

    fn run_with_task(n_ext: usize, task: &dyn crate::task::Task, config: MetamConfig) -> RunResult {
        let (din, candidates, mat) = fixture(n_ext);
        // One synthetic profile proportional to candidate weight would be
        // cheating; use a mildly informative one instead.
        let profiles: Vec<Vec<f64>> = (0..candidates.len())
            .map(|i| vec![((i * 13) % 7) as f64 / 7.0, ((i * 5) % 3) as f64 / 3.0])
            .collect();
        let names = vec!["p0".to_string(), "p1".to_string()];
        let inputs = SearchInputs {
            din: &din,
            target_column: None,
            candidates: &candidates,
            profiles: &profiles,
            profile_names: &names,
            materializer: &mat,
            task,
            threads: 1,
        };
        Metam::new(config).run(&inputs, &mut NoopObserver)
    }

    #[test]
    fn reaches_theta_on_linear_task() {
        let n_ext = 12;
        // Candidate 3 is the single useful augmentation.
        let mut weights = vec![0.0; n_ext];
        weights[3] = 0.5;
        let task = LinearSyntheticTask { base: 0.4, weights };
        let cfg = MetamConfig {
            theta: Some(0.85),
            max_queries: 500,
            ..Default::default()
        };
        let result = run_with_task(n_ext, &task, cfg);
        assert_eq!(result.stop_reason, StopReason::ThetaReached);
        assert!(result.utility >= 0.85, "u={}", result.utility);
        assert_eq!(
            result.selected,
            vec![3],
            "minimal solution is exactly the useful one"
        );
    }

    #[test]
    fn minimality_prunes_redundant_augmentations() {
        let n_ext = 10;
        let mut weights = vec![0.02; n_ext];
        weights[1] = 0.6;
        let task = LinearSyntheticTask { base: 0.3, weights };
        let cfg = MetamConfig {
            theta: Some(0.9),
            max_queries: 1000,
            ..Default::default()
        };
        let result = run_with_task(n_ext, &task, cfg);
        assert!(result.utility >= 0.9 - 1e-9);
        assert!(result.selected.contains(&1));
        assert!(result.selected.len() <= 2, "selected={:?}", result.selected);
    }

    #[test]
    fn exhausts_gracefully_when_theta_unreachable() {
        let n_ext = 6;
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.01; n_ext],
        };
        let cfg = MetamConfig {
            theta: Some(0.99),
            max_queries: 2000,
            ..Default::default()
        };
        let result = run_with_task(n_ext, &task, cfg);
        assert_ne!(result.stop_reason, StopReason::ThetaReached);
        assert!(result.utility < 0.99);
        assert!(result.queries <= 2000);
    }

    #[test]
    fn budget_is_respected() {
        let n_ext = 10;
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.01; n_ext],
        };
        let cfg = MetamConfig {
            theta: Some(0.99),
            max_queries: 15,
            ..Default::default()
        };
        let result = run_with_task(n_ext, &task, cfg);
        assert!(result.queries <= 15);
        assert_eq!(result.stop_reason, StopReason::BudgetExhausted);
        assert_eq!(result.budget, 15);
        assert_eq!(result.queries_remaining(), 15 - result.queries);
    }

    #[test]
    fn unbounded_budget_reports_unbounded_remaining() {
        let task = LinearSyntheticTask {
            base: 0.2,
            weights: vec![0.3; 4],
        };
        let cfg = MetamConfig {
            theta: Some(0.5),
            ..Default::default()
        };
        let result = run_with_task(4, &task, cfg);
        assert!(result.queries > 0);
        assert_eq!(result.budget, usize::MAX);
        assert_eq!(
            result.queries_remaining(),
            usize::MAX,
            "unbounded stays unbounded"
        );
    }

    #[test]
    fn non_monotone_task_survives_certification() {
        let n_ext = 8;
        let mut deltas = vec![-0.1; n_ext];
        deltas[2] = 0.4;
        let task = NonMonotoneTask { base: 0.4, deltas };
        let cfg = MetamConfig {
            theta: Some(0.75),
            max_queries: 500,
            ..Default::default()
        };
        let result = run_with_task(n_ext, &task, cfg);
        assert!(result.utility >= 0.75, "u={}", result.utility);
        assert_eq!(result.selected, vec![2]);
    }

    #[test]
    fn deterministic_given_seed() {
        let n_ext = 10;
        let mut weights = vec![0.0; n_ext];
        weights[4] = 0.3;
        weights[7] = 0.25;
        let mk = || LinearSyntheticTask {
            base: 0.3,
            weights: weights.clone(),
        };
        let cfg = MetamConfig {
            theta: Some(0.8),
            max_queries: 500,
            seed: 11,
            ..Default::default()
        };
        let t1 = mk();
        let t2 = mk();
        let a = run_with_task(n_ext, &t1, cfg.clone());
        let b = run_with_task(n_ext, &t2, cfg);
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.utility, b.utility);
    }

    #[test]
    fn variants_still_find_solutions() {
        let n_ext = 10;
        let mut weights = vec![0.0; n_ext];
        weights[5] = 0.5;
        for (use_clustering, use_thompson) in [(false, true), (true, false), (false, false)] {
            let task = LinearSyntheticTask {
                base: 0.4,
                weights: weights.clone(),
            };
            let cfg = MetamConfig {
                theta: Some(0.85),
                max_queries: 1000,
                use_clustering,
                use_thompson,
                ..Default::default()
            };
            let result = run_with_task(n_ext, &task, cfg);
            assert!(
                result.utility >= 0.85,
                "variant c={use_clustering} t={use_thompson} failed: {}",
                result.utility
            );
        }
    }

    #[test]
    fn empty_candidate_set_is_safe() {
        let task = LinearSyntheticTask {
            base: 0.4,
            weights: vec![],
        };
        let cfg = MetamConfig {
            theta: Some(0.9),
            max_queries: 10,
            ..Default::default()
        };
        let result = run_with_task(0, &task, cfg);
        assert_eq!(result.selected, Vec::<usize>::new());
        assert_eq!(result.stop_reason, StopReason::Exhausted);
        assert!((result.utility - 0.4).abs() < 1e-9);
    }

    #[test]
    fn trace_reaches_final_utility() {
        let n_ext = 8;
        let mut weights = vec![0.0; n_ext];
        weights[0] = 0.4;
        let task = LinearSyntheticTask { base: 0.3, weights };
        let cfg = MetamConfig {
            theta: Some(0.65),
            max_queries: 300,
            ..Default::default()
        };
        let result = run_with_task(n_ext, &task, cfg);
        let last = result.trace.last().unwrap();
        assert!(last.utility >= result.utility - 1e-9);
    }
}
