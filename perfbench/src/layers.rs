//! Per-layer measurement from outside the program: timing wrappers around
//! the public trait seams (`Task`, `Profile`, `RunObserver`), direct probes
//! of each layer's public functions, and the traced session runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use metam::discovery::path::PathConfig;
use metam::discovery::{generate_candidates, Candidate, DiscoveryIndex, Materializer};
use metam::lake::prepare::repository_descriptors;
use metam::lake::{parse_task, LakeCatalog};
use metam::profile::{self, Profile, ProfileContext, ProfileSet};
use metam::session::{QueryEvent, RunObserver};
use metam::{MetamConfig, Method, RunReport, Session, Table, Task};

use crate::lakes::{Decoy, Spec, DIN};
use crate::report::RunResult;
use crate::stats::{median, secs_since, tail, Fnv};

/// Candidate cap and profile sample size, as a default session uses them.
const MAX_CANDIDATES: usize = 100_000;
const PROFILE_SAMPLE: usize = 100;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while recording")
}

/// Times every fit of the wrapped task.
struct TimedTask {
    inner: Box<dyn Task>,
    fits: Arc<Mutex<Vec<f64>>>,
}

impl Task for TimedTask {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn utility(&self, table: &Table) -> f64 {
        let start = Instant::now();
        let u = self.inner.utility(table);
        let secs = secs_since(start);
        lock(&self.fits).push(secs);
        u
    }
}

/// Records every counted query's duration.
struct QueryRecorder(Arc<Mutex<Vec<f64>>>);

impl RunObserver for QueryRecorder {
    fn on_query(&mut self, event: &QueryEvent<'_>) {
        lock(&self.0).push(event.duration_secs);
    }
}

/// Sums the time spent inside one profile, across the evaluation's
/// worker threads.
struct TimedProfile {
    inner: Box<dyn Profile>,
    nanos: Arc<AtomicU64>,
}

impl Profile for TimedProfile {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let start = Instant::now();
        let v = self.inner.compute(ctx);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // ordering: a statistic read after the evaluation's threads joined.
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        v
    }
}

/// The paper's five default profiles, each behind a timer.
fn timed_default_profiles() -> (ProfileSet, Vec<(String, Arc<AtomicU64>)>) {
    let inner: Vec<Box<dyn Profile>> = vec![
        Box::new(profile::correlation::CorrelationProfile),
        Box::new(profile::mutual_info::MutualInfoProfile::default()),
        Box::new(profile::embedding::EmbeddingProfile),
        Box::new(profile::metadata::MetadataProfile),
        Box::new(profile::overlap::OverlapProfile),
    ];
    let mut set = ProfileSet::new();
    let mut timers = Vec::new();
    for p in inner {
        let nanos = Arc::new(AtomicU64::new(0));
        timers.push((p.name().to_string(), Arc::clone(&nanos)));
        set.push(Box::new(TimedProfile { inner: p, nanos }));
    }
    (set, timers)
}

/// What a discover decided, for bit-for-bit comparison between runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    selected: Vec<usize>,
    utility: u64,
    base_utility: u64,
    queries: usize,
    stop_reason: String,
    n_candidates: usize,
    n_clusters: Option<usize>,
    trace: Vec<(usize, u64)>,
}

impl Outcome {
    pub fn of(report: &RunReport) -> Outcome {
        Outcome {
            selected: report.selected.clone(),
            utility: report.utility.to_bits(),
            base_utility: report.base_utility.to_bits(),
            queries: report.queries,
            stop_reason: report
                .stop_reason
                .map(|r| r.to_string())
                .unwrap_or_default(),
            n_candidates: report.n_candidates,
            n_clusters: report.n_clusters,
            trace: report
                .trace
                .iter()
                .map(|p| (p.queries, p.utility.to_bits()))
                .collect(),
        }
    }

    /// Fold `(seed, selected ids, utility bits, queries)` into `fnv`.
    pub fn digest(&self, seed: u64, fnv: &mut Fnv) {
        fnv.u64(seed);
        fnv.u64(self.selected.len() as u64);
        for &id in &self.selected {
            fnv.u64(id as u64);
        }
        fnv.u64(self.utility);
        fnv.u64(self.queries as u64);
    }
}

/// Invariants every discover report must meet, whatever its seed.
pub fn check_report(report: &RunReport, budget: usize, candidates: usize) -> Result<(), String> {
    let sorted = report.selected.windows(2).all(|w| w[0] < w[1]);
    let problems = [
        (report.n_candidates != candidates, "candidate count"),
        (
            report.queries == 0 || report.queries > budget,
            "query count",
        ),
        (report.stop_reason.is_none(), "missing stop reason"),
        (!sorted, "selected ids not ascending"),
        (
            report.selected.iter().any(|&id| id >= candidates),
            "selected id out of range",
        ),
        (
            report.selected.len() != report.selected_names.len(),
            "selected names",
        ),
        (
            !(0.0..=1.0).contains(&report.base_utility) || report.utility < report.base_utility,
            "utility below base",
        ),
    ];
    match problems.iter().find(|(bad, _)| *bad) {
        Some((_, what)) => Err(format!(
            "report invariant broken ({what}): {} candidates, {} queries, utility {} over base {}",
            report.n_candidates, report.queries, report.utility, report.base_utility
        )),
        None => Ok(()),
    }
}

/// `session` set up as every discover of `spec` is: din, seed, budget and
/// one search thread.
fn configured(session: Session, spec: &Spec, seed: u64) -> Session {
    session.din(DIN).seed(seed).budget(spec.budget).threads(1)
}

fn run_metam(session: Session, seed: u64) -> Result<RunReport, String> {
    session
        .run(Method::Metam(MetamConfig::default()))
        .map_err(|e| format!("discover seed {seed}: {e}"))
}

/// One untraced discover, as `metam discover --json` runs it in-process.
pub fn discover(spec: &Spec, catalog: LakeCatalog, seed: u64) -> Result<RunReport, String> {
    let session = configured(Session::from_catalog(catalog), spec, seed).task_spec(spec.task);
    run_metam(session, seed)
}

/// One untraced discover over a shared catalog, as a daemon worker runs it.
pub fn shared_discover(
    spec: &Spec,
    catalog: &Arc<LakeCatalog>,
    seed: u64,
) -> Result<RunReport, String> {
    let session = Session::from_shared_catalog(Arc::clone(catalog));
    run_metam(configured(session, spec, seed).task_spec(spec.task), seed)
}

/// Zero the two wall-clock fields of a report's JSON so runs of the same
/// deterministic search compare equal.
pub fn scrub_secs(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    loop {
        let hit = ["\"prepare_secs\":", "\"search_secs\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|p| p + k.len()))
            .min();
        let Some(pos) = hit else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..pos]);
        out.push('0');
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+')))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
}

/// The in-process reference reply for `seed`: the report a daemon must
/// send back, with its process-global metrics section dropped and its
/// timings scrubbed.
pub fn reference_json(mut report: RunReport) -> String {
    report.metrics = None;
    scrub_secs(&report.to_json())
}

/// The candidate set a default prepare enumerates over `catalog`.
pub fn candidates(catalog: &Arc<LakeCatalog>) -> Result<(Table, Vec<Candidate>), String> {
    let din = catalog.load_table(DIN).map_err(|e| e.to_string())?;
    let (descriptors, _) = repository_descriptors(catalog, &din, Some(&[DIN.to_string()]))
        .map_err(|e| e.to_string())?;
    let index = DiscoveryIndex::from_catalog(descriptors);
    let candidates = generate_candidates(&din, &index, &PathConfig::default(), MAX_CANDIDATES);
    Ok((din, candidates))
}

/// Distinct repository tables on any candidate's join path: the payloads
/// a prepare loads besides din.
pub fn path_tables(candidates: &[Candidate]) -> usize {
    let mut tables: Vec<usize> = candidates
        .iter()
        .flat_map(|c| c.path.hops.iter().map(|h| h.table))
        .collect();
    tables.sort_unstable();
    tables.dedup();
    tables.len()
}

/// Time `reps` calls of `f`, returning the median seconds.
fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T, mut check: impl FnMut(T)) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(secs_since(start));
        check(out);
    }
    median(&samples)
}

/// Probe the lake, discovery and profile layers directly on a hot
/// catalog, outside any timed discover. Returns the candidate count and
/// the number of candidate-path tables. The one-file rescans run last:
/// they change the lake, which leaves `catalog` stale.
pub fn probe(
    spec: &Spec,
    lake: &Path,
    catalog: &Arc<LakeCatalog>,
    decoy: &mut Decoy,
    session_seed: u64,
    res: &mut RunResult,
) -> Result<(usize, usize), String> {
    let reps = spec.probe_reps;
    let mut stale = 0;
    let is_stale = time_reps(reps, || catalog.is_stale(), |s| stale += usize::from(s));
    res.check(stale == 0, || "a fresh catalog reported stale".into());
    res.metric("lake.is_stale_s", is_stale, "s");

    let din = catalog.load_table(DIN).map_err(|e| e.to_string())?;
    let excluded = [DIN.to_string()];
    let descriptors =
        || repository_descriptors(catalog, &din, Some(&excluded)).map_err(|e| e.to_string());
    let mut failures = 0;
    let sketch_index = time_reps(reps, descriptors, |r| failures += usize::from(r.is_err()));
    res.check(failures == 0, || "repository_descriptors failed".into());
    res.metric("lake.sketch_index_s", sketch_index, "s");

    let (table_descriptors, _) = descriptors()?;
    let mut index = None;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let copy = table_descriptors.clone();
        let start = Instant::now();
        index = Some(std::hint::black_box(DiscoveryIndex::from_catalog(copy)));
        samples.push(secs_since(start));
    }
    res.metric("discovery.index_s", median(&samples), "s");
    let index = index.ok_or("no index built")?;

    let mut candidates = Vec::new();
    let mut mismatches = 0;
    let candidates_s = time_reps(
        reps,
        || generate_candidates(&din, &index, &PathConfig::default(), MAX_CANDIDATES),
        |c| {
            if !candidates.is_empty() && c != candidates {
                mismatches += 1;
            }
            candidates = c;
        },
    );
    res.check(mismatches == 0, || {
        "candidate generation is not repeatable".into()
    });
    res.metric("discovery.candidates_s", candidates_s, "s");
    res.metric("discovery.candidates", candidates.len() as f64, "count");

    // Profile evaluation, against the unwrapped default set as reference.
    let target = din.column_index(spec.target).ok();
    let materializer =
        || -> Result<Materializer, String> { Ok(Materializer::lazy(Box::new(descriptors()?.1))) };
    let reference = profile::default_profiles().evaluate_all(
        &din,
        target,
        &candidates,
        &materializer()?,
        PROFILE_SAMPLE,
        session_seed,
    );
    let (set, timers) = timed_default_profiles();
    let mut samples = Vec::with_capacity(spec.evaluate_reps);
    for _ in 0..spec.evaluate_reps {
        let materializer = materializer()?;
        let start = Instant::now();
        let vectors = set.evaluate_all(
            &din,
            target,
            &candidates,
            &materializer,
            PROFILE_SAMPLE,
            session_seed,
        );
        samples.push(secs_since(start));
        res.check(vectors == reference, || {
            "wrapped profiles changed the profile vectors".into()
        });
    }
    res.metric("profile.evaluate_s", median(&samples), "s");
    for (name, nanos) in timers {
        let total = nanos.load(Ordering::Relaxed) as f64 / 1e9;
        res.metric(
            &format!("profile.{name}_cpu_s"),
            total / spec.evaluate_reps as f64,
            "s",
        );
    }

    let mut reprofiled = 0;
    let scan_warm = time_reps(
        reps,
        || LakeCatalog::scan(lake),
        |c| reprofiled += usize::from(!c.is_ok_and(|c| c.cache_misses() == 0)),
    );
    res.check(reprofiled == 0, || "a warm scan re-profiled files".into());
    res.metric("lake.scan_warm_s", scan_warm, "s");

    let mut samples = Vec::with_capacity(spec.rescan_reps);
    for _ in 0..spec.rescan_reps {
        decoy.append().map_err(|e| format!("decoy write: {e}"))?;
        let start = Instant::now();
        let scanned = LakeCatalog::scan(lake);
        samples.push(secs_since(start));
        res.check(scanned.is_ok_and(|c| c.cache_misses() == 1), || {
            "a one-file rescan did not re-profile exactly one file".into()
        });
    }
    res.metric("lake.rescan_one_s", median(&samples), "s");
    Ok((candidates.len(), path_tables(&candidates)))
}

/// Untraced/traced discover pairs over one shared catalog: the core,
/// tasks and session layers. Returns each seed's reference reply JSON.
pub fn traced_sessions(
    spec: &Spec,
    seed: u64,
    catalog: &Arc<LakeCatalog>,
    (n_candidates, n_path_tables): (usize, usize),
    res: &mut RunResult,
) -> BTreeMap<u64, String> {
    let mut refs = BTreeMap::new();
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let (mut prepare, mut search, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queries_ms, mut fits_ms, mut augment_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut queries, mut memo_hits, mut clusters, mut loads) = (0, 0, 0, Vec::new());
    let loads_now = || {
        let c = catalog.load_counters();
        c.hits() + c.misses()
    };
    let memo_now = || {
        metam::obs::metrics_snapshot()
            .counter("engine.cache_hits")
            .unwrap_or(0)
    };

    let mut s = seed;
    while (s - seed) < spec.min_traced_seeds || (fits_ms.len() < 100 && s - seed < 64) {
        s += 1;
        res.attempted += 2;
        let before = loads_now();
        let start = Instant::now();
        let untraced = shared_discover(spec, catalog, s);
        let wall = secs_since(start);
        let untraced = match untraced {
            Ok(r) => r,
            Err(e) => {
                res.fail(2, format!("untraced {e}"));
                continue;
            }
        };
        untraced_wall.push(wall);
        loads.push(loads_now() - before);

        let parsed = match parse_task(spec.task, s) {
            Ok(p) => p,
            Err(e) => {
                res.fail(1, format!("task spec: {e}"));
                continue;
            }
        };
        let fits = Arc::new(Mutex::new(Vec::new()));
        let events = Arc::new(Mutex::new(Vec::new()));
        let memo_before = memo_now();
        let before = loads_now();
        // The same session with the spec's task wrapped in a timer (parsed
        // exactly as the session would parse it) and a query recorder.
        let session = configured(Session::from_shared_catalog(Arc::clone(catalog)), spec, s)
            .boxed_task(Box::new(TimedTask {
                inner: parsed.task,
                fits: Arc::clone(&fits),
            }))
            .target(spec.target)
            .observer(QueryRecorder(Arc::clone(&events)));
        let start = Instant::now();
        let traced = run_metam(session, s);
        let wall = secs_since(start);
        let traced = match traced {
            Ok(r) => r,
            Err(e) => {
                res.fail(1, format!("traced {e}"));
                continue;
            }
        };
        traced_wall.push(wall);
        loads.push(loads_now() - before);
        memo_hits += memo_now() - memo_before;

        let fits = std::mem::take(&mut *lock(&fits));
        let events = std::mem::take(&mut *lock(&events));
        let checks = [
            check_report(&untraced, spec.budget, n_candidates),
            (Outcome::of(&untraced) == Outcome::of(&traced))
                .then_some(())
                .ok_or_else(|| "the traced run decided differently".to_string()),
            (fits.len() == traced.queries && events.len() == traced.queries)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "{} fits and {} query events for {} queries",
                        fits.len(),
                        events.len(),
                        traced.queries
                    )
                }),
        ];
        if let Some(Err(e)) = checks.into_iter().find(Result::is_err) {
            res.fail(1, format!("seed {s}: {e}"));
            continue;
        }
        Outcome::of(&traced).digest(s, &mut res.digest);
        queries += traced.queries;
        clusters += traced.n_clusters.unwrap_or(0);
        prepare.push(untraced.prepare_secs);
        search.push(untraced.search_secs);
        overhead.push(traced.search_secs - events.iter().sum::<f64>());
        for (&q, &f) in events.iter().zip(&fits) {
            queries_ms.push(q * 1e3);
            fits_ms.push(f * 1e3);
            augment_ms.push((q - f) * 1e3);
        }
        refs.insert(s, reference_json(untraced));
    }

    // A prepare loads din plus every candidate-path table at least once;
    // the parallel profile evaluation can race two fetches of one table,
    // so the count per discover is a floor, not an exact value.
    res.check(loads.iter().all(|&l| l > n_path_tables), || {
        format!("payload loads per discover {loads:?}, below din + {n_path_tables} path tables")
    });
    if !loads.is_empty() {
        let loads: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
        res.metric("lake.payload_loads", median(&loads), "count");
    }
    if refs.is_empty() {
        res.check(false, || "no traced discover succeeded".into());
        return refs;
    }
    let mut tail_or_fail = |name: &str, v: &[f64]| match tail(v, 90.0) {
        Some(p) => p,
        None => {
            res.check(false, || format!("{name}: too few samples ({})", v.len()));
            f64::NAN
        }
    };
    let query_p90 = tail_or_fail("core.query_p90_ms", &queries_ms);
    let fit_p90 = tail_or_fail("tasks.fit_ms_p90", &fits_ms);
    res.metric("core.query_p50_ms", median(&queries_ms), "ms");
    res.metric("core.query_p90_ms", query_p90, "ms");
    res.metric("core.augment_ms_p50", median(&augment_ms), "ms");
    res.metric("core.search_overhead_s", median(&overhead), "s");
    res.metric("core.queries", queries as f64, "count");
    res.metric("core.memo_hits", memo_hits as f64, "count");
    res.metric("core.clusters", clusters as f64, "count");
    res.metric("tasks.fit_ms_p50", median(&fits_ms), "ms");
    res.metric("tasks.fit_ms_p90", fit_p90, "ms");
    res.metric("tasks.fit_calls", fits_ms.len() as f64, "count");
    res.metric("session.prepare_s", median(&prepare), "s");
    res.metric("session.search_s", median(&search), "s");
    res.metric(
        "bench.trace_overhead_ratio",
        median(&traced_wall) / median(&untraced_wall),
        "ratio",
    );
    refs
}
