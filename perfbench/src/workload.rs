//! One workload run: generate the lake, time cold set-up, run the closed
//! loop for the requested seconds (untraced phase) and/or measure each
//! layer (traced phase), checking every output on the way.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use metam::lake::LakeCatalog;

use crate::daemon::{self, ClientLog, Traffic, Until};
use crate::lakes::{Decoy, Spec, Workload};
use crate::layers::{self, check_report, Outcome};
use crate::report::RunResult;
use crate::stats::{median, peak_rss_mb, percentile, secs_since, tail};

/// Timed cold set-ups in each of the two groups of a run, one before and
/// one after the timed loop; `setup_s` is the median of both groups. The
/// host's speed drifts over tens of seconds and every set-up of one
/// group reads alike, so the second group samples another moment of the
/// run. One more set-up runs first, untimed: right after generation the
/// lake's fresh files are still being written back, which slows that
/// set-up by up to a third.
const SETUPS: usize = 2;

/// Which phases a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub untraced: bool,
    pub traced: bool,
}

impl Phases {
    pub fn label(self) -> &'static str {
        match (self.untraced, self.traced) {
            (true, true) => "untraced+traced",
            (true, false) => "untraced",
            _ => "traced",
        }
    }
}

/// Run `spec` on the lake for `seed`, generated under `work`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, phases: Phases, work: &Path) -> RunResult {
    let mut res = RunResult::default();
    let lake = work.join("lake");
    let mut decoy = Decoy::new(&lake, seed);
    let mut outcome = spec
        .generate(&lake, seed)
        .map_err(|e| format!("generating the lake: {e}"));
    if outcome.is_ok() && phases.untraced {
        outcome = match spec.workload {
            Workload::ServeWide => serve_loop(spec, seed, seconds, &lake, &mut decoy, &mut res),
            _ => in_process_loop(spec, seed, seconds, &lake, &mut res),
        };
        match peak_rss_mb() {
            Some(mb) => res.metric("peak_rss_mb", mb, "MB"),
            None => res.error("VmHWM is not available on this platform".into()),
        }
    }
    if outcome.is_ok() && phases.traced {
        outcome = traced(spec, seed, &lake, &mut decoy, &mut res);
    }
    if let Err(e) = outcome {
        res.attempted += 1;
        res.fail(1, e);
    }
    res
}

fn clear_catalog(lake: &Path) -> Result<(), String> {
    let meta = LakeCatalog::meta_dir(lake);
    if meta.exists() {
        std::fs::remove_dir_all(&meta).map_err(|e| format!("removing {}: {e}", meta.display()))?;
    }
    Ok(())
}

fn scan(lake: &Path) -> Result<LakeCatalog, String> {
    LakeCatalog::scan(lake).map_err(|e| format!("scan: {e}"))
}

/// Run `n` cold set-ups of `lake`, each from an empty `.metam/`, pushing
/// each one's seconds to `samples`; every set-up but the last is torn
/// down before the next begins, and the last is returned.
fn cold_setups<T>(
    lake: &Path,
    n: usize,
    samples: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..n {
        if let Some(old) = last.take() {
            teardown(old);
        }
        clear_catalog(lake)?;
        let start = Instant::now();
        last = Some(setup()?);
        samples.push(secs_since(start));
    }
    last.ok_or_else(|| "no set-up ran".into())
}

fn nonempty_median(name: &str, samples: &[f64], res: &mut RunResult) -> f64 {
    if samples.is_empty() {
        res.error(format!("{name}: no successful samples"));
        return f64::NAN;
    }
    median(samples)
}

/// `forest_search` / `many_candidates`: one client in-process, sending
/// discovers only, each exactly as `metam discover --json` runs it —
/// `LakeCatalog::scan` (the warm revalidation of the lake), then
/// `Session::from_catalog(..).run(Metam)`, then `RunReport::to_json`.
fn in_process_loop(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    lake: &Path,
    res: &mut RunResult,
) -> Result<(), String> {
    let cold_scan = || scan(lake);
    let mut setups = Vec::with_capacity(2 * SETUPS + 1);
    let catalog = Arc::new(cold_setups(lake, SETUPS + 1, &mut setups, cold_scan, drop)?);
    setups.remove(0);
    res.check(catalog.cache_misses() == catalog.len(), || {
        "a cold scan reused cached profiles".into()
    });
    let n_candidates = layers::candidates(&catalog)?.1.len();
    let tables = catalog.len();
    drop(catalog);

    let seeds = spec.seeds(seed);
    let mut seen: BTreeMap<u64, Outcome> = BTreeMap::new();
    let mut discover_s = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        if secs_since(start) >= seconds {
            break;
        }
        let s = seeds[i % seeds.len()];
        res.attempted += 1;
        let op = Instant::now();
        let report = scan(lake).and_then(|catalog| {
            if catalog.cache_misses() != 0 || catalog.len() != tables {
                return Err(format!(
                    "warm scan profiled {} file(s) over {} tables, expected 0 over {tables}",
                    catalog.cache_misses(),
                    catalog.len()
                ));
            }
            let report = layers::discover(spec, catalog, s)?;
            std::hint::black_box(report.to_json());
            Ok(report)
        });
        let secs = secs_since(op);
        let checked = report.and_then(|report| {
            check_report(&report, spec.budget, n_candidates)?;
            let outcome = Outcome::of(&report);
            match seen.get(&s) {
                Some(first) if *first != outcome => {
                    Err(format!("seed {s}: a repeated discover decided differently"))
                }
                _ => {
                    seen.insert(s, outcome);
                    Ok(())
                }
            }
        });
        match checked {
            Ok(()) => discover_s.push(secs),
            Err(e) => res.fail(1, e),
        }
    }
    let wall = secs_since(start);
    for (s, outcome) in &seen {
        outcome.digest(*s, &mut res.digest);
    }
    loop_metrics(spec, &discover_s, discover_s.len(), wall, res);
    cold_setups(lake, SETUPS, &mut setups, cold_scan, drop)?;
    res.metric("setup_s", median(&setups), "s");
    Ok(())
}

/// The untraced loop's end-to-end latency and throughput metrics;
/// `requests` is how many requests completed in `wall` seconds.
fn loop_metrics(spec: &Spec, discover_s: &[f64], requests: usize, wall: f64, res: &mut RunResult) {
    let discover = nonempty_median("discover_p50_s", discover_s, res);
    res.metric("discover_p50_s", discover, "s");
    res.metric("throughput_rps", requests as f64 / wall, "req/s");
    eprintln!(
        "{}: {} discovers, {requests} requests in {wall:.1}s",
        spec.workload.name(),
        discover_s.len(),
    );
}

/// In-process reference replies for the workload's session seeds, over
/// one shared catalog of `lake`, plus the table count a scan must report.
fn references(
    spec: &Spec,
    seed: u64,
    lake: &Path,
    res: &mut RunResult,
) -> Result<(BTreeMap<u64, String>, usize), String> {
    let catalog = Arc::new(scan(lake)?);
    let n_candidates = layers::candidates(&catalog)?.1.len();
    let mut refs = BTreeMap::new();
    for s in spec.seeds(seed) {
        let report = layers::shared_discover(spec, &catalog, s)?;
        check_report(&report, spec.budget, n_candidates)?;
        Outcome::of(&report).digest(s, &mut res.digest);
        refs.insert(s, layers::reference_json(report));
    }
    Ok((refs, catalog.len()))
}

fn merge_logs(logs: &[ClientLog], res: &mut RunResult) {
    for log in logs {
        res.attempted += log.attempted;
        res.failed += log.failed;
        for e in &log.errors {
            res.error(e.clone());
        }
    }
}

fn concat(logs: &[ClientLog], field: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|l| field(l).iter().copied()).collect()
}

/// `serve_wide`: two closed-loop clients against `metam serve`; the
/// second also writes (appends a decoy row, then sends `scan`), which
/// rescans one file under the lake's write lock beside concurrent reads.
fn serve_loop(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    lake: &Path,
    decoy: &mut Decoy,
    res: &mut RunResult,
) -> Result<(), String> {
    let start_daemon = || daemon::start(lake);
    let mut setups = Vec::with_capacity(2 * SETUPS + 1);
    let server = cold_setups(lake, SETUPS + 1, &mut setups, start_daemon, daemon::stop)?;
    setups.remove(0);

    let (refs, tables) = match references(spec, seed, lake, res) {
        Ok(r) => r,
        Err(e) => {
            daemon::stop(server);
            return Err(e);
        }
    };
    let traffic = Traffic {
        addr: server.addr(),
        spec,
        refs: &refs,
        tables,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = daemon::two_clients(&traffic, Until::Deadline(deadline), Some(decoy));
    let wall = secs_since(start);
    daemon::stop(server);

    merge_logs(&logs, res);
    let discover_s = concat(&logs, |l| &l.discover_s);
    let requests = discover_s.len() + logs.iter().map(|l| l.scan_s.len()).sum::<usize>();
    loop_metrics(spec, &discover_s, requests, wall, res);
    let server = cold_setups(lake, SETUPS, &mut setups, start_daemon, daemon::stop)?;
    daemon::stop(server);
    res.metric("setup_s", median(&setups), "s");
    Ok(())
}

/// The traced phase: layer probes on a hot catalog, untraced/traced
/// discover pairs, then a daemon phase for the serve layer, with the
/// same two-client traffic as `serve_wide`'s timed loop.
fn traced(
    spec: &Spec,
    seed: u64,
    lake: &Path,
    decoy: &mut Decoy,
    res: &mut RunResult,
) -> Result<(), String> {
    clear_catalog(lake)?;
    let cold = scan(lake)?;
    res.check(cold.cache_misses() == cold.len(), || {
        "a cold scan reused cached profiles".into()
    });
    res.metric(
        "lake.files_profiled_cold",
        cold.cache_misses() as f64,
        "count",
    );
    let probed = Arc::new(cold);
    let facts = layers::probe(spec, lake, &probed, decoy, seed + 1, res)?;

    let catalog = Arc::new(scan(lake)?);
    let refs = layers::traced_sessions(spec, seed, &catalog, facts, res);
    let csv_fallbacks = probed.load_counters().misses() + catalog.load_counters().misses();
    let sketch_fallbacks =
        probed.sketch_load_counters().misses() + catalog.sketch_load_counters().misses();
    res.check(csv_fallbacks == 0, || {
        format!("{csv_fallbacks} CSV fallback(s)")
    });
    res.check(sketch_fallbacks == 0, || {
        format!("{sketch_fallbacks} sketch fallback(s)")
    });
    res.metric("lake.csv_fallbacks", csv_fallbacks as f64, "count");
    res.metric("lake.sketch_fallbacks", sketch_fallbacks as f64, "count");

    let server = daemon::start(lake)?;
    let traffic = Traffic {
        addr: server.addr(),
        spec,
        refs: &refs,
        tables: catalog.len(),
    };
    let logs = daemon::two_clients(&traffic, Until::Ops(spec.serve_ops), Some(decoy));
    daemon::stop(server);
    merge_logs(&logs, res);
    let discover_s = concat(&logs, |l| &l.discover_s);
    if spec.workload == Workload::ServeWide && !spec.quick {
        res.check(tail(&discover_s, 98.0).is_some(), || {
            format!(
                "serve.discover_p98_s: too few samples ({})",
                discover_s.len()
            )
        });
    }
    let p98 = percentile(&discover_s, 98.0).unwrap_or(f64::NAN);
    let scan = nonempty_median("serve.scan_p50_s", &concat(&logs, |l| &l.scan_s), res);
    res.metric("serve.discover_p98_s", p98, "s");
    res.metric("serve.scan_p50_s", scan, "s");
    let handler = nonempty_median("serve.handler_s_p50", &concat(&logs, |l| &l.handler_s), res);
    let outside = nonempty_median(
        "serve.outside_handler_s_p50",
        &concat(&logs, |l| &l.outside_s),
        res,
    );
    let rejected: u64 = logs.iter().map(|l| l.rejected).sum();
    res.metric("serve.handler_s_p50", handler, "s");
    res.metric("serve.outside_handler_s_p50", outside, "s");
    res.metric("serve.rejected", rejected as f64, "count");
    Ok(())
}
