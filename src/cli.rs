//! The `metam` command-line interface.
//!
//! ```text
//! metam demo <dir> [--seed N]              seed a synthetic CSV lake
//! metam scan <dir>                         build/refresh the catalog
//! metam profile <dir> [--table NAME] [--json]
//! metam discover <dir> --din NAME --task kind:arg [options] [--json]
//!                [--trace FILE|stderr]
//! metam trace-validate <file>              check a JSONL trace's schema
//! ```
//!
//! `discover` runs the full goal-oriented pipeline over the lake through
//! [`Session`]: per-round progress streams to
//! stderr via a [`RunObserver`] while the
//! search is in flight, and the final [`RunReport`] prints as text or — with
//! `--json` — as a machine-readable payload for scripting and bench
//! harnesses.
//!
//! Telemetry: `--trace <path|stderr>` (or the `METAM_TRACE` environment
//! variable) installs a JSONL event sink; every span close, query, round
//! and finish event in the pipeline writes one line. The `--json` report
//! carries a `metrics` section (span timings, engine counters, cache
//! stats) either way. Tracing is passive — results are bit-identical with
//! it on or off.

use metam_core::{MetamConfig, Method};
use metam_datagen::repo::price_classification;
use metam_lake::{export_scenario, parse_task, LakeCatalog, LakeError, TaskKind};

use crate::session::{RoundEvent, RunObserver, RunReport, Session};

const USAGE: &str = "\
usage: metam <command> [args]

commands:
  demo <dir> [--seed N]       write a synthetic demo lake (price scenario)
  scan <dir>                  scan a directory of CSVs into a catalog
  profile <dir> [--table T] [--json]
                              print cached per-column statistics
  discover <dir> --din NAME --task kind:arg
           [--theta T] [--budget N|unbounded] [--seed N]
           [--max-candidates N] [--sample N] [--threads N] [--json]
           [--trace FILE|stderr]
                              run goal-oriented discovery over the lake
  serve <dir>... [--addr A] [--workers N] [--queue N]
        [--max-budget N] [--stop-file FILE]
                              hold the lakes hot and answer NDJSON
                              requests over TCP until shutdown
  request <addr> <json>       send one NDJSON request line to a daemon
  trace-validate <file>       check a JSONL trace file against the schema

task kinds: classification:<column> | regression:<column> | clustering:<k>
`--din` accepts a catalog table name or a path to a CSV file.
`--json` prints a machine-readable report on stdout (progress still
streams on stderr).
`--trace` (or METAM_TRACE=<path|stderr>) writes one JSONL telemetry line
per span/query/round/finish event; tracing never changes results.
`scan` profiles changed files in parallel (worker count from
METAM_SCAN_THREADS, default: available cores).
`discover --threads` (or METAM_SEARCH_THREADS) batches search queries
over the same worker pool; results are byte-identical whatever the
thread count (default 1).
`serve` binds loopback `127.0.0.1:0` by default and prints the bound
address; verbs are discover/profile/scan/lakes/status/shutdown (see
README \"Serving\"). `--workers`/`--queue` set the admission ceiling
(defaults 2/16, env METAM_SERVE_WORKERS / METAM_SERVE_QUEUE);
`--max-budget` caps any single request's query budget; `--stop-file`
drains and exits once the file appears (Ctrl-C-equivalent for scripts).
`request` prints the daemon's reply line and exits 0 only on `ok`.";

type CliResult<T> = Result<T, Box<dyn std::error::Error>>;

fn bad(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(LakeError::BadArgument(msg.into()))
}

/// Parsed flag list: positional args + `--key value` pairs + boolean flags.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `args`; flags named in `bools` take no value.
    fn parse(args: &[String], bools: &[&str]) -> CliResult<Flags> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if bools.contains(&key) {
                    switches.push(key.to_string());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| bad(format!("flag --{key} needs a value")))?;
                pairs.push((key.to_string(), value.clone()));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Flags {
            positional,
            pairs,
            switches,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|k| k == key)
    }

    fn get_num<T: std::str::FromStr>(&self, key: &str) -> CliResult<Option<T>> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| bad(format!("--{key} needs a number, got {raw:?}"))),
        }
    }

    fn reject_unknown(&self, allowed: &[&str]) -> CliResult<()> {
        for k in self
            .pairs
            .iter()
            .map(|(k, _)| k)
            .chain(self.switches.iter())
        {
            if !allowed.contains(&k.as_str()) {
                return Err(bad(format!("unknown flag --{k}")));
            }
        }
        Ok(())
    }
}

/// Run the CLI on `args` (without the program name). Returns the exit code.
pub fn run(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn dispatch(args: &[String]) -> CliResult<()> {
    // Honor METAM_TRACE=<path|stderr> for every command; `discover
    // --trace` below overrides it.
    metam_obs::init_from_env();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return Err(bad("no command given"));
    };
    let rest = &args[1..];
    match command.as_str() {
        "demo" => cmd_demo(rest),
        "scan" => cmd_scan(rest),
        "profile" => cmd_profile(rest),
        "discover" => cmd_discover(rest),
        "serve" => cmd_serve(rest),
        "request" => cmd_request(rest),
        "trace-validate" => cmd_trace_validate(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("{USAGE}");
            Err(bad(format!("unknown command {other:?}")))
        }
    }
}

fn lake_dir(flags: &Flags) -> CliResult<&str> {
    flags
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| bad("missing <dir> argument"))
}

fn cmd_demo(args: &[String]) -> CliResult<()> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&["seed"])?;
    let dir = lake_dir(&flags)?;
    let seed = flags.get_num::<u64>("seed")?.unwrap_or(7);
    let scenario = price_classification(seed);
    let report = export_scenario(&scenario, dir)?;
    println!(
        "wrote demo lake to {dir}: din.csv + {} tables (seed {seed})",
        report.table_files.len()
    );
    println!(
        "next: metam scan {dir} && metam discover {dir} --din din --task classification:label"
    );
    Ok(())
}

fn cmd_scan(args: &[String]) -> CliResult<()> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[])?;
    let dir = lake_dir(&flags)?;
    let catalog = LakeCatalog::scan(dir)?;
    println!("{:<24} {:>8} {:>6}", "table", "rows", "cols");
    for entry in catalog.entries() {
        println!("{:<24} {:>8} {:>6}", entry.name, entry.nrows, entry.ncols);
    }
    println!(
        "{} tables, {} rows, {} columns | profile cache: {} hit(s), {} miss(es) | sketches: {} fresh, {} written",
        catalog.len(),
        catalog.total_rows(),
        catalog.total_columns(),
        catalog.cache_hits(),
        catalog.cache_misses(),
        catalog.sketch_hits(),
        catalog.sketch_misses(),
    );
    println!(
        "catalog: {} ({} shards, {} rewritten) | table cache: {}",
        LakeCatalog::meta_dir(catalog.root()).display(),
        catalog.shard_count(),
        catalog.shards_written(),
        metam_lake::cache::cache_dir(catalog.root()).display(),
    );
    Ok(())
}

fn cmd_profile(args: &[String]) -> CliResult<()> {
    let flags = Flags::parse(args, &["json"])?;
    flags.reject_unknown(&["table", "json"])?;
    let dir = lake_dir(&flags)?;
    let catalog = LakeCatalog::scan(dir)?;
    let only = flags.get("table");
    if let Some(name) = only {
        if catalog.get(name).is_none() {
            return Err(Box::new(LakeError::UnknownTable(name.to_string())));
        }
    }
    if flags.has("json") {
        println!("{}", profile_json(&catalog, only));
        return Ok(());
    }
    for entry in catalog.entries() {
        if only.is_some_and(|n| n != entry.name) {
            continue;
        }
        println!("\n== {} ({} rows) ==", entry.name, entry.nrows);
        println!(
            "{:<20} {:>6} {:>7} {:>9} {:>11} {:>11} {:>11}",
            "column", "type", "nulls", "distinct", "min", "max", "mean"
        );
        for (i, c) in entry.columns.iter().enumerate() {
            println!(
                "{:<20} {:>6} {:>7} {:>9} {:>11} {:>11} {:>11}",
                c.display_name(i),
                metam_lake::stats::dtype_to_str(c.dtype),
                c.null_count,
                c.distinct_count,
                fmt_opt(c.min),
                fmt_opt(c.max),
                fmt_opt(c.mean),
            );
        }
    }
    Ok(())
}

/// Machine-readable catalog statistics (`profile --json`): the shared
/// renderer in `metam-serve` (the daemon's `profile` verb returns the
/// same payload, so the two surfaces can never drift).
fn profile_json(catalog: &LakeCatalog, only: Option<&str>) -> String {
    metam_serve::render::profile_json(catalog, only)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.3}"))
        .unwrap_or_else(|| "-".to_string())
}

/// Streams per-round progress to stderr while a discover run is in flight.
struct ProgressObserver;

impl RunObserver for ProgressObserver {
    fn on_search_start(&mut self, n_candidates: usize, n_clusters: usize) {
        eprintln!("search: {n_candidates} candidates in {n_clusters} clusters");
    }

    fn on_round(&mut self, e: &RoundEvent<'_>) {
        let spent = if e.queries_remaining == usize::MAX {
            format!("{} queries", e.queries)
        } else {
            format!("{} queries ({} remaining)", e.queries, e.queries_remaining)
        };
        eprintln!(
            "[round {}] {spent}, best utility {:.4} ({:+.4} over base), solution size {}",
            e.round,
            e.best_utility,
            e.best_utility - e.base_utility,
            e.selected.len()
        );
    }
}

fn cmd_discover(args: &[String]) -> CliResult<()> {
    let flags = Flags::parse(args, &["json"])?;
    flags.reject_unknown(&[
        "din",
        "task",
        "theta",
        "budget",
        "seed",
        "max-candidates",
        "sample",
        "threads",
        "json",
        "trace",
    ])?;
    if let Some(target) = flags.get("trace") {
        if target == "stderr" {
            metam_obs::install_stderr();
        } else {
            metam_obs::install_file(target).map_err(|e| bad(format!("--trace {target}: {e}")))?;
        }
    }
    let dir = lake_dir(&flags)?;
    let din_arg = flags
        .get("din")
        .ok_or_else(|| bad("discover needs --din"))?
        .to_string();
    let task_spec = flags
        .get("task")
        .ok_or_else(|| bad("discover needs --task kind:arg"))?
        .to_string();
    let theta = flags.get_num::<f64>("theta")?;
    let budget = match flags.get("budget") {
        Some("unbounded") => usize::MAX,
        _ => flags.get_num::<usize>("budget")?.unwrap_or(300),
    };
    let seed = flags.get_num::<u64>("seed")?.unwrap_or(0);
    // Search worker count: explicit flag beats the environment; the
    // default stays fully sequential. (Env reads live here in the CLI
    // entry module only.)
    let threads = match flags.get_num::<usize>("threads")? {
        Some(n) => n,
        None => std::env::var("METAM_SEARCH_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1),
    }
    .max(1);
    let json = flags.has("json");

    let catalog = LakeCatalog::scan(dir)?;
    eprintln!(
        "lake {dir}: {} tables ({} cache hits, {} misses, {} shard(s) rewritten, {} sketch(es) written)",
        catalog.len(),
        catalog.cache_hits(),
        catalog.cache_misses(),
        catalog.shards_written(),
        catalog.sketch_misses(),
    );
    warn_string_regression_target(&catalog, &din_arg, &task_spec, seed);
    // The counter handles outlive the catalog's move into the session, so
    // the .mtc-vs-CSV and sketch-vs-load splits can be reported after the
    // run.
    let load_counters = catalog.load_counters();
    let sketch_counters = catalog.sketch_load_counters();

    let mut session = Session::from_catalog(catalog)
        .din(din_arg)
        .task_spec(task_spec)
        .seed(seed)
        .budget(budget)
        .threads(threads)
        .observer(ProgressObserver);
    if let Some(t) = theta {
        session = session.theta(t);
    }
    if let Some(n) = flags.get_num::<usize>("max-candidates")? {
        session = session.max_candidates(n);
    }
    if let Some(n) = flags.get_num::<usize>("sample")? {
        session = session.profile_sample(n);
    }

    let report = session.run(Method::Metam(MetamConfig::default()))?;
    metam_obs::flush();
    eprintln!(
        "sketch index: {} record(s) served, {} table-load fallback(s)",
        sketch_counters.hits(),
        sketch_counters.misses(),
    );
    eprintln!(
        "table cache: {} load(s) from .mtc, {} CSV fallback(s)",
        load_counters.hits(),
        load_counters.misses(),
    );
    if json {
        println!("{}", serde_json::to_string_pretty(&report)?);
    } else {
        print_report(&report);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult<()> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&["addr", "workers", "queue", "max-budget", "stop-file"])?;
    if flags.positional.is_empty() {
        return Err(bad("serve needs at least one lake <dir>"));
    }
    let lakes: Vec<(String, std::path::PathBuf)> = flags
        .positional
        .iter()
        .map(|dir| {
            let path = std::path::PathBuf::from(dir);
            (metam_serve::lake_name_for(&path), path)
        })
        .collect();

    // Environment defaults first, explicit flags on top.
    let mut config = metam_serve::ServeConfig::default().from_env();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.to_string();
    }
    if let Some(n) = flags.get_num::<usize>("workers")? {
        config.workers = n.max(1);
    }
    if let Some(n) = flags.get_num::<usize>("queue")? {
        config.queue = n;
    }
    if let Some(n) = flags.get_num::<usize>("max-budget")? {
        config.max_budget = Some(n);
    }
    if let Some(file) = flags.get("stop-file") {
        config.stop_file = Some(std::path::PathBuf::from(file));
    }

    let server = crate::serve::start(&lakes, config)?;
    for (name, dir) in &lakes {
        eprintln!("serving lake {name:?} from {}", dir.display());
    }
    // The bound address is the machine-readable startup line scripts
    // scrape, so it goes to stdout and flushes before the long block.
    println!("metam serve listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    eprintln!("metam serve: drained and stopped");
    Ok(())
}

fn cmd_request(args: &[String]) -> CliResult<()> {
    use std::io::{BufRead, BufReader, Write};
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[])?;
    let addr = flags
        .positional
        .first()
        .ok_or_else(|| bad("request needs <addr> (host:port)"))?;
    let line = flags
        .positional
        .get(1)
        .ok_or_else(|| bad("request needs a <json> request line"))?;
    if line.contains('\n') {
        return Err(bad("the request must be a single NDJSON line"));
    }
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| bad(format!("cannot connect to {addr}: {e}")))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    stream.flush()?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    let reply = reply.trim_end();
    if reply.is_empty() {
        return Err(bad(format!("{addr} closed the connection without a reply")));
    }
    // Schema check: the reply must parse as JSON and carry a boolean
    // `ok` — the same validation ci.sh relies on.
    let parsed =
        metam_obs::json::parse(reply).map_err(|e| bad(format!("reply is not valid JSON: {e}")))?;
    println!("{reply}");
    match parsed.get("ok") {
        Some(metam_obs::json::Value::Bool(true)) => Ok(()),
        Some(metam_obs::json::Value::Bool(false)) => {
            let kind = parsed
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("unknown");
            let message = parsed.get("message").and_then(|v| v.as_str()).unwrap_or("");
            Err(bad(format!(
                "daemon refused the request: {kind}: {message}"
            )))
        }
        _ => Err(bad("reply carries no boolean \"ok\" field")),
    }
}

fn cmd_trace_validate(args: &[String]) -> CliResult<()> {
    let flags = Flags::parse(args, &[])?;
    flags.reject_unknown(&[])?;
    let path = flags
        .positional
        .first()
        .ok_or_else(|| bad("trace-validate needs a <file> argument"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read {path}: {e}")))?;
    let (spans, events) =
        metam_obs::validate_trace(&text).map_err(|e| bad(format!("{path}: {e}")))?;
    println!("{path}: ok ({spans} span line(s), {events} event line(s))");
    if spans + events == 0 {
        return Err(bad(format!("{path} holds no trace lines")));
    }
    Ok(())
}

/// A string-typed regression target silently scores 0 — warn up front when
/// the target's type can be seen coming, from catalog metadata (catalog
/// `din`) or a bounded sample read (external CSV `din`).
fn warn_string_regression_target(catalog: &LakeCatalog, din: &str, spec: &str, seed: u64) {
    let Ok(parsed) = parse_task(spec, seed) else {
        return; // Session will report the parse error with full context.
    };
    if parsed.kind != TaskKind::Regression {
        return;
    }
    let Some(target) = parsed.target.as_deref() else {
        return;
    };
    let is_string_col = if let Some(entry) = catalog.get(din) {
        entry
            .columns
            .iter()
            .enumerate()
            .any(|(i, c)| c.display_name(i) == target && c.dtype == metam_table::DataType::Str)
    } else {
        // External CSV: type a bounded prefix only — the session will read
        // the full file exactly once, later.
        csv_sample_has_string_column(std::path::Path::new(din), target)
    };
    if is_string_col {
        eprintln!(
            "warning: regression target {target:?} is a string column — utility will \
             likely be 0; did you mean classification:{target}?"
        );
    }
}

/// Best-effort check on the first lines of a CSV file: does `column` look
/// string-typed? Errors (missing file, parse failure, truncated quoted
/// record) silently report `false` — this only gates a warning.
fn csv_sample_has_string_column(path: &std::path::Path, column: &str) -> bool {
    use std::io::BufRead;
    let Ok(file) = std::fs::File::open(path) else {
        return false;
    };
    let mut sample = String::new();
    for line in std::io::BufReader::new(file).lines().take(200) {
        match line {
            Ok(l) => {
                sample.push_str(&l);
                sample.push('\n');
            }
            Err(_) => return false,
        }
    }
    metam_table::csv::read_csv_str("sample", &sample, true).is_ok_and(|t| {
        t.column_by_name(column)
            .is_ok_and(|c| c.dtype() == metam_table::DataType::Str)
    })
}

fn print_report(report: &RunReport) {
    println!(
        "din {:?}: {} rows × {} columns | {} candidate augmentations",
        report.din_name, report.din_rows, report.din_cols, report.n_candidates
    );
    println!(
        "prepare {:.2}s, search {:.2}s",
        report.prepare_secs, report.search_secs
    );
    println!(
        "\nutility: {:.4} (base {:.4}, gain {:+.4})",
        report.utility,
        report.base_utility,
        report.gain()
    );
    if report.budget == usize::MAX {
        println!("queries: {} used / unbounded budget", report.queries);
    } else {
        println!(
            "queries: {} used / {} budget ({} remaining)",
            report.queries,
            report.budget,
            report.queries_remaining()
        );
    }
    if let Some(reason) = report.stop_reason {
        println!("stop reason: {reason}");
    }
    if report.selected.is_empty() {
        println!("selected: (no augmentation improved the task)");
    } else {
        println!("selected {} augmentation(s):", report.selected.len());
        for (&id, name) in report.selected.iter().zip(&report.selected_names) {
            println!("  [{id}] {name}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_lake(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("metam-cli-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scan_and_profile_commands_work() {
        let dir = tmp_lake("cmd");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\nz2,2\n").unwrap();
        let d = dir.to_string_lossy().into_owned();
        assert_eq!(run(&strs(&["scan", &d])), 0);
        assert_eq!(run(&strs(&["profile", &d])), 0);
        assert_eq!(run(&strs(&["profile", &d, "--table", "a"])), 0);
        assert_eq!(run(&strs(&["profile", &d, "--table", "zzz"])), 2);
        assert_eq!(run(&strs(&["profile", &d, "--json"])), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_json_is_machine_readable() {
        let dir = tmp_lake("json");
        fs::write(dir.join("a.csv"), "zip,v\nz1,1\nz2,\n").unwrap();
        let catalog = LakeCatalog::scan(&dir).unwrap();
        let json = profile_json(&catalog, None);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cache\":{\"profile_hits\":0,\"profile_misses\":1"));
        assert!(json.contains("\"mtc_loads\":0,\"csv_fallbacks\":0"));
        assert!(json.contains("\"sketch_hits\":0,\"sketch_misses\":1"));
        assert!(json.contains("\"tables\":[{\"table\":\"a\""));
        assert!(json.contains("\"name\":\"v\""));
        assert!(json.contains("\"nulls\":1"));
        // Loads show up in the counters the next render reads.
        catalog.load_table("a").unwrap();
        assert!(profile_json(&catalog, None).contains("\"mtc_loads\":1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_arguments_fail_cleanly() {
        assert_eq!(run(&strs(&[])), 2);
        assert_eq!(run(&strs(&["frobnicate"])), 2);
        assert_eq!(run(&strs(&["scan"])), 2);
        assert_eq!(run(&strs(&["serve"])), 2, "serve needs a lake dir");
        assert_eq!(run(&strs(&["serve", "/nonexistent-lake"])), 2);
        assert_eq!(run(&strs(&["request"])), 2, "request needs addr + json");
        assert_eq!(run(&strs(&["request", "127.0.0.1:9"])), 2);
        assert_eq!(run(&strs(&["discover", "/nonexistent", "--task", "x"])), 2);
        let dir = tmp_lake("badflag");
        fs::write(dir.join("a.csv"), "x\n1\n").unwrap();
        let d = dir.to_string_lossy().into_owned();
        assert_eq!(run(&strs(&["scan", &d, "--bogus", "1"])), 2);
        // Misuse that must surface as typed errors, not panics.
        assert_eq!(
            run(&strs(&["discover", &d, "--din", "a", "--task", "bogus:x"])),
            2
        );
        assert_eq!(
            run(&strs(&[
                "discover",
                &d,
                "--din",
                "a",
                "--task",
                "regression:v",
                "--budget",
                "0",
            ])),
            2
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn demo_then_discover_end_to_end() {
        let dir = tmp_lake("e2e");
        let d = dir.to_string_lossy().into_owned();
        assert_eq!(run(&strs(&["demo", &d, "--seed", "7"])), 0);
        assert_eq!(run(&strs(&["scan", &d])), 0);
        assert_eq!(
            run(&strs(&[
                "discover",
                &d,
                "--din",
                "din",
                "--task",
                "classification:label",
                "--budget",
                "60",
                "--seed",
                "7",
            ])),
            0
        );
        // The same run in JSON mode (scripting surface).
        assert_eq!(
            run(&strs(&[
                "discover",
                &d,
                "--din",
                "din",
                "--task",
                "classification:label",
                "--budget",
                "60",
                "--seed",
                "7",
                "--json",
            ])),
            0
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discover_trace_writes_validatable_jsonl() {
        let dir = tmp_lake("trace");
        let d = dir.to_string_lossy().into_owned();
        assert_eq!(run(&strs(&["demo", &d, "--seed", "3"])), 0);
        let trace = dir.join("run.jsonl");
        let t = trace.to_string_lossy().into_owned();
        assert_eq!(
            run(&strs(&[
                "discover",
                &d,
                "--din",
                "din",
                "--task",
                "classification:label",
                "--budget",
                "40",
                "--trace",
                &t,
            ])),
            0
        );
        metam_obs::disable();
        let text = fs::read_to_string(&trace).unwrap();
        let (spans, events) = metam_obs::validate_trace(&text).expect("schema-clean trace");
        assert!(spans > 0, "span lines (scan/prepare/search) present");
        assert!(events > 0, "query/round/finish events present");
        assert!(text.contains("\"event\":\"query\""));
        assert!(text.contains("\"event\":\"finish\""));
        // And the CLI validator agrees.
        assert_eq!(run(&strs(&["trace-validate", &t])), 0);
        assert_eq!(run(&strs(&["trace-validate", "/nonexistent.jsonl"])), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discover_accepts_clustering_spec() {
        let dir = tmp_lake("clu");
        let d = dir.to_string_lossy().into_owned();
        // Two files: din with one numeric column, ext with a bimodal one.
        let din: String = (0..24).map(|i| format!("z{i},{}\n", i % 3)).collect();
        fs::write(dir.join("din.csv"), format!("zip,x\n{din}")).unwrap();
        let ext: String = (0..24)
            .map(|i| format!("z{i},{}\n", if i % 2 == 0 { 0.0 } else { 10.0 }))
            .collect();
        fs::write(dir.join("ext.csv"), format!("zipcode,v\n{ext}")).unwrap();
        assert_eq!(
            run(&strs(&[
                "discover",
                &d,
                "--din",
                "din",
                "--task",
                "clustering:2",
                "--budget",
                "30",
            ])),
            0
        );
        // An explicit unbounded budget runs to exhaustion on this tiny
        // lake and prints the "unbounded budget" line.
        assert_eq!(
            run(&strs(&[
                "discover",
                &d,
                "--din",
                "din",
                "--task",
                "clustering:2",
                "--budget",
                "unbounded",
            ])),
            0
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
