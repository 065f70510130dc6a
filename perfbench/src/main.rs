//! `perf`: metam's end-to-end and per-layer performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! With `--workload`, runs that workload in this process: `--trace 0`
//! measures only the end-to-end metrics (untraced), `--trace 1` only the
//! per-layer metrics (traced), and no `--trace` both, one after the other.
//! It prints `workload metric value unit` lines, writes
//! `DIR/perf-<workload>.json`, and ends stdout with one JSON result line.
//! Without `--workload`, it re-executes itself once per workload, so each
//! workload gets a fresh process (its own peak RSS, no warm state carried
//! over), and writes the combined `DIR/perf.json`. Exits non-zero when any
//! output check failed. See README.md.

mod daemon;
mod lakes;
mod layers;
mod report;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metam::obs::json::{self, Value};

use lakes::{Spec, TempDir, Workload};
use report::{result_line, RunInfo, END_TO_END, PER_LAYER};
use workload::Phases;

const USAGE: &str = "usage: perf [--workload forest_search|many_candidates|serve_wide] \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: None,
        quick: false,
        out: PathBuf::from("target/perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perf: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let ok = match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args, &argv),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn record_path(args: &Args, w: Workload) -> PathBuf {
    args.out.join(format!("perf-{}.json", w.name()))
}

/// Run one workload in this process; `true` when every check passed.
fn run_one(args: &Args, w: Workload) -> bool {
    let spec = Spec::new(w, args.quick);
    let seconds = args.seconds.unwrap_or(if args.quick { 2.0 } else { 30.0 });
    let phases = Phases {
        untraced: args.trace != Some(true),
        traced: args.trace != Some(false),
    };
    let work = args
        .out
        .join(format!("work-{}-{}", w.name(), std::process::id()));
    let mut res = match TempDir::new(work) {
        Ok(dir) => workload::run(&spec, args.seed, seconds, phases, dir.path()),
        Err(e) => {
            let mut res = report::RunResult {
                attempted: 1,
                ..Default::default()
            };
            res.fail(1, format!("scratch directory: {e}"));
            res
        }
    };
    if phases.untraced {
        res.require(END_TO_END);
    }
    if phases.traced {
        res.require(PER_LAYER);
    }

    for (name, value, unit) in &res.metrics {
        println!("{} {name} {value} {unit}", w.name());
    }
    for e in &res.errors {
        eprintln!("{}: CHECK FAILED: {e}", w.name());
    }
    let info = RunInfo {
        workload: w.name(),
        seed: args.seed,
        seconds,
        phases: phases.label(),
        quick: args.quick,
    };
    let path = record_path(args, w);
    if let Err(e) = std::fs::write(&path, report::record(&info, &res)) {
        res.error(format!("writing {}: {e}", path.display()));
    }
    println!(
        "{}",
        result_line(res.correct(), res.attempted, res.failed, &res.metrics)
    );
    res.correct()
}

/// Re-execute this binary once per workload, then combine their records
/// into `perf.json`.
fn run_all(args: &Args, argv: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate this executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut records = Vec::new();
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for w in Workload::ALL {
        let path = record_path(args, w);
        let _ = std::fs::remove_file(&path);
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name()])
            .status();
        ok &= status.is_ok_and(|s| s.success());
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let Ok(record) = json::parse(&text) else {
            eprintln!("perf: {} left no readable record", w.name());
            ok = false;
            continue;
        };
        let count = |k| record.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        if let Some(Value::Obj(map)) = record.get("metrics") {
            for (name, m) in map {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
                metrics.push((format!("{}.{name}", w.name()), value, unit.to_string()));
            }
        }
        records.push(text);
    }
    let combined = format!(
        "{{\"seed\":{},\"workloads\":[{}]}}",
        args.seed,
        records.join(",")
    );
    let path = args.out.join("perf.json");
    if let Err(e) = std::fs::write(&path, combined) {
        eprintln!("perf: writing {}: {e}", path.display());
        ok = false;
    }
    let metrics: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(name, value, unit)| (name.clone(), *value, unit.as_str()))
        .collect();
    println!("{}", result_line(ok, attempted.max(1), failed, &metrics));
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve_wide",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::ServeWide));
        assert_eq!((a.seed, a.seconds, a.trace), (3, Some(20.0), Some(true)));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
    }
}
