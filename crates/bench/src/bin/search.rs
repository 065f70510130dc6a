//! Search parallelism benchmark: batched query execution over the shared
//! worker pool vs the sequential path.
//!
//! Builds a synthetic prepared fixture whose task carries a deliberate
//! per-evaluation cost (so framework time does not drown the measurement),
//! then runs the same searches at 1 worker and at the machine's available
//! parallelism, **asserting** the properties the engine promises:
//!
//! 1. the thread count never changes results — selected set, utility bits,
//!    query spend and trace are identical at every worker count,
//! 2. the batched path beats the sequential one on wall-clock when more
//!    than one core is up (skipped under `--quick`, the CI smoke mode run
//!    by `ci.sh`, which keeps only the structural assertions).

use std::hint::black_box;
use std::time::Instant;

use metam::core::task::LinearSyntheticTask;
use metam::{run_method, Method, NoopObserver, Prepared, RunResult, Task};
use metam_bench::synthetic::scaled_fixture;
use metam_bench::{inputs_with_task, save_json, Args, TableReport};
use metam_table::Table;

/// A deterministic task with a tunable per-evaluation cost: spins a fixed
/// amount of arithmetic (kept live via `black_box`), then delegates to the
/// cheap linear task. Utility is bit-identical to the inner task's.
struct SlowTask {
    inner: LinearSyntheticTask,
    spin: u64,
}

impl Task for SlowTask {
    fn name(&self) -> &str {
        "slow-linear-synthetic"
    }

    fn utility(&self, table: &Table) -> f64 {
        let mut acc = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..self.spin {
            acc = acc.rotate_left(7) ^ i.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(acc);
        self.inner.utility(table)
    }
}

fn timed_run(
    fixture: &mut Prepared,
    task: &SlowTask,
    method: &Method,
    budget: usize,
    threads: usize,
) -> (RunResult, f64) {
    fixture.threads = threads;
    let inputs = inputs_with_task(fixture, task);
    let start = Instant::now();
    let result = run_method(method, &inputs, None, budget, &mut NoopObserver);
    (result, start.elapsed().as_secs_f64())
}

fn assert_identical(seq: &RunResult, par: &RunResult, threads: usize) {
    assert_eq!(seq.selected, par.selected, "selected @ {threads} threads");
    assert_eq!(
        seq.utility.to_bits(),
        par.utility.to_bits(),
        "utility bits @ {threads} threads"
    );
    assert_eq!(seq.queries, par.queries, "query spend @ {threads} threads");
    assert_eq!(seq.trace, par.trace, "trace @ {threads} threads");
}

fn main() {
    let args = Args::parse();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (n_candidates, budget, spin) = if args.quick {
        (200, 40, 20_000)
    } else {
        (600, 300, 400_000)
    };

    println!(
        "search fixture: {n_candidates} candidates, budget {budget}, \
         spin {spin} (seed {}), {workers} workers",
        args.seed
    );
    let mut fixture = scaled_fixture(n_candidates, 6, 12, args.seed);
    let task = SlowTask {
        inner: LinearSyntheticTask {
            base: 0.2,
            weights: (0..n_candidates)
                .map(|id| if id % 97 == 0 { 0.015 } else { 0.0 })
                .collect(),
        },
        spin,
    };

    // Exercise the batched path even on a single-core machine (the
    // timing assertion below still requires real parallelism).
    let par_threads = workers.max(2);
    let mut table = TableReport::new(
        "search-parallel",
        "batched search: sequential vs pooled wall-clock",
        vec!["method", "seq secs", "par secs", "speedup", "queries"],
    );
    for method in [
        Method::Uniform { seed: args.seed },
        Method::Metam(metam::MetamConfig {
            seed: args.seed,
            ..Default::default()
        }),
    ] {
        let (seq, seq_secs) = timed_run(&mut fixture, &task, &method, budget, 1);
        let (par, par_secs) = timed_run(&mut fixture, &task, &method, budget, par_threads);
        assert_identical(&seq, &par, par_threads);
        let speedup = seq_secs / par_secs.max(1e-9);
        println!(
            "{}: sequential {seq_secs:.3}s | parallel({par_threads}) {par_secs:.3}s | \
             speedup {speedup:.2}x | {} queries",
            seq.method, seq.queries
        );
        // The greedy scan keeps its whole prefetch window busy, so it is
        // the one the timing promise is pinned on; Metam's speculative
        // lookahead only wins what its predictions hit.
        if !args.quick && workers > 1 && matches!(method, Method::Uniform { .. }) {
            assert!(
                par_secs < seq_secs,
                "batched search must beat sequential on {workers} workers \
                 (sequential {seq_secs:.3}s vs parallel {par_secs:.3}s)"
            );
        }
        table.push_row(vec![
            seq.method.clone(),
            format!("{seq_secs:.3}"),
            format!("{par_secs:.3}"),
            format!("{speedup:.2}"),
            seq.queries.to_string(),
        ]);
    }
    table.print();
    save_json(&args.out, "search_parallel", &table);
    println!("ok: thread count changed wall-clock only, never results");
}
