//! Parallel-search determinism guarantees: the worker-thread count is a
//! pure wall-clock knob. A run with `threads(N)` must be **bit-identical**
//! to the sequential run — same solution, same utility bits, same query
//! accounting, same trace, same observer event stream, same JSONL trace
//! (timing fields aside, which are wall-clock by nature).

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

use metam::core::engine::SearchInputs;
use metam::discovery::CandidateId;
use metam::obs;
use metam::{
    run_method, MetamConfig, Method, NoopObserver, Prepared, QueryEvent, QueryKind, RunObserver,
    RunResult, Session, StopReason,
};
use metam_datagen::causal_scenario::{build_causal, CausalConfig, CausalKind};

/// The trace sink is process-global; every test that installs one or runs
/// pipeline code takes this lock so parallel test threads never see each
/// other's lines.
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// An in-memory `Write` sink the test keeps a handle on.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap_or_else(PoisonError::into_inner)).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Owned copy of one [`QueryEvent`], minus the wall-clock duration (the
/// only field allowed to differ across thread counts).
#[derive(Debug, Clone, PartialEq)]
struct OwnedQuery {
    query: usize,
    kind: QueryKind,
    set: Vec<CandidateId>,
    candidate: Option<CandidateId>,
    utility: f64,
    best_utility: f64,
    delta: f64,
    queries_remaining: usize,
}

#[derive(Debug, Default)]
struct EventRecorder {
    events: Vec<OwnedQuery>,
    finish: Option<StopReason>,
}

impl RunObserver for EventRecorder {
    fn on_query(&mut self, event: &QueryEvent<'_>) {
        self.events.push(OwnedQuery {
            query: event.query,
            kind: event.kind,
            set: event.set.to_vec(),
            candidate: event.candidate,
            utility: event.utility,
            best_utility: event.best_utility,
            delta: event.delta,
            queries_remaining: event.queries_remaining,
        });
    }

    fn on_finish(&mut self, stop_reason: StopReason) {
        self.finish = Some(stop_reason);
    }
}

/// The seed-32 causal how-to fixture from `tests/observability.rs`, with a
/// caller-chosen search worker count.
fn howto_prepared(threads: usize) -> Prepared {
    let scenario = build_causal(&CausalConfig {
        seed: 32,
        kind: CausalKind::HowTo,
        n_irrelevant_tables: 20,
        n_erroneous_tables: 6,
        n_confounder_tables: 8,
        ..Default::default()
    });
    Session::from_scenario(scenario)
        .seed(32)
        .threads(threads)
        .prepare()
        .expect("prepare")
}

/// Blank the numeric value after every `"ts":` / `"secs":` key so JSONL
/// lines compare equal across runs that only differ in wall-clock.
fn scrub_timing(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let mut rest = line;
        while let Some(pos) = ["\"ts\":", "\"secs\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|p| p + k.len()))
            .min()
        {
            out.push_str(&rest[..pos]);
            out.push('0');
            let tail = &rest[pos..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            rest = &tail[end..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

fn assert_bit_identical(seq: &RunResult, par: &RunResult, threads: usize) {
    assert_eq!(seq.selected, par.selected, "solution @ {threads} threads");
    assert_eq!(
        seq.utility.to_bits(),
        par.utility.to_bits(),
        "utility bits @ {threads} threads"
    );
    assert_eq!(
        seq.base_utility.to_bits(),
        par.base_utility.to_bits(),
        "base utility bits @ {threads} threads"
    );
    assert_eq!(seq.queries, par.queries, "budget spend @ {threads} threads");
    assert_eq!(seq.trace, par.trace, "trace @ {threads} threads");
}

/// The headline regression: Metam on the causal how-to fixture with a
/// 4-worker pool is bit-identical to the sequential run — report, trace,
/// observer event stream, and the emitted JSONL trace (timing scrubbed).
#[test]
fn parallel_metam_is_bit_identical_to_sequential() {
    let _guard = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::disable();
    let method = Method::Metam(MetamConfig {
        seed: 32,
        ..Default::default()
    });

    let mut runs = Vec::new();
    for threads in [1, 4] {
        let prepared = howto_prepared(threads);
        assert_eq!(prepared.threads, threads, "thread plumbing");
        let buf = SharedBuf::default();
        obs::install_writer(Box::new(buf.clone()));
        let mut rec = EventRecorder::default();
        let result = run_method(&method, &prepared.inputs(), Some(1.0), 250, &mut rec);
        obs::flush();
        obs::disable();
        runs.push((result, rec, scrub_timing(&buf.contents())));
    }
    let (par, par_rec, par_trace) = runs.pop().expect("parallel run");
    let (seq, seq_rec, seq_trace) = runs.pop().expect("sequential run");

    assert_bit_identical(&seq, &par, 4);
    // Regression pin shared with tests/observability.rs: the thread count
    // must never change the spend on this fixture (seed 32, how-to).
    assert_eq!(par.queries, 30, "seed-32 how-to query-count pin");

    // The observer saw the same run, event for event (kinds, sets,
    // per-plan candidates, utilities, remaining budget).
    assert_eq!(seq_rec.events, par_rec.events, "event streams");
    assert_eq!(seq_rec.finish, par_rec.finish, "stop reason");

    // The JSONL traces are line-identical once wall-clock is scrubbed.
    assert_eq!(seq_trace, par_trace, "JSONL traces");
    assert!(
        par_trace.contains("\"event\":\"query\""),
        "trace captured query lines"
    );
}

/// The converted baseline path: Uniform's windowed greedy scan is
/// bit-identical across thread counts too (including an oversized pool).
#[test]
fn parallel_uniform_is_bit_identical_to_sequential() {
    // Its pipeline spans would land in a sink another test installed.
    let _guard = SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let method = Method::Uniform { seed: 7 };
    let seq = {
        let prepared = howto_prepared(1);
        run_method(&method, &prepared.inputs(), None, 60, &mut NoopObserver)
    };
    for threads in [3, 64] {
        let prepared = howto_prepared(threads);
        let par = run_method(&method, &prepared.inputs(), None, 60, &mut NoopObserver);
        assert_bit_identical(&seq, &par, threads);
    }
}

/// The data plane is thread-mobile: a whole session (and its prepared
/// state) can move across threads, and the search inputs can be shared by
/// worker threads. Pure compile-time assertions.
#[test]
fn session_and_prepared_are_send() {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}
    assert_send::<Session>();
    assert_send::<Prepared>();
    assert_sync::<SearchInputs<'static>>();
}
