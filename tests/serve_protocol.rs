//! End-to-end protocol tests for the `metam serve` daemon.
//!
//! Everything here talks to a real bound TCP socket. The session-backed
//! tests start daemons through `metam::serve::start` — the exact path the
//! CLI takes — and assert the ISSUE acceptance bar: concurrent `discover`
//! replies bit-identical to in-process sessions, typed rejections beyond
//! the admission ceiling, graceful drain ordering, and a connection that
//! survives every malformed line we can throw at it. The admission and
//! drain tests substitute a gated stub handler via `metam_serve::bind` so
//! they can hold requests in-flight deterministically.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use metam::lake::{export_scenario, LakeCatalog};
use metam::obs::json::{self, Value};
use metam::serve::{DiscoverOutput, LakeRegistry, ServeConfig};
use metam::session::Session;
use metam::{MetamConfig, Method};
use metam_datagen::supervised::{build_supervised, SupervisedConfig};
use metam_datagen::Scenario;

/// Tests that run real sessions (and therefore count table loads into the
/// process-global `lake.load.*` metrics registry) serialize on this lock
/// so the counter regression tests see only their own deltas.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock_serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metam-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_scenario(seed: u64) -> Scenario {
    build_supervised(&SupervisedConfig {
        seed,
        n_rows: 240,
        n_informative: 2,
        n_duplicates: 1,
        n_irrelevant_tables: 4,
        n_erroneous_tables: 2,
        n_redundant_tables: 1,
        classification: true,
        ..Default::default()
    })
}

fn demo_lake(tag: &str, seed: u64) -> PathBuf {
    let dir = tmp_dir(tag);
    export_scenario(&small_scenario(seed), &dir).expect("export scenario as a lake");
    dir
}

/// One NDJSON client connection: write a request line, read a reply line.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            reader,
            writer: stream,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send request bytes");
        self.writer.flush().expect("flush request");
    }

    fn read_reply(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply line");
        assert!(
            reply.ends_with('\n'),
            "replies are newline-terminated lines, got {reply:?}"
        );
        reply.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        assert!(!line.contains('\n'));
        self.send_raw(format!("{line}\n").as_bytes());
        self.read_reply()
    }
}

fn one_shot(addr: SocketAddr, line: &str) -> String {
    Client::connect(addr).roundtrip(line)
}

fn parse_reply(reply: &str) -> Value {
    json::parse(reply).unwrap_or_else(|e| panic!("reply must be valid JSON ({e}): {reply}"))
}

fn as_arr(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected a JSON array, got {other:?}"),
    }
}

/// Assert a `"ok":false` reply and return its typed `error` kind label.
fn error_kind(reply: &str) -> String {
    let v = parse_reply(reply);
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "reply: {reply}");
    v.get("error")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("error replies carry a kind: {reply}"))
        .to_string()
}

fn assert_ok(reply: &str) -> Value {
    let v = parse_reply(reply);
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "reply: {reply}");
    v
}

fn status_field(addr: SocketAddr, field: &str) -> f64 {
    let v = assert_ok(&one_shot(addr, "{\"verb\":\"status\"}"));
    v.get(field)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("status reply has numeric {field:?}"))
}

/// Poll `status` until `pred` holds (the daemon's queue state is only
/// observable through the wire, so tests wait on it like a client would).
fn wait_for_status(addr: SocketAddr, what: &str, pred: impl Fn(&Value) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = assert_ok(&one_shot(addr, "{\"verb\":\"status\"}"));
        if pred(&v) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for status: {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Zero the two wall-clock fields so reports from different runs of the
/// same deterministic search compare bit-identical. (The `scrub_timing`
/// helper in parallel_search.rs matches `"secs":` keys, which does not
/// cover `"prepare_secs":` / `"search_secs":`.)
fn scrub_secs(json: &str) -> String {
    let mut out = String::new();
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
            .find([',', '}'])
            .expect("a JSON number field ends with , or }");
        rest = &tail[end..];
    }
}

/// Extract the embedded `discover --json` report from a discover reply.
/// The server renders `report` as the last field for exactly this kind of
/// splice-free consumption.
fn report_of(reply: &str) -> String {
    let key = "\"report\":";
    let pos = reply.find(key).expect("discover replies embed a report") + key.len();
    let body = &reply[pos..];
    assert!(body.ends_with('}'), "report is the final reply field");
    body[..body.len() - 1].to_string()
}

/// A turnstile for stub discover handlers: requests block inside the
/// worker until the test opens the gate, making queue depths observable.
#[derive(Default)]
struct Gate {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait_open(&self) {
        let mut open = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn open(&self) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cv.notify_all();
    }
}

/// A daemon whose discover handler parks on `gate` and then echoes the
/// request seed — enough to observe admission and drain behavior without
/// paying for real searches.
fn gated_server(
    lake: &std::path::Path,
    config: ServeConfig,
    gate: Arc<Gate>,
) -> metam::serve::RunningServer {
    let registry = LakeRegistry::open(&[("demo".to_string(), lake.to_path_buf())])
        .expect("open stub registry");
    metam_serve::bind(
        config,
        registry,
        Box::new(move |request, _catalog| {
            gate.wait_open();
            Ok(DiscoverOutput {
                report_json: format!("{{\"seed\":{}}}", request.seed),
                cache_json: "{}".to_string(),
            })
        }),
    )
    .expect("bind stub daemon")
}

fn tiny_lake(tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("alpha.csv"), "x,y\n1,2\n3,4\n").expect("write csv");
    dir
}

fn discover_line(lake: &str, seed: u64) -> String {
    format!(
        "{{\"verb\":\"discover\",\"lake\":{lake:?},\"din\":\"din\",\
         \"task\":\"classification:label\",\"seed\":{seed},\"budget\":40,\"threads\":1}}"
    )
}

// ---------------------------------------------------------------------------
// Satellite 2: every malformed input is a typed reply on a surviving
// connection — never a panic, never a dropped socket.
// ---------------------------------------------------------------------------

#[test]
fn malformed_input_yields_typed_replies_on_a_surviving_connection() {
    let _serial = lock_serial();
    let dir = demo_lake("robust", 3);
    let server = metam::serve::start(
        &[("demo".to_string(), dir.clone())],
        ServeConfig {
            workers: 1,
            queue: 4,
            max_line_bytes: 1 << 17,
            ..ServeConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.addr();

    // Every probe goes down the SAME connection; each must produce exactly
    // one typed reply and leave the connection usable for the next.
    let mut client = Client::connect(addr);
    assert_eq!(
        error_kind(&client.roundtrip("this is not json")),
        "bad_request"
    );
    assert_eq!(error_kind(&client.roundtrip("[1,2,3]")), "bad_request");
    // 100,000 nested arrays fit under the line cap; the parser refuses
    // them by depth instead of overflowing the connection thread's stack
    // (which aborted the whole daemon).
    assert_eq!(
        error_kind(&client.roundtrip(&"[".repeat(100_000))),
        "bad_request"
    );
    assert_eq!(
        error_kind(&client.roundtrip("{\"verb\":\"frobnicate\"}")),
        "unknown_verb"
    );
    assert_eq!(
        error_kind(&client.roundtrip(
            "{\"verb\":\"discover\",\"din\":\"din\",\"task\":\"classification:label\"}"
        )),
        "bad_request",
        "missing lake field"
    );
    assert_eq!(
        error_kind(&client.roundtrip(&discover_line("nope", 1))),
        "unknown_lake"
    );
    // Budget 0 parses fine but the session refuses it: a bad_request from
    // the worker, not a panic or an internal error.
    let zero_budget = "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"din\",\
                       \"task\":\"classification:label\",\"budget\":0}";
    assert_eq!(error_kind(&client.roundtrip(zero_budget)), "bad_request");
    // A line over max_line_bytes=128 KiB: typed `oversized` reply, line
    // discarded, connection intact.
    let huge = format!("{}\n", "x".repeat((1 << 17) + 100));
    client.send_raw(huge.as_bytes());
    assert_eq!(error_kind(&client.read_reply()), "oversized");
    // Blank lines are skipped, not answered: the next reply on the wire
    // belongs to the status request that follows.
    client.send_raw(b"\n");
    let status = assert_ok(&client.roundtrip("{\"verb\":\"status\"}"));
    assert_eq!(status.get("verb").and_then(Value::as_str), Some("status"));

    assert_ok(&client.roundtrip("{\"verb\":\"shutdown\"}"));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The acceptance bar: 8 concurrent TCP discovers, bit-identical to the
// same sessions run in-process.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_discovers_match_in_process_sessions_bit_for_bit() {
    let _serial = lock_serial();
    let dir = demo_lake("bitid", 7);
    let seeds: Vec<u64> = (1..=8).collect();

    let server = metam::serve::start(
        &[("demo".to_string(), dir.clone())],
        ServeConfig {
            workers: 8,
            queue: 8,
            ..ServeConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.addr();

    // All 8 requests in flight at once, each on its own connection.
    let handles: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let reply = one_shot(addr, &discover_line("demo", seed));
                assert_ok(&reply);
                report_of(&reply)
            })
        })
        .collect();
    let served: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    assert_ok(&one_shot(addr, "{\"verb\":\"shutdown\"}"));
    server.join();

    // The reference runs: the identical sessions, in-process, over one
    // shared catalog of the same lake directory.
    let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan reference catalog"));
    for (i, &seed) in seeds.iter().enumerate() {
        let mut report = Session::from_shared_catalog(Arc::clone(&catalog))
            .din("din")
            .task_spec("classification:label")
            .seed(seed)
            .budget(40)
            .threads(1)
            .run(Method::Metam(MetamConfig::default()))
            .expect("in-process session");
        // Serve replies omit the process-global metrics section; mirror
        // that here so only wall-clock fields need scrubbing.
        report.metrics = None;
        assert_eq!(
            scrub_secs(&served[i]),
            scrub_secs(&report.to_json()),
            "seed {seed}: daemon report must be bit-identical to the in-process run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Admission: the (N+1)th request beyond the ceiling is a typed rejection,
// and budget caps refuse work before it takes a queue slot.
// ---------------------------------------------------------------------------

#[test]
fn requests_beyond_the_ceiling_are_rejected_with_a_typed_reply() {
    let dir = tiny_lake("admission");
    let gate = Arc::new(Gate::default());
    // workers=2 + queue=2 → ceiling of 4 outstanding requests.
    let server = gated_server(
        &dir,
        ServeConfig {
            workers: 2,
            queue: 2,
            max_budget: Some(50),
            ..ServeConfig::default()
        },
        Arc::clone(&gate),
    );
    let addr = server.addr();

    // A budget over the server cap never reaches the queue: typed
    // rejection while the queue is still empty.
    let greedy = "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"d\",\
                  \"task\":\"t\",\"budget\":100}";
    assert_eq!(error_kind(&one_shot(addr, greedy)), "rejected");

    // Fill the ceiling: 2 in-flight (parked on the gate) + 2 queued.
    let clients: Vec<_> = (1..=4)
        .map(|seed| {
            std::thread::spawn(move || {
                let line = format!(
                    "{{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"d\",\
                     \"task\":\"t\",\"budget\":10,\"seed\":{seed}}}"
                );
                one_shot(addr, &line)
            })
        })
        .collect();
    wait_for_status(addr, "2 active + 2 queued", |v| {
        v.get("active").and_then(Value::as_f64) == Some(2.0)
            && v.get("queued").and_then(Value::as_f64) == Some(2.0)
    });

    // The 5th request over the full ceiling: typed rejection, connection
    // answered immediately even though all workers are busy.
    let fifth = "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"d\",\
                 \"task\":\"t\",\"budget\":10,\"seed\":5}";
    assert_eq!(error_kind(&one_shot(addr, fifth)), "rejected");
    assert!(
        status_field(addr, "rejected") >= 2.0,
        "both rejections counted"
    );

    // Open the gate: all four admitted requests complete with their own
    // seeds (FIFO per worker; no reply is lost or crossed).
    gate.open();
    let mut seeds_seen: Vec<u64> = clients
        .into_iter()
        .map(|h| {
            let reply = h.join().expect("client thread");
            let v = assert_ok(&reply);
            assert_eq!(v.get("verb").and_then(Value::as_str), Some("discover"));
            v.get("report")
                .and_then(|r| r.get("seed"))
                .and_then(Value::as_f64)
                .expect("stub echoes the seed") as u64
        })
        .collect();
    seeds_seen.sort_unstable();
    assert_eq!(seeds_seen, vec![1, 2, 3, 4]);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Satellite 1: graceful shutdown — in-flight work drains to completion,
// new work gets a typed `shutting_down` reply, join() returns.
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_work_before_refusing_new_requests() {
    let dir = tiny_lake("drain");
    let gate = Arc::new(Gate::default());
    let server = gated_server(
        &dir,
        ServeConfig {
            workers: 1,
            queue: 4,
            ..ServeConfig::default()
        },
        Arc::clone(&gate),
    );
    let addr = server.addr();

    // Park one discover in-flight on the gate.
    let in_flight = std::thread::spawn(move || {
        one_shot(
            addr,
            "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"d\",\
             \"task\":\"t\",\"seed\":42}",
        )
    });
    wait_for_status(addr, "one request in flight", |v| {
        v.get("active").and_then(Value::as_f64) == Some(1.0)
    });

    // Shutdown is acknowledged while work is still running...
    let ack = assert_ok(&one_shot(addr, "{\"verb\":\"shutdown\"}"));
    assert_eq!(
        ack.get("draining_active").and_then(Value::as_f64),
        Some(1.0),
        "the ack reports the in-flight request it is waiting for"
    );
    // ...new work is refused with a typed reply...
    let late = "{\"verb\":\"discover\",\"lake\":\"demo\",\"din\":\"d\",\"task\":\"t\"}";
    assert_eq!(error_kind(&one_shot(addr, late)), "shutting_down");
    // ...and introspection stays answerable during the drain.
    let status = assert_ok(&one_shot(addr, "{\"verb\":\"status\"}"));
    assert_eq!(status.get("shutting_down"), Some(&Value::Bool(true)));

    // Release the gate: the in-flight request completes successfully
    // (drain means finish, not abort), then join() returns.
    gate.open();
    let reply = in_flight.join().expect("in-flight client");
    let v = assert_ok(&reply);
    assert_eq!(
        v.get("report")
            .and_then(|r| r.get("seed"))
            .and_then(Value::as_f64),
        Some(42.0)
    );
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptor blocks in `accept`: a request on a new connection is
/// answered without waiting out a poll interval, `shutdown()` + `join()`
/// on an idle daemon returns at once (the acceptor is woken by a
/// self-connect, over loopback when bound to every interface), and a
/// stop-file still stops the daemon.
#[test]
fn idle_daemon_answers_new_connections_and_stops_promptly() {
    let dir = tiny_lake("idle");
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = gated_server(
            &dir,
            ServeConfig {
                addr: bind.to_string(),
                ..ServeConfig::default()
            },
            Arc::new(Gate::default()),
        );
        let addr = SocketAddr::from(([127, 0, 0, 1], server.addr().port()));
        let mut latencies: Vec<Duration> = (0..5)
            .map(|_| {
                let started = Instant::now();
                assert_ok(&one_shot(addr, "{\"verb\":\"status\"}"));
                started.elapsed()
            })
            .collect();
        latencies.sort();
        assert!(
            latencies[2] < Duration::from_millis(50),
            "{bind}: median status latency on a new connection {:?}",
            latencies[2]
        );
        let started = Instant::now();
        server.shutdown();
        server.join();
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "{bind}: shutdown + join of an idle daemon took {:?}",
            started.elapsed()
        );
    }

    let stop_file = dir.join("stop");
    let server = gated_server(
        &dir,
        ServeConfig {
            stop_file: Some(stop_file.clone()),
            ..ServeConfig::default()
        },
        Arc::new(Gate::default()),
    );
    assert_ok(&one_shot(server.addr(), "{\"verb\":\"status\"}"));
    std::fs::write(&stop_file, "").expect("write the stop file");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Load counters: every table load reaches the metrics registry exactly
// once, from concurrent sessions over one shared catalog and from a
// one-shot discover's lazy loads during its search.
// ---------------------------------------------------------------------------

#[test]
fn shared_catalog_sessions_flush_each_load_exactly_once() {
    let _serial = lock_serial();
    let dir = demo_lake("counters", 5);
    let catalog = Arc::new(LakeCatalog::scan(&dir).expect("scan"));
    let load = catalog.load_counters();

    let registry_before = |name: &str| metam::obs::metrics_snapshot().counter(name).unwrap_or(0);
    let before_hits = registry_before("lake.load.mtc_hits");
    let before_misses = registry_before("lake.load.csv_fallbacks");
    let lifetime_before = load.hits() + load.misses();

    // 8 concurrent sessions over the SAME catalog. Under the old
    // cumulative flush, each prepare re-reported every load since catalog
    // creation, over-counting roughly quadratically.
    let handles: Vec<_> = (0..8u64)
        .map(|seed| {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                Session::from_shared_catalog(catalog)
                    .din("din")
                    .task_spec("classification:label")
                    .seed(seed)
                    .budget(5)
                    .run(Method::Metam(MetamConfig::default()))
                    .expect("session over shared catalog")
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }

    let lifetime_delta = load.hits() + load.misses() - lifetime_before;
    assert!(lifetime_delta >= 8, "each session loads at least the din");
    let registry_delta = (registry_before("lake.load.mtc_hits") - before_hits)
        + (registry_before("lake.load.csv_fallbacks") - before_misses);
    assert_eq!(
        registry_delta, lifetime_delta as u64,
        "every load is flushed to the registry exactly once, even with \
         8 sessions sharing one catalog"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shot_discover_report_counts_every_table_load() {
    let _serial = lock_serial();
    let dir = demo_lake("report-loads", 6);
    let catalog = LakeCatalog::scan(&dir).expect("scan");
    let load = catalog.load_counters();
    let registry_loads = |metrics: &metam::obs::MetricsSnapshot| {
        metrics.counter("lake.load.mtc_hits").unwrap_or(0)
            + metrics.counter("lake.load.csv_fallbacks").unwrap_or(0)
    };
    let registry_before = registry_loads(&metam::obs::metrics_snapshot());
    let lifetime_before = load.hits() + load.misses();

    let report = Session::from_catalog(catalog)
        .din("din")
        .task_spec("classification:label")
        .seed(6)
        .budget(10)
        .run(Method::Metam(MetamConfig::default()))
        .expect("one-shot discover");

    let loads = load.hits() + load.misses() - lifetime_before;
    assert!(loads > 1, "the search loads repository tables past the din");
    let metrics = report.metrics.expect("the report carries metrics");
    assert_eq!(
        registry_loads(&metrics) - registry_before,
        loads as u64,
        "the report's load counters include the search's lazy loads"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hot-catalog freshness: `lakes`, explicit `scan`, and stale-hit
// revalidation through the `profile` verb.
// ---------------------------------------------------------------------------

#[test]
fn scan_and_stale_hits_refresh_the_hot_catalog_in_place() {
    let _serial = lock_serial();
    let dir = tiny_lake("fresh");
    std::fs::write(dir.join("beta.csv"), "a,b\n5,6\n").expect("write csv");
    let server = metam::serve::start(
        &[("demo".to_string(), dir.clone())],
        ServeConfig {
            workers: 1,
            queue: 4,
            ..ServeConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.addr();

    let lakes = assert_ok(&one_shot(addr, "{\"verb\":\"lakes\"}"));
    let entry = &as_arr(lakes.get("lakes").expect("lakes field"))[0];
    assert_eq!(entry.get("name").and_then(Value::as_str), Some("demo"));
    assert_eq!(entry.get("tables").and_then(Value::as_f64), Some(2.0));

    // A file lands in the lake; an explicit `scan` verb picks it up.
    std::fs::write(dir.join("gamma.csv"), "c\n9\n").expect("write csv");
    let scanned = assert_ok(&one_shot(addr, "{\"verb\":\"scan\",\"lake\":\"demo\"}"));
    assert_eq!(scanned.get("tables").and_then(Value::as_f64), Some(3.0));

    // Another file lands; NO explicit scan this time. The next hot-path
    // request notices the stale fingerprints and revalidates in place.
    std::fs::write(dir.join("delta.csv"), "d\n1\n").expect("write csv");
    let profiled = assert_ok(&one_shot(addr, "{\"verb\":\"profile\",\"lake\":\"demo\"}"));
    let tables: Vec<String> = as_arr(
        profiled
            .get("profile")
            .and_then(|p| p.get("tables"))
            .expect("profile reply lists tables"),
    )
    .iter()
    .filter_map(|entry| entry.get("table").and_then(Value::as_str))
    .map(String::from)
    .collect();
    assert!(
        tables.iter().any(|t| t == "delta"),
        "stale hit revalidated the catalog: {tables:?}"
    );

    assert_ok(&one_shot(addr, "{\"verb\":\"shutdown\"}"));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_of_an_unchanged_lake_rescans_and_heals_a_rotted_record() {
    let _serial = lock_serial();
    let dir = tiny_lake("heal");
    std::fs::write(dir.join("beta.csv"), "a,b\n5,6\n").expect("write csv");
    let server = metam::serve::start(
        &[("demo".to_string(), dir.clone())],
        ServeConfig {
            workers: 1,
            queue: 4,
            ..ServeConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.addr();
    let counts = |reply: &Value| {
        let field = |name| reply.get(name).and_then(Value::as_f64);
        (field("profile_hits"), field("profile_misses"))
    };

    // The lake is unchanged since the start-up scan; the record of one
    // file rots on disk (a torn write), which no fingerprint notices.
    let record = metam::lake::sketch::sketch_path(&dir, "alpha.csv");
    let intact = std::fs::read(&record).expect("start-up scan wrote the record");
    std::fs::write(&record, &intact[..intact.len() / 2]).expect("truncate record");

    let scanned = assert_ok(&one_shot(addr, "{\"verb\":\"scan\",\"lake\":\"demo\"}"));
    assert_eq!(
        counts(&scanned),
        (Some(1.0), Some(1.0)),
        "the scan re-read both records and re-profiled the rotted one"
    );
    assert_eq!(
        std::fs::read(&record).expect("healed record"),
        intact,
        "the rescan rewrote the record"
    );
    let again = assert_ok(&one_shot(addr, "{\"verb\":\"scan\",\"lake\":\"demo\"}"));
    assert_eq!(counts(&again), (Some(2.0), Some(0.0)));

    assert_ok(&one_shot(addr, "{\"verb\":\"shutdown\"}"));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
