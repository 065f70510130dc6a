//! Golden bytes for every JSON document the program emits.
//!
//! Each test renders one surface and compares the *full* string with a
//! pinned literal: field order, float text, escapes, `null`s and the
//! indented `discover --json` form. Consumers parse these documents (and
//! the benchmark slices the daemon's `discover` reply after `,"report":`),
//! so a change to any byte here is a wire-format change.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use metam::core::trace::TracePoint;
use metam::core::StopReason;
use metam::lake::LakeCatalog;
use metam::obs::{HistSummary, MetricsSnapshot};
use metam::serve::{ErrorKind, ServeConfig, ServeError};
use metam::session::{RunReport, Session};
use metam::{MetamConfig, Method};

/// The trace sink is process-global and sessions emit into it, so the
/// tests in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Replace the number after each of `keys` with `0`.
fn scrub(text: &str, keys: &[&str]) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(pos) = keys
        .iter()
        .filter_map(|k| rest.find(k).map(|p| p + k.len()))
        .min()
    {
        out.push_str(&rest[..pos]);
        out.push('0');
        let tail = &rest[pos..];
        rest = &tail[tail.find([',', '}']).unwrap_or(tail.len())..];
    }
    out.push_str(rest);
    out
}

fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: vec![("lake.load.mtc".into(), 3), ("q\"uoted\\name".into(), 0)],
        histograms: vec![
            (
                "span.search".into(),
                HistSummary {
                    count: 2,
                    sum: 0.1 + 0.2,
                    min: 0.1,
                    max: 0.2,
                },
            ),
            ("empty".into(), HistSummary::default()),
            (
                "nan".into(),
                HistSummary {
                    count: 1,
                    sum: f64::NAN,
                    min: f64::NEG_INFINITY,
                    max: 1e-7,
                },
            ),
        ],
    }
}

/// Tricky strings, an unbounded budget, `None` options and non-finite
/// floats.
fn tricky_report() -> RunReport {
    RunReport {
        method: "Met\"am".into(),
        din_name: "d\\in\n\t".into(),
        din_rows: 10,
        din_cols: 2,
        n_candidates: 4,
        selected: vec![1, 3],
        selected_names: vec!["a \"q\" \\ \u{1} café→".into(), "b/{c},[d]:e".into()],
        utility: 0.1 + 0.2,
        base_utility: f64::NAN,
        queries: 7,
        budget: usize::MAX,
        stop_reason: None,
        n_clusters: None,
        certification_ignored: None,
        trace: vec![
            TracePoint {
                queries: 1,
                utility: f64::INFINITY,
            },
            TracePoint {
                queries: 7,
                utility: 2.5e20,
            },
        ],
        threads: 3,
        prepare_secs: 1e-7,
        search_secs: 0.5,
        metrics: None,
    }
}

/// A bounded run with a stop reason and a metrics section.
fn plain_report() -> RunReport {
    RunReport {
        method: "Metam".into(),
        din_name: "din".into(),
        din_rows: 240,
        din_cols: 3,
        n_candidates: 0,
        selected: vec![],
        selected_names: vec![],
        utility: 0.75,
        base_utility: 0.5,
        queries: 30,
        budget: 300,
        stop_reason: Some(StopReason::ThetaReached),
        n_clusters: Some(2),
        certification_ignored: Some(0),
        trace: vec![],
        threads: 1,
        prepare_secs: 0.0,
        search_secs: -0.0,
        metrics: Some(snapshot()),
    }
}

/// The indented form `metam discover --json` prints.
fn pretty(report: &RunReport) -> String {
    metam::obs::json::pretty(&report.to_json())
}

#[test]
fn run_report_compact_bytes() {
    assert_eq!(
        tricky_report().to_json(),
        r#"{"method":"Met\"am","din":{"name":"d\\in\n\t","rows":10,"cols":2},"candidates":4,"utility":0.30000000000000004,"base_utility":null,"gain":null,"queries":7,"budget":null,"queries_remaining":null,"stop_reason":null,"n_clusters":null,"certification_ignored":null,"selected":[{"id":1,"name":"a \"q\" \\ \u0001 café→"},{"id":3,"name":"b/{c},[d]:e"}],"threads":3,"prepare_secs":0.0000001,"search_secs":0.5,"metrics":null,"trace":[[1,null],[7,250000000000000000000]]}"#
    );
    assert_eq!(
        plain_report().to_json(),
        r#"{"method":"Metam","din":{"name":"din","rows":240,"cols":3},"candidates":0,"utility":0.75,"base_utility":0.5,"gain":0.25,"queries":30,"budget":300,"queries_remaining":270,"stop_reason":"theta reached (target utility met)","n_clusters":2,"certification_ignored":0,"selected":[],"threads":1,"prepare_secs":0,"search_secs":-0,"metrics":{"counters":{"lake.load.mtc":3,"q\"uoted\\name":0},"histograms":{"span.search":{"count":2,"sum":0.30000000000000004,"min":0.1,"max":0.2,"mean":0.15000000000000002},"empty":{"count":0,"sum":0,"min":0,"max":0,"mean":0},"nan":{"count":1,"sum":null,"min":null,"max":0.0000001,"mean":null}}},"trace":[]}"#
    );
}

#[test]
fn discover_json_indented_bytes() {
    assert_eq!(
        pretty(&tricky_report()),
        r#"{
  "method": "Met\"am",
  "din": {
    "name": "d\\in\n\t",
    "rows": 10,
    "cols": 2
  },
  "candidates": 4,
  "utility": 0.30000000000000004,
  "base_utility": null,
  "gain": null,
  "queries": 7,
  "budget": null,
  "queries_remaining": null,
  "stop_reason": null,
  "n_clusters": null,
  "certification_ignored": null,
  "selected": [
    {
      "id": 1,
      "name": "a \"q\" \\ \u0001 café→"
    },
    {
      "id": 3,
      "name": "b/{c},[d]:e"
    }
  ],
  "threads": 3,
  "prepare_secs": 0.0000001,
  "search_secs": 0.5,
  "metrics": null,
  "trace": [
    [
      1,
      null
    ],
    [
      7,
      250000000000000000000
    ]
  ]
}"#
    );
    // Empty containers keep their (odd but pinned) blank inner line.
    assert_eq!(
        pretty(&plain_report()),
        "{\n  \"method\": \"Metam\",\n  \"din\": {\n    \"name\": \"din\",\n    \"rows\": 240,\n    \"cols\": 3\n  },\n  \"candidates\": 0,\n  \"utility\": 0.75,\n  \"base_utility\": 0.5,\n  \"gain\": 0.25,\n  \"queries\": 30,\n  \"budget\": 300,\n  \"queries_remaining\": 270,\n  \"stop_reason\": \"theta reached (target utility met)\",\n  \"n_clusters\": 2,\n  \"certification_ignored\": 0,\n  \"selected\": [\n    \n  ],\n  \"threads\": 1,\n  \"prepare_secs\": 0,\n  \"search_secs\": -0,\n  \"metrics\": {\n    \"counters\": {\n      \"lake.load.mtc\": 3,\n      \"q\\\"uoted\\\\name\": 0\n    },\n    \"histograms\": {\n      \"span.search\": {\n        \"count\": 2,\n        \"sum\": 0.30000000000000004,\n        \"min\": 0.1,\n        \"max\": 0.2,\n        \"mean\": 0.15000000000000002\n      },\n      \"empty\": {\n        \"count\": 0,\n        \"sum\": 0,\n        \"min\": 0,\n        \"max\": 0,\n        \"mean\": 0\n      },\n      \"nan\": {\n        \"count\": 1,\n        \"sum\": null,\n        \"min\": null,\n        \"max\": 0.0000001,\n        \"mean\": null\n      }\n    }\n  },\n  \"trace\": [\n    \n  ]\n}"
    );
}

#[test]
fn metrics_snapshot_bytes() {
    assert_eq!(
        snapshot().to_json(),
        r#"{"counters":{"lake.load.mtc":3,"q\"uoted\\name":0},"histograms":{"span.search":{"count":2,"sum":0.30000000000000004,"min":0.1,"max":0.2,"mean":0.15000000000000002},"empty":{"count":0,"sum":0,"min":0,"max":0,"mean":0},"nan":{"count":1,"sum":null,"min":null,"max":0.0000001,"mean":null}}}"#
    );
    assert_eq!(
        MetricsSnapshot::default().to_json(),
        r#"{"counters":{},"histograms":{}}"#
    );
}

/// `Write` into a buffer the test keeps a handle on.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
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

#[test]
fn trace_event_line_bytes() {
    let _serial = serial();
    let buf = SharedBuf::default();
    metam::obs::install_writer(Box::new(buf.clone()));
    metam::obs::Event::event("query", "seq\"uential")
        .int("queries", 3)
        .int("remaining", usize::MAX)
        .num("utility", 0.1 + 0.2)
        .num("nan", f64::NAN)
        .ints("set", &[1, 2, usize::MAX])
        .ints("none", &[])
        .str("note", "a\"b\\c\n\u{1}é")
        .emit();
    metam::obs::Event::span("scan.profile", "t.csv")
        .num("secs", 0.25)
        .emit();
    metam::obs::disable();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(
        scrub(&text, &["\"ts\":"]),
        "{\"ts\":0,\"event\":\"query\",\"name\":\"seq\\\"uential\",\"queries\":3,\"remaining\":null,\"utility\":0.30000000000000004,\"nan\":null,\"set\":[1,2,18446744073709551615],\"none\":[],\"note\":\"a\\\"b\\\\c\\n\\u0001é\"}\n\
         {\"ts\":0,\"span\":\"scan.profile\",\"name\":\"t.csv\",\"secs\":0.25}\n"
    );
}

fn tiny_lake() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metam-json-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let rows = |f: &dyn Fn(usize) -> String| (0..30).map(f).collect::<String>();
    let din = rows(&|i| format!("z{i},{}\n", i % 2));
    let extra = rows(&|i| format!("z{i},{}\n", (i % 2) * 3 + i % 3));
    std::fs::write(dir.join("din.csv"), format!("zip,label\n{din}")).expect("din");
    std::fs::write(dir.join("extra.csv"), format!("zip,v\n{extra}")).expect("extra");
    std::fs::write(dir.join("notes.csv"), "k,w\nn1,x\nn2,\nn3,y\n").expect("notes");
    dir
}

fn roundtrip(addr: std::net::SocketAddr, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("read reply");
    reply.trim_end().to_string()
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    metam::obs::json::write_string(&mut out, s);
    out
}

#[test]
fn profile_json_bytes() {
    let _serial = serial();
    let dir = tiny_lake();
    let catalog = LakeCatalog::scan(&dir).expect("scan");
    assert_eq!(
        metam_serve::render::profile_json(&catalog, Some("notes")),
        r#"{"cache":{"profile_hits":0,"profile_misses":3,"mtc_loads":0,"csv_fallbacks":0},"tables":[{"table":"notes","rows":3,"columns":[{"name":"k","dtype":"str","nulls":0,"distinct":3,"min":null,"max":null,"mean":null},{"name":"w","dtype":"str","nulls":1,"distinct":2,"min":null,"max":null,"mean":null}]}]}"#
    );
    catalog.load_table("extra").expect("load");
    assert_eq!(
        metam_serve::render::profile_json(&catalog, Some("extra")),
        r#"{"cache":{"profile_hits":0,"profile_misses":3,"mtc_loads":1,"csv_fallbacks":0},"tables":[{"table":"extra","rows":30,"columns":[{"name":"zip","dtype":"str","nulls":0,"distinct":30,"min":null,"max":null,"mean":null},{"name":"v","dtype":"int","nulls":0,"distinct":6,"min":0,"max":5,"mean":2.5}]}]}"#
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_reply_bytes() {
    let _serial = serial();
    let dir = tiny_lake();
    let lake = |d: &Path| vec![("tiny".to_string(), d.to_path_buf())];
    let server = metam::serve::start(
        &lake(&dir),
        ServeConfig {
            workers: 1,
            queue: 4,
            ..ServeConfig::default()
        },
    )
    .expect("start daemon");
    let addr = server.addr();

    assert_eq!(
        roundtrip(addr, r#"{"verb":"lakes"}"#),
        format!(
            r#"{{"ok":true,"verb":"lakes","lakes":[{{"name":"tiny","root":{},"tables":3,"rows":63,"columns":6}}]}}"#,
            json_str(&dir.display().to_string())
        )
    );
    assert_eq!(
        roundtrip(addr, r#"{"verb":"scan","lake":"tiny"}"#),
        r#"{"ok":true,"verb":"scan","lake":"tiny","tables":3,"rows":63,"columns":6,"profile_hits":3,"profile_misses":0}"#
    );
    assert_eq!(
        roundtrip(addr, r#"{"verb":"profile","lake":"tiny","table":"notes"}"#),
        r#"{"ok":true,"verb":"profile","lake":"tiny","profile":{"cache":{"profile_hits":3,"profile_misses":0,"mtc_loads":0,"csv_fallbacks":0},"tables":[{"table":"notes","rows":3,"columns":[{"name":"k","dtype":"str","nulls":0,"distinct":3,"min":null,"max":null,"mean":null},{"name":"w","dtype":"str","nulls":1,"distinct":2,"min":null,"max":null,"mean":null}]}]}}"#
    );
    let discover = roundtrip(
        addr,
        r#"{"verb":"discover","lake":"tiny","din":"din","task":"classification:label","seed":3,"budget":5}"#,
    );
    assert_eq!(
        roundtrip(addr, r#"{"verb":"frobnicate"}"#),
        r#"{"ok":false,"error":"unknown_verb","message":"unknown verb \"frobnicate\" (expected discover, profile, scan, lakes, status or shutdown)"}"#
    );
    assert_eq!(
        roundtrip(addr, r#"{"verb":"status"}"#),
        r#"{"ok":true,"verb":"status","shutting_down":false,"workers":1,"ceiling":5,"queued":0,"active":0,"served":3,"rejected":0,"lakes":[{"name":"tiny","tables":3,"loads":{"mtc_loads":2,"csv_fallbacks":0,"sketch_hits":2,"sketch_fallbacks":0}}]}"#
    );
    assert_eq!(
        roundtrip(addr, r#"{"verb":"shutdown"}"#),
        r#"{"ok":true,"verb":"shutdown","draining_queued":0,"draining_active":0}"#
    );
    server.join();

    // The discover reply wraps the exact in-process report last.
    let mut report = Session::from_catalog(LakeCatalog::scan(&dir).expect("scan"))
        .din("din")
        .task_spec("classification:label")
        .seed(3)
        .budget(5)
        .threads(1)
        .run(Method::Metam(MetamConfig::default()))
        .expect("in-process session");
    report.metrics = None;
    let secs = ["\"prepare_secs\":", "\"search_secs\":"];
    assert_eq!(
        scrub(&discover, &secs),
        format!(
            r#"{{"ok":true,"verb":"discover","lake":"tiny","cache":{{"mtc_loads":2,"csv_fallbacks":0,"sketch_hits":2,"sketch_fallbacks":0}},"report":{}}}"#,
            scrub(&report.to_json(), &secs)
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_reply_bytes() {
    assert_eq!(
        metam_serve::error_reply(&ServeError::new(
            ErrorKind::Rejected,
            "queue \"full\"\n\\ é\u{1f}"
        )),
        r#"{"ok":false,"error":"rejected","message":"queue \"full\"\n\\ é\u001f"}"#
    );
}
