//! The `metam serve` side: a daemon over the workload's lake and the
//! closed-loop NDJSON-over-TCP clients that drive it. Every reply is
//! checked: a discover must equal the in-process reference for its seed,
//! a scan must see every table.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use metam::obs::json::{self, Value};
use metam::serve::{RunningServer, ServeConfig};

use crate::lakes::{Decoy, Spec, DIN};
use crate::layers::scrub_secs;
use crate::stats::secs_since;

/// The name the daemon serves the workload's lake under.
pub const LAKE: &str = "bench";

/// A wedged daemon turns into counted failures after this long, not a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Start `metam serve` over `lake` (two workers, a queue of four): the
/// cold start scans the lake, then binds.
pub fn start(lake: &Path) -> Result<RunningServer, String> {
    let config = ServeConfig {
        workers: 2,
        queue: 4,
        ..ServeConfig::default()
    };
    metam::serve::start(&[(LAKE.to_string(), lake.to_path_buf())], config)
        .map_err(|e| format!("metam serve: {e}"))
}

/// Drain and join the daemon.
pub fn stop(server: RunningServer) {
    server.shutdown();
    server.join();
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply.trim_end().to_string())
    }
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Ops(usize),
}

/// What one client measured and saw fail.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub discover_s: Vec<f64>,
    pub scan_s: Vec<f64>,
    /// The reply's own `prepare_secs + search_secs`, and the rest of the
    /// latency (queue wait, catalog revalidation, protocol).
    pub handler_s: Vec<f64>,
    pub outside_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub rejected: u64,
    pub errors: Vec<String>,
}

/// The traffic every client of one run shares.
pub struct Traffic<'a> {
    pub addr: SocketAddr,
    pub spec: &'a Spec,
    /// Seed → the scrubbed in-process reference report.
    pub refs: &'a BTreeMap<u64, String>,
    /// Tables a scan reply must report.
    pub tables: usize,
}

enum OpError {
    /// The connection is unusable; reconnect before the next op.
    Io(String),
    Rejected(String),
    Wrong(String),
}

/// Run one closed-loop client. Discovers cycle over the reference seeds
/// from offset `first`; with a decoy, every `write_every`-th op is a write
/// (append a decoy row, then send `scan`).
pub fn client(
    traffic: &Traffic<'_>,
    first: usize,
    until: Until,
    mut decoy: Option<&mut Decoy>,
) -> ClientLog {
    let seeds: Vec<u64> = traffic.refs.keys().copied().collect();
    let mut log = ClientLog::default();
    let mut conn = Connection::open(traffic.addr).ok();
    for i in 0.. {
        let done = match until {
            Until::Deadline(t) => Instant::now() >= t,
            Until::Ops(n) => i >= n,
        };
        if done || seeds.is_empty() {
            break;
        }
        log.attempted += 1;
        let Some(c) = conn.as_mut() else {
            log.failed += 1;
            log.errors.push("cannot connect to the daemon".into());
            break;
        };
        let every = traffic.spec.write_every;
        let result = match decoy.as_deref_mut() {
            Some(decoy) if i % every == every - 1 => write(c, traffic, decoy, &mut log),
            _ => discover(c, traffic, seeds[(first + i) % seeds.len()], &mut log),
        };
        let Err(e) = result else { continue };
        log.failed += 1;
        let message = match e {
            OpError::Io(m) => {
                conn = Connection::open(traffic.addr).ok();
                m
            }
            OpError::Rejected(m) => {
                log.rejected += 1;
                m
            }
            OpError::Wrong(m) => m,
        };
        log.errors.push(message);
    }
    log
}

/// Send one line and time the reply; the reply must be `"ok":true` for
/// `verb`.
fn call(c: &mut Connection, line: &str, verb: &str) -> Result<(String, Value, f64), OpError> {
    let start = Instant::now();
    let reply = c
        .request(line)
        .map_err(|e| OpError::Io(format!("{verb}: {e}")))?;
    let latency = secs_since(start);
    let value = json::parse(&reply)
        .map_err(|e| OpError::Wrong(format!("{verb}: unparsable reply ({e})")))?;
    if value.get("ok") == Some(&Value::Bool(true))
        && value.get("verb").and_then(Value::as_str) == Some(verb)
    {
        return Ok((reply, value, latency));
    }
    let kind = value.get("error").and_then(Value::as_str).unwrap_or("?");
    let message = format!("{verb}: {kind} reply: {reply}");
    Err(if kind == "rejected" {
        OpError::Rejected(message)
    } else {
        OpError::Wrong(message)
    })
}

fn discover(
    c: &mut Connection,
    traffic: &Traffic<'_>,
    seed: u64,
    log: &mut ClientLog,
) -> Result<(), OpError> {
    let line = format!(
        "{{\"verb\":\"discover\",\"lake\":\"{LAKE}\",\"din\":\"{DIN}\",\"task\":\"{}\",\"budget\":{},\"seed\":{seed},\"threads\":1}}",
        traffic.spec.task, traffic.spec.budget
    );
    let (reply, _, latency) = call(c, &line, "discover")?;
    // The report renders last, so it is everything after `"report":`.
    let key = ",\"report\":";
    let report = reply
        .find(key)
        .and_then(|p| reply.get(p + key.len()..reply.len() - 1))
        .ok_or_else(|| OpError::Wrong("discover reply without a report".into()))?;
    if traffic.refs.get(&seed) != Some(&scrub_secs(report)) {
        return Err(OpError::Wrong(format!(
            "seed {seed}: the daemon's report differs from the in-process reference"
        )));
    }
    let parsed = json::parse(report).map_err(|e| OpError::Wrong(format!("report: {e}")))?;
    let secs = |k: &str| parsed.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let handler = secs("prepare_secs") + secs("search_secs");
    log.discover_s.push(latency);
    log.handler_s.push(handler);
    log.outside_s.push(latency - handler);
    Ok(())
}

fn write(
    c: &mut Connection,
    traffic: &Traffic<'_>,
    decoy: &mut Decoy,
    log: &mut ClientLog,
) -> Result<(), OpError> {
    decoy
        .append()
        .map_err(|e| OpError::Wrong(format!("decoy write: {e}")))?;
    let line = format!("{{\"verb\":\"scan\",\"lake\":\"{LAKE}\"}}");
    let (_, value, latency) = call(c, &line, "scan")?;
    let tables = value.get("tables").and_then(Value::as_f64);
    if tables != Some(traffic.tables as f64) {
        return Err(OpError::Wrong(format!(
            "scan reported {tables:?} tables, expected {}",
            traffic.tables
        )));
    }
    log.scan_s.push(latency);
    Ok(())
}

/// Run two clients side by side (`std::thread::scope` joins both): A sends
/// discovers only, B also sends the writes when a decoy is given.
pub fn two_clients(
    traffic: &Traffic<'_>,
    until: Until,
    decoy: Option<&mut Decoy>,
) -> Vec<ClientLog> {
    let half = traffic.refs.len() / 2;
    std::thread::scope(|scope| {
        let other = scope.spawn(move || client(traffic, half, until, decoy));
        let mine = client(traffic, 0, until, None);
        let other = other.join().unwrap_or_else(|_| ClientLog {
            attempted: 1,
            failed: 1,
            errors: vec!["a client thread panicked".into()],
            ..ClientLog::default()
        });
        vec![mine, other]
    })
}
