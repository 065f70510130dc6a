//! The daemon: TCP acceptor, connection readers, and the worker pool.
//!
//! This module is the crate's sanctioned thread-spawn site (enforced by
//! `metam-analyze`): the acceptor, per-connection readers and the fixed
//! worker pool are long-lived service threads that the scoped fork-join
//! pool in `metam-pool` cannot express.
//!
//! Request flow: a connection reader parses one NDJSON line at a time.
//! Cheap introspection verbs (`lakes`, `status`, `shutdown`) answer
//! inline — they must stay answerable even when the queue is full. Heavy
//! verbs (`discover`, `profile`, `scan`) pass budget admission and enter
//! the bounded FIFO [`JobQueue`]; a worker thread picks them up, builds a
//! session over the shared hot catalog, and sends the reply line back to
//! the blocked reader. Shutdown (verb or stop-file) flips the queue into
//! drain mode: in-flight and queued work finishes, new work gets a typed
//! `shutting_down` reply, then [`RunningServer::join`] returns.

use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use metam_lake::LakeCatalog;
use metam_obs::json;

use crate::protocol::{
    error_reply, ok_reply, parse_request, DiscoverRequest, ErrorKind, Request, ServeError,
};
use crate::queue::JobQueue;
use crate::registry::LakeRegistry;
use crate::render::{load_counts, loads_json, profile_json};

/// How often the stop-file watcher looks for its file, and how long a
/// connection read blocks before it checks the stop flag. (The acceptor
/// blocks in `accept` and is woken by a self-connect.)
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. The default `127.0.0.1:0` is loopback-only on an
    /// ephemeral port (printed by the CLI on startup).
    pub addr: String,
    /// Worker threads running admitted requests.
    pub workers: usize,
    /// Backlog capacity beyond the workers: the admission ceiling is
    /// `workers + queue` outstanding requests.
    pub queue: usize,
    /// Per-request query-budget cap: a `discover` asking for more than
    /// this many queries is refused with a typed `rejected` reply.
    /// `None` admits any budget, including unbounded.
    pub max_budget: Option<usize>,
    /// Request lines longer than this many bytes get a typed `oversized`
    /// reply (and the line is discarded; the connection survives).
    pub max_line_bytes: usize,
    /// When set, the daemon drains and exits once this file exists — the
    /// SIGINT-equivalent for scripted runs (ci.sh) without signal
    /// handling dependencies.
    pub stop_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue: 16,
            max_budget: None,
            max_line_bytes: 1 << 20,
            stop_file: None,
        }
    }
}

/// What the discover handler returns: the full `discover --json` report
/// plus the per-request cache-delta section, both pre-serialized.
#[derive(Debug)]
pub struct DiscoverOutput {
    /// The complete `RunReport` JSON (the PR 2 wire format).
    pub report_json: String,
    /// Per-request `.mtc`/sketch load deltas as a JSON object.
    pub cache_json: String,
}

/// The pluggable discover runner. The umbrella crate wires the
/// `Session`-backed implementation in; tests substitute gates and stubs.
/// (The indirection exists because `Session` lives above this crate.)
pub type DiscoverFn =
    dyn Fn(&DiscoverRequest, Arc<LakeCatalog>) -> Result<DiscoverOutput, ServeError> + Send + Sync;

struct Job {
    request: Request,
    reply_tx: mpsc::Sender<String>,
    enqueued: Instant,
}

struct Shared {
    config: ServeConfig,
    registry: LakeRegistry,
    discover: Box<DiscoverFn>,
    queue: JobQueue<Job>,
    /// Set after the drain completes; readers and the acceptor exit.
    stopped: AtomicBool,
    /// Reader handles of connections that may still be open: finished
    /// ones are joined at the next accept, the rest at shutdown.
    connections: Mutex<Vec<JoinHandle<()>>>,
}

/// A bound, running daemon. Dropping it without
/// [`join`](RunningServer::join) leaves the service threads running for
/// the life of the process.
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// Bind `config.addr` and start the daemon: worker pool, acceptor, and
/// (lazily) one reader thread per accepted connection.
pub fn bind(
    config: ServeConfig,
    registry: LakeRegistry,
    discover: Box<DiscoverFn>,
) -> Result<RunningServer, ServeError> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError::internal(format!("cannot bind {}: {e}", config.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ServeError::internal(format!("cannot resolve bound address: {e}")))?;

    let workers = config.workers.max(1);
    let ceiling = workers + config.queue;
    let shared = Arc::new(Shared {
        config,
        registry,
        discover,
        queue: JobQueue::new(ceiling),
        stopped: AtomicBool::new(false),
        connections: Mutex::new(Vec::new()),
    });

    let mut threads = Vec::with_capacity(workers + 2);
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    if let Some(stop_file) = shared.config.stop_file.clone() {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            watch_stop_file(&shared, &stop_file)
        }));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&shared, listener)));
    }
    Ok(RunningServer {
        addr,
        shared,
        threads,
    })
}

impl RunningServer {
    /// The bound address (resolves the `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start draining as if a `shutdown` request had arrived (used by
    /// tests and embedders; the wire verb and the stop-file do the same).
    pub fn shutdown(&self) {
        self.shared.queue.drain();
    }

    /// Block until a shutdown drains the queue, then stop and join every
    /// service thread. In-flight and queued requests finish first; this
    /// is the graceful-exit barrier the CLI sits on.
    pub fn join(self) {
        self.shared.queue.wait_idle();
        // The flag is set before the connect that wakes the acceptor.
        // ordering: SeqCst, paired with the acceptor's load after accept.
        self.shared.stopped.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
        for handle in &self.threads {
            // Cuts the stop-file watcher's sleep short; a no-op for the
            // others, which never park.
            handle.thread().unpark();
        }
        for handle in self.threads {
            let _ = handle.join();
        }
        let connections = {
            let mut guard = self
                .shared
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for handle in connections {
            let _ = handle.join();
        }
    }
}

/// Accept connections, blocking, until the stop flag is set; the
/// connection that wakes it then ([`wake_acceptor`]) is dropped unread.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        // ordering: SeqCst, paired with `join`'s store before its connect.
        if shared.stopped.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            // A failed accept (say, out of file descriptors) must not
            // spin the acceptor.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        };
        let shared_for_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || connection_loop(&shared_for_conn, stream));
        let mut connections = shared
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        join_finished(&mut connections);
        connections.push(handle);
    }
}

/// Unblock the acceptor of a daemon bound to `addr` by connecting to it,
/// over loopback when it is bound to every interface (`0.0.0.0`, `::`).
/// If the connect fails the acceptor is not listening any more.
fn wake_acceptor(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, addr.port()), Duration::from_secs(1));
}

/// Start the drain once `stop_file` exists; return when the daemon stops.
fn watch_stop_file(shared: &Shared, stop_file: &std::path::Path) {
    while !shared.stopped.load(Ordering::Relaxed) {
        if stop_file.exists() {
            shared.queue.drain();
        }
        std::thread::park_timeout(POLL_INTERVAL);
    }
}

/// Join and drop the handles of connection threads that have returned,
/// so a daemon answering many one-shot clients keeps only the handles of
/// open connections.
fn join_finished(connections: &mut Vec<JoinHandle<()>>) {
    let (done, open): (Vec<_>, Vec<_>) = std::mem::take(connections)
        .into_iter()
        .partition(|handle| handle.is_finished());
    *connections = open;
    for handle in done {
        let _ = handle.join();
    }
}

/// Read NDJSON lines off one connection until EOF or server stop, writing
/// one reply line per request line. An oversized line is discarded (with
/// a typed reply) without dropping the connection; read timeouts only
/// exist so the loop can observe the stop flag.
fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        if shared.stopped.load(Ordering::Relaxed) {
            return;
        }
        let chunk = match reader.fill_buf() {
            Ok([]) => return, // EOF
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let (taken, complete) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        if !oversized {
            line.extend_from_slice(&chunk[..taken]);
            if line.len() > shared.config.max_line_bytes {
                oversized = true;
                line.clear();
            }
        }
        reader.consume(taken);
        if !complete {
            continue;
        }
        let mut reply = if oversized {
            oversized = false;
            error_reply(&ServeError::new(
                ErrorKind::Oversized,
                format!(
                    "request line exceeds {} bytes; it was discarded",
                    shared.config.max_line_bytes
                ),
            ))
        } else {
            let text = String::from_utf8_lossy(&line).into_owned();
            line.clear();
            if text.trim().is_empty() {
                continue;
            }
            handle_line(shared, &text)
        };
        // One write per reply: a separate newline write would sit behind
        // Nagle until the client's delayed ACK.
        reply.push('\n');
        if writer
            .write_all(reply.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Route one parsed request line to its reply. Blocks while a queued verb
/// runs (the reader holds the client's turn); inline verbs answer
/// immediately.
fn handle_line(shared: &Arc<Shared>, text: &str) -> String {
    let request = match parse_request(text) {
        Ok(request) => request,
        Err(e) => return error_reply(&e),
    };
    match &request {
        Request::Lakes => lakes_reply(shared),
        Request::Status => status_reply(shared),
        Request::Shutdown => {
            shared.queue.drain();
            let depth = shared.queue.depth();
            ok_reply("shutdown")
                .int("draining_queued", depth.queued)
                .int("draining_active", depth.active)
                .finish()
        }
        Request::Discover(d) => {
            // Budget-aware admission, decided before the job takes a
            // queue slot: a budget over the server's cap can never run,
            // so it must not occupy the backlog either.
            if let Some(cap) = shared.config.max_budget {
                if d.budget > cap {
                    shared.queue.note_rejected();
                    metam_obs::counter_add("serve.rejected", 1);
                    return error_reply(&ServeError::new(
                        ErrorKind::Rejected,
                        format!(
                            "requested budget {} exceeds the server cap of {cap} queries",
                            budget_str(d.budget)
                        ),
                    ));
                }
            }
            enqueue_and_wait(shared, request)
        }
        Request::Profile { .. } | Request::Scan { .. } => enqueue_and_wait(shared, request),
    }
}

fn budget_str(budget: usize) -> String {
    if budget == usize::MAX {
        "unbounded".to_string()
    } else {
        budget.to_string()
    }
}

fn enqueue_and_wait(shared: &Arc<Shared>, request: Request) -> String {
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        request,
        reply_tx,
        enqueued: Instant::now(),
    };
    if let Err(e) = shared.queue.submit(job) {
        metam_obs::counter_add("serve.rejected", 1);
        return error_reply(&e);
    }
    reply_rx.recv().unwrap_or_else(|_| {
        error_reply(&ServeError::internal(
            "worker dropped the request without replying",
        ))
    })
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.next() {
        metam_obs::record("serve.queue_wait", job.enqueued.elapsed().as_secs_f64());
        // Histogram of concurrency at pickup; its max is the peak.
        metam_obs::record("serve.active", shared.queue.depth().active as f64);
        metam_obs::counter_add("serve.request", 1);
        let verb = job.request.verb();
        let mut span = metam_obs::span("serve.request", verb);
        let reply = match run_request(shared, &job.request) {
            Ok(reply) => reply,
            Err(e) => {
                span.field("error", 1.0);
                error_reply(&e)
            }
        };
        drop(span);
        let _ = job.reply_tx.send(reply);
        shared.queue.done();
    }
}

/// Execute an admitted (queued) request on a worker.
fn run_request(shared: &Arc<Shared>, request: &Request) -> Result<String, ServeError> {
    match request {
        Request::Discover(d) => {
            let catalog = shared.registry.hot(&d.lake)?;
            let output = (shared.discover)(d, catalog)?;
            // `report` renders last so consumers can also split the line
            // on `"report":` and parse the embedded CLI report directly.
            Ok(ok_reply("discover")
                .str("lake", &d.lake)
                .raw("cache", &output.cache_json)
                .raw("report", &output.report_json)
                .finish())
        }
        Request::Profile { lake, table } => {
            let catalog = shared.registry.hot(lake)?;
            if let Some(name) = table {
                if catalog.get(name).is_none() {
                    return Err(ServeError::bad_request(format!(
                        "unknown table {name:?} in lake {lake:?}"
                    )));
                }
            }
            Ok(ok_reply("profile")
                .str("lake", lake)
                .raw("profile", &profile_json(&catalog, table.as_deref()))
                .finish())
        }
        Request::Scan { lake } => {
            let catalog = shared.registry.refresh(lake)?;
            Ok(ok_reply("scan")
                .str("lake", lake)
                .int("tables", catalog.len())
                .int("rows", catalog.total_rows())
                .int("columns", catalog.total_columns())
                .int("profile_hits", catalog.cache_hits())
                .int("profile_misses", catalog.cache_misses())
                .finish())
        }
        Request::Lakes | Request::Status | Request::Shutdown => Err(ServeError::internal(
            "introspection verbs are handled inline, never queued",
        )),
    }
}

/// One JSON object per served lake (`{}` for a lake whose catalog cannot
/// be read), in registry order.
fn per_lake(shared: &Arc<Shared>, render: impl Fn(&str, &LakeCatalog) -> json::Object) -> String {
    let names = shared.registry.names();
    let lakes = names.iter().fold(json::array(), |lakes, name| {
        match shared.registry.snapshot(name) {
            Ok(catalog) => lakes.raw(&render(name, &catalog).finish()),
            Err(_) => lakes.raw(&json::object().finish()),
        }
    });
    lakes.finish()
}

fn lakes_reply(shared: &Arc<Shared>) -> String {
    let lakes = per_lake(shared, |name, catalog| {
        json::object()
            .str("name", name)
            .str("root", &catalog.root().display().to_string())
            .int("tables", catalog.len())
            .int("rows", catalog.total_rows())
            .int("columns", catalog.total_columns())
    });
    ok_reply("lakes").raw("lakes", &lakes).finish()
}

fn status_reply(shared: &Arc<Shared>) -> String {
    let depth = shared.queue.depth();
    let lakes = per_lake(shared, |name, catalog| {
        // Server-lifetime load totals: these counters survive catalog
        // refreshes (rescan adopts the same handles).
        let counts = load_counts(&catalog.load_counters(), &catalog.sketch_load_counters());
        json::object()
            .str("name", name)
            .int("tables", catalog.len())
            .raw("loads", &loads_json(counts))
    });
    ok_reply("status")
        .bool("shutting_down", depth.draining)
        .int("workers", shared.config.workers.max(1))
        .int("ceiling", shared.queue.ceiling())
        .int("queued", depth.queued)
        .int("active", depth.active)
        .int("served", depth.served as usize)
        .int("rejected", depth.rejected as usize)
        .raw("lakes", &lakes)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_connections_leave_a_bounded_handle_list() {
        let dir = std::env::temp_dir().join(format!("metam-serve-conns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.csv"), "x\n1\n").unwrap();
        let registry = LakeRegistry::open(&[("demo".into(), dir.clone())]).unwrap();
        let unused: Box<DiscoverFn> = Box::new(|_, _| Err(ServeError::internal("unused")));
        let server = bind(ServeConfig::default(), registry, unused).unwrap();

        let one_shots = 20;
        for _ in 0..one_shots {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"{\"verb\":\"status\"}\n").unwrap();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).unwrap();
            assert!(reply.starts_with("{\"ok\":true"), "{reply}");
        }
        let held = server
            .shared
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        // The last connection may still be closing, and the one before it
        // only just closed when the last was accepted.
        assert!(
            held <= 2,
            "{held} handles held after {one_shots} one-shot connections"
        );

        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
