//! The labeling server: registry, worker pool, routing, load shedding,
//! metrics.
//!
//! Architecture (all `std`, no `unsafe`):
//!
//! ```text
//! acceptor shards ──► bounded VecDeque<TcpStream> ──► N worker threads
//!   (2 listeners)          (Mutex + Condvar)               │
//!      │                                     parse → route ┤
//!      └── queue full: inline 503 + Retry-After            │
//!                                                          ▼
//!               Registry ──► ModelSlot ──► ModelEntry ──► label_chunk
//!            (Arc swap cell     (pinned at dispatch)   (on the worker)
//!             per model name)
//! ```
//!
//! Each acceptor shard polls a non-blocking clone of the same
//! [`TcpListener`] so accepting never serializes behind one thread, and
//! every shard observes the stop flag between accepts. When the queue
//! is at capacity a shard writes `503 Service Unavailable` with
//! `Retry-After` directly on the accepted socket and closes it —
//! back-pressure is explicit, never an unbounded backlog. Each labeling
//! request runs under a [`Guard`] with a wall-clock [`RunBudget`]; a
//! request that exceeds the deadline while its body is parsed is
//! answered `503` and counted as shed.
//!
//! Models come from the [`Registry`](crate::registry): `POST /label`
//! pins the `default` model's current entry at dispatch time and
//! `POST /models/{name}/label` pins a named one, so an admin hot swap
//! (`POST /admin/models/{name}`) mid-request is invisible — the request
//! finishes on the model it pinned, and the response's `X-Rock-Model`
//! header names exactly which version answered. The worker that parsed
//! a request labels all of its points with one `label_chunk` call
//! against that pinned entry: a request's NDJSON body is its batch.
//!
//! Shutdown (`ServerHandle::shutdown`) stops the acceptors, lets the
//! workers drain every queued connection, then renders the final
//! `rock-serve-metrics/v1` document.
//!
//! The workspace forbids `unsafe`, so no `SIGTERM` handler can be
//! installed; the `rock-serve` binary instead treats **stdin close** as
//! the shutdown signal (`kill` the pipe's writer, or press ctrl-D), the
//! conventional dependency-free stand-in.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rock_core::cast::usize_to_u64;
use rock_core::error::{Result, RockError};
use rock_core::guard::{Guard, RunBudget};
use rock_core::prelude::Transaction;
use rock_core::similarity::Similarity;
use rock_core::snapshot::ModelSnapshot;
use rock_core::telemetry::json::{Json, JsonObj};
use rock_core::telemetry::trace::{LatencyHistogram, Payload};
use rock_core::telemetry::{Metrics, Observer, Phase, PipelineCounters, RunInfo};

use crate::http::{read_request, BodyLimits, HttpError, Request, Response};
use crate::registry::{ModelCounters, Registry, DEFAULT_MODEL};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections (`0` = one per available
    /// CPU, capped at 16 — the same auto convention as the clustering
    /// pipeline's `--threads`). A keep-alive connection occupies its
    /// worker until the peer closes (or the idle read times out), so
    /// size this to the expected number of concurrent keep-alive
    /// clients; excess connections wait in the queue.
    pub threads: usize,
    /// Bounded accept-queue capacity; beyond it, connections are shed.
    pub queue_capacity: usize,
    /// Per-request wall-clock deadline (enforced between body lines).
    pub deadline: Duration,
    /// Largest accepted request body on non-admin paths, in bytes
    /// (beyond it: 413).
    pub max_body: usize,
    /// Largest accepted `/admin/…` body, in bytes — snapshot uploads
    /// are whole `rock-model/v1` renderings, far bigger than label
    /// queries.
    pub admin_max_body: usize,
    /// Write a `rock-trace/v1` NDJSON event stream to this path while
    /// the server runs (`None` = tracing disabled, the near-zero-cost
    /// default). Each handled request becomes a `serve.request` span,
    /// the labeling kernel call of each labeling request a `serve.batch`
    /// span and each admin swap a `serve.swap` span; the request- and
    /// batch-latency histograms are flushed at shutdown.
    pub trace: Option<PathBuf>,
    /// Requests slower than this are flagged `"slow":1` in their trace
    /// span payload, making outliers trivially grep-able.
    pub slow_request: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 4,
            queue_capacity: 64,
            deadline: Duration::from_secs(1),
            max_body: 1 << 20,
            admin_max_body: 64 << 20,
            trace: None,
            slow_request: Duration::from_millis(100),
        }
    }
}

/// Monotonic request counters, exposed under `"requests"` in the
/// metrics document.
#[derive(Debug, Default)]
struct ServeCounters {
    /// Connections accepted (including ones later shed or rejected).
    accepted: AtomicU64,
    /// Points labeled into a cluster (all models).
    labeled: AtomicU64,
    /// Points answered `{"cluster":null}` under the mark policy.
    outlier: AtomicU64,
    /// Requests refused as client errors (4xx/405/404/501).
    rejected: AtomicU64,
    /// Connections or requests dropped by load shedding (queue full,
    /// deadline exceeded, or no model mounted → 503).
    shed: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Points labeled into a cluster.
    pub labeled: u64,
    /// Points marked outliers.
    pub outlier: u64,
    /// Client errors.
    pub rejected: u64,
    /// 503 responses from queue or deadline shedding.
    pub shed: u64,
}

impl ServeCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            labeled: self.labeled.load(Ordering::Relaxed),
            outlier: self.outlier.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Accept queue guarded by [`Shared::queue`].
#[derive(Default)]
struct Queue {
    conns: VecDeque<TcpStream>,
    /// Set at shutdown: workers drain remaining connections, then exit.
    stopping: bool,
}

/// State shared by the acceptors, the workers and the handle.
struct Shared {
    registry: Arc<Registry>,
    config: ServeConfig,
    counters: ServeCounters,
    observer: Observer,
    queue: Mutex<Queue>,
    available: Condvar,
    stop: AtomicBool,
    started: Instant,
    /// Request-latency histogram (always on — it powers the `latency`
    /// percentiles in `/metrics` whether or not tracing is enabled).
    latency: Mutex<LatencyHistogram>,
    /// Monotonic request ids for trace spans.
    request_seq: AtomicU64,
}

/// Locks a mutex, recovering the guard if a worker panicked while
/// holding it (counters stay usable; a poisoned queue must not wedge
/// shutdown).
fn lock_queue(shared: &Shared) -> MutexGuard<'_, Queue> {
    match shared.queue.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Same poison recovery for the latency histogram (a record is a pure
/// bucket increment; a panicked holder cannot leave it inconsistent).
fn lock_latency(shared: &Shared) -> MutexGuard<'_, LatencyHistogram> {
    match shared.latency.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The running server (namespace for [`Server::start`]).
pub struct Server;

impl Server {
    /// Binds `config.addr` and serves `model` as the `default` registry
    /// entry — the single-model convenience over
    /// [`Server::start_with_registry`].
    ///
    /// # Errors
    /// [`RockError::Io`] when the address cannot be bound or a thread
    /// cannot be spawned.
    pub fn start(model: ModelSnapshot, config: ServeConfig) -> Result<ServerHandle> {
        let registry = Arc::new(Registry::new());
        registry.install(DEFAULT_MODEL, model)?;
        Self::start_with_registry(registry, config)
    }

    /// Binds `config.addr`, spawns the acceptor shards and worker
    /// threads over `registry`, and returns a handle for inspection and
    /// shutdown. A thread count of 0 resolves to one worker per
    /// available CPU (capped at 16); explicit counts and the queue
    /// capacity are clamped to at least 1 (a server with no workers or
    /// no queue slots could never answer).
    /// The registry may start empty: `/healthz` answers `503` until an
    /// admin upload mounts a model.
    ///
    /// # Errors
    /// [`RockError::Io`] when the address cannot be bound or a thread
    /// cannot be spawned.
    pub fn start_with_registry(
        registry: Arc<Registry>,
        config: ServeConfig,
    ) -> Result<ServerHandle> {
        let mut config = config;
        config.threads = match config.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get().min(16))
                .unwrap_or(1),
            t => t,
        };
        config.queue_capacity = config.queue_capacity.max(1);
        let io = |message: String| RockError::Io {
            path: config.addr.clone(),
            message,
        };
        let listener = TcpListener::bind(&config.addr).map_err(|e| io(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io(e.to_string()))?;

        let shared = Arc::new(Shared {
            registry,
            config,
            counters: ServeCounters::default(),
            observer: Observer::new(),
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            latency: Mutex::new(LatencyHistogram::new()),
            request_seq: AtomicU64::new(0),
        });
        if let Some(path) = &shared.config.trace {
            shared.observer.tracer().start_to_path(path, "rock-serve")?;
        }

        let mut workers = Vec::with_capacity(shared.config.threads);
        for i in 0..shared.config.threads {
            let shared = Arc::clone(&shared);
            let worker = std::thread::Builder::new()
                .name(format!("rock-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, usize_to_u64(i)))
                .map_err(|e| RockError::Io {
                    path: "rock-serve worker".into(),
                    message: e.to_string(),
                })?;
            workers.push(worker);
        }
        let acceptor_io = |e: std::io::Error| RockError::Io {
            path: "rock-serve acceptor".into(),
            message: e.to_string(),
        };
        let mut acceptors = Vec::with_capacity(ACCEPT_SHARDS);
        for i in 0..ACCEPT_SHARDS {
            // Every shard polls its own clone of the same socket; the
            // non-blocking flag set above is shared by all clones.
            let own = listener.try_clone().map_err(acceptor_io)?;
            let shared = Arc::clone(&shared);
            let acceptor = std::thread::Builder::new()
                .name(format!("rock-serve-acceptor-{i}"))
                .spawn(move || accept_loop(&own, &shared))
                .map_err(acceptor_io)?;
            acceptors.push(acceptor);
        }

        Ok(ServerHandle {
            shared,
            addr,
            acceptors,
            workers,
        })
    }
}

/// A running server: address, live counters, graceful shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the request counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.shared.counters.snapshot()
    }

    /// The model registry this server serves from.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The current `rock-serve-metrics/v1` document.
    pub fn metrics_json(&self) -> String {
        render_metrics(&self.shared)
    }

    /// Stops accepting, drains every queued connection, joins all
    /// threads and returns the final metrics document.
    pub fn shutdown(mut self) -> String {
        self.stop_and_join();
        render_metrics(&self.shared)
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for acceptor in self.acceptors.drain(..) {
            // Each shard observes the flag within one poll interval;
            // joining them first guarantees no connection is enqueued
            // after `stopping` is set.
            acceptor.join().ok();
        }
        {
            let mut queue = lock_queue(&self.shared);
            queue.stopping = true;
            self.shared.available.notify_all();
        }
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
        let tracer = self.shared.observer.tracer();
        if tracer.is_enabled() {
            let hist = lock_latency(&self.shared).clone();
            if hist.count() > 0 {
                tracer.record_hist("serve.request_ns", None, &hist);
            }
            let mut batches = LatencyHistogram::new();
            for slot in self.shared.registry.slots() {
                batches.merge(&slot.batch_hist());
            }
            if batches.count() > 0 {
                tracer.record_hist("serve.batch_ns", None, &batches);
            }
            // Best effort: a flush failure at shutdown must not panic a
            // drop path; the trace written so far stays parseable.
            tracer.finish().ok();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Shutdown-by-drop keeps tests leak-free; `shutdown()` is the
        // intended path and has already emptied the thread handles.
        if !self.acceptors.is_empty() || !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Accepts connections until the stop flag is raised, shedding when the
/// queue is full.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                ServeCounters::bump(&shared.counters.accepted);
                let mut queue = lock_queue(shared);
                if queue.conns.len() >= shared.config.queue_capacity {
                    drop(queue);
                    ServeCounters::bump(&shared.counters.shed);
                    shed_connection(stream);
                } else {
                    queue.conns.push_back(stream);
                    drop(queue);
                    shared.available.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            // Transient accept errors (e.g. ECONNABORTED) are not fatal.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// How long the acceptor keeps reading a shed connection's unread
/// request before closing it anyway.
const SHED_DRAIN: Duration = Duration::from_millis(250);

/// Acceptor threads polling the listener; they all feed the same
/// bounded queue. Two, not one: draining a shed connection holds its
/// acceptor for up to [`SHED_DRAIN`], and the other keeps accepting
/// meanwhile.
const ACCEPT_SHARDS: usize = 2;

/// Answers a shed connection inline on the acceptor thread. Best
/// effort: the client may already be gone.
///
/// Closing a socket whose receive buffer still holds the client's
/// request makes the kernel send a reset, and a reset can destroy the
/// 503 in flight (the client sees it cut off before `Retry-After`). So
/// the response goes out in one write, then a write shutdown (FIN after
/// the response), then the read side is drained until the client closes
/// or [`SHED_DRAIN`] passes.
fn shed_connection(stream: TcpStream) {
    let mut stream = stream;
    stream.set_nonblocking(false).ok();
    stream
        .set_write_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut response = Vec::new();
    Response::text(503, "Service Unavailable", "queue full\n")
        .header("Retry-After", "1")
        .write_to(&mut response, false)
        .ok();
    if stream.write_all(&response).is_err() {
        return;
    }
    stream.shutdown(std::net::Shutdown::Write).ok();
    let deadline = Instant::now() + SHED_DRAIN;
    let mut sink = [0u8; 1024];
    // rock-analyze: allow(guard-loop) — bounded by the SHED_DRAIN deadline: every read times out by it.
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Pops connections until shutdown drains the queue.
fn worker_loop(shared: &Shared, worker: u64) {
    loop {
        let stream = {
            let mut queue = lock_queue(shared);
            loop {
                if let Some(stream) = queue.conns.pop_front() {
                    break stream;
                }
                if queue.stopping {
                    return;
                }
                queue = match shared.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        handle_connection(shared, worker, stream);
    }
}

/// Serves one connection: keep-alive request loop, typed error → 4xx/5xx.
fn handle_connection(shared: &Shared, worker: u64, stream: TcpStream) {
    let io_timeout = shared.config.deadline.max(Duration::from_secs(1)) * 2;
    stream.set_read_timeout(Some(io_timeout)).ok();
    stream.set_write_timeout(Some(io_timeout)).ok();
    // Request/response traffic is latency-bound; Nagle + delayed ACK
    // would add ~40ms to every small round-trip.
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let limits = BodyLimits {
        default: shared.config.max_body,
        admin: shared.config.admin_max_body,
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    loop {
        match read_request(&mut reader, &limits) {
            Ok(None) => return,
            Ok(Some(request)) => {
                // Stop keep-alive once shutdown begins so draining
                // terminates after the in-flight request.
                let keep = request.keep_alive && !shared.stop.load(Ordering::Relaxed);
                let span = shared.observer.tracer().begin();
                let clock = Instant::now();
                let response = route(shared, worker, &request);
                let elapsed = clock.elapsed();
                lock_latency(shared).record(duration_ns(elapsed));
                if let Some(s) = span {
                    let id = shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
                    let mut payload = Payload::new()
                        .count("request", id)
                        .str("method", &request.method)
                        .str("path", &request.path)
                        .count("status", u64::from(response.status()));
                    if elapsed > shared.config.slow_request {
                        payload = payload.count("slow", 1);
                    }
                    shared
                        .observer
                        .tracer()
                        .end(s, "serve.request", None, worker, payload);
                }
                if response.write_to(&mut out, keep).is_err() || !keep {
                    return;
                }
            }
            Err(error) => {
                respond_to_error(&shared.counters, &mut out, &error);
                return;
            }
        }
    }
}

/// Saturating `Duration` → whole nanoseconds (a request would need to
/// run for ~584 years to clip).
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Maps a parse failure to its status line; write is best effort.
fn respond_to_error(counters: &ServeCounters, out: &mut TcpStream, error: &HttpError) {
    let response = match error {
        HttpError::Io(_) => return, // peer gone; nothing to say
        HttpError::Malformed(msg) => {
            ServeCounters::bump(&counters.rejected);
            Response::text(400, "Bad Request", format!("{msg}\n"))
        }
        HttpError::BodyTooLarge { declared, limit } => {
            ServeCounters::bump(&counters.rejected);
            Response::text(
                413,
                "Content Too Large",
                format!("body of {declared} bytes exceeds limit of {limit}\n"),
            )
        }
        HttpError::Unsupported(what) => {
            ServeCounters::bump(&counters.rejected);
            Response::text(501, "Not Implemented", format!("{what}\n"))
        }
    };
    response.write_to(out, false).ok();
}

/// Dispatches a parsed request to its endpoint.
fn route(shared: &Shared, worker: u64, request: &Request) -> Response {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("POST", "/label") => return handle_label(shared, worker, DEFAULT_MODEL, &request.body),
        ("GET", "/healthz") => return handle_healthz(shared),
        ("GET", "/metrics") => return Response::json(200, "OK", render_metrics(shared)),
        ("GET", "/admin/models") => return handle_admin_list(shared),
        _ => {}
    }
    // `/models/{name}/label`: the named-model labeling contract.
    if let Some(name) = path
        .strip_prefix("/models/")
        .and_then(|rest| rest.strip_suffix("/label"))
    {
        if !name.is_empty() && !name.contains('/') {
            return if method == "POST" {
                handle_label(shared, worker, name, &request.body)
            } else {
                method_not_allowed(shared, "POST")
            };
        }
    }
    // `/admin/models/{name}`: upload/activate and unmount.
    if let Some(name) = path.strip_prefix("/admin/models/") {
        if !name.is_empty() && !name.contains('/') {
            return match method {
                "POST" | "PUT" => handle_admin_install(shared, worker, name, &request.body),
                "DELETE" => handle_admin_delete(shared, worker, name),
                _ => method_not_allowed(shared, "POST, PUT, DELETE"),
            };
        }
    }
    match (method, path) {
        ("GET" | "HEAD", "/label")
        | ("POST" | "PUT" | "DELETE", "/healthz" | "/metrics" | "/admin/models") => {
            let allow = if path == "/label" { "POST" } else { "GET" };
            method_not_allowed(shared, allow)
        }
        _ => {
            ServeCounters::bump(&shared.counters.rejected);
            Response::text(404, "Not Found", "not found\n")
        }
    }
}

/// A 405 with its `Allow` header, counted as rejected.
fn method_not_allowed(shared: &Shared, allow: &str) -> Response {
    ServeCounters::bump(&shared.counters.rejected);
    Response::text(405, "Method Not Allowed", "method not allowed\n").header("Allow", allow)
}

/// `GET /healthz`: per-model registry state. `200` while at least one
/// model serves (`"degraded"` when any slot's last swap was rejected),
/// `503` + `Retry-After` when nothing is mounted — e.g. mid swap-drain
/// after a `DELETE`, inviting the probe to retry rather than recording
/// a hard failure.
fn handle_healthz(shared: &Shared) -> Response {
    let rows = shared.registry.status();
    let loaded = rows.iter().filter(|r| r.version > 0).count();
    let degraded = rows
        .iter()
        .any(|r| r.state == crate::registry::ModelState::Degraded);
    let mut models = JsonObj::new(true, 2);
    for row in &rows {
        let mut m = JsonObj::new(true, 3);
        m.str("state", row.state.name())
            .num_u64("version", row.version);
        models.raw(&row.name, &m.end());
    }
    let status = if loaded == 0 {
        "unavailable"
    } else if degraded {
        "degraded"
    } else {
        "ok"
    };
    let mut doc = JsonObj::new(true, 1);
    doc.str("status", status)
        .num_u64("models_loaded", usize_to_u64(loaded))
        .raw("models", &models.end());
    let mut body = doc.end();
    body.push('\n');
    if loaded == 0 {
        Response::json(503, "Service Unavailable", body).header("Retry-After", "1")
    } else {
        Response::json(200, "OK", body)
    }
}

/// `GET /admin/models`: the registry listing with per-model state,
/// versions and counters.
fn handle_admin_list(shared: &Shared) -> Response {
    let rows = shared.registry.status();
    let mut models = JsonObj::new(true, 2);
    for row in &rows {
        let (labeled, outlier, batches, batch_points) = row.counters;
        let mut m = JsonObj::new(true, 3);
        m.str("state", row.state.name())
            .num_u64("version", row.version)
            .str("fingerprint", &row.fingerprint)
            .num_u64("clusters", usize_to_u64(row.clusters))
            .num_u64("representatives", usize_to_u64(row.representatives))
            .num_u64("labeled", labeled)
            .num_u64("outlier", outlier)
            .num_u64("batches", batches)
            .num_u64("batch_points", batch_points)
            .num_u64("swaps", row.swaps)
            .num_u64("rejected_swaps", row.rejected_swaps);
        models.raw(&row.name, &m.end());
    }
    let mut doc = JsonObj::new(true, 1);
    doc.str("schema", "rock-serve-registry/v1")
        .num_u64("models_loaded", shared.registry.models_loaded())
        .num_u64("swaps", shared.registry.swaps())
        .num_u64("rejected_swaps", shared.registry.rejected_swaps())
        .raw("models", &models.end());
    let mut body = doc.end();
    body.push('\n');
    Response::json(200, "OK", body)
}

/// `POST/PUT /admin/models/{name}`: parse, validate and atomically
/// activate an uploaded `rock-model/v1` snapshot. A corrupt, truncated
/// or version-mismatched body is rejected with the prior model still
/// serving; the attempt is visible as `rejected_swaps` and a degraded
/// `/healthz` state.
fn handle_admin_install(shared: &Shared, worker: u64, name: &str, body: &[u8]) -> Response {
    if !Registry::valid_name(name) {
        ServeCounters::bump(&shared.counters.rejected);
        return Response::text(
            400,
            "Bad Request",
            format!("invalid model name {name:?} (1-64 chars of [A-Za-z0-9._-])\n"),
        );
    }
    let Ok(text) = std::str::from_utf8(body) else {
        ServeCounters::bump(&shared.counters.rejected);
        // A non-utf-8 upload can never be a valid snapshot; count it as
        // a rejected swap attempt too so the gauge reflects every
        // failed activation.
        shared.registry.reject_foreign(name);
        return Response::text(400, "Bad Request", "snapshot body is not utf-8\n");
    };
    let span = shared.observer.tracer().begin();
    match shared.registry.install_text(name, text) {
        Ok(report) => {
            if let Some(s) = span {
                let payload = Payload::new()
                    .str("model", name)
                    .count("version", report.entry.version())
                    .count("rejected", 0);
                shared
                    .observer
                    .tracer()
                    .end(s, "serve.swap", None, worker, payload);
            }
            let mut doc = JsonObj::new(true, 1);
            doc.str("model", name)
                .num_u64("version", report.entry.version())
                .str("fingerprint", &report.entry.fingerprint_hex())
                .num_u64("replaced", u64::from(report.replaced));
            let mut body = doc.end();
            body.push('\n');
            Response::json(200, "OK", body)
        }
        Err(error) => {
            ServeCounters::bump(&shared.counters.rejected);
            if let Some(s) = span {
                let payload = Payload::new().str("model", name).count("rejected", 1);
                shared
                    .observer
                    .tracer()
                    .end(s, "serve.swap", None, worker, payload);
            }
            Response::text(400, "Bad Request", format!("snapshot rejected: {error}\n"))
        }
    }
}

/// `DELETE /admin/models/{name}`: unmount. In-flight requests finish on
/// the entry they pinned; new requests see the slot empty.
fn handle_admin_delete(shared: &Shared, worker: u64, name: &str) -> Response {
    match shared.registry.remove(name) {
        Some(version) => {
            let span = shared.observer.tracer().begin();
            if let Some(s) = span {
                let payload = Payload::new()
                    .str("model", name)
                    .count("removed", version)
                    .count("rejected", 0);
                shared
                    .observer
                    .tracer()
                    .end(s, "serve.swap", None, worker, payload);
            }
            let mut doc = JsonObj::new(true, 1);
            doc.str("model", name).num_u64("removed_version", version);
            let mut body = doc.end();
            body.push('\n');
            Response::json(200, "OK", body)
        }
        None => {
            ServeCounters::bump(&shared.counters.rejected);
            Response::text(404, "Not Found", format!("no model {name:?}\n"))
        }
    }
}

/// `POST /label` and `POST /models/{name}/label`: one JSON object per
/// line (a single object is a batch of one); each line answers
/// `{"cluster":<id>}` or `{"cluster":null}`, labeled by the model entry
/// pinned at dispatch time (named by the `X-Rock-Model` response
/// header). The whole body is labeled by one `label_chunk` call on this
/// worker, counted and timed as one batch of the model.
fn handle_label(shared: &Shared, worker: u64, model_name: &str, body: &[u8]) -> Response {
    // Pin the active entry now: a hot swap from here on is invisible to
    // this request.
    let Some((slot, entry)) = shared.registry.resolve(model_name) else {
        return if model_name == DEFAULT_MODEL {
            // Nothing mounted (or a swap drain removed it): shed with a
            // retry hint rather than failing hard.
            ServeCounters::bump(&shared.counters.shed);
            Response::text(503, "Service Unavailable", "no model loaded\n")
                .header("Retry-After", "1")
        } else {
            ServeCounters::bump(&shared.counters.rejected);
            Response::text(404, "Not Found", format!("no model {model_name:?}\n"))
        };
    };
    let model = entry.snapshot();
    let Ok(text) = std::str::from_utf8(body) else {
        ServeCounters::bump(&shared.counters.rejected);
        return Response::text(400, "Bad Request", "body is not utf-8\n");
    };
    let guard = Guard::new(RunBudget::unlimited().wall(shared.config.deadline));
    let mut points: Vec<Transaction> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if guard
            .checkpoint(Phase::Labeling, &shared.observer)
            .is_some()
        {
            // Deadline exceeded mid-body: shed the rest rather than
            // hold a worker hostage. 503 invites a retry with a
            // smaller body.
            ServeCounters::bump(&shared.counters.shed);
            return Response::text(503, "Service Unavailable", "deadline exceeded\n")
                .header("Retry-After", "1");
        }
        match parse_query(model, line) {
            Ok(point) => points.push(point),
            Err(message) => {
                ServeCounters::bump(&shared.counters.rejected);
                let at = points.len() + 1;
                return Response::text(400, "Bad Request", format!("line {at}: {message}\n"));
            }
        }
    }
    if points.is_empty() {
        ServeCounters::bump(&shared.counters.rejected);
        return Response::text(400, "Bad Request", "empty body\n");
    }
    let n = usize_to_u64(points.len());
    let span = shared.observer.tracer().begin();
    let clock = Instant::now();
    let refs: Vec<&Transaction> = points.iter().collect();
    let labels = model.label_chunk(&refs, 1);
    slot.record_batch_ns(duration_ns(clock.elapsed()));
    ModelCounters::add(&slot.counters().batches, 1);
    ModelCounters::add(&slot.counters().batch_points, n);
    if let Some(s) = span {
        let payload = Payload::new().str("model", slot.name()).count("points", n);
        shared
            .observer
            .tracer()
            .end(s, "serve.batch", Some(Phase::Labeling), worker, payload);
    }
    let mut answers = String::new();
    let mut labeled = 0u64;
    let mut outliers = 0u64;
    for label in &labels {
        match label {
            Some(cluster) => {
                labeled += 1;
                answers.push_str(&format!("{{\"cluster\":{cluster}}}\n"));
            }
            None => {
                outliers += 1;
                answers.push_str("{\"cluster\":null}\n");
            }
        }
    }
    ServeCounters::add(&shared.counters.labeled, labeled);
    ServeCounters::add(&shared.counters.outlier, outliers);
    ModelCounters::add(&slot.counters().labeled, labeled);
    ModelCounters::add(&slot.counters().outlier, outliers);
    PipelineCounters::add(&shared.observer.counters().points_labeled, labeled);
    PipelineCounters::add(
        &shared.observer.counters().labeling_evaluations,
        n * usize_to_u64(model.representatives().total()),
    );
    Response::json(200, "OK", answers)
        .header(
            "X-Rock-Model",
            &format!("{}@v{}", slot.name(), entry.version()),
        )
        .header("X-Rock-Model-Fingerprint", &entry.fingerprint_hex())
}

/// Parses one query line into a [`Transaction`] against the snapshot.
///
/// Accepted shapes: `{"items":[0,3,7]}` (raw interned ids),
/// `{"record":["a","b",…]}` (textual cells through the snapshot
/// vocabulary, `"?"` treated as missing) and `{"basket":["milk",…]}`
/// (market-basket item names). Unknown record/basket values contribute
/// no item — exactly as the offline `rock-cluster label` path behaves.
fn parse_query(model: &ModelSnapshot, line: &str) -> std::result::Result<Transaction, String> {
    let value = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    if value.fields().is_none() {
        return Err("expected a json object".into());
    }
    if let Some(items) = value.get("items") {
        let Json::Arr(items) = items else {
            return Err("\"items\" must be an array of integers".into());
        };
        let mut ids = Vec::with_capacity(items.len());
        for item in items {
            let id = item
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| "\"items\" must be an array of integers".to_string())?;
            if (id as usize) >= model.universe() {
                return Err(format!(
                    "item id {id} out of range (universe {})",
                    model.universe()
                ));
            }
            ids.push(id);
        }
        return Ok(Transaction::new(ids));
    }
    if let Some(record) = value.get("record") {
        let cells = string_array(record, "record")?;
        return model
            .transaction_from_cells(&cells.iter().map(String::as_str).collect::<Vec<_>>(), "?")
            .map_err(|e| e.to_string());
    }
    if let Some(basket) = value.get("basket") {
        let names = string_array(basket, "basket")?;
        return model
            .transaction_from_basket(names.iter().map(String::as_str))
            .map_err(|e| e.to_string());
    }
    Err("object needs one of \"items\", \"record\" or \"basket\"".into())
}

/// Extracts an all-strings array field or explains why it isn't one.
fn string_array(value: &Json, field: &str) -> std::result::Result<Vec<String>, String> {
    let Json::Arr(entries) = value else {
        return Err(format!("\"{field}\" must be an array of strings"));
    };
    entries
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("\"{field}\" must be an array of strings"))
        })
        .collect()
}

/// Renders the `rock-serve-metrics/v1` document: server counters,
/// registry gauges, per-model blocks and model facts wrapped around the
/// core `rock-metrics/v1` schema. The `model` block reports the
/// `default` registry entry (zeros when nothing is mounted there) so
/// single-model deployments keep their familiar shape.
fn render_metrics(shared: &Shared) -> String {
    let counters = shared.counters.snapshot();
    let uptime = shared.started.elapsed();
    let outliers = usize::try_from(counters.outlier).unwrap_or(usize::MAX);
    let default_entry = shared
        .registry
        .resolve(DEFAULT_MODEL)
        .map(|(_, entry)| entry);
    let default_model = default_entry.as_ref().map(|e| e.snapshot());
    let core = Metrics::collect(
        &shared.observer,
        RunInfo {
            experiment: "rock-serve".into(),
            n: usize::try_from(counters.labeled).unwrap_or(usize::MAX),
            k: default_model.map_or(0, |m| m.num_clusters()),
            theta: default_model.map_or(0.0, |m| m.theta()),
            seed: 0,
            sample_size: default_model.map_or(0, |m| m.representatives().total()),
            clusters: default_model.map_or(0, |m| m.num_clusters()),
            outliers,
        },
        uptime,
    );

    let mut requests = JsonObj::new(true, 2);
    requests
        .num_u64("accepted", counters.accepted)
        .num_u64("labeled", counters.labeled)
        .num_u64("outlier", counters.outlier)
        .num_u64("rejected", counters.rejected)
        .num_u64("shed", counters.shed);

    let hist = lock_latency(shared).clone();
    let ms = |ns: u64| rock_core::cast::u64_to_f64(ns) / 1.0e6;
    let mut latency = JsonObj::new(true, 2);
    latency
        .num_u64("count", hist.count())
        .num_f64("p50_ms", ms(hist.percentile(0.50)))
        .num_f64("p90_ms", ms(hist.percentile(0.90)))
        .num_f64("p99_ms", ms(hist.percentile(0.99)))
        .num_f64("max_ms", ms(hist.max()));

    let mut model = JsonObj::new(true, 2);
    model
        .num_u64(
            "clusters",
            usize_to_u64(default_model.map_or(0, |m| m.num_clusters())),
        )
        .num_u64(
            "representatives",
            usize_to_u64(default_model.map_or(0, |m| m.representatives().total())),
        )
        .num_u64(
            "universe",
            usize_to_u64(default_model.map_or(0, |m| m.universe())),
        )
        .num_f64("theta", default_model.map_or(0.0, |m| m.theta()))
        .num_f64("exponent", default_model.map_or(0.0, |m| m.exponent()))
        .str(
            "similarity",
            default_model.map_or("none", |m| m.similarity().name()),
        )
        .str(
            "policy",
            default_model.map_or("none", |m| m.policy().name()),
        );

    let mut registry = JsonObj::new(true, 2);
    registry
        .num_u64("models_loaded", shared.registry.models_loaded())
        .num_u64("swaps", shared.registry.swaps())
        .num_u64("rejected_swaps", shared.registry.rejected_swaps());

    let mut models = JsonObj::new(true, 2);
    for slot in shared.registry.slots() {
        let entry = slot.current();
        let (labeled, outlier, batches, batch_points) = slot.counters().snapshot();
        let batch_hist = slot.batch_hist();
        let mut m = JsonObj::new(true, 3);
        m.str("state", slot.state().name())
            .num_u64("version", entry.as_ref().map_or(0, |e| e.version()))
            .str(
                "fingerprint",
                &entry
                    .as_ref()
                    .map_or_else(String::new, |e| e.fingerprint_hex()),
            )
            .num_u64("labeled", labeled)
            .num_u64("outlier", outlier)
            .num_u64("batches", batches)
            .num_u64("batch_points", batch_points)
            .num_u64("swaps", slot.swaps())
            .num_u64("rejected_swaps", slot.rejected_swaps())
            .num_u64("batch_count", batch_hist.count())
            .num_f64("batch_p50_ms", ms(batch_hist.percentile(0.50)))
            .num_f64("batch_p99_ms", ms(batch_hist.percentile(0.99)))
            .num_f64("batch_max_ms", ms(batch_hist.max()));
        models.raw(slot.name(), &m.end());
    }

    let mut doc = JsonObj::new(true, 1);
    doc.str("schema", "rock-serve-metrics/v1")
        .num_f64("uptime_secs", uptime.as_secs_f64())
        .raw("requests", &requests.end())
        .raw("latency", &latency.end())
        .raw("model", &model.end())
        .raw("registry", &registry.end())
        .raw("models", &models.end())
        .raw("core", &indent_block(&core.to_json()));
    let mut text = doc.end();
    text.push('\n');
    text
}

/// Re-indents an embedded pretty JSON document one level deeper so the
/// composed `rock-serve-metrics/v1` output stays readable.
fn indent_block(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for (i, line) in json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str(line);
    }
    out
}

/// Writes `metrics` to `path`, or to stderr when `path` is `None`.
///
/// # Errors
/// [`RockError::Io`] when the file cannot be written.
pub fn flush_metrics(metrics: &str, path: Option<&std::path::Path>) -> Result<()> {
    match path {
        Some(path) => std::fs::write(path, metrics).map_err(|e| RockError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }),
        None => {
            let mut err = std::io::stderr().lock();
            err.write_all(metrics.as_bytes()).ok();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelState;
    use rock_core::labeling::Representatives;
    use rock_core::snapshot::{OutlierPolicy, SimilarityKind};

    /// Two clusters over a 6-item universe: {0,1,2} and {3,4,5}.
    fn toy_snapshot() -> ModelSnapshot {
        let reps = Representatives::from_sets(vec![
            vec![Transaction::new([0, 1, 2]), Transaction::new([0, 1, 2])],
            vec![Transaction::new([3, 4, 5])],
        ]);
        ModelSnapshot::new(
            0.5,
            1.0,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            6,
            None,
            reps,
        )
        .unwrap()
    }

    /// The same universe with the cluster order flipped, so the same
    /// probe labels differently — a distinguishable second model.
    fn flipped_snapshot() -> ModelSnapshot {
        let reps = Representatives::from_sets(vec![
            vec![Transaction::new([3, 4, 5])],
            vec![Transaction::new([0, 1, 2])],
        ]);
        ModelSnapshot::new(
            0.5,
            1.0,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            6,
            None,
            reps,
        )
        .unwrap()
    }

    fn shared() -> Shared {
        shared_with_registry({
            let registry = Arc::new(Registry::new());
            registry.install(DEFAULT_MODEL, toy_snapshot()).unwrap();
            registry
        })
    }

    fn shared_with_registry(registry: Arc<Registry>) -> Shared {
        Shared {
            registry,
            config: ServeConfig::default(),
            counters: ServeCounters::default(),
            observer: Observer::new(),
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            latency: Mutex::new(LatencyHistogram::new()),
            request_seq: AtomicU64::new(0),
        }
    }

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn label_batch_answers_one_line_per_query() {
        let s = shared();
        let body = b"{\"items\":[0,1,2]}\n{\"items\":[3,4]}\n\n{\"items\":[0]}\n";
        let resp = handle_label(&s, 0, DEFAULT_MODEL, body);
        assert_eq!(resp.status(), 200);
        let counters = s.counters.snapshot();
        assert_eq!(counters.labeled + counters.outlier, 3);
        // Per-model counters track the same points.
        let (labeled, outlier, batches, batch_points) = s
            .registry
            .slot(DEFAULT_MODEL)
            .unwrap()
            .counters()
            .snapshot();
        assert_eq!(labeled + outlier, 3);
        assert_eq!(batches, 1);
        assert_eq!(batch_points, 3);
    }

    #[test]
    fn label_rejects_bad_lines_with_400() {
        let s = shared();
        for body in [
            &b"not json"[..],
            b"[1,2,3]",
            b"{\"wrong\":[]}",
            b"{\"items\":[\"a\"]}",
            b"{\"items\":[99]}",
            b"{\"record\":[1]}",
            b"",
            b"\xff\xfe",
        ] {
            let resp = handle_label(&s, 0, DEFAULT_MODEL, body);
            assert_eq!(resp.status(), 400, "body {body:?}");
        }
        assert_eq!(s.counters.snapshot().rejected, 8);
    }

    #[test]
    fn deadline_mid_batch_sheds_with_503() {
        let mut s = shared();
        s.config.deadline = Duration::from_secs(0);
        let resp = handle_label(&s, 0, DEFAULT_MODEL, b"{\"items\":[0]}\n");
        assert_eq!(resp.status(), 503);
        assert_eq!(s.counters.snapshot().shed, 1);
    }

    #[test]
    fn label_without_a_default_model_sheds_with_503() {
        let s = shared_with_registry(Arc::new(Registry::new()));
        let resp = handle_label(&s, 0, DEFAULT_MODEL, b"{\"items\":[0]}\n");
        assert_eq!(resp.status(), 503);
        assert_eq!(s.counters.snapshot().shed, 1);
    }

    #[test]
    fn named_label_routes_to_that_model_and_unknown_is_404() {
        let s = shared();
        s.registry.install("flipped", flipped_snapshot()).unwrap();
        let body = b"{\"items\":[0,1,2]}\n";
        let default = route(&s, 0, &req("POST", "/label", body));
        assert_eq!(default.status(), 200);
        let named = route(&s, 0, &req("POST", "/models/flipped/label", body));
        assert_eq!(named.status(), 200);
        // Same probe, opposite clusters: the two models are distinct.
        let (dl, _, _, _) = s
            .registry
            .slot(DEFAULT_MODEL)
            .unwrap()
            .counters()
            .snapshot();
        let (fl, _, _, _) = s.registry.slot("flipped").unwrap().counters().snapshot();
        assert_eq!((dl, fl), (1, 1));
        let missing = route(&s, 0, &req("POST", "/models/nope/label", body));
        assert_eq!(missing.status(), 404);
        let wrong_method = route(&s, 0, &req("GET", "/models/flipped/label", b""));
        assert_eq!(wrong_method.status(), 405);
    }

    #[test]
    fn admin_install_swap_delete_lifecycle() {
        let s = shared();
        // Install a second model.
        let upload = flipped_snapshot().render();
        let resp = route(
            &s,
            0,
            &req("POST", "/admin/models/flipped", upload.as_bytes()),
        );
        assert_eq!(resp.status(), 200);
        // Hot-swap the default.
        let resp = route(
            &s,
            0,
            &req("POST", "/admin/models/default", upload.as_bytes()),
        );
        assert_eq!(resp.status(), 200);
        let (_, entry) = s.registry.resolve(DEFAULT_MODEL).unwrap();
        assert_eq!(entry.version(), 2);
        assert_eq!(
            entry.snapshot().label(&Transaction::new([0, 1, 2])),
            Some(1)
        );
        // Delete and verify 404 on re-delete.
        assert_eq!(
            route(&s, 0, &req("DELETE", "/admin/models/flipped", b"")).status(),
            200
        );
        assert_eq!(
            route(&s, 0, &req("DELETE", "/admin/models/flipped", b"")).status(),
            404
        );
        // Listing reflects the registry.
        let listing = route(&s, 0, &req("GET", "/admin/models", b""));
        assert_eq!(listing.status(), 200);
    }

    #[test]
    fn corrupt_admin_upload_keeps_old_model_serving() {
        let s = shared();
        let corrupt = flipped_snapshot()
            .render()
            .replace("similarity jaccard", "similarity jaccarD");
        let resp = route(
            &s,
            0,
            &req("POST", "/admin/models/default", corrupt.as_bytes()),
        );
        assert_eq!(resp.status(), 400);
        // Old model intact and serving.
        let (slot, entry) = s.registry.resolve(DEFAULT_MODEL).unwrap();
        assert_eq!(entry.version(), 1);
        assert_eq!(slot.state(), ModelState::Degraded);
        assert_eq!(s.registry.rejected_swaps(), 1);
        let labeled = handle_label(&s, 0, DEFAULT_MODEL, b"{\"items\":[0,1,2]}\n");
        assert_eq!(labeled.status(), 200);
        // Bad names and non-utf-8 bodies are rejected too.
        assert_eq!(
            route(&s, 0, &req("POST", "/admin/models/bad%20name", b"x")).status(),
            400
        );
        assert_eq!(
            route(&s, 0, &req("POST", "/admin/models/ok", b"\xff\xfe")).status(),
            400
        );
    }

    #[test]
    fn healthz_reports_per_model_state() {
        // Empty registry: 503 with a retry hint.
        let empty = shared_with_registry(Arc::new(Registry::new()));
        let resp = handle_healthz(&empty);
        assert_eq!(resp.status(), 503);
        // Ready: 200 with per-model rows.
        let s = shared();
        let resp = handle_healthz(&s);
        assert_eq!(resp.status(), 200);
        // Degraded after a rejected swap, recovered by a good one.
        s.registry
            .install_text(DEFAULT_MODEL, "garbage")
            .unwrap_err();
        let resp = route(&s, 0, &req("GET", "/healthz", b""));
        assert_eq!(resp.status(), 200);
        s.registry
            .install_text(DEFAULT_MODEL, &toy_snapshot().render())
            .unwrap();
        assert_eq!(
            s.registry.slot(DEFAULT_MODEL).unwrap().state(),
            ModelState::Ready
        );
    }

    #[test]
    fn routes_404_405_and_health() {
        let s = shared();
        let get = |method: &str, path: &str| req(method, path, b"");
        assert_eq!(route(&s, 0, &get("GET", "/healthz")).status(), 200);
        assert_eq!(route(&s, 0, &get("GET", "/metrics")).status(), 200);
        assert_eq!(route(&s, 0, &get("GET", "/label")).status(), 405);
        assert_eq!(route(&s, 0, &get("POST", "/metrics")).status(), 405);
        assert_eq!(route(&s, 0, &get("PUT", "/admin/models")).status(), 405);
        assert_eq!(route(&s, 0, &get("GET", "/nope")).status(), 404);
        assert_eq!(s.counters.snapshot().rejected, 4);
    }

    #[test]
    fn metrics_document_embeds_core_schema() {
        let s = shared();
        handle_label(&s, 0, DEFAULT_MODEL, b"{\"items\":[0,1,2]}\n");
        let doc = render_metrics(&s);
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("rock-serve-metrics/v1")
        );
        let requests = parsed.get("requests").unwrap();
        assert_eq!(requests.get("labeled").and_then(Json::as_u64), Some(1));
        let core = parsed.get("core").unwrap();
        assert_eq!(
            core.get("schema").and_then(Json::as_str),
            Some("rock-metrics/v1")
        );
        let model = parsed.get("model").unwrap();
        assert_eq!(model.get("clusters").and_then(Json::as_u64), Some(2));
        // Registry gauges and the per-model block.
        let registry = parsed.get("registry").unwrap();
        assert_eq!(
            registry.get("models_loaded").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(registry.get("swaps").and_then(Json::as_u64), Some(1));
        let models = parsed.get("models").unwrap();
        let default = models.get("default").unwrap();
        assert_eq!(default.get("state").and_then(Json::as_str), Some("ready"));
        assert_eq!(default.get("labeled").and_then(Json::as_u64), Some(1));
        assert_eq!(default.get("batches").and_then(Json::as_u64), Some(1));
        assert!(default.get("batch_p50_ms").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn metrics_latency_percentiles_track_recorded_requests() {
        let s = shared();
        // One exact-power bucket (1024ns) dominates, so every quantile
        // reports that bucket's upper bound.
        for _ in 0..10 {
            lock_latency(&s).record(1024);
        }
        let doc = render_metrics(&s);
        let parsed = Json::parse(&doc).unwrap();
        let latency = parsed.get("latency").unwrap();
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(10));
        for key in ["p50_ms", "p90_ms", "p99_ms", "max_ms"] {
            let v = latency.get(key).and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{key} should be positive, got {v}");
        }
    }

    #[test]
    fn record_and_basket_queries_work_when_vocabulary_present() {
        use rock_core::prelude::Vocabulary;
        let mut vocab = Vocabulary::new();
        vocab.intern_basket("milk");
        vocab.intern_basket("eggs");
        let model = ModelSnapshot::new(
            0.5,
            1.0,
            SimilarityKind::Jaccard,
            OutlierPolicy::Mark,
            2,
            Some(vocab),
            Representatives::from_sets(vec![vec![Transaction::new([0, 1])]]),
        )
        .unwrap();
        let point = parse_query(&model, "{\"basket\":[\"milk\",\"eggs\",\"unknown\"]}").unwrap();
        assert_eq!(model.label(&point), Some(0));
        // Record queries need an attribute vocabulary; basket-interned
        // snapshots simply find no matching (attr, value) keys.
        let empty = parse_query(&model, "{\"record\":[\"milk\"]}").unwrap();
        assert_eq!(model.label(&empty), None);
    }

    #[test]
    fn zero_sized_pools_resolve_to_a_working_server() {
        // threads: 0 is the auto convention (one per CPU, capped);
        // queue_capacity: 0 is clamped to 1. Neither may be fatal.
        let config = ServeConfig {
            threads: 0,
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        let handle = Server::start(toy_snapshot(), config).unwrap();
        let addr = handle.addr();
        assert_ne!(addr.port(), 0);
        let metrics = handle.shutdown();
        assert!(metrics.contains("rock-serve-metrics/v1"));
    }
}
