//! The serving frontend: acceptor, bounded queue, supervised worker
//! pool, deadlines, and graceful shutdown.
//!
//! The shape is a fixed set of OS threads (no async runtime), each with
//! one job:
//!
//! * the **acceptor** owns the listener; every accepted connection is
//!   pushed into the bounded queue or refused with `503` +
//!   `Retry-After` on overflow — never buffered without limit;
//! * **workers** pop connections and serve requests with socket
//!   read/write timeouts (slow-loris and stalled-writer safe) and a
//!   per-request deadline that counts queue wait (`504` on expiry);
//! * the **supervisor** watches for worker panics (reported by a drop
//!   guard), counts them, and respawns the pool — one poisoned request
//!   costs its connection, never the service.
//!
//! Shutdown (via [`ServerHandle::shutdown`], `POST /shutdown`, or a
//! signal loop in the CLI) closes the queue, stops the acceptor, lets
//! workers drain every queued and in-flight request within a drain
//! deadline, and reports whether the drain was clean.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use gdp_core::Privilege;
use gdp_serve::AnswerService;

use crate::api::{
    error_body, AnswerRequest, AnswerResponse, BatchAnswerRequest, BatchAnswerResponse, ErrorBody,
    ReleaseInfo, ReleasesResponse, ReloadResponse, WireAnswer,
};
use crate::fault::FaultPlan;
use crate::http::{self, HttpError, Request, Response};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::reload::{self, ReloadConfig, ReloadState};
use crate::stats::{ServerStats, StatsSnapshot};

/// Everything tunable about the server. `Default` is production-shaped;
/// tests shrink the knobs to make degradation modes fast to hit.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bounded connection-queue capacity; overflow is an immediate
    /// `503` + `Retry-After`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from `accept()` for a
    /// connection's first request (queue wait counts) and from request
    /// arrival for keep-alive successors; expiry is a `504`.
    pub request_deadline: Duration,
    /// Socket read/write timeout — the slow-loris / stalled-writer
    /// bound. A connection that stalls longer is dropped and counted.
    pub io_timeout: Duration,
    /// How long [`ServerHandle::join`] waits for workers to finish
    /// queued and in-flight work before abandoning them.
    pub drain_deadline: Duration,
    /// The `Retry-After` hint (seconds) sent with every overflow `503`.
    pub retry_after_secs: u64,
    /// Hard cap on a request body, in bytes.
    pub max_body_bytes: usize,
    /// Keep-alive cap: requests served per connection before the server
    /// closes it (bounds how long one client can pin a worker).
    pub max_requests_per_connection: u32,
    /// Live-reload wiring for a directory-backed store (watcher thread
    /// and `POST /v1/admin/reload`). Default: disabled.
    pub reload: ReloadConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 128,
            request_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(10),
            retry_after_secs: 1,
            max_body_bytes: 1 << 20,
            max_requests_per_connection: 10_000,
            reload: ReloadConfig::default(),
        }
    }
}

/// What [`ServerHandle::join`] reports after the drain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainReport {
    /// `true` when every queued connection was served and every worker
    /// exited within the drain deadline.
    pub clean: bool,
    /// Workers still busy when the drain deadline expired (abandoned,
    /// not killed).
    pub abandoned_workers: u64,
    /// Connections still queued when the drain deadline expired.
    pub abandoned_queue: usize,
    /// The final counter snapshot.
    pub stats: StatsSnapshot,
}

enum SupMsg {
    WorkerDied,
    WatcherDied,
    Shutdown,
}

struct Conn {
    stream: TcpStream,
    accepted_at: Instant,
}

struct Shared {
    service: Arc<AnswerService>,
    config: ServerConfig,
    faults: FaultPlan,
    queue: BoundedQueue<Conn>,
    stats: ServerStats,
    reload: ReloadState,
    draining: AtomicBool,
    addr: SocketAddr,
    sup_tx: Mutex<Sender<SupMsg>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the server into draining state (idempotent): the queue
    /// refuses new connections, workers exit once it is empty, and the
    /// acceptor breaks on its next wakeup.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Unblocks the acceptor's `accept()` with a throwaway loopback
    /// connection so it notices the draining flag immediately.
    fn wake_acceptor(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }

    fn sup_sender(&self) -> Sender<SupMsg> {
        self.sup_tx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn snapshot(&self) -> StatsSnapshot {
        let store = self.service.store();
        let store_section = self.reload.snapshot(store.datasets().len(), store.len());
        self.stats.snapshot(
            self.draining(),
            self.queue.len(),
            self.queue.capacity(),
            self.service.cache_stats(),
            store_section,
            crate::stats::ledger_section(store),
        )
    }

    /// One reload scan against `dir`, fully accounted: the attempt,
    /// its outcome and its uptime stamp all land in [`ReloadState`]
    /// whether it succeeds or degrades to a typed error.
    fn reload_store(&self, dir: &Path) -> Result<gdp_serve::OpenReport, gdp_serve::ServeError> {
        self.reload.attempts.fetch_add(1, Ordering::Relaxed);
        let uptime = self.stats.uptime_ms();
        match self.service.store().merge_dir(dir) {
            Ok(report) => {
                self.reload.record_ok(&report, uptime);
                Ok(report)
            }
            Err(err) => {
                self.reload.record_err(&err.to_string(), uptime);
                Err(err)
            }
        }
    }
}

/// The frontend's entry point: [`Server::start`] binds, spawns the
/// threads, and hands back a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `config.addr`, spawns acceptor + workers + supervisor, and
    /// returns immediately. `faults` is consulted on every answer
    /// request; pass [`FaultPlan::none`] in production.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn start(
        service: Arc<AnswerService>,
        config: ServerConfig,
        faults: FaultPlan,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (sup_tx, sup_rx) = std::sync::mpsc::channel();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            stats: ServerStats::new(),
            reload: ReloadState::new(config.reload.initial_quarantined),
            draining: AtomicBool::new(false),
            addr,
            sup_tx: Mutex::new(sup_tx.clone()),
            service,
            config,
            faults,
        });
        for _ in 0..shared.config.workers.max(1) {
            spawn_worker(Arc::clone(&shared), shared.sup_sender());
        }
        spawn_watcher(Arc::clone(&shared), shared.sup_sender());
        let supervisor = spawn_supervisor(Arc::clone(&shared), sup_rx);
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gdp-net-acceptor".to_string())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn acceptor thread")
        };
        Ok(ServerHandle {
            addr,
            shared,
            sup_tx,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
        })
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::join`] for a graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    sup_tx: Sender<SupMsg>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has begun (locally or via `POST /shutdown`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// The current counter snapshot (same data as `GET /stats`).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Begins a graceful shutdown without blocking: stop accepting,
    /// refuse new connections, let workers drain. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
        self.shared.wake_acceptor();
    }

    /// Shuts down (if not already draining) and blocks until the drain
    /// finishes or the configured drain deadline expires.
    pub fn join(mut self) -> DrainReport {
        self.shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        // The watcher is part of the supervised pool: a clean drain
        // reaps it along with the workers (it notices the draining flag
        // within one sleep slice).
        while (self.shared.stats.live_workers.load(Ordering::SeqCst) > 0
            || self.shared.reload.watcher_alive.load(Ordering::SeqCst) > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        let abandoned_workers = self.shared.stats.live_workers.load(Ordering::SeqCst);
        let _ = self.sup_tx.send(SupMsg::Shutdown);
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let abandoned_queue = self.shared.queue.len();
        DrainReport {
            clean: abandoned_workers == 0 && abandoned_queue == 0,
            abandoned_workers,
            abandoned_queue,
            stats: self.shared.snapshot(),
        }
    }
}

// ---- acceptor ----

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining() {
                    // The wakeup connection (or a straggler): refuse and
                    // stop accepting. Pending backlog entries are reset
                    // when the listener drops below.
                    drop(stream);
                    break;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let conn = match configure(stream, shared) {
                    Some(conn) => conn,
                    None => continue,
                };
                match shared.queue.try_push(conn) {
                    Ok(()) => {}
                    Err(PushError::Full(conn)) => {
                        shared
                            .stats
                            .rejected_overflow
                            .fetch_add(1, Ordering::Relaxed);
                        refuse(conn, shared, "overloaded", "request queue is full");
                    }
                    Err(PushError::Closed(conn)) => {
                        drop(conn);
                        break;
                    }
                }
            }
            Err(_) => {
                if shared.draining() {
                    break;
                }
            }
        }
    }
}

fn configure(stream: TcpStream, shared: &Shared) -> Option<Conn> {
    let timeout = Some(shared.config.io_timeout);
    stream.set_read_timeout(timeout).ok()?;
    stream.set_write_timeout(timeout).ok()?;
    let _ = stream.set_nodelay(true);
    Some(Conn {
        stream,
        accepted_at: Instant::now(),
    })
}

/// Writes an immediate `503` + `Retry-After` and closes — the explicit
/// backpressure signal. Best effort: the write is bounded by the socket
/// write timeout and a failure just drops the connection.
fn refuse(conn: Conn, shared: &Shared, kind: &str, message: &str) {
    let response = Response::json(
        503,
        &ErrorBody {
            kind: kind.to_string(),
            error: message.to_string(),
        },
    )
    .with_header("retry-after", shared.config.retry_after_secs.to_string());
    let mut writer = BufWriter::new(conn.stream);
    let _ = http::write_response(&mut writer, &response, false);
}

// ---- supervision ----

fn spawn_worker(shared: Arc<Shared>, tx: Sender<SupMsg>) {
    // Counted before the spawn so a racing `join()` never undercounts
    // live workers.
    shared.stats.live_workers.fetch_add(1, Ordering::SeqCst);
    let worker_shared = Arc::clone(&shared);
    let spawned = std::thread::Builder::new()
        .name("gdp-net-worker".to_string())
        .spawn(move || {
            let guard = WorkerGuard {
                shared: worker_shared,
                tx,
            };
            worker_loop(&guard.shared);
        });
    if spawned.is_err() {
        // Spawn failure (fd/thread exhaustion): undo the count; the
        // pool runs one short until the next panic-triggered respawn.
        shared.stats.live_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decrements the live-worker gauge on every exit and reports panics to
/// the supervisor — the drop runs during unwind, which is exactly when
/// a panicked worker must be replaced.
struct WorkerGuard {
    shared: Arc<Shared>,
    tx: Sender<SupMsg>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.shared
            .stats
            .live_workers
            .fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            self.shared
                .stats
                .worker_panics
                .fetch_add(1, Ordering::SeqCst);
            let _ = self.tx.send(SupMsg::WorkerDied);
        }
    }
}

fn spawn_supervisor(shared: Arc<Shared>, rx: Receiver<SupMsg>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("gdp-net-supervisor".to_string())
        .spawn(move || loop {
            match rx.recv() {
                Ok(SupMsg::WorkerDied) => {
                    if !shared.draining() {
                        shared.stats.worker_restarts.fetch_add(1, Ordering::SeqCst);
                        spawn_worker(Arc::clone(&shared), shared.sup_sender());
                    }
                }
                Ok(SupMsg::WatcherDied) => {
                    if !shared.draining() {
                        shared
                            .reload
                            .watcher_restarts
                            .fetch_add(1, Ordering::SeqCst);
                        spawn_watcher(Arc::clone(&shared), shared.sup_sender());
                    }
                }
                Ok(SupMsg::Shutdown) | Err(_) => break,
            }
        })
        .expect("spawn supervisor thread")
}

// ---- store watcher ----

/// Spawns the store-watcher thread when the config asks for one (a
/// reload directory *and* an interval); a no-op otherwise. Supervised
/// exactly like workers: a panic is reported by the drop guard and the
/// supervisor respawns the watcher.
fn spawn_watcher(shared: Arc<Shared>, tx: Sender<SupMsg>) {
    let (Some(dir), Some(interval)) = (
        shared.config.reload.dir.clone(),
        shared.config.reload.interval,
    ) else {
        return;
    };
    // Marked alive before the spawn so a racing `/stats` never reads a
    // configured-but-absent watcher.
    shared.reload.watcher_alive.store(1, Ordering::SeqCst);
    let watcher_shared = Arc::clone(&shared);
    let spawned = std::thread::Builder::new()
        .name("gdp-net-watcher".to_string())
        .spawn(move || {
            let guard = WatcherGuard {
                shared: watcher_shared,
                tx,
            };
            watcher_loop(&guard.shared, &dir, interval);
        });
    if spawned.is_err() {
        shared.reload.watcher_alive.store(0, Ordering::SeqCst);
    }
}

/// Clears the alive gauge on every exit and reports panics to the
/// supervisor for a respawn — the watcher gets the same crash-safety
/// contract as the worker pool.
struct WatcherGuard {
    shared: Arc<Shared>,
    tx: Sender<SupMsg>,
}

impl Drop for WatcherGuard {
    fn drop(&mut self) {
        self.shared.reload.watcher_alive.store(0, Ordering::SeqCst);
        if std::thread::panicking() {
            let _ = self.tx.send(SupMsg::WatcherDied);
        }
    }
}

/// Polls the artifact directory forever: sleep (draining-aware, in
/// small slices), re-scan, repeat. Reload failures are typed and
/// *expected* (a publisher may be mid-write, an operator mid-edit) —
/// they only stretch the next sleep via [`reload::watcher_backoff`],
/// never take the thread down.
fn watcher_loop(shared: &Shared, dir: &Path, interval: Duration) {
    let mut consecutive_failures: u32 = 0;
    loop {
        let nap = reload::watcher_backoff(interval, consecutive_failures);
        let wake = Instant::now() + nap;
        while Instant::now() < wake {
            if shared.draining() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20).min(nap));
        }
        if shared.draining() {
            return;
        }
        match shared.reload_store(dir) {
            Ok(_) => consecutive_failures = 0,
            Err(_) => consecutive_failures = consecutive_failures.saturating_add(1),
        }
    }
}

// ---- workers ----

fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop(Duration::from_millis(50)) {
            Pop::Item(conn) => handle_connection(shared, conn),
            Pop::Empty => {}
            Pop::Closed => break,
        }
    }
}

/// Increments the in-flight gauge for the scope of one request,
/// decrementing on drop — including the unwind of a fault-injected
/// panic, so the gauge never leaks.
struct InFlight<'a>(&'a ServerStats);

impl<'a> InFlight<'a> {
    fn new(stats: &'a ServerStats) -> Self {
        stats.in_flight.fetch_add(1, Ordering::SeqCst);
        Self(stats)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(shared: &Shared, conn: Conn) {
    let Ok(read_half) = conn.stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(conn.stream);
    // The first request's deadline starts at accept time: queue wait is
    // part of the latency a caller observes, so backpressure shows up
    // as 504s instead of silently slow answers. Keep-alive successors
    // restart the clock at their own arrival.
    let mut deadline_start = conn.accepted_at;
    let cap = shared.config.max_requests_per_connection;
    for served in 1..=cap {
        let request = match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(Some(request)) => request,
            // Clean keep-alive close, or a peer that tore the
            // connection mid-request: nothing left to serve.
            Ok(None) | Err(HttpError::Closed) => return,
            Err(HttpError::TimedOut) => {
                // Slow-loris: the peer fed bytes slower than the read
                // timeout. Count it and reclaim the worker.
                shared.stats.io_timeouts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(HttpError::TooLarge { what, limit }) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let response = Response::json(
                    413,
                    &ErrorBody {
                        kind: "too_large".to_string(),
                        error: format!("{what} exceeds the limit of {limit}"),
                    },
                );
                let _ = http::write_response(&mut writer, &response, false);
                return;
            }
            Err(HttpError::Malformed(message)) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                let response = Response::json(
                    400,
                    &ErrorBody {
                        kind: "bad_request".to_string(),
                        error: message,
                    },
                );
                let _ = http::write_response(&mut writer, &response, false);
                return;
            }
            Err(HttpError::Io(_)) => return,
        };
        let in_flight = InFlight::new(&shared.stats);
        let response = route(shared, &request, deadline_start);
        // The request that reaches the per-connection cap is the last:
        // its response says so, so the client does not write into the
        // socket this loop is about to close.
        let keep_alive = request.keep_alive() && !shared.draining() && served < cap;
        match http::write_response(&mut writer, &response, keep_alive) {
            Ok(()) => {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(HttpError::TimedOut) => {
                // Stalled writer: the peer stopped reading its response.
                shared.stats.io_timeouts.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => return,
        }
        drop(in_flight);
        if !keep_alive {
            return;
        }
        deadline_start = Instant::now();
    }
}

// ---- routing ----

fn route(shared: &Shared, request: &Request, deadline_start: Instant) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let status = if shared.draining() { "draining" } else { "ok" };
            Response::json(
                200,
                &serde::Value::Map(vec![(
                    "status".to_string(),
                    serde::Value::Str(status.to_string()),
                )]),
            )
        }
        ("GET", "/stats") => Response::json(200, &shared.snapshot()),
        ("GET", "/v1/releases") => releases(shared),
        ("POST", "/shutdown") => {
            shared.begin_drain();
            shared.wake_acceptor();
            Response::json(
                200,
                &serde::Value::Map(vec![(
                    "status".to_string(),
                    serde::Value::Str("draining".to_string()),
                )]),
            )
        }
        ("POST", "/v1/admin/reload") => admin_reload(shared),
        ("POST", "/v1/answer") => answer_one(shared, request, deadline_start),
        ("POST", "/v1/answer_batch") => answer_batch(shared, request, deadline_start),
        _ => Response::json(
            404,
            &ErrorBody {
                kind: "not_found".to_string(),
                error: format!("no route for {} {}", request.method, request.path),
            },
        ),
    }
}

/// `POST /v1/admin/reload`: one on-demand store re-scan. `400` when the
/// server has no artifact directory to reload from, `200` with the
/// per-file report on success, `500` with the typed error rendered when
/// the scan degrades — the store keeps serving what it already holds in
/// every case.
fn admin_reload(shared: &Shared) -> Response {
    let Some(dir) = shared.config.reload.dir.clone() else {
        return Response::json(
            400,
            &ErrorBody {
                kind: "reload_unavailable".to_string(),
                error: "the server was not started from an artifact directory; \
                        there is nothing to reload"
                    .to_string(),
            },
        );
    };
    match shared.reload_store(&dir) {
        Ok(report) => Response::json(
            200,
            &ReloadResponse {
                summary: report.summary(),
                report,
            },
        ),
        Err(err) => Response::json(
            500,
            &ErrorBody {
                kind: "reload_failed".to_string(),
                error: err.to_string(),
            },
        ),
    }
}

fn parse_body<T: serde::Deserialize>(request: &Request) -> Result<T, Response> {
    let text = std::str::from_utf8(&request.body).map_err(|_| bad_json("body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| bad_json(&e.to_string()))
}

fn bad_json(message: &str) -> Response {
    Response::json(
        400,
        &ErrorBody {
            kind: "bad_json".to_string(),
            error: message.to_string(),
        },
    )
}

/// Applies the fault plan and the request deadline — in that order, so
/// an injected delay deterministically expires the deadline.
fn preflight(shared: &Shared, dataset: &str, deadline_start: Instant) -> Result<(), Response> {
    if let Err(message) = shared.faults.apply(dataset) {
        return Err(Response::json(
            500,
            &ErrorBody {
                kind: "fault_injected".to_string(),
                error: message,
            },
        ));
    }
    if deadline_start.elapsed() > shared.config.request_deadline {
        shared
            .stats
            .deadline_expired
            .fetch_add(1, Ordering::Relaxed);
        return Err(Response::json(
            504,
            &ErrorBody {
                kind: "deadline_exceeded".to_string(),
                error: format!(
                    "request exceeded its {}ms deadline (queue wait included)",
                    shared.config.request_deadline.as_millis()
                ),
            },
        ));
    }
    Ok(())
}

fn answer_one(shared: &Shared, request: &Request, deadline_start: Instant) -> Response {
    let body: AnswerRequest = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    if let Err(response) = preflight(shared, &body.dataset, deadline_start) {
        return response;
    }
    match shared.service.answer_typed(
        &body.dataset,
        body.epoch,
        Privilege::new(body.privilege),
        body.level,
        &body.query,
    ) {
        Ok(answer) => {
            shared.stats.count_variant(body.query.name());
            Response::json(
                200,
                &AnswerResponse {
                    answer: WireAnswer::from(&answer),
                },
            )
        }
        Err(err) => error_body(&err),
    }
}

fn answer_batch(shared: &Shared, request: &Request, deadline_start: Instant) -> Response {
    let body: BatchAnswerRequest = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    if let Err(response) = preflight(shared, &body.dataset, deadline_start) {
        return response;
    }
    match shared.service.answer_typed_batch(
        &body.dataset,
        body.epoch,
        Privilege::new(body.privilege),
        body.level,
        &body.queries,
    ) {
        Ok(answers) => {
            for query in &body.queries {
                shared.stats.count_variant(query.name());
            }
            Response::json(
                200,
                &BatchAnswerResponse {
                    answers: answers.iter().map(WireAnswer::from).collect(),
                },
            )
        }
        Err(err) => error_body(&err),
    }
}

fn releases(shared: &Shared) -> Response {
    let store = shared.service.store();
    let mut releases = Vec::new();
    for dataset in store.datasets() {
        for epoch in store.epochs(&dataset) {
            let Ok(indexed) = store.get(&dataset, epoch) else {
                continue;
            };
            let levels = indexed.artifact().hierarchy().levels();
            let (left_nodes, right_nodes) = levels
                .first()
                .map(|l| (l.left().node_count(), l.right().node_count()))
                .unwrap_or((0, 0));
            releases.push(ReleaseInfo {
                dataset: dataset.clone(),
                epoch,
                levels: levels.len(),
                left_nodes,
                right_nodes,
                left_groups: levels.iter().map(|l| l.left().block_count()).collect(),
                right_groups: levels.iter().map(|l| l.right().block_count()).collect(),
            });
        }
    }
    Response::json(200, &ReleasesResponse { releases })
}
