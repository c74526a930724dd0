//! The serve workloads: the shipping `gdp serve` binary, spawned over a
//! store prepared from the seed, driven in a closed loop on one
//! keep-alive loopback connection.
//!
//! * `serve_point` — one `POST /v1/answer`, Zipf-skewed over every query
//!   variant at every level of a three-epoch chain (a few hundred keys,
//!   all memo-cache hits after warm-up).
//! * `serve_batch` — one `POST /v1/answer_batch` of 256 never-repeated
//!   64-node subset counts against the latest epoch (every lookup
//!   misses and inserts into the memo cache).
//!
//! Every answer is compared with `IndexedRelease::answer` on the same
//! artifact loaded in process, after the timed phase. The traced run
//! replays each request's bytes through the in-process layers (parse,
//! decode, service, encode, write) on a second service fed the same
//! request sequence: every other request with a span per layer, the rest
//! untraced, so the two replay times give the tracing overhead.

use std::io::{BufRead, BufReader, Cursor};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gdp_core::{
    ArtifactFormat, DisclosureSession, HierarchyStats, Privilege, ReleaseArtifact, Specializer,
};
use gdp_graph::Side;
use gdp_net::client::{self, ClientConn};
use gdp_net::http::{self, ClientResponse};
use gdp_net::{
    AnswerRequest, AnswerResponse, BatchAnswerRequest, BatchAnswerResponse, Response,
    StatsSnapshot, WireAnswer,
};
use gdp_serve::{AnswerService, IndexedRelease, Query, ReleaseStore, SubsetQuery, TypedAnswer};

use crate::fixture::{self, DeltaSource, DATASET};
use crate::report::Report;
use crate::stats::{self, Latency};
use crate::trace::Tracer;
use crate::{text, verify, Opts};

/// Epochs in the served chain (a base release and two deltas).
const CHAIN_EPOCHS: u64 = 3;
/// Server spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Queries per `serve_batch` request.
const BATCH_QUERIES: usize = 256;
/// Nodes per `serve_batch` subset query.
const SUBSET_NODES: usize = 64;
/// Untimed batches before `serve_batch` starts timing.
const WARMUP_BATCHES: u64 = 8;
/// Timed requests after which the server's peak RSS is read, per
/// workload (`serve_point`, `serve_batch`). Every untraced run serves at
/// least this many, so `rss_mb` always covers the same number of memo
/// cache inserts: `serve_batch` grows the cache with every request, and
/// a peak read at the end of a time-bounded run would track throughput.
const RSS_AFTER: [u64; 2] = [10_000, 128];
/// Zipf exponent of key popularity in `serve_point`.
const KEY_EXPONENT: f64 = 1.1;
/// Socket timeouts of the benchmark's client.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Largest request body the in-process replay parses (the server's
/// default limit).
const MAX_BODY: usize = 1 << 20;

/// The in-process layers of one served request, in call order; their
/// per-request sum is subtracted from the round trip to give transport.
const PATH_LAYERS: [&str; 5] = [
    "net.http.parse_us",
    "net.api.decode_us",
    "serve.service.answer_us",
    "net.api.encode_us",
    "net.http.write_us",
];
/// Every serve-side layer metric that is a median of per-request spans.
const SPAN_METRICS: [&str; 6] = [
    "net.http.parse_us",
    "net.api.decode_us",
    "serve.service.answer_us",
    "serve.index.answer_us",
    "net.api.encode_us",
    "net.http.write_us",
];

/// The store a serve workload answers from, with the in-process
/// reference the served answers are checked against.
struct Prepared {
    dir: PathBuf,
    /// `(epoch, reference index)` for every epoch of the chain.
    releases: Vec<(u64, IndexedRelease)>,
    latest_bytes: f64,
    rel_error: f64,
}

impl Prepared {
    fn latest(&self) -> &(u64, IndexedRelease) {
        self.releases
            .last()
            .expect("the chain has at least one epoch")
    }

    fn release(&self, epoch: u64) -> Option<&IndexedRelease> {
        self.releases
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, r)| r)
    }
}

/// Publishes the chain the server will load: a base epoch and
/// `CHAIN_EPOCHS − 1` incremental epochs of 1% churn, as `.gda` files.
fn prepare(opts: &Opts) -> Result<Prepared, String> {
    let dir = opts.work.join(format!("{}-store", opts.workload));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let graph = fixture::generate(opts.seed);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x0073_6572_7665);
    let hierarchy = Specializer::new(fixture::specialization())
        .specialize(&graph, &mut rng)
        .map_err(text)?;
    let config = fixture::disclosure();
    let mut session = DisclosureSession::new(graph, hierarchy, fixture::budget_for(CHAIN_EPOCHS));
    let mut paths = Vec::new();
    let (_, path) = session
        .publish_to_dir_as(&config, DATASET, 1, &dir, ArtifactFormat::Binary, &mut rng)
        .map_err(text)?;
    paths.push((1, path));
    let mut source = DeltaSource::new(opts.seed, session.graph().left_count());
    for _ in 1..CHAIN_EPOCHS {
        let delta = source.next(session.graph());
        let (artifact, path) = session
            .publish_next_to_dir_as(
                &config,
                DATASET,
                &delta,
                &dir,
                ArtifactFormat::Binary,
                &mut rng,
            )
            .map_err(text)?;
        paths.push((artifact.epoch(), path));
    }
    let mut releases = Vec::new();
    for (epoch, path) in &paths {
        let artifact = ReleaseArtifact::load(path).map_err(text)?;
        releases.push((*epoch, IndexedRelease::new(artifact).map_err(text)?));
    }
    let truth = HierarchyStats::compute(session.graph(), session.hierarchy()).map_err(text)?;
    let (_, latest_path) = paths.last().expect("at least one epoch");
    let latest_bytes = std::fs::metadata(latest_path).map_err(text)?.len() as f64;
    let rel_error = verify::release_rel_error(
        releases
            .last()
            .expect("at least one epoch")
            .1
            .artifact()
            .release(),
        &truth,
    )?;
    Ok(Prepared {
        dir,
        releases,
        latest_bytes,
        rel_error,
    })
}

/// A spawned `gdp serve`; killed and reaped on drop if not shut down.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `gdp serve` over `dir` and waits for its `listening on`
    /// line (no sleep-polling).
    fn spawn(
        gdp: &Path,
        dir: &Path,
        log: &Path,
        workers: usize,
        threads: usize,
    ) -> Result<Self, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(gdp)
            .arg("serve")
            .arg("--artifact-dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .env("RAYON_NUM_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", gdp.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Self {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server.stdout.read_line(&mut line).map_err(text)?;
            if n == 0 {
                return Err("gdp serve exited before listening".to_string());
            }
            if let Some(rest) = line.trim().strip_prefix("listening on http://") {
                server.addr = rest
                    .parse()
                    .map_err(|e| format!("listening line `{line}`: {e}"))?;
                return Ok(server);
            }
        }
    }

    fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or("0".to_string(), |c| c.id().to_string())
    }

    /// Asks the server to drain (`POST /shutdown`) and reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = client::request(self.addr, "POST", "/shutdown", None, TIMEOUT);
        let mut child = self.child.take().expect("a live server owns its child");
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match child.try_wait().map_err(text)? {
                Some(status) => break Some(status),
                None if Instant::now() > deadline => break None,
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        match (asked, status) {
            (Ok(r), Some(s)) if r.status == 200 && s.success() => Ok(()),
            (asked, None) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "gdp serve did not exit after shutdown ({:?})",
                    asked.map(|r| r.status)
                ))
            }
            (asked, Some(s)) => Err(format!(
                "gdp serve shutdown answered {:?} and exited with {s}",
                asked.map(|r| r.status)
            )),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The client side of the closed loop: one keep-alive [`ClientConn`]
/// at a time. `gdp serve` closes a connection after the server's
/// `max_requests_per_connection` requests — without marking the last
/// response `connection: close` — so the client opens the next
/// connection itself at that cap rather than sending into a closed
/// socket. Any other lost connection is a failed request.
struct Conn {
    addr: SocketAddr,
    inner: ClientConn,
    sent: u32,
    closing: bool,
    cap: u32,
    /// Connections opened after the first.
    reopened: u64,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        Ok(Self {
            addr,
            inner: ClientConn::connect(addr, TIMEOUT).map_err(text)?,
            sent: 0,
            closing: false,
            cap: gdp_net::ServerConfig::default().max_requests_per_connection,
            reopened: 0,
        })
    }

    /// Replaces the connection with a fresh one.
    fn reopen(&mut self) -> Result<(), String> {
        self.inner = ClientConn::connect(self.addr, TIMEOUT).map_err(text)?;
        self.sent = 0;
        self.closing = false;
        self.reopened += 1;
        Ok(())
    }

    /// Opens the next connection if the server is about to close, or
    /// has announced it closes, this one. Untimed: call it before
    /// starting a request's clock.
    fn ready(&mut self) -> Result<(), String> {
        if self.closing || self.sent >= self.cap {
            self.reopen()?;
        }
        Ok(())
    }

    /// POSTs a JSON body and reads the whole response.
    fn post(&mut self, path: &str, body: &[u8]) -> Result<ClientResponse, String> {
        self.sent += 1;
        let response = self
            .inner
            .send("POST", path, Some(body))
            .map_err(|e| format!("{e:?}"))?;
        self.closing = response.header("connection") == Some("close");
        Ok(response)
    }
}

/// The bytes [`ClientConn::send`] writes for a JSON POST, for the
/// in-process replay to parse.
fn request_bytes(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: gdp\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

fn get_stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let response =
        client::get(addr, "/stats", TIMEOUT).map_err(|e| format!("GET /stats: {e:?}"))?;
    if response.status != 200 {
        return Err(format!("GET /stats answered {}", response.status));
    }
    serde_json::from_str(&response.text()).map_err(|e| format!("/stats: {e}"))
}

/// One served key of `serve_point`.
#[derive(Debug, Clone)]
struct Key {
    epoch: u64,
    level: usize,
    privilege: usize,
    query: Query,
}

impl Key {
    fn request(&self) -> AnswerRequest {
        AnswerRequest {
            dataset: DATASET.to_string(),
            epoch: self.epoch,
            privilege: self.privilege,
            level: self.level,
            query: self.query.clone(),
        }
    }
}

/// Every query variant at every level of every epoch: side totals, the
/// left degree histogram, the first groups' masses, and two subset
/// sizes, each at a privilege drawn from those allowed to read it.
///
/// The keys come in popularity order. The ranks take the variants in
/// turn, in a fixed order, and the seed only picks which key of a variant
/// fills its turn: the variant mix at the Zipf head, and with it the
/// median request, is then the same for every seed.
fn key_universe(prepared: &Prepared, rng: &mut StdRng) -> Vec<Key> {
    // One list per variant: side totals (left, right), degree histogram,
    // group masses (left, right), subset counts (4, 16 nodes).
    let mut variants: [Vec<Key>; 7] = Default::default();
    for (epoch, release) in &prepared.releases {
        let levels = release.artifact().hierarchy().levels();
        let left_nodes = levels[0].left().node_count();
        for (level, grouping) in levels.iter().enumerate() {
            let mut queries = vec![
                (0, Query::SideTotal { side: Side::Left }),
                (1, Query::SideTotal { side: Side::Right }),
                (2, Query::DegreeHistogram { side: Side::Left }),
            ];
            for group in 0..grouping.left().block_count().min(4) {
                let side = Side::Left;
                queries.push((3, Query::GroupMass { side, group }));
            }
            for group in 0..grouping.right().block_count().min(4) {
                let side = Side::Right;
                queries.push((4, Query::GroupMass { side, group }));
            }
            for (variant, size) in [(5, 4usize), (6, 16)] {
                queries.push((variant, Query::SubsetCount(subset(rng, left_nodes, size))));
            }
            for (variant, query) in queries {
                variants[variant].push(Key {
                    epoch: *epoch,
                    level,
                    privilege: rng.gen_range(0..=level),
                    query,
                });
            }
        }
    }
    for keys in &mut variants {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut keys = Vec::new();
    while variants.iter().any(|v| !v.is_empty()) {
        keys.extend(variants.iter_mut().filter_map(Vec::pop));
    }
    keys
}

/// `size` distinct left nodes below `left_nodes`, ascending.
fn subset(rng: &mut StdRng, left_nodes: u32, size: usize) -> SubsetQuery {
    let mut nodes: Vec<u32> = Vec::with_capacity(size);
    while nodes.len() < size {
        let n = rng.gen_range(0..left_nodes);
        if !nodes.contains(&n) {
            nodes.push(n);
        }
    }
    nodes.sort_unstable();
    SubsetQuery {
        side: Side::Left,
        nodes,
    }
}

/// The queries of `serve_batch` request `index`: regenerable after the
/// timed phase from the seed alone.
fn batch_queries(seed: u64, index: u64, left_nodes: u32) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0xD134_2543_DE82_EF95)
            ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ 0xBA7C,
    );
    (0..BATCH_QUERIES)
        .map(|_| Query::SubsetCount(subset(&mut rng, left_nodes, SUBSET_NODES)))
        .collect()
}

/// Zipf cumulative weights over `n` ranks.
fn zipf_cumulative(n: usize, exponent: f64) -> Vec<f64> {
    let mut total = 0.0;
    (0..n)
        .map(|k| {
            total += 1.0 / ((k + 1) as f64).powf(exponent);
            total
        })
        .collect()
}

fn sample_rank(cumulative: &[f64], rng: &mut StdRng) -> usize {
    let total = cumulative.last().copied().unwrap_or(1.0);
    let u = rng.gen::<f64>() * total;
    cumulative
        .partition_point(|&c| c < u)
        .min(cumulative.len() - 1)
}

/// What the timed loop keeps per request, for checking afterwards.
struct Served {
    /// Key index (`serve_point`) or batch index (`serve_batch`).
    item: u64,
    latency_ms: f64,
    status: u16,
    body: std::ops::Range<usize>,
}

/// The second, in-process service the traced run replays requests on.
struct Replay {
    service: AnswerService,
}

/// Runs `f`, as a span of the request's op when there is a tracer.
fn layer<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, op, Some("op"), f),
        None => f(),
    }
}

impl Replay {
    fn open(dir: &Path) -> Result<Self, String> {
        let (store, _) = ReleaseStore::open_dir_report(dir).map_err(text)?;
        Ok(Self {
            service: AnswerService::new(store),
        })
    }

    /// Replays one request through every in-process layer — one span
    /// per public call when `tracer` is given, the same calls untraced
    /// otherwise — and returns the response bytes the server would
    /// write. Every request goes through here, so the service's cache
    /// stays in step with the server's.
    fn replay(
        &self,
        mut tracer: Option<&mut Tracer>,
        op: u64,
        request: &[u8],
        batch: bool,
        prepared: &Prepared,
    ) -> Result<Vec<u8>, String> {
        let t = &mut tracer;
        let parsed = layer(t, "net.http.parse_us", op, || {
            http::read_request(&mut Cursor::new(request), MAX_BODY)
        })
        .map_err(|e| format!("{e:?}"))?
        .ok_or("empty request")?;
        let response = if batch {
            let req = layer(t, "net.api.decode_us", op, || {
                std::str::from_utf8(&parsed.body)
                    .map_err(text)
                    .and_then(|b| serde_json::from_str::<BatchAnswerRequest>(b).map_err(text))
            })?;
            let answers = layer(t, "serve.service.answer_us", op, || {
                self.service.answer_typed_batch(
                    &req.dataset,
                    req.epoch,
                    Privilege::new(req.privilege),
                    req.level,
                    &req.queries,
                )
            })
            .map_err(text)?;
            let release = prepared.release(req.epoch).ok_or("unknown epoch")?;
            layer(t, "serve.index.answer_us", op, || {
                release.answer_batch(req.level, &req.queries)
            })
            .map_err(text)?;
            layer(t, "net.api.encode_us", op, || {
                Response::json(
                    200,
                    &BatchAnswerResponse {
                        answers: answers.iter().map(WireAnswer::from).collect(),
                    },
                )
            })
        } else {
            let req = layer(t, "net.api.decode_us", op, || {
                std::str::from_utf8(&parsed.body)
                    .map_err(text)
                    .and_then(|b| serde_json::from_str::<AnswerRequest>(b).map_err(text))
            })?;
            let answer = layer(t, "serve.service.answer_us", op, || {
                self.service.answer_typed(
                    &req.dataset,
                    req.epoch,
                    Privilege::new(req.privilege),
                    req.level,
                    &req.query,
                )
            })
            .map_err(text)?;
            let release = prepared.release(req.epoch).ok_or("unknown epoch")?;
            layer(t, "serve.index.answer_us", op, || {
                release.answer(req.level, &req.query)
            })
            .map_err(text)?;
            layer(t, "net.api.encode_us", op, || {
                Response::json(
                    200,
                    &AnswerResponse {
                        answer: WireAnswer::from(&answer),
                    },
                )
            })
        };
        let mut out = Vec::with_capacity(response.body.len() + 128);
        layer(t, "net.http.write_us", op, || {
            http::write_response(&mut out, &response, true)
        })
        .map_err(|e| format!("{e:?}"))?;
        Ok(out)
    }
}

/// Runs `serve_point` (`batch = false`) or `serve_batch` (`batch = true`).
pub fn run(opts: &Opts, batch: bool) -> Report {
    let mut report = Report::default();
    if let Err(e) = run_into(opts, batch, &mut report) {
        report.check("workload ran to completion", Err(e));
    }
    report
}

fn run_into(opts: &Opts, batch: bool, report: &mut Report) -> Result<(), String> {
    let gdp = opts.gdp.as_ref().ok_or("serve workloads need --gdp PATH")?;
    // Workers as the host has cores, so a second connection (`/stats`,
    // `/shutdown`) never waits for the client's; rayon threads as the
    // server has cores to run on.
    let workers = opts.nproc;
    let threads = fixture::nproc();
    let prepared = prepare(opts)?;
    let (latest_epoch, latest) = prepared.latest();
    let latest_epoch = *latest_epoch;
    let left_nodes = latest.artifact().hierarchy().levels()[0]
        .left()
        .node_count();
    report.note(
        "server",
        format!(
            "gdp serve --workers {workers}, RAYON_NUM_THREADS={threads}, one client connection; \
             client and server on cpus {}",
            fixture::cpus_allowed()
        ),
    );
    report.note("artifact filesystem", fixture::filesystem_of(&prepared.dir));

    // Set-up: spawn → `listening on` → first correct answer, repeated;
    // the last server stays up for the timed phase.
    let first_key = Key {
        epoch: latest_epoch,
        level: 0,
        privilege: 0,
        query: Query::SideTotal { side: Side::Left },
    };
    let first_body = serde_json::to_string(&first_key.request())
        .map(String::into_bytes)
        .map_err(text)?;
    let first_reference = latest.answer(0, &first_key.query).map_err(text)?;
    let log = opts.work.join(format!("{}-server.log", opts.workload));
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let started = Instant::now();
        let spawned = Server::spawn(gdp, &prepared.dir, &log, workers, threads)?;
        let response = Conn::open(spawned.addr)?.post("/v1/answer", &first_body)?;
        let took = started.elapsed().as_secs_f64();
        let answer: AnswerResponse = serde_json::from_str(&response.text()).map_err(text)?;
        if response.status != 200 || !verify::answer_matches(&answer.answer, &first_reference) {
            return Err(format!(
                "set-up {rep}: first answer wrong (status {})",
                response.status
            ));
        }
        setup_s.push(took);
        server = Some(spawned);
    }
    let server = server.expect("SETUP_REPS is positive");

    // The request stream, fixed by the seed.
    let path = if batch {
        "/v1/answer_batch"
    } else {
        "/v1/answer"
    };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x6b65_7973);
    let keys = if batch {
        Vec::new()
    } else {
        key_universe(&prepared, &mut rng)
    };
    let key_bodies: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| serde_json::to_string(&k.request()).map(String::into_bytes))
        .collect::<Result<_, _>>()
        .map_err(text)?;
    let cumulative = zipf_cumulative(keys.len().max(1), KEY_EXPONENT);
    let batch_body = |index: u64| -> Result<Vec<u8>, String> {
        serde_json::to_string(&BatchAnswerRequest {
            dataset: DATASET.to_string(),
            epoch: latest_epoch,
            privilege: 0,
            level: 0,
            queries: batch_queries(opts.seed, index, left_nodes),
        })
        .map(String::into_bytes)
        .map_err(text)
    };

    let replay = if opts.trace {
        Some(Replay::open(&prepared.dir)?)
    } else {
        None
    };
    let mut conn = Conn::open(server.addr)?;
    let mut replay_mismatches = 0u64;

    // Warm-up, untimed: every key once (index promotion and cache fill),
    // or a few batches.
    let warmup: Vec<Vec<u8>> = if batch {
        (0..WARMUP_BATCHES)
            .map(|i| batch_body(u64::MAX - i))
            .collect::<Result<_, _>>()?
    } else {
        key_bodies.clone()
    };
    for body in &warmup {
        conn.ready()?;
        let response = conn.post(path, body)?;
        if response.status != 200 {
            return Err(format!("warm-up request answered {}", response.status));
        }
        if let Some(replay) = &replay {
            replay.replay(None, 0, &request_bytes(path, body), batch, &prepared)?;
        }
    }
    drop(warmup);

    let before = get_stats(server.addr)?;
    let rss_after = RSS_AFTER[usize::from(batch)];
    let mut rss = None;
    let mut tracer = Tracer::new();
    // In-process replay times, untraced and traced, in ms.
    let mut replay_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut served: Vec<Served> = Vec::new();
    let mut bodies: Vec<u8> = Vec::new();
    let steal = fixture::StealWatch::start();
    let started = Instant::now();
    let mut op = 0u64;
    while op == 0
        || (!opts.trace && op < rss_after)
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        let (item, owned);
        let body: &[u8] = if batch {
            item = op;
            owned = batch_body(op)?;
            &owned
        } else {
            item = sample_rank(&cumulative, &mut rng) as u64;
            &key_bodies[item as usize]
        };
        conn.ready()?;
        let sent = Instant::now();
        let outcome = conn.post(path, body);
        let done = Instant::now();
        match outcome {
            Ok(response) => {
                let start = bodies.len();
                bodies.extend_from_slice(&response.body);
                served.push(Served {
                    item,
                    latency_ms: (done - sent).as_secs_f64() * 1e3,
                    status: response.status,
                    body: start..bodies.len(),
                });
                if let Some(replay) = &replay {
                    let traced = op % 2 == 1;
                    let request = request_bytes(path, body);
                    if traced {
                        tracer.record("op", op, sent, done);
                    }
                    let t = Instant::now();
                    let bytes = replay.replay(
                        traced.then_some(&mut tracer),
                        op,
                        &request,
                        batch,
                        &prepared,
                    )?;
                    replay_ms[usize::from(traced)].push(t.elapsed().as_secs_f64() * 1e3);
                    if !bytes.ends_with(&response.body) {
                        replay_mismatches += 1;
                    }
                }
            }
            Err(e) => {
                report.tally.fail(format!("request {op}: {e}"));
                conn.reopen()?;
            }
        }
        op += 1;
        if op == rss_after {
            rss = fixture::peak_rss_mb(&server.pid());
        }
    }
    let after = get_stats(server.addr)?;
    if opts.trace {
        report.check(
            "in-process replay wrote the served bytes",
            if replay_mismatches == 0 {
                Ok(())
            } else {
                Err(format!("{replay_mismatches} replays differ"))
            },
        );
    }
    report.note("host steal during the timed phase", steal.describe());
    report.note(
        "connections",
        format!(
            "{} opened in sequence (the server closes one after {} requests)",
            conn.reopened + 1,
            conn.cap
        ),
    );
    drop(conn);
    let shutdown = Server::shutdown(server);
    report.check("server drained and exited 0", shutdown);

    // Correctness, after the timed phase only.
    let mut references: Vec<Option<TypedAnswer>> = vec![None; keys.len()];
    for s in &served {
        let body = &bodies[s.body.clone()];
        let outcome = if s.status != 200 {
            Err(format!(
                "status {}: {}",
                s.status,
                String::from_utf8_lossy(body)
            ))
        } else if batch {
            verify::served_batch(
                body,
                &batch_queries(opts.seed, s.item, left_nodes),
                latest,
                0,
            )
        } else {
            let key = &keys[s.item as usize];
            let reference = match &references[s.item as usize] {
                Some(r) => Ok(r.clone()),
                None => prepared
                    .release(key.epoch)
                    .ok_or_else(|| "unknown epoch".to_string())
                    .and_then(|r| r.answer(key.level, &key.query).map_err(text)),
            };
            reference.and_then(|r| {
                references[s.item as usize] = Some(r.clone());
                verify::served_answer(body, &r)
            })
        };
        report.tally.record(outcome);
    }

    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    let evictions = after.cache.evictions - before.cache.evictions;
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    report.note(
        "memo cache over the timed phase",
        format!(
            "hits={hits} misses={misses} evictions={evictions} entries={}",
            after.cache.entries
        ),
    );

    let latencies: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    if opts.trace {
        serve_layers(report, &tracer, &replay_ms, &prepared, hit_rate, evictions)?;
        crate::write_spans(&tracer, opts, report)?;
    } else {
        let p = Latency::of(&latencies);
        report.note("latency samples", p.describe());
        report.note(
            "setup samples",
            format!("{} (median reported)", setup_s.len()),
        );
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("throughput_ops", p.throughput, "ops/s");
        report.metric("latency_p50_ms", p.p50, "ms");
        report.metric("latency_p90_ms", p.p90.0, "ms");
        report.metric("latency_p99_ms", p.p99.0, "ms");
        report.metric("success_rate", report.tally.success_rate(), "ratio");
        report.note(
            "rss_mb",
            format!("the server's VmHWM after {rss_after} timed requests"),
        );
        report.metric("rss_mb", rss.unwrap_or(f64::NAN), "MB");
        report.metric("artifact_bytes", prepared.latest_bytes, "bytes");
        report.metric("release_rel_error", prepared.rel_error, "ratio");
    }
    Ok(())
}

/// Per-layer metrics of a traced serve run.
fn serve_layers(
    report: &mut Report,
    tracer: &Tracer,
    replay_ms: &[Vec<f64>; 2],
    prepared: &Prepared,
    hit_rate: f64,
    evictions: u64,
) -> Result<(), String> {
    // Set-up layers, in process: the store scan + decode, and indexing
    // the latest release.
    let mut open_ms = Vec::new();
    let mut build_ms = Vec::new();
    let latest = prepared.latest().1.artifact().clone();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let opened = ReleaseStore::open_dir_report(&prepared.dir).map_err(text)?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(opened);
        let artifact = latest.clone();
        let t = Instant::now();
        let indexed = IndexedRelease::new(artifact).map_err(text)?;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(indexed);
    }
    report.metric("serve.store.open_ms", stats::median(&open_ms), "ms");
    report.metric("serve.index.build_ms", stats::median(&build_ms), "ms");

    for name in SPAN_METRICS {
        let us: Vec<f64> = tracer
            .durations_ms(name)
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        report.metric(name, stats::median(&us), "us");
    }
    let service = stats::median(&tracer.durations_ms("serve.service.answer_us")) * 1e3;
    let index = stats::median(&tracer.durations_ms("serve.index.answer_us")) * 1e3;
    report.metric("serve.service.overhead_us", service - index, "us");
    let (round_trips, layers) = tracer.per_op_ms("op", &PATH_LAYERS);
    let transport: Vec<f64> = stats::residuals(&round_trips, &layers)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    report.metric("net.transport_us", stats::median(&transport), "us");
    report.metric("serve.cache.hit_rate", hit_rate, "ratio");
    report.metric("serve.cache.evictions", evictions as f64, "count");
    // Tracing overhead: the traced replays against the untraced ones,
    // which make the same calls on the same kind of requests.
    let [untraced, traced] = replay_ms;
    report.metric(
        "trace.overhead_pct",
        stats::overhead_pct(stats::median(traced), stats::median(untraced)),
        "%",
    );
    report.note(
        "replayed requests",
        format!(
            "{} traced, {} untraced (alternating); replay medians {:.4} ms traced, {:.4} ms untraced",
            traced.len(),
            untraced.len(),
            stats::median(traced),
            stats::median(untraced)
        ),
    );
    Ok(())
}
