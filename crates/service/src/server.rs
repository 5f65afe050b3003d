//! The `latencyd` server: a TCP accept loop, a readiness-polled
//! connection reactor, and the dispatch of the five endpoints onto the
//! solve worker pool, the solution cache, and the metrics registry.
//!
//! Threading model: `--io-threads` reactor threads (default 2) own every
//! accepted socket, doing non-blocking I/O and parsing only — see
//! [`crate::reactor`] for the per-connection state machine. Requests
//! that can block (solve/sweep/tolerance pool waits, cluster forwards,
//! injected latency) are offloaded to an elastic [`HandlerPool`] of
//! detached handler threads sized by in-flight requests, never by
//! connection count; every solve still runs on the fixed [`WorkerPool`],
//! so `workers` bounds analytical CPU use no matter how many clients
//! connect. Reactor threads never execute pool jobs and never open
//! sockets, so a handler blocking on a pool result (or on a peer)
//! cannot stall connection I/O, and thousands of idle keep-alive
//! connections cost two polling threads, not thousands of parked ones.
//!
//! Deadlines: each request gets `timeout_ms` (body field, else the server
//! default). The handler waits on the pool result with `recv_timeout` and
//! answers a structured `504 {"error":{"kind":"timeout",...}}` when it
//! expires; a queued job that finds its deadline already past returns
//! without solving, so expired work never occupies a worker.
//!
//! Overload and failure handling (the resilience layer):
//!
//! * **Admission control** — at most [`ServerConfig::max_queue_depth`]
//!   POST requests are in flight at once; excess requests are shed with
//!   `429 {"error":{"kind":"overloaded",...}}` plus `Retry-After`, so a
//!   burst degrades into fast refusals instead of an unbounded queue of
//!   slow timeouts.
//! * **Circuit breakers** — one [`CircuitBreaker`] per solver tier. A
//!   tier that keeps failing (consecutive `no_convergence`/timeouts)
//!   trips open and its requests skip straight to the degradation ladder
//!   ([`lt_core::solve_degraded`]), answering with `"fidelity":
//!   "degraded"`/`"bounds"` instead of burning workers on doomed solves.
//!   After a cooldown one probe retries the primary; success re-closes.
//! * **Worker-loss recovery** — a panicking solve kills its worker (the
//!   pool respawns it) and the handler sees a disconnected result
//!   channel. The request is retried with jittered backoff up to
//!   [`ServerConfig::retry_max`] times, then answered with a structured
//!   `500 {"error":{"kind":"worker_lost",...}}` — never by waiting out
//!   the full deadline.
//! * **Fault injection** — [`ServerConfig::fault_plan`] (None in
//!   production) deterministically injects latency, worker panics,
//!   forced solver failures, cache corruption, and connection drops; the
//!   chaos suite drives it end-to-end over loopback HTTP.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lt_core::analysis::{solve_degraded_in, DegradePolicy, SolverChoice, SweepSeed};
use lt_core::json::{self, JsonValue};
use lt_core::metrics::PerformanceReport;
use lt_core::tolerance::{tolerance_index, ToleranceReport};
use lt_core::wire::{
    canonical_solve_key, config_to_json, degraded_solve_key, report_from_json, report_to_json,
    solver_choice_label, tolerance_to_json, with_cluster_envelope, ClusterEnvelope,
};
use lt_core::LtError;
use lt_desim::SimRng;

use crate::api::{self, ApiError};
use crate::breaker::{BreakerDecision, CircuitBreaker};
use crate::cache::SolveCache;
use crate::cluster::forward;
use crate::cluster::{Cluster, ClusterConfig};
use crate::fault::{self, FaultDecision, FaultPlan};
use crate::http::{Request, Response};
use crate::metrics::ServiceMetrics;
use crate::pool::{BatchError, HandlerPool, WorkerPool};
use crate::reactor::{Completion, Reactor};
use crate::sync::lock_ok;
use crate::workspace::WorkspacePool;

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7077` (port 0 picks a free port).
    pub addr: String,
    /// Solve worker threads.
    pub workers: usize,
    /// Solution-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Deadline applied when a request carries no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Most POST requests in flight before admission control sheds with
    /// `429` (solve/sweep/tolerance; GET endpoints are never shed).
    pub max_queue_depth: usize,
    /// Consecutive primary-solver failures that trip a tier's breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before probing, ms.
    pub breaker_cooldown_ms: u64,
    /// Worker-lost retries per request (0 disables retrying).
    pub retry_max: u32,
    /// Deterministic fault injection; `None` (production) injects
    /// nothing and costs one branch per request.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Cluster mode: `None` (the default) is a plain single node;
    /// `Some` joins the node to a consistent-hash cluster and enables
    /// the `/v1/cluster/*` endpoints, heartbeating, and owner
    /// forwarding.
    pub cluster: Option<ClusterConfig>,
    /// Reactor (I/O) threads polling connection readiness, clamped to
    /// 1..=64. Two saturate a loopback NIC; this is *not* a
    /// concurrency limit on requests.
    pub io_threads: usize,
    /// Idle keep-alive connections are closed after this long, and a
    /// request stalled mid-transfer for this long is answered `408`.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7077".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            cache_capacity: 1024,
            default_timeout_ms: 30_000,
            max_body_bytes: 1 << 20,
            max_queue_depth: 256,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            retry_max: 2,
            fault_plan: None,
            cluster: None,
            io_threads: 2,
            idle_timeout_ms: 30_000,
        }
    }
}

/// Hard ceiling on any per-request deadline.
const MAX_TIMEOUT_MS: u64 = 600_000;
/// `Retry-After` seconds advertised on shed requests.
const RETRY_AFTER_SECS: u64 = 1;
/// Pause after a failed `accept()` (EMFILE and friends) before retrying,
/// so fd exhaustion degrades into slow accepts instead of a spin loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);
/// Base of the jittered worker-lost retry backoff (doubled per attempt).
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(4);

/// The solver tiers, one breaker each, in [`SolverChoice`] order.
const BREAKER_TIERS: [SolverChoice; 5] = [
    SolverChoice::Auto,
    SolverChoice::SymmetricAmva,
    SolverChoice::Amva,
    SolverChoice::Linearizer,
    SolverChoice::Exact,
];

fn breaker_index(choice: SolverChoice) -> usize {
    BREAKER_TIERS.iter().position(|c| *c == choice).unwrap_or(0)
}

/// Shared service state: pool, cache, metrics, breakers, lifecycle flags.
pub struct ServiceState {
    pool: WorkerPool,
    /// Elastic handler threads running offloaded (blockable) requests.
    handlers: HandlerPool,
    cache: SolveCache<Arc<PerformanceReport>>,
    /// Request/error/latency counters (public for tests and the binary).
    pub metrics: ServiceMetrics,
    /// Per-worker solver scratch + warm-seed slots (public for tests).
    pub workspaces: WorkspacePool,
    breakers: [CircuitBreaker; BREAKER_TIERS.len()],
    fault: Option<Arc<FaultPlan>>,
    cluster: Option<Arc<Cluster>>,
    /// The gossip/heartbeat thread, joined at shutdown (cluster mode).
    heartbeat_thread: Mutex<Option<JoinHandle<()>>>,
    shutting_down: AtomicBool,
    active_requests: AtomicUsize,
    backoff_nonce: AtomicU64,
    default_timeout_ms: u64,
    max_body_bytes: usize,
    max_queue_depth: usize,
    retry_max: u32,
    io_threads: usize,
    idle_timeout: Duration,
}

impl ServiceState {
    /// Current state of the breaker guarding `choice`'s tier.
    pub fn breaker_state(&self, choice: SolverChoice) -> crate::breaker::BreakerState {
        self.breakers[breaker_index(choice)].state()
    }

    /// Cluster runtime, when cluster mode is enabled (counters and ring
    /// inspection in tests).
    pub fn cluster(&self) -> Option<&Cluster> {
        self.cluster.as_deref()
    }

    /// Largest accepted request body (the reactor parser's budget).
    pub(crate) fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    /// How long an idle connection (or a stalled mid-request transfer)
    /// may linger before the reactor closes it.
    pub(crate) fn idle_timeout(&self) -> Duration {
        self.idle_timeout
    }

    /// Whether graceful shutdown has been requested.
    pub(crate) fn shutting_down_flag(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServiceState>,
    reactor: Arc<Reactor>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    reactor: Arc<Reactor>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind the listener and build the service state.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Server::from_listener(listener, cfg)
    }

    /// Build a server on an already-bound listener (`cfg.addr` is
    /// ignored). The cluster integration tests pre-bind every node's
    /// listener before starting any of them, so peer addresses are known
    /// up front without a port race.
    pub fn from_listener(listener: TcpListener, cfg: ServerConfig) -> std::io::Result<Server> {
        let local_addr = listener.local_addr()?;
        let cooldown = Duration::from_millis(cfg.breaker_cooldown_ms);
        let cluster = cfg.cluster.as_ref().map(|c| {
            let cl = Arc::new(Cluster::new(c));
            cl.set_advertise_addr(&local_addr.to_string());
            cl
        });
        let max_queue_depth = cfg.max_queue_depth.max(1);
        let io_threads = cfg.io_threads.clamp(1, 64);
        let state = Arc::new(ServiceState {
            pool: WorkerPool::new(cfg.workers),
            // Handler threads cover in-flight admitted requests plus a
            // little slack for the ungated offloads (injected latency on
            // GETs); beyond that, admission has already shed.
            handlers: HandlerPool::new(max_queue_depth + 8),
            cache: SolveCache::new(cfg.cache_capacity),
            metrics: ServiceMetrics::new(),
            workspaces: WorkspacePool::new(),
            breakers: std::array::from_fn(|_| CircuitBreaker::new(cfg.breaker_threshold, cooldown)),
            fault: cfg.fault_plan,
            cluster,
            heartbeat_thread: Mutex::new(None),
            shutting_down: AtomicBool::new(false),
            active_requests: AtomicUsize::new(0),
            backoff_nonce: AtomicU64::new(0),
            default_timeout_ms: cfg.default_timeout_ms.min(MAX_TIMEOUT_MS),
            max_body_bytes: cfg.max_body_bytes,
            max_queue_depth,
            retry_max: cfg.retry_max,
            io_threads,
            idle_timeout: Duration::from_millis(cfg.idle_timeout_ms.max(1)),
        });
        if state.cluster.is_some() {
            let shared = Arc::clone(&state);
            let spawned = std::thread::Builder::new()
                .name("latencyd-gossip".into())
                .spawn(move || gossip_loop(&shared));
            match spawned {
                Ok(handle) => *lock_ok(&state.heartbeat_thread) = Some(handle),
                // Without the gossip thread the node still serves and
                // forwards; it just never updates its failure detector.
                Err(e) => eprintln!("latencyd: gossip thread failed to start: {e}"),
            }
        }
        let reactor = Reactor::start(&state, io_threads);
        Ok(Server {
            listener,
            local_addr,
            state,
            reactor,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Run the accept loop on the current thread until shutdown is
    /// requested (via a [`ServerHandle`] or the shutting-down flag).
    pub fn run(&self) {
        for conn in self.listener.incoming() {
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(stream) => stream,
                Err(_) => {
                    self.state.metrics.accept_errors.inc();
                    // Back off before retrying: accept errors like
                    // EMFILE (a realistic state with thousands of
                    // reactor-held connections) persist for a while, and
                    // a bare retry would peg this thread in a tight
                    // error loop until descriptors free up.
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    continue;
                }
            };
            if let Err(stream) = self.reactor.register(stream) {
                // The reactor is gone (shutdown race): refuse with a
                // structured 503 instead of a silent drop, exactly like
                // the old connection-thread spawn-failure path should
                // have.
                self.state.metrics.accept_errors.inc();
                refuse(stream);
            }
        }
    }

    /// Run the accept loop on a background thread and return a handle for
    /// the bound address and graceful shutdown.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr;
        let state = Arc::clone(&self.state);
        let reactor = Arc::clone(&self.reactor);
        let accept_thread = std::thread::Builder::new()
            .name("latencyd-accept".into())
            .spawn(move || self.run())
            // lt-lint: allow(LT01, startup fail-fast: without the accept thread there is no server to keep alive)
            .expect("spawn accept thread");
        ServerHandle {
            addr,
            state,
            reactor,
            accept_thread: Some(accept_thread),
        }
    }
}

/// Answer a structured `503` on a socket the reactor could not take,
/// bounded by a short write timeout, then close it. The client sees a
/// refusal instead of an unexplained reset.
fn refuse(stream: TcpStream) {
    // lt-lint: allow(LT07, best effort: the refusal itself is already the failure path)
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let err = service_unavailable();
    let mut w = &stream;
    // lt-lint: allow(LT07, best effort: the connection closes right here either way)
    let _ = Response::json(err.status, err.body())
        .with_close()
        .write_to(&mut w);
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (metrics inspection in tests).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain the reactor (in-flight
    /// requests finish bounded by its drain window), retire the handler
    /// and worker pools, and return a one-line metrics summary.
    pub fn shutdown(mut self) -> String {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so the loop observes the flag.
        // lt-lint: allow(LT07, best effort: if the poke fails the accept loop exits on its next wakeup anyway)
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            // lt-lint: allow(LT07, best effort: a panicked accept thread has nothing left to report at join)
            // lt-lint: allow(LT10, bounded: the connect poke above unblocks accept() and the loop exits on the shutting_down flag)
            let _ = t.join();
        }
        if let Some(t) = lock_ok(&self.state.heartbeat_thread).take() {
            // lt-lint: allow(LT07, best effort: a panicked gossip thread has nothing left to report at join)
            // lt-lint: allow(LT10, bounded: the gossip loop polls shutting_down every heartbeat tick, so the join returns within one interval)
            let _ = t.join();
        }
        // Reactor shards drain in-flight requests (each bounded by the
        // reactor's own drain window) before their joins return, so the
        // pools below only retire after the last response is flushed.
        self.reactor.shutdown();
        self.state.handlers.shutdown();
        self.state.pool.shutdown();
        let cache = &self.state.cache;
        format!(
            "latencyd shutdown: {} cache(hits={} misses={} entries={})",
            self.state.metrics.summary_line(),
            cache.hits.get(),
            cache.misses.get(),
            cache.len(),
        )
    }
}

/// The heartbeat/gossip loop (cluster mode): probe every peer each
/// round, then sleep the interval in small slices so shutdown is prompt.
/// One probe serves both purposes — it is the liveness check *and* the
/// membership exchange.
fn gossip_loop(state: &ServiceState) {
    let Some(cluster) = &state.cluster else {
        return;
    };
    let interval = cluster.heartbeat_interval();
    while !state.shutting_down.load(Ordering::SeqCst) {
        cluster.heartbeat_tick();
        // Handoff hints piggyback on the heartbeat cadence: once the tick
        // above has (re)learned who is Alive, deliver what we owe them.
        cluster.drain_hints();
        let mut slept = Duration::ZERO;
        while slept < interval {
            if state.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let chunk = Duration::from_millis(10).min(interval - slept);
            std::thread::sleep(chunk);
            slept += chunk;
        }
    }
}

/// RAII admission slot: holds one unit of `active_requests`. Owns an
/// `Arc` so it can ride into a `'static` handler-pool job and release
/// on whatever thread finishes the request.
struct AdmissionSlot {
    state: Arc<ServiceState>,
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.state.active_requests.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Claim an in-flight slot, or report how oversubscribed the server is.
fn admit(state: &Arc<ServiceState>) -> Result<AdmissionSlot, usize> {
    let in_flight = state.active_requests.fetch_add(1, Ordering::SeqCst) + 1;
    let slot = AdmissionSlot {
        state: Arc::clone(state),
    };
    if in_flight > state.max_queue_depth {
        drop(slot);
        Err(in_flight)
    } else {
        Ok(slot)
    }
}

/// Where a parsed request goes, decided on the reactor thread.
pub(crate) enum Routed {
    /// Answered inline; the reactor writes this response.
    Respond(Response),
    /// Offloaded to a handler thread; the response arrives later via
    /// the [`Completion`].
    Dispatched,
    /// Close the connection without answering (injected drop).
    Drop,
}

/// Whether this request may block its thread (pool waits, cluster
/// forwards): these never run inline on the reactor.
fn needs_offload(req: &Request) -> bool {
    req.method == "POST"
        && matches!(
            req.path.as_str(),
            "/v1/solve" | "/v1/sweep" | "/v1/tolerance"
        )
}

/// Route one parsed request from a reactor thread: answer the
/// non-blocking endpoints inline, shed over-admission immediately, and
/// offload everything that can block to the handler pool (which replies
/// through `done`).
pub(crate) fn route(state: &Arc<ServiceState>, req: Request, done: Completion) -> Routed {
    // One fault decision per request, drawn from the seeded plan
    // (all-zero when no plan is configured).
    let fd = state.fault.as_ref().map(|f| f.next()).unwrap_or_default();
    if fd.conn_drop {
        // Injected connection drop: close without answering.
        done.cancel();
        return Routed::Drop;
    }
    if !needs_offload(&req) && fd.latency.is_none() {
        done.cancel();
        let started = Instant::now();
        let resp = dispatch_inline(state, &req);
        state.metrics.record_latency(started.elapsed());
        return Routed::Respond(resp);
    }
    // Admission is checked here on the reactor, so a flooded server
    // sheds in microseconds instead of queueing each refusal behind the
    // very backlog it is refusing.
    let slot = if needs_offload(&req) {
        let endpoint = match req.path.as_str() {
            "/v1/solve" => "solve",
            "/v1/sweep" => "sweep",
            _ => "tolerance",
        };
        match admit(state) {
            Ok(slot) => Some(slot),
            Err(in_flight) => {
                done.cancel();
                let started = Instant::now();
                if let Some(c) = state.metrics.endpoint(endpoint) {
                    c.requests.inc();
                }
                state.metrics.shed.inc();
                state.metrics.record_error(endpoint, "overloaded");
                let err = ApiError::overloaded(in_flight, state.max_queue_depth);
                let resp =
                    Response::json(err.status, err.body()).with_retry_after(RETRY_AFTER_SECS);
                state.metrics.record_latency(started.elapsed());
                return Routed::Respond(resp);
            }
        }
    } else {
        None
    };
    let shared = Arc::clone(state);
    state.handlers.offload(move || {
        if let Some(delay) = fd.latency {
            // Injected latency sleeps on the handler thread, exactly as
            // it slept on the old connection thread.
            std::thread::sleep(delay);
        }
        let started = Instant::now();
        let resp = dispatch(&shared, &req, fd, slot);
        shared.metrics.record_latency(started.elapsed());
        done.deliver(resp);
    });
    Routed::Dispatched
}

/// Endpoint classification shared by [`dispatch`] and
/// [`dispatch_inline`]: resolve the endpoint label, count the request,
/// and enforce the expected method. `Err` is the finished 404/405.
fn classify(state: &ServiceState, req: &Request) -> Result<&'static str, Response> {
    let endpoint = match req.path.as_str() {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/solve" => "solve",
        "/v1/sweep" => "sweep",
        "/v1/tolerance" => "tolerance",
        "/v1/cluster/ping" | "/v1/cluster/members" | "/v1/cluster/hint" => "cluster",
        _ => {
            state.metrics.record_error("", "not_found");
            let err = ApiError {
                status: 404,
                kind: "not_found".into(),
                message: format!("no such endpoint: {}", req.path),
            };
            return Err(Response::json(404, err.body()));
        }
    };
    if let Some(c) = state.metrics.endpoint(endpoint) {
        c.requests.inc();
    }
    let want_post =
        matches!(endpoint, "solve" | "sweep" | "tolerance") || req.path == "/v1/cluster/hint";
    if (want_post && req.method != "POST") || (!want_post && req.method != "GET") {
        state.metrics.record_error(endpoint, "bad_request");
        let err = ApiError {
            status: 405,
            kind: "bad_request".into(),
            message: format!(
                "{} expects {}",
                req.path,
                if want_post { "POST" } else { "GET" }
            ),
        };
        return Err(Response::json(405, err.body()));
    }
    Ok(endpoint)
}

/// The reactor-inline subset of [`dispatch`]: only endpoints that never
/// block — no pool waits, no cluster forwards, no sleeps — are answered
/// here (healthz, metrics, cluster introspection, hint delivery, and
/// every 404/405). The solve/sweep/tolerance arms are structurally
/// unreachable (their POSTs are offloaded before this is called, other
/// methods die in [`classify`] with a 405) but degrade into a
/// structured 500, not a panic.
fn dispatch_inline(state: &Arc<ServiceState>, req: &Request) -> Response {
    let endpoint = match classify(state, req) {
        Ok(endpoint) => endpoint,
        Err(resp) => return resp,
    };
    let result = match endpoint {
        "healthz" => Ok(handle_healthz(state)),
        "metrics" => Ok(handle_metrics(state)),
        "cluster" => handle_cluster(state, req),
        _ => Err(ApiError {
            status: 500,
            kind: "internal".into(),
            message: "blocking endpoint reached the reactor inline path".into(),
        }),
    };
    match result {
        Ok(resp) => resp,
        Err(e) => {
            state.metrics.record_error(endpoint, &e.kind);
            Response::json(e.status, e.body())
        }
    }
}

/// Route one request on a handler thread. Also owns the request/error
/// accounting. `slot` is the admission slot [`route`] claimed on the
/// reactor (None for requests that are not admission-gated, which then
/// admit here if needed).
fn dispatch(
    state: &Arc<ServiceState>,
    req: &Request,
    fd: FaultDecision,
    slot: Option<AdmissionSlot>,
) -> Response {
    let endpoint = match classify(state, req) {
        Ok(endpoint) => endpoint,
        Err(resp) => return resp,
    };
    // Admission control: POST endpoints that queue real solver work are
    // bounded; the GET endpoints stay answerable under overload (you can
    // always ask a drowning server how it is doing), and hint delivery
    // is a cheap cache insert that must not be shed during the post-heal
    // burst it exists for.
    let admission_gated = matches!(endpoint, "solve" | "sweep" | "tolerance");
    let _slot = if admission_gated {
        match slot {
            Some(slot) => Some(slot),
            None => match admit(state) {
                Ok(slot) => Some(slot),
                Err(in_flight) => {
                    state.metrics.shed.inc();
                    state.metrics.record_error(endpoint, "overloaded");
                    let err = ApiError::overloaded(in_flight, state.max_queue_depth);
                    return Response::json(err.status, err.body())
                        .with_retry_after(RETRY_AFTER_SECS);
                }
            },
        }
    } else {
        None
    };
    let hops = forward::incoming_hops(req);
    let result = match endpoint {
        "healthz" => Ok(handle_healthz(state)),
        "metrics" => Ok(handle_metrics(state)),
        "cluster" => handle_cluster(state, req),
        "solve" => handle_solve(state, &req.body, fd, hops),
        "sweep" => handle_sweep(state, &req.body, hops),
        "tolerance" => handle_tolerance(state, &req.body),
        _ => {
            // Structurally impossible (endpoint is assigned from the match
            // above), but a stray arm must degrade, not panic.
            state.metrics.record_error(endpoint, "not_found");
            Err(ApiError {
                status: 404,
                kind: "not_found".into(),
                message: format!("no such endpoint: {}", req.path),
            })
        }
    };
    match result {
        Ok(resp) => resp,
        Err(e) => {
            state.metrics.record_error(endpoint, &e.kind);
            Response::json(e.status, e.body())
        }
    }
}

fn handle_healthz(state: &ServiceState) -> Response {
    let body = json::encode(&JsonValue::object(vec![
        ("status", "ok".into()),
        ("workers", state.pool.worker_count().into()),
        (
            "shutting_down",
            state.shutting_down.load(Ordering::SeqCst).into(),
        ),
    ]));
    Response::json(200, body)
}

/// `GET /metrics`: every component renders its own section.
fn handle_metrics(state: &ServiceState) -> Response {
    let breakers = JsonValue::Object(
        BREAKER_TIERS
            .iter()
            .map(|&tier| {
                (
                    lt_core::wire::solver_choice_label(tier).to_string(),
                    JsonValue::from(state.breakers[breaker_index(tier)].state().label()),
                )
            })
            .collect(),
    );
    let mut reactor = state.metrics.reactor_doc();
    reactor.push(("io_threads", state.io_threads.into()));
    reactor.extend(state.handlers.metrics_fields());
    let mut extra = vec![
        ("cache", state.cache.metrics_doc()),
        ("pool", state.pool.metrics_doc()),
        ("breakers", breakers),
        ("solver", state.workspaces.metrics_doc()),
        ("reactor", JsonValue::object(reactor)),
    ];
    if let Some(plan) = &state.fault {
        extra.push(("fault_injection", plan.metrics_doc()));
    }
    if let Some(cluster) = &state.cluster {
        extra.push(("cluster", cluster.metrics_doc()));
        if let Some(net) = cluster.chaos() {
            extra.push(("link_faults", net.metrics_doc()));
        }
    }
    let doc = state.metrics.to_json(extra);
    Response::json(200, json::encode(&doc))
}

/// `GET /v1/cluster/ping`, `GET /v1/cluster/members`, and
/// `POST /v1/cluster/hint`. All 404 on a single-node server, so cluster
/// mode is discoverable by probing.
fn handle_cluster(state: &ServiceState, req: &Request) -> Result<Response, ApiError> {
    let Some(cluster) = &state.cluster else {
        return Err(ApiError {
            status: 404,
            kind: "not_found".into(),
            message: "cluster mode is not enabled on this node".into(),
        });
    };
    let doc = match req.path.as_str() {
        "/v1/cluster/ping" => JsonValue::object(vec![
            ("node_id", cluster.node_id().into()),
            ("status", "ok".into()),
        ]),
        "/v1/cluster/hint" => return handle_hint(state, cluster, &req.body),
        _ => cluster.members_doc(),
    };
    Ok(Response::json(200, json::encode(&doc)))
}

/// `POST /v1/cluster/hint`: accept a solution a peer computed for a key
/// this node owns while it was unreachable (hinted handoff). The report
/// is decoded and inserted into the local cache under its canonical key.
/// Content addressing makes the insert safe — a bogus or duplicate hint
/// can only cost cache space, never change an answer — but only
/// full-fidelity reports under a canonical `v1;` key are accepted, so a
/// degraded answer can never masquerade as the real solution. The
/// endpoint is idempotent: redelivering a hint re-inserts the same bytes.
fn handle_hint(state: &ServiceState, cluster: &Cluster, body: &[u8]) -> Result<Response, ApiError> {
    let bad = |message: String| ApiError {
        status: 400,
        kind: "bad_request".into(),
        message,
    };
    let text = std::str::from_utf8(body).map_err(|_| bad("hint body is not valid UTF-8".into()))?;
    let doc = json::parse(text).map_err(|e| bad(format!("hint body is not JSON: {e}")))?;
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .ok_or_else(|| bad("hint is missing \"key\"".into()))?;
    if !key.starts_with("v1;") {
        return Err(bad("hint key is not a canonical solve key".into()));
    }
    let report = doc
        .get("report")
        .and_then(|v| report_from_json(v).ok())
        .ok_or_else(|| bad("hint \"report\" does not decode".into()))?;
    if !report.fidelity.is_full() {
        return Err(bad(
            "hint report is not full fidelity; degraded answers are not handed off".into(),
        ));
    }
    state.cache.insert(key.to_string(), Arc::new(report));
    Ok(Response::json(
        200,
        json::encode(&JsonValue::object(vec![
            ("status", "ok".into()),
            ("node_id", cluster.node_id().into()),
        ])),
    ))
}

/// Deadline for a request: its own `timeout_ms` or the server default.
fn deadline_for(state: &ServiceState, timeout_ms: Option<u64>) -> (Instant, u64) {
    let ms = timeout_ms
        .unwrap_or(state.default_timeout_ms)
        .min(MAX_TIMEOUT_MS);
    (Instant::now() + Duration::from_millis(ms), ms)
}

/// Run `f(state)` on the solve pool; `None` when the pool is closed.
fn run_on_pool<T, F>(state: &Arc<ServiceState>, f: F) -> Option<std::sync::mpsc::Receiver<T>>
where
    T: Send + 'static,
    F: FnOnce(Arc<ServiceState>) -> T + Send + 'static,
{
    let shared = Arc::clone(state);
    state.pool.execute(move || f(shared))
}

/// Jittered backoff before worker-lost retry `attempt`, bounded so the
/// sleep never outlives the request deadline. Deterministic given the
/// server's nonce sequence (the chaos suite relies on no wall-clock
/// randomness anywhere in the retry path).
fn retry_backoff(state: &ServiceState, attempt: u32, deadline: Instant) {
    let nonce = state.backoff_nonce.fetch_add(1, Ordering::Relaxed);
    // Stream tag: the ASCII bytes of "ltretry".
    let jitter = SimRng::substream(0x006c_7472_6574_7279, nonce).uniform01();
    let base = RETRY_BACKOFF_BASE * 2u32.saturating_pow(attempt);
    let wait = base.mul_f64(0.5 + jitter);
    let left = deadline.saturating_duration_since(Instant::now());
    std::thread::sleep(wait.min(left));
}

/// What the solver-side of a solve attempt reported, for breaker
/// accounting.
enum PrimaryOutcome {
    /// Full-fidelity answer: the tier works.
    Success,
    /// Degraded/bounds answer, `no_convergence`, or timeout: the tier is
    /// struggling.
    Failure,
    /// The attempt never judged the tier (bad config, worker lost,
    /// shutdown).
    Neutral,
}

/// Feed one attempt's outcome to the tier's breaker and count any state
/// transition. Only called when the breaker admitted the primary
/// (`Allow` or `Probe`).
fn record_primary_outcome(state: &ServiceState, tier: usize, outcome: PrimaryOutcome) {
    let breaker = &state.breakers[tier];
    let transition = match outcome {
        PrimaryOutcome::Success => breaker.on_success(),
        PrimaryOutcome::Failure => breaker.on_failure(),
        PrimaryOutcome::Neutral => {
            breaker.abort_probe();
            None
        }
    };
    if let Some(s) = transition {
        state.metrics.breaker_transitions(s).inc();
    }
}

/// Try to forward a solve to its ring owner, then to the key's other
/// replicas, under the per-request retry budget and the request's own
/// deadline. `Some` is the finished response (counted as a forwarded
/// hit, plus a replica hit when a non-owner answered); `None` means
/// serve locally — this node owns the key (or sits in its replica set
/// with the owner unreachable), the hop budget is spent, the remaining
/// deadline is too small to risk a hop, or every attempted peer failed
/// (each counted as a forward error, with transport failures also fed
/// to the failure detector so a dead peer is detected by the request
/// path, not just the heartbeat).
///
/// Each hop's timeout is the remaining deadline split across the
/// attempts still available, capped by `forward_timeout` — so the sum of
/// every hop, backoff, and the local fallback can never outlive the
/// request's own 504.
fn try_forward_solve(
    state: &ServiceState,
    cluster: &Cluster,
    owner: &str,
    key: &str,
    body: &[u8],
    hops: u32,
    deadline: Instant,
) -> Option<Response> {
    if owner == cluster.node_id() || hops >= cluster.max_forward_hops() {
        return None;
    }
    let mut targets = cluster.replicas_of(key);
    targets.retain(|t| t != cluster.node_id());
    let attempts_max = (cluster.retry_budget() as usize).min(targets.len());
    for (attempt, target) in targets.into_iter().take(attempts_max).enumerate() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining < forward::MIN_HOP_TIMEOUT * 2 {
            // Not enough budget left to risk a hop and still answer
            // locally: stop forwarding, spend the rest on the fallback.
            cluster.budget_exhausted.inc();
            return None;
        }
        if attempt > 0 {
            cluster.forward_retries.inc();
            // Deterministic jittered backoff (same stream as worker-lost
            // retries), bounded by the deadline.
            retry_backoff(state, 0, deadline);
        }
        let attempts_left = (attempts_max - attempt) as u32;
        let hop_timeout = (remaining / attempts_left)
            .min(cluster.forward_timeout())
            .max(forward::MIN_HOP_TIMEOUT);
        match cluster.exchange_with(&target, "POST", "/v1/solve", body, hops + 1, hop_timeout) {
            Ok(resp) if resp.status == 200 => {
                if let Some(tagged) = retag_forwarded(&resp.body) {
                    cluster.hits_forwarded.inc();
                    if target != owner {
                        cluster.replica_hits.inc();
                    }
                    cluster.peer_success(&target);
                    return Some(Response::json(200, tagged));
                }
                cluster.forward_errors.inc();
            }
            Ok(_) => {
                // The peer answered but could not serve (overloaded, shut
                // down, solver failure): try the next replica or solve
                // here — a local error beats relaying a remote one we
                // might not hit ourselves.
                cluster.forward_errors.inc();
            }
            Err(e) => {
                cluster.forward_errors.inc();
                if e.is_transport() {
                    cluster.peer_failure(&target);
                }
            }
        }
    }
    None
}

/// Re-tag an owner's solve response as forwarded: the owner stamped
/// `served_by`/`owner`/`forwarded: false`; the relaying node flips the
/// flag and leaves everything else (report bytes included) intact.
fn retag_forwarded(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = json::parse(text).ok()?;
    let env = lt_core::wire::cluster_envelope_from_json(&doc)?;
    let tagged = with_cluster_envelope(
        doc,
        &ClusterEnvelope {
            forwarded: true,
            ..env
        },
    );
    Some(json::encode(&tagged))
}

fn handle_solve(
    state: &Arc<ServiceState>,
    body: &[u8],
    fd: FaultDecision,
    hops: u32,
) -> Result<Response, ApiError> {
    let req = api::parse_solve(body)?;
    let key = canonical_solve_key(&req.config, req.solver);
    let degraded_key = degraded_solve_key(&req.config, req.solver);

    // The deadline starts at request arrival, *before* any forwarding:
    // time spent on failed hops is charged against the same budget the
    // local fallback solve must fit into.
    let (deadline, ms) = deadline_for(state, req.timeout_ms);

    // Cluster routing happens on the handler thread, before any pool
    // work is queued: keys owned elsewhere are forwarded whole, and a
    // failed forward falls through to the normal local path below.
    let cluster_env: Option<(&Cluster, String)> = state.cluster.as_deref().map(|cluster| {
        let owner = cluster
            .owner_of(&key)
            .unwrap_or_else(|| cluster.node_id().to_string());
        (cluster, owner)
    });
    if let Some((cluster, owner)) = &cluster_env {
        if let Some(resp) = try_forward_solve(state, cluster, owner, &key, body, hops, deadline) {
            return Ok(resp);
        }
    }
    // Stamp local 200s with the routing envelope in cluster mode. The
    // `owner` field names the ring owner even when a failed forward made
    // this node answer — that visible mismatch is the failover signal.
    let respond = |cached: bool, report: &PerformanceReport| -> Response {
        let doc = api::solve_response_doc(cached, report);
        match &cluster_env {
            Some((cluster, owner)) => {
                cluster.hits_local.inc();
                if report.fidelity.is_full() {
                    // Failover: this node answered for a key whose home
                    // node (owner on the all-members ring, so the check
                    // still fires after the failure detector hands the
                    // dead owner's keys to us) is someone else. Queue
                    // the solution as a handoff hint so that node's
                    // cache re-converges when it comes back.
                    let home = cluster
                        .home_of(&key)
                        .unwrap_or_else(|| cluster.node_id().to_string());
                    if home != cluster.node_id() {
                        cluster.queue_hint(home, key.clone(), report_to_json(report));
                    }
                }
                let env = ClusterEnvelope {
                    served_by: cluster.node_id().to_string(),
                    owner: owner.clone(),
                    forwarded: false,
                };
                Response::json(200, json::encode(&with_cluster_envelope(doc, &env)))
            }
            None => Response::json(200, json::encode(&doc)),
        }
    };

    // A full-fidelity cached answer satisfies the request without
    // touching the solver, so it bypasses the breaker entirely. An
    // injected cache corruption mangles the key into a guaranteed miss.
    if !fd.cache_corrupt {
        if let Some(report) = state.cache.get(&key) {
            state.metrics.responses(report.fidelity).inc();
            return Ok(respond(true, &report));
        }
    }

    let tier = breaker_index(req.solver);
    let (decision, transition) = state.breakers[tier].admit();
    if let Some(s) = transition {
        state.metrics.breaker_transitions(s).inc();
    }
    let breaker_skip = decision == BreakerDecision::SkipPrimary;
    // Forced non-convergence (fault injection) sends the solve down the
    // ladder exactly as a real primary failure would.
    let skip_primary = breaker_skip || fd.no_convergence;
    if breaker_skip && !fd.cache_corrupt {
        // While the tier is broken, identical requests are answered from
        // the degraded cache line instead of re-running the ladder.
        if let Some(report) = state.cache.get(&degraded_key) {
            state.metrics.responses(report.fidelity).inc();
            return Ok(respond(true, &report));
        }
    }
    let judges_tier = !breaker_skip;

    let mut attempt: u32 = 0;
    loop {
        let job = {
            let primary_key = key.clone();
            let fallback_key = degraded_key.clone();
            let cfg = req.config.clone();
            let solver = req.solver;
            // Only the first attempt detonates: the injected fault is
            // "a worker dies mid-job", not "this request is cursed".
            let detonate = fd.worker_panic && attempt == 0;
            let cacheable = !fd.cache_corrupt;
            move |state: Arc<ServiceState>| -> Option<Result<Arc<PerformanceReport>, LtError>> {
                if Instant::now() >= deadline {
                    return None;
                }
                if detonate {
                    fault::detonate();
                }
                let policy = DegradePolicy {
                    skip_primary,
                    remaining: Some(deadline.saturating_duration_since(Instant::now())),
                };
                // Single solves reuse the worker's pooled scratch memory
                // but always start from a fresh (cold) seed: a one-off
                // request has no meaningful neighbor, and a cold start
                // keeps the answer independent of whatever this worker
                // solved before.
                let result = state
                    .workspaces
                    .with(|ws, _| {
                        let mut seed = SweepSeed::new();
                        let r = solve_degraded_in(&cfg, solver, policy, &mut seed, ws);
                        state.workspaces.warm_hits.add(seed.warm_hits);
                        state.workspaces.cold_solves.add(seed.cold_solves);
                        r
                    })
                    .map(Arc::new);
                if let (Ok(report), true) = (&result, cacheable) {
                    // Full-fidelity answers go under the canonical key;
                    // anything degraded is cached separately so it can
                    // never masquerade as the real solution.
                    if report.fidelity.is_full() {
                        state.cache.insert(primary_key, Arc::clone(report));
                    } else {
                        state.cache.insert(fallback_key, Arc::clone(report));
                    }
                }
                Some(result)
            }
        };
        let Some(rx) = run_on_pool(state, job) else {
            return Err(service_unavailable());
        };
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Some(Ok(report))) => {
                if judges_tier {
                    let outcome = if report.fidelity.is_full() && !fd.no_convergence {
                        PrimaryOutcome::Success
                    } else {
                        PrimaryOutcome::Failure
                    };
                    record_primary_outcome(state, tier, outcome);
                }
                state.metrics.responses(report.fidelity).inc();
                return Ok(respond(false, &report));
            }
            Ok(Some(Err(e))) => {
                if judges_tier {
                    let outcome = if e.is_client_error() {
                        PrimaryOutcome::Neutral
                    } else {
                        PrimaryOutcome::Failure
                    };
                    record_primary_outcome(state, tier, outcome);
                }
                return Err(e.into());
            }
            Ok(None) | Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if judges_tier {
                    record_primary_outcome(state, tier, PrimaryOutcome::Failure);
                }
                return Err(ApiError::timeout(ms));
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // The worker died mid-job (its one-shot sender dropped
                // unsent) — or the pool is closing underneath us.
                if state.shutting_down.load(Ordering::SeqCst) || !state.pool.is_open() {
                    if judges_tier {
                        record_primary_outcome(state, tier, PrimaryOutcome::Neutral);
                    }
                    return Err(service_unavailable());
                }
                if attempt >= state.retry_max {
                    if judges_tier {
                        record_primary_outcome(state, tier, PrimaryOutcome::Neutral);
                    }
                    return Err(ApiError::worker_lost(attempt + 1));
                }
                state.metrics.retries.inc();
                retry_backoff(state, attempt, deadline);
                if Instant::now() >= deadline {
                    if judges_tier {
                        record_primary_outcome(state, tier, PrimaryOutcome::Failure);
                    }
                    return Err(ApiError::timeout(ms));
                }
                attempt += 1;
            }
        }
    }
}

/// Forward one sweep group (the items a single remote owner is
/// responsible for) as a sub-sweep. `Some` carries the per-item JSON in
/// `idxs` order, each tagged `forwarded: true`; `None` means the group
/// must be solved locally (already counted as a forward error).
fn forward_sweep_group(
    cluster: &Cluster,
    owner: &str,
    idxs: &[usize],
    configs: &[lt_core::params::SystemConfig],
    solver: SolverChoice,
    deadline: Instant,
    hops: u32,
) -> Option<Vec<JsonValue>> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining < forward::MIN_HOP_TIMEOUT {
        // Too little deadline left to risk the hop: solve the group
        // locally with what remains.
        cluster.budget_exhausted.inc();
        cluster.forward_errors.inc();
        return None;
    }
    let cfg_docs: Vec<JsonValue> = idxs.iter().map(|&i| config_to_json(&configs[i])).collect();
    let sub_body = json::encode(&JsonValue::object(vec![
        ("configs", JsonValue::Array(cfg_docs)),
        ("solver", solver_choice_label(solver).into()),
        ("timeout_ms", (remaining.as_millis() as u64).max(1).into()),
    ]));
    match cluster.exchange_with(
        owner,
        "POST",
        "/v1/sweep",
        sub_body.as_bytes(),
        hops + 1,
        remaining,
    ) {
        Ok(resp) if resp.status == 200 => {
            let items = (|| {
                let text = std::str::from_utf8(&resp.body).ok()?;
                let doc = json::parse(text).ok()?;
                let arr = doc.get("results")?.as_array()?.to_vec();
                (arr.len() == idxs.len()).then_some(arr)
            })();
            match items {
                Some(arr) => {
                    cluster.peer_success(owner);
                    cluster.hits_forwarded.add(arr.len() as u64);
                    Some(
                        arr.into_iter()
                            .map(|item| api::sweep_item_with_forwarded(item, true))
                            .collect(),
                    )
                }
                None => {
                    cluster.forward_errors.inc();
                    None
                }
            }
        }
        Ok(_) => {
            cluster.forward_errors.inc();
            None
        }
        Err(e) => {
            cluster.forward_errors.inc();
            if e.is_transport() {
                cluster.peer_failure(owner);
            }
            None
        }
    }
}

fn handle_sweep(state: &Arc<ServiceState>, body: &[u8], hops: u32) -> Result<Response, ApiError> {
    let req = api::parse_sweep(body)?;
    let (deadline, ms) = deadline_for(state, req.timeout_ms);
    let n = req.configs.len();
    let configs = Arc::new(req.configs);
    let solver = req.solver;

    // Cluster partition: group items by ring owner. Remote groups are
    // forwarded concurrently from this handler thread (never from
    // pool workers — a pool worker blocking on a peer whose pool is
    // blocked on us would deadlock the cluster — and never from the
    // reactor, which must stay non-blocking); everything else, plus
    // any group whose forward failed, is solved on the local pool.
    let cluster = state.cluster.as_deref();
    let mut slots: Vec<Option<JsonValue>> = (0..n).map(|_| None).collect();
    let mut local_idx: Vec<usize> = Vec::with_capacity(n);
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    match cluster {
        Some(cl) if hops < cl.max_forward_hops() => {
            for (i, cfg) in configs.iter().enumerate() {
                let key = canonical_solve_key(cfg, solver);
                match cl.owner_of(&key) {
                    Some(owner) if owner != cl.node_id() => {
                        groups.entry(owner).or_default().push(i);
                    }
                    _ => local_idx.push(i),
                }
            }
        }
        _ => local_idx.extend(0..n),
    }
    if !groups.is_empty() {
        // `groups` is non-empty only when `cluster` is Some.
        if let Some(cl) = cluster {
            let collected: Mutex<Vec<(usize, JsonValue)>> = Mutex::new(Vec::new());
            let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for (owner, idxs) in &groups {
                    let (configs, collected, failed) = (&configs, &collected, &failed);
                    s.spawn(move || {
                        match forward_sweep_group(cl, owner, idxs, configs, solver, deadline, hops)
                        {
                            Some(items) => {
                                lock_ok(collected).extend(idxs.iter().copied().zip(items))
                            }
                            None => lock_ok(failed).extend(idxs.iter().copied()),
                        }
                    });
                }
            });
            for (i, item) in collected.into_inner().unwrap_or_else(|e| e.into_inner()) {
                slots[i] = Some(item);
            }
            local_idx.extend(failed.into_inner().unwrap_or_else(|e| e.into_inner()));
            local_idx.sort_unstable();
        }
    }

    if !local_idx.is_empty() {
        let map = Arc::new(local_idx.clone());
        let batch_map = Arc::clone(&map);
        let batch_configs = Arc::clone(&configs);
        let shared = Arc::clone(state);
        let results = state
            .pool
            .run_batch(map.len(), deadline, move |j| {
                let cfg = &batch_configs[batch_map[j]];
                let key = canonical_solve_key(cfg, solver);
                if let Some(report) = shared.cache.get(&key) {
                    shared.metrics.responses(report.fidelity).inc();
                    return Ok((true, report));
                }
                let policy = DegradePolicy {
                    skip_primary: false,
                    remaining: Some(deadline.saturating_duration_since(Instant::now())),
                };
                // Batch items claimed by the same worker warm-start each
                // other through the worker's pooled seed: neighboring grid
                // points converge in a fraction of the cold iteration count
                // and agree with cold answers within solver tolerance.
                let solved = shared.workspaces.with(|ws, seed| {
                    let before = (seed.warm_hits, seed.cold_solves);
                    let r = solve_degraded_in(cfg, solver, policy, seed, ws);
                    shared.workspaces.warm_hits.add(seed.warm_hits - before.0);
                    shared
                        .workspaces
                        .cold_solves
                        .add(seed.cold_solves - before.1);
                    r
                });
                match solved.map(Arc::new) {
                    Ok(report) => {
                        if report.fidelity.is_full() {
                            shared.cache.insert(key.clone(), Arc::clone(&report));
                            // An item homed elsewhere but solved locally
                            // means its forward failed or the home node
                            // was already evicted from the live ring:
                            // queue a handoff hint. The queue push takes
                            // one private lock and touches no network, so
                            // it is safe on a pool worker.
                            if let Some(cl) = shared.cluster.as_deref() {
                                if let Some(home) = cl.home_of(&key) {
                                    if home != cl.node_id() {
                                        cl.queue_hint(home, key, report_to_json(&report));
                                    }
                                }
                            }
                        } else {
                            shared
                                .cache
                                .insert(degraded_solve_key(cfg, solver), Arc::clone(&report));
                        }
                        shared.metrics.responses(report.fidelity).inc();
                        Ok((false, report))
                    }
                    Err(e) => Err(ApiError::from(e)),
                }
            })
            .map_err(|e| match e {
                BatchError::TimedOut => ApiError::timeout(ms),
                BatchError::ShuttingDown => service_unavailable(),
            })?;
        for (j, result) in results.iter().enumerate() {
            let mut item = api::sweep_item(result);
            if let Some(cl) = cluster {
                item = api::sweep_item_with_forwarded(item, false);
                cl.hits_local.inc();
            }
            slots[map[j]] = Some(item);
        }
    }

    // Every index was routed exactly once (remote success, or the local
    // batch), so the fill below never fires; it exists so a routing bug
    // degrades into a structured per-item error instead of a panic.
    let items: Vec<JsonValue> = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                api::sweep_item(&Err(ApiError {
                    status: 500,
                    kind: "internal".into(),
                    message: "sweep item was never scheduled".into(),
                }))
            })
        })
        .collect();
    let mut fields = vec![
        ("count", items.len().into()),
        ("results", JsonValue::Array(items)),
    ];
    if let Some(cl) = cluster {
        fields.push(("served_by", cl.node_id().into()));
    }
    Ok(Response::json(
        200,
        json::encode(&JsonValue::object(fields)),
    ))
}

fn handle_tolerance(state: &Arc<ServiceState>, body: &[u8]) -> Result<Response, ApiError> {
    let req = api::parse_tolerance(body)?;
    let (deadline, ms) = deadline_for(state, req.timeout_ms);
    let job = move |_state: Arc<ServiceState>| -> Option<Result<ToleranceReport, LtError>> {
        if Instant::now() >= deadline {
            return None;
        }
        Some(tolerance_index(&req.config, req.spec))
    };
    let rx = run_on_pool(state, job).ok_or_else(service_unavailable)?;
    match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(Some(Ok(tol))) => {
            let body = json::encode(&JsonValue::object(vec![(
                "tolerance",
                tolerance_to_json(&tol),
            )]));
            Ok(Response::json(200, body))
        }
        Ok(Some(Err(e))) => Err(e.into()),
        Ok(None) => Err(ApiError::timeout(ms)),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(ApiError::timeout(ms)),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            if state.shutting_down.load(Ordering::SeqCst) || !state.pool.is_open() {
                Err(service_unavailable())
            } else {
                Err(ApiError::worker_lost(1))
            }
        }
    }
}

fn service_unavailable() -> ApiError {
    ApiError {
        status: 503,
        kind: "internal".into(),
        message: "service is shutting down".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn test_server() -> ServerHandle {
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_capacity: 64,
            default_timeout_ms: 10_000,
            max_body_bytes: 1 << 20,
            max_queue_depth: 64,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            retry_max: 2,
            fault_plan: None,
            cluster: None,
            io_threads: 2,
            idle_timeout_ms: 30_000,
        })
        .unwrap()
        .spawn()
    }

    #[test]
    fn healthz_answers_ok() {
        let h = test_server();
        let resp = request(
            h.addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
        let summary = h.shutdown();
        assert!(summary.contains("requests=1"), "{summary}");
    }

    #[test]
    fn unknown_path_is_404_and_metrics_count_it() {
        let h = test_server();
        let resp = request(h.addr(), "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        assert!(resp.contains("\"kind\":\"not_found\""), "{resp}");
        assert_eq!(h.state().metrics.error_kind("not_found").get(), 1);
        h.shutdown();
    }

    #[test]
    fn wrong_method_is_405() {
        let h = test_server();
        let resp = request(
            h.addr(),
            "GET /v1/solve HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
        h.shutdown();
    }

    #[test]
    fn shutdown_is_clean_with_no_traffic() {
        let h = test_server();
        let summary = h.shutdown();
        assert!(summary.contains("latencyd shutdown"), "{summary}");
    }

    #[test]
    fn metrics_expose_breaker_states_and_pool_losses() {
        let h = test_server();
        let resp = request(
            h.addr(),
            "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.contains("\"breakers\""), "{resp}");
        assert!(resp.contains("\"auto\":\"closed\""), "{resp}");
        assert!(resp.contains("\"workers_lost\":0"), "{resp}");
        assert!(resp.contains("\"resilience\""), "{resp}");
        h.shutdown();
    }

    #[test]
    fn overload_sheds_with_retry_after() {
        // A 1-deep admission queue plus a held slot: the next POST sheds.
        let h = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_capacity: 0,
            default_timeout_ms: 5_000,
            max_body_bytes: 1 << 20,
            max_queue_depth: 1,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            retry_max: 0,
            fault_plan: None,
            cluster: None,
            io_threads: 2,
            idle_timeout_ms: 30_000,
        })
        .unwrap()
        .spawn();
        let state = h.state();
        // Occupy the only slot directly; the real handler path holds it
        // exactly like this while a solve is in flight.
        let slot = admit(state).unwrap();
        let body = r#"{"config":{}}"#;
        let resp = request(
            h.addr(),
            &format!(
                "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(
            resp.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{resp}"
        );
        assert!(resp.contains("Retry-After: 1\r\n"), "{resp}");
        assert!(resp.contains("\"kind\":\"overloaded\""), "{resp}");
        assert_eq!(state.metrics.shed.get(), 1);
        assert_eq!(state.metrics.error_kind("overloaded").get(), 1);
        drop(slot);
        h.shutdown();
    }
}
