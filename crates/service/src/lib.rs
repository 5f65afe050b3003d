//! # lt-service — `latencyd`, a model-evaluation service
//!
//! A concurrent HTTP/JSON server over the analytical framework in
//! [`lt_core`]: clients POST a machine configuration and get back the
//! paper's performance report (processor utilization, observed latencies,
//! solver diagnostics) or a tolerance index, without linking the solver
//! into their own process.
//!
//! Three layers, each its own module:
//!
//! * [`cache`] — a sharded LRU **solution cache** keyed by the canonical
//!   content address of a (config, solver) pair
//!   ([`lt_core::wire::canonical_solve_key`]): identical requests are
//!   answered without re-solving, and the response says so
//!   (`"cached": true`).
//! * [`pool`] — the **execution layer**: a fixed worker pool over an MPMC
//!   channel, a dynamic self-scheduling batch primitive for sweeps with
//!   skewed per-item costs, per-request deadlines, graceful drain.
//! * [`metrics`] — **observability**: one mechanism for every number
//!   served at `GET /metrics` — declared `Counter` fields on each
//!   component (per-endpoint requests/errors, errors by kind, resilience,
//!   cache, pool, cluster and fault counters), a gauge per reactor
//!   connection phase, and a lock-free log-bucketed latency histogram
//!   (exact count/sum/max, p50/p95/p99 within 1%, O(buckets) to scrape).
//! * [`breaker`] — per-solver-tier **circuit breakers**: a tier that
//!   keeps failing skips its primary solver and answers from the
//!   degradation ladder until a half-open probe proves it recovered.
//! * [`fault`] — seeded, deterministic **fault injection** (latency,
//!   worker panics, forced solver failure, cache corruption, connection
//!   drops) for the chaos suite; off (and free) in production.
//! * [`workspace`] — per-worker **solver state pooling**: each pool
//!   thread keeps a [`lt_core::SolverWorkspace`] and warm-start seed
//!   between jobs, so repeated solves of a model shape allocate nothing
//!   and sweep batches warm-start consecutive points.
//! * [`cluster`] — optional **clustering**: a consistent-hash ring over
//!   the solve-key space with per-key replica sets, gossip-fed peer
//!   membership with deterministic failure detection, deadline-budgeted
//!   owner/replica forwarding with a hop-count loop guard, and hinted
//!   handoff so a healed partition re-converges the cache — N `latencyd`
//!   processes serve one logical cache and survive the network failing
//!   under them ([`fault::ChaosNet`] proves it with seeded link faults
//!   and partitions).
//!
//! [`http`] is the transport (a hand-rolled HTTP/1.1 subset on
//! `TcpListener` — the service adds no dependencies), [`reactor`] the
//! readiness-polled connection front end (a few I/O threads own every
//! accepted socket, so thousands of idle keep-alive connections cost no
//! extra threads), [`api`] the request schemas, [`server`] the accept
//! loop and endpoint dispatch, and `src/bin/latencyd.rs` the binary.
//!
//! ## Endpoints
//!
//! | Endpoint            | Body                                             |
//! |---------------------|--------------------------------------------------|
//! | `POST /v1/solve`    | `{"config":{...},"solver":"auto","timeout_ms":N}`|
//! | `POST /v1/sweep`    | `{"configs":[...]}` or `{"base":{...},"grid":[{"param":"workload.n_threads","values":[2,4,8]}]}` |
//! | `POST /v1/tolerance`| `{"config":{...},"spec":"network"}`              |
//! | `GET /healthz`      | —                                                |
//! | `GET /metrics`      | —                                                |
//! | `GET /v1/cluster/ping`    | — (cluster mode)                           |
//! | `GET /v1/cluster/members` | — (cluster mode)                           |
//! | `POST /v1/cluster/hint`   | `{"key":"v1;...","report":{...}}` (cluster mode, hinted handoff) |
//!
//! ## In-process quickstart
//!
//! ```
//! use lt_service::{Server, ServerConfig};
//!
//! let handle = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // port 0: pick a free port
//!     workers: 2,
//!     ..ServerConfig::default()
//! })
//! .unwrap()
//! .spawn();
//! let addr = handle.addr(); // POST http://{addr}/v1/solve ...
//! # let _ = addr;
//! let summary = handle.shutdown();
//! assert!(summary.contains("latencyd shutdown"));
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod breaker;
pub mod cache;
pub mod cluster;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod reactor;
pub mod server;
pub mod sync;
pub mod workspace;

pub use api::ApiError;
pub use breaker::{BreakerDecision, BreakerState, CircuitBreaker};
pub use cache::SolveCache;
pub use cluster::{Cluster, ClusterConfig};
pub use fault::{
    ChaosNet, FaultDecision, FaultPlan, FaultSpec, LinkDecision, LinkFaultSpec, Partition,
};
pub use metrics::{LatencySummary, ServiceMetrics};
pub use pool::{BatchError, WorkerPool};
pub use server::{Server, ServerConfig, ServerHandle, ServiceState};
pub use workspace::WorkspacePool;
