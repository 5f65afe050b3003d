//! Cluster benchmarks: what does distribution cost, and what does it buy?
//!
//! * `cluster-hit` — serving a cached solve locally (owner asked
//!   directly) vs through one forwarding hop (non-owner relays to the
//!   owner). The delta is the pure relay overhead: one extra loopback
//!   connection plus envelope re-tagging.
//! * `cluster-sweep` — the repeated Figure-4 sweep against a single
//!   node and against a 3-node cluster. The aggregate cache hit ratio
//!   of the second pass is published as counters — the
//!   machine-independent evidence that N nodes behave as one logical
//!   cache (a repeat sweep hits no matter which node absorbed the
//!   first pass).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lt_bench::{criterion_group, criterion_main, report_counter, Criterion};
use lt_core::json::{self, JsonValue};
use lt_core::prelude::*;
use lt_core::wire;
use lt_service::cluster::ring::HashRing;
use lt_service::{ClusterConfig, Server, ServerConfig, ServerHandle};

const IDS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Minimal HTTP client: one request, parse status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: b\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    let text = String::from_utf8(body).expect("utf8 body");
    (status, json::parse(&text).expect("response is JSON"))
}

fn base_config(cluster: Option<ClusterConfig>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        cache_capacity: 2048,
        default_timeout_ms: 120_000,
        cluster,
        ..ServerConfig::default()
    }
}

fn start_single() -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    Server::from_listener(listener, base_config(None))
        .expect("server")
        .spawn()
}

/// Pre-bind three port-0 listeners and spawn a 3-node loopback cluster.
fn start_cluster() -> Vec<ServerHandle> {
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let nodes: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = (0..3)
                .filter(|&j| j != i)
                .map(|j| (IDS[j].to_string(), addrs[j].clone()))
                .collect();
            let cluster = ClusterConfig {
                peers,
                heartbeat_interval: Duration::from_millis(50),
                forward_timeout: Duration::from_secs(60),
                ..ClusterConfig::new(IDS[i])
            };
            Server::from_listener(listener, base_config(Some(cluster)))
                .expect("server")
                .spawn()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while nodes
        .iter()
        .any(|n| n.state().cluster().expect("cluster mode").members_alive() != 3)
    {
        assert!(Instant::now() < deadline, "cluster never converged");
        std::thread::sleep(Duration::from_millis(25));
    }
    nodes
}

fn solve_body(cfg: &SystemConfig) -> String {
    format!("{{\"config\":{}}}", wire::config_to_json(cfg).encode())
}

/// The Figure-4 grid (18 remote-access probabilities × 20 thread
/// counts), same axes as the `sweep` bench group.
fn figure4_grid() -> Vec<SystemConfig> {
    let mut cfgs = Vec::new();
    for i in 0..18 {
        let p = 0.05 + 0.05 * i as f64;
        for n_t in 1..=20usize {
            cfgs.push(
                SystemConfig::paper_default()
                    .with_n_threads(n_t)
                    .with_p_remote(p),
            );
        }
    }
    cfgs
}

fn sweep_body(cfgs: &[SystemConfig]) -> String {
    format!(
        "{{\"configs\":[{}]}}",
        cfgs.iter()
            .map(|c| wire::config_to_json(c).encode())
            .collect::<Vec<_>>()
            .join(",")
    )
}

/// Sum a cache counter across nodes from their `/metrics` documents.
fn cache_counter(nodes: &[ServerHandle], field: &str) -> u64 {
    nodes
        .iter()
        .map(|n| {
            let (status, m) = http(n.addr(), "GET", "/metrics", "");
            assert_eq!(status, 200);
            m.get("cache")
                .and_then(|c| c.get(field))
                .and_then(|x| x.as_u64())
                .expect("cache counter")
        })
        .sum()
}

fn bench_hit_latency(c: &mut Criterion) {
    let nodes = start_cluster();

    // A config deterministically owned by beta: asked of beta it is a
    // local hit, asked of alpha it is a one-hop forwarded hit.
    let ids: Vec<String> = IDS.iter().map(|s| s.to_string()).collect();
    let ring = HashRing::build(&ids);
    let cfg = (1..64)
        .map(|n| SystemConfig::paper_default().with_n_threads(n))
        .find(|cfg| {
            ring.owner_of(&wire::canonical_solve_key(cfg, SolverChoice::Auto)) == Some("beta")
        })
        .expect("some variant is owned by beta");
    let body = solve_body(&cfg);

    // Prime the owner's cache so every measured request is a hit.
    let (status, v) = http(nodes[1].addr(), "POST", "/v1/solve", &body);
    assert_eq!(status, 200, "{}", v.encode());

    let mut group = c.benchmark_group("cluster-hit");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("local", |b| {
        b.iter(|| {
            let (status, v) = http(nodes[1].addr(), "POST", "/v1/solve", &body);
            assert_eq!(status, 200);
            v
        })
    });
    group.bench_function("forwarded", |b| {
        b.iter(|| {
            let (status, v) = http(nodes[0].addr(), "POST", "/v1/solve", &body);
            assert_eq!(status, 200);
            v
        })
    });
    group.finish();

    let relay = nodes[0].state().cluster().expect("cluster mode");
    report_counter(
        "cluster-hit",
        "forwarded-hits",
        relay.hits_forwarded.get() as f64,
    );
    assert!(relay.hits_forwarded.get() > 0, "forwarding never happened");
    for node in nodes {
        node.shutdown();
    }
}

fn bench_sweep_hit_ratio(c: &mut Criterion) {
    let cfgs = figure4_grid();
    let body = sweep_body(&cfgs);
    let mut group = c.benchmark_group("cluster-sweep");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    // Single node: pass 1 populates, pass 2 must hit.
    let single = vec![start_single()];
    for pass in 0..2 {
        let (status, v) = http(single[0].addr(), "POST", "/v1/sweep", &body);
        assert_eq!(status, 200, "single pass {pass}: {}", v.encode());
    }
    let hits = cache_counter(&single, "hits");
    let misses = cache_counter(&single, "misses");
    report_counter(
        "cluster-sweep",
        "single-node-repeat-hit-ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    group.bench_function("repeat-single", |b| {
        b.iter(|| {
            let (status, v) = http(single[0].addr(), "POST", "/v1/sweep", &body);
            assert_eq!(status, 200);
            v
        })
    });

    // 3-node cluster, sweeping through one node: items fan out to their
    // owners, so the aggregate (summed over nodes) hit ratio of the
    // repeat pass matches the single node — one logical cache.
    let nodes = start_cluster();
    for pass in 0..2 {
        let (status, v) = http(nodes[0].addr(), "POST", "/v1/sweep", &body);
        assert_eq!(status, 200, "cluster pass {pass}: {}", v.encode());
    }
    let hits = cache_counter(&nodes, "hits");
    let misses = cache_counter(&nodes, "misses");
    report_counter(
        "cluster-sweep",
        "cluster-repeat-hit-ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let forwarded: u64 = nodes
        .iter()
        .map(|n| {
            n.state()
                .cluster()
                .expect("cluster mode")
                .hits_forwarded
                .get()
        })
        .sum();
    report_counter("cluster-sweep", "forwarded-hits", forwarded as f64);
    group.bench_function("repeat-3-nodes", |b| {
        b.iter(|| {
            let (status, v) = http(nodes[0].addr(), "POST", "/v1/sweep", &body);
            assert_eq!(status, 200);
            v
        })
    });
    group.finish();

    for node in single.into_iter().chain(nodes) {
        node.shutdown();
    }
}

fn bench_partitioned_vs_healthy(c: &mut Criterion) {
    use lt_service::{ChaosNet, LinkFaultSpec, Partition};
    use std::sync::Arc;

    // A noise-free chaos net: the only injected fault is the partition
    // itself, so the healthy leg is a true baseline. A one-hour
    // heartbeat keeps the failure detector out of the measurement —
    // the partitioned leg stays in the pre-detection regime, which is
    // exactly the fast-fail path being priced.
    let chaos = Arc::new(ChaosNet::new(LinkFaultSpec {
        seed: 0xBE7C,
        ..LinkFaultSpec::default()
    }));
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let nodes: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = (0..3)
                .filter(|&j| j != i)
                .map(|j| (IDS[j].to_string(), addrs[j].clone()))
                .collect();
            let cluster = ClusterConfig {
                peers,
                heartbeat_interval: Duration::from_secs(3600),
                forward_timeout: Duration::from_millis(500),
                link_faults: Some(Arc::clone(&chaos)),
                ..ClusterConfig::new(IDS[i])
            };
            Server::from_listener(listener, base_config(Some(cluster)))
                .expect("server")
                .spawn()
        })
        .collect();

    // A config owned by beta, primed into beta's cache: asked of alpha
    // it is a one-hop forwarded hit while the network is healthy.
    let ids: Vec<String> = IDS.iter().map(|s| s.to_string()).collect();
    let ring = HashRing::build(&ids);
    let cfg = (1..64)
        .map(|n| SystemConfig::paper_default().with_n_threads(n))
        .find(|cfg| {
            ring.owner_of(&wire::canonical_solve_key(cfg, SolverChoice::Auto)) == Some("beta")
        })
        .expect("some variant is owned by beta");
    let body = solve_body(&cfg);
    let (status, v) = http(nodes[1].addr(), "POST", "/v1/solve", &body);
    assert_eq!(status, 200, "{}", v.encode());

    let mut group = c.benchmark_group("cluster-partition");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("healthy-forwarded-hit", |b| {
        b.iter(|| {
            let (status, v) = http(nodes[0].addr(), "POST", "/v1/solve", &body);
            assert_eq!(status, 200);
            v
        })
    });

    // Cut alpha off. Its forwards to beta now fail fast (severed before
    // any socket is opened), the retry budget drains, and the request
    // is served from alpha's own cache — primed by one fallback solve.
    chaos.set_partition(Some(Partition::full(["alpha"])));
    let (status, v) = http(nodes[0].addr(), "POST", "/v1/solve", &body);
    assert_eq!(status, 200, "fallback under partition: {}", v.encode());
    group.bench_function("partitioned-local-fallback", |b| {
        b.iter(|| {
            let (status, v) = http(nodes[0].addr(), "POST", "/v1/solve", &body);
            assert_eq!(status, 200);
            v
        })
    });
    group.finish();

    let relay = nodes[0].state().cluster().expect("cluster mode");
    report_counter(
        "cluster-partition",
        "forward-errors",
        relay.forward_errors.get() as f64,
    );
    report_counter(
        "cluster-partition",
        "forward-retries",
        relay.forward_retries.get() as f64,
    );
    report_counter(
        "cluster-partition",
        "hints-queued",
        relay.handoff_queued.get() as f64,
    );
    assert!(relay.forward_errors.get() > 0, "the partition never bit");
    assert!(
        relay.handoff_queued.get() >= 1,
        "fallback solves must queue a handoff hint"
    );
    for node in nodes {
        node.shutdown();
    }
}

criterion_group!(
    cluster,
    bench_hit_latency,
    bench_sweep_hit_ratio,
    bench_partitioned_vs_healthy
);
criterion_main!(cluster);
