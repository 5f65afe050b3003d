//! Front-end benchmarks: what does the connection reactor buy?
//!
//! `service-throughput` — the tentpole scenario for the readiness-polled
//! reactor: a swarm of idle keep-alive connections is held open (the old
//! thread-per-connection front end would park one OS thread per socket;
//! the reactor holds them all on `--io-threads` threads) while a small
//! set of active clients solves over keep-alive connections. Timing rows
//! give the cached-solve round trip with and without the idle swarm;
//! counters publish the machine-independent evidence: how many idle
//! connections were held, on how many I/O threads, the active req/s, and
//! the p99 with/without the idle load (the reactor claim is that the
//! swarm is ~free, so the two p99s should be close).
//!
//! In `LT_BENCH_FAST=1` smoke mode the swarm shrinks to 256 connections
//! so the run fits CI file-descriptor limits; the committed trajectory
//! numbers come from a full run with the 1000-connection swarm.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lt_bench::{criterion_group, criterion_main, report_counter, Criterion, FAST_ENV};
use lt_core::json::{self, JsonValue};
use lt_core::prelude::*;
use lt_core::wire;
use lt_service::metrics::ConnPhase;
use lt_service::{Server, ServerConfig, ServerHandle};

/// Idle keep-alive connections held during the measured phase.
const IDLE_CONNS_FULL: usize = 1000;
const IDLE_CONNS_FAST: usize = 256;
/// Active keep-alive clients solving while the swarm idles.
const ACTIVE_CLIENTS: usize = 8;
/// Requests each active client issues in the throughput phase.
const REQS_PER_CLIENT_FULL: usize = 150;
const REQS_PER_CLIENT_FAST: usize = 20;
const IO_THREADS: usize = 2;

fn fast_mode() -> bool {
    std::env::var(FAST_ENV).map(|v| v == "1").unwrap_or(false)
}

/// One keep-alive HTTP client connection: send requests back to back on
/// the same socket, the way a real pooled client would.
struct KeepAliveClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        // One write_all per request below plus nodelay: without these,
        // Nagle on the client side can serialize the request into
        // several small segments and a delayed ACK (tens of ms) lands
        // in the measurement.
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        KeepAliveClient { stream, reader }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, JsonValue) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: b\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content length");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).expect("body");
        let text = String::from_utf8(body).expect("utf8 body");
        (status, json::parse(&text).expect("response is JSON"))
    }
}

fn start_server() -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    Server::from_listener(
        listener,
        ServerConfig {
            workers: 4,
            cache_capacity: 2048,
            default_timeout_ms: 120_000,
            io_threads: IO_THREADS,
            ..ServerConfig::default()
        },
    )
    .expect("server")
    .spawn()
}

fn solve_body(cfg: &SystemConfig) -> String {
    format!("{{\"config\":{}}}", wire::config_to_json(cfg).encode())
}

/// `ACTIVE_CLIENTS` keep-alive clients each issue `per_client` cached
/// solves; returns (req/s over the whole phase, p99 latency in ms).
fn throughput_phase(addr: SocketAddr, body: &str, per_client: usize) -> (f64, f64) {
    let body = Arc::new(body.to_string());
    let started = Instant::now();
    let workers: Vec<_> = (0..ACTIVE_CLIENTS)
        .map(|_| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                let mut latencies_ms = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t0 = Instant::now();
                    let (status, _) = client.request("POST", "/v1/solve", &body);
                    assert_eq!(status, 200);
                    latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(ACTIVE_CLIENTS * per_client);
    for w in workers {
        latencies_ms.extend(w.join().expect("client thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let idx = ((latencies_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, latencies_ms.len()) - 1;
    (latencies_ms.len() as f64 / elapsed, latencies_ms[idx])
}

fn bench_service_throughput(c: &mut Criterion) {
    let (idle_conns, per_client) = if fast_mode() {
        (IDLE_CONNS_FAST, REQS_PER_CLIENT_FAST)
    } else {
        (IDLE_CONNS_FULL, REQS_PER_CLIENT_FULL)
    };
    let handle = start_server();
    let addr = handle.addr();
    let cfg = SystemConfig::paper_default();
    let body = solve_body(&cfg);

    // Prime the cache: every measured request is a hit, so the numbers
    // isolate the front end (parse, admission, dispatch, serialization)
    // rather than solver time.
    let mut primer = KeepAliveClient::connect(addr);
    let (status, v) = primer.request("POST", "/v1/solve", &body);
    assert_eq!(status, 200, "{}", v.encode());

    let mut group = c.benchmark_group("service-throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    // Baseline: one active keep-alive client, no idle swarm.
    let mut client = KeepAliveClient::connect(addr);
    group.bench_function("cached-solve-no-idle-load", |b| {
        b.iter(|| {
            let (status, v) = client.request("POST", "/v1/solve", &body);
            assert_eq!(status, 200);
            v
        })
    });
    let (_, p99_baseline_ms) = throughput_phase(addr, &body, per_client);

    // Open the idle swarm and wait until the reactor has registered
    // every socket into its Idle gauge.
    let swarm: Vec<TcpStream> = (0..idle_conns)
        .map(|_| TcpStream::connect(addr).expect("swarm connect"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.state().metrics.conns(ConnPhase::Idle).get() < idle_conns {
        assert!(
            Instant::now() < deadline,
            "reactor never registered the idle swarm"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The same single-client round trip, now with the swarm held open.
    group.bench_function("cached-solve-under-idle-load", |b| {
        b.iter(|| {
            let (status, v) = client.request("POST", "/v1/solve", &body);
            assert_eq!(status, 200);
            v
        })
    });
    group.finish();

    // Throughput phase: M active clients hammer cached solves while the
    // swarm idles on the reactor threads.
    let (req_per_sec, p99_ms) = throughput_phase(addr, &body, per_client);
    assert!(
        handle.state().metrics.conns(ConnPhase::Idle).get() >= idle_conns,
        "the idle swarm must stay registered through the throughput phase"
    );
    report_counter("service-throughput", "idle-connections", idle_conns as f64);
    report_counter("service-throughput", "io-threads", IO_THREADS as f64);
    report_counter(
        "service-throughput",
        "idle-connections-per-io-thread",
        idle_conns as f64 / IO_THREADS as f64,
    );
    report_counter(
        "service-throughput",
        "active-clients",
        ACTIVE_CLIENTS as f64,
    );
    report_counter("service-throughput", "req-per-sec", req_per_sec);
    report_counter("service-throughput", "p99-ms", p99_ms);
    report_counter(
        "service-throughput",
        "p99-ms-no-idle-baseline",
        p99_baseline_ms,
    );

    drop(swarm);
    drop(client);
    drop(primer);
    handle.shutdown();
}

criterion_group!(service, bench_service_throughput);
criterion_main!(service);
