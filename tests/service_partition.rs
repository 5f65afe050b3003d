//! Partition chaos suite: five `latencyd` nodes over real loopback
//! sockets with a shared [`ChaosNet`] injected below the cluster
//! protocol. A seeded full bisection must leave both sides answering
//! every request with structured, fidelity-tagged responses; healing it
//! must drain the hinted-handoff queues into the keys' home nodes and
//! restore the repeat-sweep forwarded-hit profile to its pre-partition
//! value. A one-way partition (requests out are lost, requests in are
//! answered into the void) must converge the same way.
//!
//! Determinism: node identities, ring ownership, and the link-fault
//! schedule (a pure function of the spec seed, the directed link, and
//! the per-link message index) are all fixed; the suite runs under two
//! different seeds to vary the delay/duplicate schedule without
//! changing any assertion. Every wait is bounded by [`await_true`]'s
//! deadline, so a wedged cluster fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lt_core::json::{self, JsonValue};
use lt_core::prelude::*;
use lt_core::wire;
use lt_service::cluster::ring::HashRing;
use lt_service::{
    ChaosNet, ClusterConfig, LinkFaultSpec, Partition, Server, ServerConfig, ServerHandle,
};

/// Stable node identities; ring ownership is a pure function of these.
const IDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// The bisection used by the full-partition scenario: {alpha, beta}
/// versus {gamma, delta, epsilon}.
const SIDE_A: [&str; 2] = ["alpha", "beta"];

/// Minimal HTTP client: one request, parse status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, JsonValue) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    read_response(&mut BufReader::new(stream))
}

/// Read one HTTP response (status + Content-Length-framed body).
fn read_response(reader: &mut impl BufRead) -> (u16, JsonValue) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    let text = String::from_utf8(body).unwrap();
    (status, json::parse(&text).expect("response is JSON"))
}

fn config_body(cfg: &SystemConfig) -> String {
    format!("{{\"config\":{}}}", wire::config_to_json(cfg).encode())
}

/// Poll `f` every 25 ms until it holds or a 20 s deadline passes.
fn await_true(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// Lossy-but-working link noise: no probabilistic drops (partitions are
/// the only way a message is lost, so every recovery assertion below is
/// exact), a sprinkling of small delays, and occasional duplicates to
/// prove the protocol end-points are idempotent.
fn noisy_spec(seed: u64) -> LinkFaultSpec {
    LinkFaultSpec {
        seed,
        delay_prob: 0.10,
        delay: Duration::from_millis(2),
        duplicate_prob: 0.05,
        ..LinkFaultSpec::default()
    }
}

/// Pre-bind five port-0 listeners (so every node knows all peer
/// addresses before any node starts) and spawn the cluster with the
/// shared chaos model wired into every node's cluster exchanges.
fn start_cluster(chaos: &Arc<ChaosNet>) -> Vec<ServerHandle> {
    let listeners: Vec<TcpListener> = (0..IDS.len())
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let peers = (0..IDS.len())
                .filter(|&j| j != i)
                .map(|j| (IDS[j].to_string(), addrs[j].clone()))
                .collect();
            let cluster = ClusterConfig {
                peers,
                heartbeat_interval: Duration::from_millis(50),
                suspect_after: 2,
                dead_after: 4,
                forward_timeout: Duration::from_millis(500),
                link_faults: Some(Arc::clone(chaos)),
                ..ClusterConfig::new(IDS[i])
            };
            Server::from_listener(
                listener,
                ServerConfig {
                    workers: 2,
                    cache_capacity: 256,
                    default_timeout_ms: 60_000,
                    cluster: Some(cluster),
                    ..ServerConfig::default()
                },
            )
            .expect("from_listener")
            .spawn()
        })
        .collect()
}

fn cluster_of(node: &ServerHandle) -> &lt_service::Cluster {
    node.state().cluster().expect("cluster mode")
}

fn alive_at(node: &ServerHandle) -> usize {
    cluster_of(node).members_alive()
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(|x| x.as_str()).unwrap_or_default()
}

/// Assert a solve response carries a full-fidelity report (hints are
/// only generated — and only accepted — for full-fidelity answers).
fn assert_full_fidelity(v: &JsonValue) {
    let fid = v
        .get("report")
        .and_then(|r| r.get("fidelity"))
        .and_then(|f| f.as_str())
        .unwrap_or_default();
    assert!(
        matches!(fid, "exact" | "approximate"),
        "expected a full-fidelity report, got '{fid}': {}",
        v.encode()
    );
}

fn solve_key(cfg: &SystemConfig) -> String {
    wire::canonical_solve_key(cfg, SolverChoice::Auto)
}

/// Find a paper-default config variant whose solve key is *homed* at
/// `id` on the (deterministic) five-node ring.
fn config_homed_at(id: &str) -> SystemConfig {
    let ids: Vec<String> = IDS.iter().map(|s| s.to_string()).collect();
    let ring = HashRing::build(&ids);
    for n in 1..64 {
        let cfg = SystemConfig::paper_default().with_n_threads(n);
        if ring.owner_of(&solve_key(&cfg)) == Some(id) {
            return cfg;
        }
    }
    panic!("no paper-default variant hashes to node '{id}'");
}

/// The 12-point workload every sweep in this suite uses.
fn sweep_configs() -> Vec<SystemConfig> {
    (1..=12)
        .map(|n| SystemConfig::paper_default().with_n_threads(n))
        .collect()
}

/// POST the sweep at `addr`; return `(ok_items, cached_items)`.
fn run_sweep(addr: SocketAddr) -> (usize, usize) {
    let body = format!(
        "{{\"configs\":[{}]}}",
        sweep_configs()
            .iter()
            .map(|c| wire::config_to_json(c).encode())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, v) = http(addr, "POST", "/v1/sweep", Some(&body));
    assert_eq!(status, 200, "{}", v.encode());
    let results = v
        .get("results")
        .and_then(|r| r.as_array())
        .expect("results");
    assert_eq!(results.len(), 12);
    let ok = results
        .iter()
        .filter(|item| item.get("ok").and_then(|o| o.as_bool()) == Some(true))
        .count();
    let cached = results
        .iter()
        .filter(|item| item.get("cached").and_then(|c| c.as_bool()) == Some(true))
        .count();
    (ok, cached)
}

/// Sum a per-node counter over a slice of nodes.
fn sum_over(nodes: &[ServerHandle], f: impl Fn(&lt_service::Cluster) -> u64) -> u64 {
    nodes.iter().map(|n| f(cluster_of(n))).sum()
}

/// One full-bisection scenario under a given fault-schedule seed:
/// converge, warm the logical cache, bisect, prove both sides keep
/// serving, heal, prove the hints re-converge the owners' caches and
/// the sweep profile recovers exactly.
fn full_bisection_scenario(seed: u64) {
    let chaos = Arc::new(ChaosNet::new(noisy_spec(seed)));
    let nodes = start_cluster(&chaos);
    await_true("full membership convergence", || {
        nodes.iter().all(|n| alive_at(n) == IDS.len())
    });

    // Warm the logical cache through alpha, twice: pass one populates
    // every owner, pass two must be answered entirely from cache. With
    // no probabilistic drops in the spec this is exact, and it pins the
    // pre-partition forwarded-hit profile we expect back after heal.
    let relay = nodes[0].addr();
    assert_eq!(run_sweep(relay), (12, 0));
    let forwarded_before_pass2 = sum_over(&nodes, |c| c.hits_forwarded.get());
    assert_eq!(run_sweep(relay), (12, 12));
    let forwarded_per_sweep = sum_over(&nodes, |c| c.hits_forwarded.get()) - forwarded_before_pass2;
    assert!(
        forwarded_per_sweep > 0,
        "five owners, twelve keys: alpha cannot own them all"
    );

    // A key homed on the far side of the upcoming bisection, never yet
    // solved anywhere (n_threads=200 is outside the sweep workload).
    let probe_cfg = {
        let ids: Vec<String> = IDS.iter().map(|s| s.to_string()).collect();
        let ring = HashRing::build(&ids);
        (200..400)
            .map(|n| SystemConfig::paper_default().with_n_threads(n))
            .find(|cfg| ring.owner_of(&solve_key(cfg)) == Some("gamma"))
            .expect("some large variant is homed at gamma")
    };

    // Bisect: {alpha, beta} | {gamma, delta, epsilon}. Each side's
    // failure detector evicts the other side; each side observes one
    // entry into the partitioned regime.
    chaos.set_partition(Some(Partition::full(SIDE_A)));
    // `members_alive` already drops while the far side is merely
    // Suspect; `partitions_observed` flips on the first Death, so
    // waiting for both pins the regime entry on each side.
    await_true("both sides detect the bisection", || {
        alive_at(&nodes[0]) == 2
            && alive_at(&nodes[1]) == 2
            && nodes[2..].iter().all(|n| alive_at(n) == 3)
            && cluster_of(&nodes[0]).partitions_observed.get() >= 1
            && cluster_of(&nodes[2]).partitions_observed.get() >= 1
    });

    // Side A serves a key homed on side B: answered by a survivor,
    // full fidelity, bounded latency, and queued as a handoff hint for
    // the unreachable home node.
    let t0 = Instant::now();
    let (status, v) = http(relay, "POST", "/v1/solve", Some(&config_body(&probe_cfg)));
    let elapsed = t0.elapsed();
    assert_eq!(status, 200, "{}", v.encode());
    assert!(elapsed < Duration::from_secs(10), "bounded: {elapsed:?}");
    assert!(
        SIDE_A.contains(&str_field(&v, "served_by")),
        "{}",
        v.encode()
    );
    assert_full_fidelity(&v);
    let side_a = &nodes[..2];
    let side_b = &nodes[2..];
    await_true("the orphaned solve is queued as a hint", || {
        sum_over(side_a, |c| c.handoff_queued.get()) >= 1
    });

    // Side B serves a key homed on side A, symmetrically.
    let probe_a = config_homed_at("alpha");
    let (status, v) = http(
        nodes[2].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&probe_a)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert!(
        !SIDE_A.contains(&str_field(&v, "served_by")),
        "{}",
        v.encode()
    );
    assert_full_fidelity(&v);

    // The full sweep still completes on the cut-off minority side.
    let (ok, _) = run_sweep(relay);
    assert_eq!(ok, 12, "every sweep item is served during the partition");
    let queued_a = sum_over(side_a, |c| c.handoff_queued.get());
    let queued_b = sum_over(side_b, |c| c.handoff_queued.get());
    assert!(queued_a >= 1, "side A holds hints for side B's keys");

    // Heal. Membership re-converges, the rings re-expand, and every
    // queued hint is delivered to its home node (none dropped: the
    // spec has no probabilistic drops and all owners return).
    chaos.set_partition(None);
    await_true("membership re-converges after heal", || {
        nodes.iter().all(|n| alive_at(n) == IDS.len())
    });
    // `hints_pending` alone is racy: a drain pass pops the hint before
    // the delivery exchange runs, so pending can read 0 while the hint
    // is still in flight. Wait for every queued hint to be accounted
    // for (delivered or dropped) as well.
    await_true("hints drain to their home nodes", || {
        nodes.iter().all(|n| cluster_of(n).hints_pending() == 0)
            && sum_over(side_a, |c| {
                c.handoff_delivered.get() + c.handoff_dropped.get()
            }) >= queued_a
            && sum_over(side_b, |c| {
                c.handoff_delivered.get() + c.handoff_dropped.get()
            }) >= queued_b
    });
    assert_eq!(sum_over(side_a, |c| c.handoff_delivered.get()), queued_a);
    assert_eq!(sum_over(side_b, |c| c.handoff_delivered.get()), queued_b);
    assert_eq!(sum_over(&nodes, |c| c.handoff_dropped.get()), 0);

    // The money shot: gamma never solved the probe key — it was cut off
    // when side A computed it — yet it now answers from its own cache,
    // because the hint was handed off.
    let (status, v) = http(
        nodes[2].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&probe_cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), "gamma", "{}", v.encode());
    assert_eq!(
        v.get("cached").and_then(|x| x.as_bool()),
        Some(true),
        "the healed home node serves the hinted solution from cache: {}",
        v.encode()
    );
    // And the repeat-sweep profile through alpha is back to exactly its
    // pre-partition shape: all cached, same forwarded-hit count.
    let forwarded_before_repeat = sum_over(&nodes, |c| c.hits_forwarded.get());
    assert_eq!(run_sweep(relay), (12, 12));
    assert_eq!(
        sum_over(&nodes, |c| c.hits_forwarded.get()) - forwarded_before_repeat,
        forwarded_per_sweep,
        "forwarded-hit profile recovers to the pre-partition value"
    );

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn full_bisection_both_sides_serve_then_heal_seed_a() {
    full_bisection_scenario(0xA11CE);
}

#[test]
fn full_bisection_both_sides_serve_then_heal_seed_b() {
    full_bisection_scenario(0xB0B);
}

#[test]
fn one_way_partition_is_survived_and_healed() {
    // Asymmetric cut: alpha's requests vanish; requests toward alpha
    // are delivered but their responses never return. Both sides must
    // still conclude the other is gone — alpha by silence, the rest by
    // answering into the void — and the heal must hand alpha's orphaned
    // solves back to their home nodes.
    let chaos = Arc::new(ChaosNet::new(noisy_spec(0x0DD1)));
    let nodes = start_cluster(&chaos);
    await_true("full membership convergence", || {
        nodes.iter().all(|n| alive_at(n) == IDS.len())
    });

    chaos.set_partition(Some(Partition::one_way(["alpha"])));
    await_true("both sides of the one-way cut detect it", || {
        alive_at(&nodes[0]) == 1 && nodes[1..].iter().all(|n| alive_at(n) == 4)
    });

    // Alpha, alone in its own ring, still answers a key homed at gamma
    // — locally, at full fidelity — and queues the hint.
    let probe_cfg = config_homed_at("gamma");
    let (status, v) = http(
        nodes[0].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&probe_cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), "alpha", "{}", v.encode());
    assert_full_fidelity(&v);
    await_true("alpha queues the orphaned solve as a hint", || {
        cluster_of(&nodes[0]).handoff_queued.get() >= 1
    });

    // The majority side keeps serving alpha's keys meanwhile.
    let (status, v) = http(
        nodes[1].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&config_homed_at("alpha"))),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_ne!(str_field(&v, "served_by"), "alpha");

    chaos.set_partition(None);
    await_true("membership re-converges after heal", || {
        nodes.iter().all(|n| alive_at(n) == IDS.len())
    });
    await_true("alpha's hints drain", || {
        cluster_of(&nodes[0]).hints_pending() == 0
            && cluster_of(&nodes[0]).handoff_delivered.get() >= 1
    });

    // Gamma answers the hinted key from cache without ever solving it.
    let (status, v) = http(
        nodes[2].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&probe_cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), "gamma", "{}", v.encode());
    assert_eq!(v.get("cached").and_then(|x| x.as_bool()), Some(true));

    for node in nodes {
        node.shutdown();
    }
}
