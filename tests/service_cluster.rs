//! Loopback cluster integration tests: three `latencyd` nodes over real
//! sockets acting as one logical cache — ownership agreement, forwarded
//! solves, owner failover, and fault-burst rejoin re-convergence.
//!
//! Every wait in this file is bounded by [`await_true`]'s deadline, so a
//! broken cluster fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lt_core::json::{self, JsonValue};
use lt_core::prelude::*;
use lt_core::wire;
use lt_service::cluster::ring::HashRing;
use lt_service::{ClusterConfig, FaultPlan, FaultSpec, Server, ServerConfig, ServerHandle};

/// Stable node identities; ring ownership is a pure function of these,
/// so every ownership assertion below is deterministic across runs.
const IDS: [&str; 3] = ["alpha", "beta", "gamma"];

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

/// Timing knobs for one cluster; tests pick fast or slow failure
/// detection depending on whether they need a pre-rebuild window.
struct ClusterTuning {
    heartbeat_ms: u64,
    suspect_after: u32,
    dead_after: u32,
    /// Deterministic fault plan installed on one node (by index).
    fault_on: Option<(usize, FaultSpec)>,
}

impl Default for ClusterTuning {
    fn default() -> Self {
        ClusterTuning {
            heartbeat_ms: 50,
            suspect_after: 1,
            dead_after: 2,
            fault_on: None,
        }
    }
}

/// Pre-bind three port-0 listeners (so every node knows all peer
/// addresses before any node starts) and spawn the cluster.
fn start_cluster(tuning: ClusterTuning) -> Vec<ServerHandle> {
    let listeners: Vec<TcpListener> = (0..3)
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
            let peers = (0..3)
                .filter(|&j| j != i)
                .map(|j| (IDS[j].to_string(), addrs[j].clone()))
                .collect();
            let cluster = ClusterConfig {
                peers,
                heartbeat_interval: Duration::from_millis(tuning.heartbeat_ms),
                suspect_after: tuning.suspect_after,
                dead_after: tuning.dead_after,
                forward_timeout: Duration::from_millis(500),
                ..ClusterConfig::new(IDS[i])
            };
            let fault_plan = match &tuning.fault_on {
                Some((idx, spec)) if *idx == i => Some(Arc::new(FaultPlan::new(spec.clone()))),
                _ => None,
            };
            Server::from_listener(
                listener,
                ServerConfig {
                    workers: 2,
                    cache_capacity: 256,
                    default_timeout_ms: 60_000,
                    fault_plan,
                    cluster: Some(cluster),
                    ..ServerConfig::default()
                },
            )
            .expect("from_listener")
            .spawn()
        })
        .collect()
}

/// Block until every node sees all three members alive.
fn await_convergence(nodes: &[ServerHandle]) {
    await_true("full membership convergence", || {
        nodes
            .iter()
            .all(|n| n.state().cluster().expect("cluster mode").members_alive() == 3)
    });
}

fn owner_of(node: &ServerHandle, key: &str) -> String {
    node.state()
        .cluster()
        .expect("cluster mode")
        .owner_of(key)
        .expect("non-empty ring")
}

fn solve_key(cfg: &SystemConfig) -> String {
    wire::canonical_solve_key(cfg, SolverChoice::Auto)
}

/// Find a paper-default config variant whose solve key lands on `id`'s
/// arc of the (deterministic) three-node ring.
fn config_owned_by(id: &str) -> SystemConfig {
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

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(|x| x.as_str()).unwrap_or_default()
}

fn report_u_p(v: &JsonValue) -> f64 {
    v.get("report")
        .and_then(|r| r.get("u_p"))
        .and_then(|x| x.as_f64())
        .expect("report.u_p")
}

#[test]
fn nodes_agree_on_key_ownership_and_answer_cluster_endpoints() {
    let nodes = start_cluster(ClusterTuning::default());
    await_convergence(&nodes);

    // Ping identifies each node; the members document lists all three
    // alive and a three-node ring, from every vantage point.
    for (i, node) in nodes.iter().enumerate() {
        let (status, v) = http(node.addr(), "GET", "/v1/cluster/ping", None);
        assert_eq!(status, 200);
        assert_eq!(str_field(&v, "node_id"), IDS[i]);

        let (status, m) = http(node.addr(), "GET", "/v1/cluster/members", None);
        assert_eq!(status, 200, "{}", m.encode());
        let members = m.get("members").and_then(|x| x.as_array()).unwrap();
        assert_eq!(members.len(), 3, "from {}: {}", IDS[i], m.encode());
        for member in members {
            assert_eq!(str_field(member, "health"), "alive");
        }
        let ring = m.get("ring_nodes").and_then(|x| x.as_array()).unwrap();
        assert_eq!(ring.len(), 3);
    }

    // Sixty distinct solve keys: every node names the same owner for
    // every key, and each node owns a non-trivial share.
    let mut owned = [0usize; 3];
    for n in 1..=60 {
        let key = solve_key(&SystemConfig::paper_default().with_n_threads(n));
        let owner = owner_of(&nodes[0], &key);
        for node in &nodes[1..] {
            assert_eq!(owner_of(node, &key), owner, "disagreement on key {key}");
        }
        let idx = IDS.iter().position(|id| *id == owner).expect("known owner");
        owned[idx] += 1;
    }
    for (i, count) in owned.iter().enumerate() {
        assert!(
            *count > 0,
            "node {} owns none of 60 keys: {owned:?}",
            IDS[i]
        );
    }

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn forwarded_solve_is_byte_identical_to_local_and_tagged() {
    let nodes = start_cluster(ClusterTuning::default());
    await_convergence(&nodes);

    let cfg = config_owned_by("beta");
    let expected = solve(&cfg).unwrap().u_p;
    let owner_idx = 1;
    let relay_idx = 0;

    // First solve, straight at the owner: local, uncached, enveloped.
    let (status, v) = http(
        nodes[owner_idx].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), "beta");
    assert_eq!(str_field(&v, "owner"), "beta");
    assert_eq!(v.get("forwarded").and_then(|x| x.as_bool()), Some(false));
    assert_eq!(report_u_p(&v).to_bits(), expected.to_bits());

    // Same config via a non-owner: forwarded to the owner, served from
    // its cache, and the report survives the relay bit-for-bit.
    let (status, v) = http(
        nodes[relay_idx].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), "beta");
    assert_eq!(str_field(&v, "owner"), "beta");
    assert_eq!(v.get("forwarded").and_then(|x| x.as_bool()), Some(true));
    assert_eq!(v.get("cached").and_then(|x| x.as_bool()), Some(true));
    assert_eq!(report_u_p(&v).to_bits(), expected.to_bits());

    // Counters moved on both sides, and surface in /metrics.
    let owner_cluster = nodes[owner_idx].state().cluster().unwrap();
    let relay_cluster = nodes[relay_idx].state().cluster().unwrap();
    assert!(owner_cluster.hits_local.get() >= 1);
    assert!(relay_cluster.hits_forwarded.get() >= 1);
    let (status, m) = http(nodes[relay_idx].addr(), "GET", "/metrics", None);
    assert_eq!(status, 200);
    let cluster_doc = m.get("cluster").expect("cluster metrics block");
    assert!(
        cluster_doc
            .get("hits_forwarded")
            .and_then(|x| x.as_u64())
            .unwrap()
            >= 1
    );
    assert_eq!(
        cluster_doc.get("members_alive").and_then(|x| x.as_u64()),
        Some(3)
    );

    // A sweep through one node fans items out to their owners; every
    // slot comes back in order, tagged, and numerically correct (sweep
    // warm-starts, so compare within solver tolerance, not bits).
    let sweep_cfgs: Vec<SystemConfig> = [2, 5, 9, 13, 21, 34]
        .iter()
        .map(|&n| SystemConfig::paper_default().with_n_threads(n))
        .collect();
    let body = format!(
        "{{\"configs\":[{}]}}",
        sweep_cfgs
            .iter()
            .map(|c| wire::config_to_json(c).encode())
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, v) = http(nodes[relay_idx].addr(), "POST", "/v1/sweep", Some(&body));
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), IDS[relay_idx]);
    let results = v.get("results").and_then(|r| r.as_array()).unwrap();
    assert_eq!(results.len(), sweep_cfgs.len());
    let mut any_forwarded = false;
    for (i, item) in results.iter().enumerate() {
        assert_eq!(item.get("ok").and_then(|o| o.as_bool()), Some(true));
        let forwarded = item
            .get("forwarded")
            .and_then(|x| x.as_bool())
            .expect("per-item forwarded tag");
        any_forwarded |= forwarded;
        let expected = solve(&sweep_cfgs[i]).unwrap().u_p;
        let got = report_u_p(item);
        assert!(
            (got - expected).abs() < 1e-8,
            "sweep item {i}: {got} vs {expected}"
        );
    }
    // Three owners, six keys: the relay cannot own all of them (the
    // ownership split is deterministic, see nodes_agree_on_key_ownership).
    assert!(any_forwarded, "no sweep item was forwarded: {}", v.encode());

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn killing_the_owner_falls_back_locally_then_ring_reroutes() {
    // Slow failure detection: a 250 ms heartbeat and dead_after=4 leave a
    // ~1 s window after the kill in which the ring still names the dead
    // node, so the forward-then-fall-back path is observable.
    let nodes = start_cluster(ClusterTuning {
        heartbeat_ms: 250,
        suspect_after: 2,
        dead_after: 4,
        fault_on: None,
    });
    await_convergence(&nodes);

    let cfg = config_owned_by("gamma");
    let key = solve_key(&cfg);
    let mut nodes = nodes;
    let victim = nodes.remove(2);
    victim.shutdown();

    // Immediately after the kill the survivors still route to gamma; the
    // forward to it fails fast (connection refused) and is counted.
    // Depending on the key's replica set the request is then answered by
    // the surviving replica (forwarded) or solved on the relay itself —
    // either way `served_by` names a survivor while `owner` still names
    // the dead ring owner, and that mismatch is the failover signal.
    let relay = &nodes[0];
    let before = relay.state().cluster().unwrap().forward_errors.get();
    let (status, v) = http(relay.addr(), "POST", "/v1/solve", Some(&config_body(&cfg)));
    assert_eq!(status, 200, "{}", v.encode());
    assert_ne!(str_field(&v, "served_by"), "gamma");
    assert_eq!(str_field(&v, "owner"), "gamma");
    assert!(
        relay.state().cluster().unwrap().forward_errors.get() > before,
        "failed forward must be counted"
    );

    // Heartbeats mark gamma dead; both survivors rebuild the ring and
    // agree on a new, live owner for the key.
    await_true("survivors mark gamma dead and reroute its keys", || {
        nodes.iter().all(|n| {
            let c = n.state().cluster().unwrap();
            c.members_alive() == 2 && c.owner_of(&key).as_deref() != Some("gamma")
        })
    });
    let new_owner = owner_of(&nodes[0], &key);
    assert_eq!(owner_of(&nodes[1], &key), new_owner);
    assert!(IDS[..2].contains(&new_owner.as_str()));

    // Post-rebuild solves carry the new owner and no forward errors.
    let (status, v) = http(
        nodes[1].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "owner"), new_owner.as_str());
    assert!(IDS[..2].contains(&str_field(&v, "served_by")));

    let (status, m) = http(nodes[0].addr(), "GET", "/v1/cluster/members", None);
    assert_eq!(status, 200);
    let gamma = m
        .get("members")
        .and_then(|x| x.as_array())
        .unwrap()
        .iter()
        .find(|member| str_field(member, "id") == "gamma")
        .expect("dead peers stay listed");
    assert_eq!(str_field(gamma, "health"), "dead");

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn fault_burst_death_and_rejoin_reconverges_ownership() {
    // FaultPlan-seeded chaos: gamma drops every connection it receives —
    // heartbeat probes included — for its first 40 requests, then recovers.
    // The cluster must mark it dead, reroute its keys, and, once the burst
    // ends, re-admit it and hand its arcs back.
    let cfg = config_owned_by("gamma");
    let key = solve_key(&cfg);
    let nodes = start_cluster(ClusterTuning {
        fault_on: Some((
            2,
            FaultSpec {
                seed: 7,
                window: Some(40),
                conn_drop_prob: 1.0,
                ..FaultSpec::default()
            },
        )),
        ..ClusterTuning::default()
    });

    // Phase 1: the burst kills gamma from the survivors' point of view.
    await_true("survivors mark the faulted node dead", || {
        nodes[..2].iter().all(|n| {
            let c = n.state().cluster().unwrap();
            c.members_alive() == 2 && c.owner_of(&key).as_deref() != Some("gamma")
        })
    });

    // Failover: gamma's key is still answerable through a survivor.
    let (status, v) = http(
        nodes[0].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_ne!(str_field(&v, "served_by"), "gamma");

    // Phase 2: heartbeats keep probing dead peers, draining the fault
    // window; gamma answers again, rejoins, and reclaims its arc.
    await_true("faulted node rejoins and reclaims ownership", || {
        nodes.iter().all(|n| {
            let c = n.state().cluster().unwrap();
            c.members_alive() == 3 && c.owner_of(&key).as_deref() == Some("gamma")
        })
    });
    let rebuilds = nodes[0].state().cluster().unwrap().ring_rebuilds.get();
    assert!(
        rebuilds >= 2,
        "death + rejoin must each rebuild the ring, saw {rebuilds}"
    );

    // Phase 3: forwarding to the recovered owner works again.
    let (status, v) = http(
        nodes[0].addr(),
        "POST",
        "/v1/solve",
        Some(&config_body(&cfg)),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert_eq!(str_field(&v, "served_by"), "gamma");
    assert_eq!(v.get("forwarded").and_then(|x| x.as_bool()), Some(true));

    for node in nodes {
        node.shutdown();
    }
}
