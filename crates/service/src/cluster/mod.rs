//! Clustering: N `latencyd` processes serving one logical solution
//! cache.
//!
//! Three pieces, each its own module:
//!
//! * [`ring`] — a consistent-hash ring with virtual nodes over the
//!   [`lt_core::wire::canonical_solve_key`] space. Every node builds the
//!   same ring from the same membership, so ownership needs no
//!   coordinator.
//! * [`membership`] — the deterministic Alive → Suspect → Dead failure
//!   detector fed by the heartbeat loop; Alive ↔ Dead edges rebuild the
//!   ring.
//! * [`forward`] — the std-only HTTP client used to forward requests to
//!   owners and to probe peers, with the `X-LT-Forwarded` hop guard.
//!
//! [`Cluster`] is the runtime that glues them together: it owns the
//! membership table and the current ring behind mutexes (membership is
//! always locked before the ring), the per-node counters served at
//! `GET /metrics`, and the heartbeat tick the server's gossip thread
//! calls. Heartbeat and gossip are one mechanism: the periodic
//! `GET /v1/cluster/members` probe both proves the peer alive and
//! returns its member list, from which unknown peers are learned.
//!
//! Consistency: the cache is content-addressed (the key is a hash of the
//! full request), so a stale ring can cause a request to be solved on
//! the "wrong" node — costing a duplicate solve, never a wrong answer.
//! Stale reads are impossible by construction. The same property makes
//! replica reads consistent: any node's answer for a key is the answer.
//!
//! Partition tolerance (PR 8) adds three mechanisms on top:
//!
//! * **Replica sets** — [`ring::HashRing::replicas_of`] names the owner
//!   plus `replicas - 1` distinct successors; forwarding tries them in
//!   order under a retry budget, so one dead owner no longer forces an
//!   immediate local solve.
//! * **Hinted handoff** — when a solve lands here for a key whose *home*
//!   node (its owner on the ring over all known members, dead ones
//!   included) is someone else, the solution is queued as a *hint* in a
//!   bounded queue and handed back over `POST /v1/cluster/hint` once
//!   that node is Alive again, so a healed partition re-converges the
//!   cache instead of losing it. Addressing hints by the home ring
//!   rather than the live ring matters: once the failure detector
//!   evicts the partitioned-away owner, the live ring claims its keys
//!   for the survivors and would never generate a hint. Queueing is
//!   lock-push only (safe from pool workers); draining runs on the
//!   gossip thread.
//! * **ChaosNet** — every inter-node exchange (probes, forwards, hint
//!   drains) is routed through the optional
//!   [`crate::fault::ChaosNet`], so partitions and lossy links are
//!   injected below the protocol, not mocked above it.

pub mod forward;
pub mod membership;
pub mod ring;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lt_core::json::{self, JsonValue};

use crate::fault::ChaosNet;
use crate::http::ParsedResponse;
use crate::metrics::Counter;
use crate::sync::lock_ok;
use forward::{ForwardError, FORWARD_MAX_BODY};
use membership::{Membership, MembershipEvent};
use ring::HashRing;

/// Tunables for cluster mode (carried in
/// [`crate::ServerConfig::cluster`]; `None` there means single-node).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's stable id (ring position derives from it).
    pub node_id: String,
    /// Static seed list: `(node_id, host:port)` pairs. More peers may be
    /// learned via gossip.
    pub peers: Vec<(String, String)>,
    /// Address advertised to peers in gossip. Empty → filled with the
    /// bound listen address at startup (the usual case).
    pub advertise_addr: String,
    /// Delay between heartbeat rounds.
    pub heartbeat_interval: Duration,
    /// Consecutive misses before a peer turns Suspect.
    pub suspect_after: u32,
    /// Consecutive misses before a peer turns Dead (ring rebuild).
    pub dead_after: u32,
    /// Most times a request may cross nodes before it must be served
    /// where it lands (loop guard).
    pub max_forward_hops: u32,
    /// Ceiling on any single forward/probe exchange. The *effective*
    /// per-hop timeout is the smaller of this and the request's
    /// remaining deadline split across remaining attempts.
    pub forward_timeout: Duration,
    /// Replica-set size: owner plus `replicas - 1` distinct successor
    /// nodes may answer for a key. 1 restores owner-only routing.
    pub replicas: usize,
    /// Bounded capacity of the hinted-handoff queue; the oldest hint is
    /// dropped (and counted) when a new one arrives at capacity.
    pub handoff_queue: usize,
    /// Most forward attempts (owner + replicas) per request before
    /// falling back to a local solve.
    pub retry_budget: u32,
    /// Deterministic link-fault injection for chaos suites. `None` (the
    /// production default) bypasses the model entirely.
    pub link_faults: Option<Arc<ChaosNet>>,
}

impl ClusterConfig {
    /// Defaults for everything but identity and peers.
    pub fn new(node_id: impl Into<String>) -> ClusterConfig {
        ClusterConfig {
            node_id: node_id.into(),
            peers: Vec::new(),
            advertise_addr: String::new(),
            heartbeat_interval: Duration::from_millis(500),
            suspect_after: 2,
            dead_after: 4,
            max_forward_hops: 1,
            forward_timeout: Duration::from_secs(2),
            replicas: 2,
            handoff_queue: 128,
            retry_budget: 2,
            link_faults: None,
        }
    }
}

/// One queued handoff: a solution computed here for a key another node
/// owns, awaiting delivery once that owner is Alive again.
#[derive(Debug, Clone)]
struct Hint {
    owner: String,
    key: String,
    report: JsonValue,
}

/// Per-node cluster runtime: membership + ring + counters.
pub struct Cluster {
    node_id: String,
    advertise_addr: Mutex<String>,
    /// Lock order: membership before ring before home_ring, always.
    membership: Mutex<Membership>,
    ring: Mutex<HashRing>,
    /// Ring over *all* known members regardless of health. Hinted
    /// handoff addresses solutions to a key's owner in the healthy
    /// cluster — which the live ring forgets the moment the failure
    /// detector evicts that owner.
    home_ring: Mutex<HashRing>,
    /// Requests answered by local compute or cache.
    pub hits_local: Counter,
    /// Requests answered via a successful forward.
    pub hits_forwarded: Counter,
    /// Failed forwards (each fell back to another replica or a local
    /// solve).
    pub forward_errors: Counter,
    /// Ring rebuilds since startup (the initial build is not counted).
    pub ring_rebuilds: Counter,
    /// Entries into a partitioned regime (first peer declared Dead while
    /// none were).
    pub partitions_observed: Counter,
    /// Forward attempts beyond a request's first.
    pub forward_retries: Counter,
    /// Forwarded hits answered by a non-owner replica.
    pub(crate) replica_hits: Counter,
    /// Requests whose remaining deadline was too small to risk (more)
    /// forwarding.
    pub(crate) budget_exhausted: Counter,
    /// Hints accepted into the handoff queue.
    pub handoff_queued: Counter,
    /// Hints delivered to their owner.
    pub handoff_delivered: Counter,
    /// Hints dropped (queue overflow, unknown owner, or owner rejected).
    pub handoff_dropped: Counter,
    /// Bounded hinted-handoff queue (lock independent of membership and
    /// ring; never held across network I/O).
    hints: Mutex<VecDeque<Hint>>,
    handoff_capacity: usize,
    replicas: usize,
    retry_budget: u32,
    max_forward_hops: u32,
    forward_timeout: Duration,
    heartbeat_interval: Duration,
    chaos: Option<Arc<ChaosNet>>,
}

impl Cluster {
    /// Build the runtime from its config. The initial ring (self + all
    /// seeds, everyone presumed Alive) does not count as a rebuild.
    pub fn new(cfg: &ClusterConfig) -> Cluster {
        let membership = Membership::new(
            cfg.node_id.clone(),
            &cfg.peers,
            cfg.suspect_after,
            cfg.dead_after,
        );
        let ring = HashRing::build(&membership.ring_members());
        let home_ring = HashRing::build(&membership.all_members());
        Cluster {
            node_id: cfg.node_id.clone(),
            advertise_addr: Mutex::new(cfg.advertise_addr.clone()),
            membership: Mutex::new(membership),
            ring: Mutex::new(ring),
            home_ring: Mutex::new(home_ring),
            hits_local: Counter::default(),
            hits_forwarded: Counter::default(),
            forward_errors: Counter::default(),
            ring_rebuilds: Counter::default(),
            partitions_observed: Counter::default(),
            forward_retries: Counter::default(),
            replica_hits: Counter::default(),
            budget_exhausted: Counter::default(),
            handoff_queued: Counter::default(),
            handoff_delivered: Counter::default(),
            handoff_dropped: Counter::default(),
            hints: Mutex::new(VecDeque::new()),
            handoff_capacity: cfg.handoff_queue,
            replicas: cfg.replicas.max(1),
            retry_budget: cfg.retry_budget.max(1),
            max_forward_hops: cfg.max_forward_hops,
            forward_timeout: cfg.forward_timeout,
            heartbeat_interval: cfg.heartbeat_interval,
            chaos: cfg.link_faults.clone(),
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    /// Hop budget for forwarded requests.
    pub fn max_forward_hops(&self) -> u32 {
        self.max_forward_hops
    }

    /// Per-exchange forward/probe timeout ceiling.
    pub fn forward_timeout(&self) -> Duration {
        self.forward_timeout
    }

    /// Replica-set size.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Most forward attempts per request.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// The chaos model, when one is installed.
    pub fn chaos(&self) -> Option<&ChaosNet> {
        self.chaos.as_deref()
    }

    /// Delay between heartbeat rounds.
    pub fn heartbeat_interval(&self) -> Duration {
        self.heartbeat_interval
    }

    /// Set the address gossiped to peers (called once at bind with the
    /// real listen address, unless the config pinned one).
    pub fn set_advertise_addr(&self, addr: &str) {
        let mut a = lock_ok(&self.advertise_addr);
        if a.is_empty() {
            *a = addr.to_string();
        }
    }

    /// Ring owner of `key` (`None` never happens in practice: the ring
    /// always contains at least this node).
    pub fn owner_of(&self, key: &str) -> Option<String> {
        lock_ok(&self.ring).owner_of(key).map(str::to_string)
    }

    /// The replica set for `key` (owner first), sized by the configured
    /// replica count.
    pub fn replicas_of(&self, key: &str) -> Vec<String> {
        lock_ok(&self.ring)
            .replicas_of(key, self.replicas)
            .into_iter()
            .map(str::to_string)
            .collect()
    }

    /// Owner of `key` on the ring over *all* known members, dead ones
    /// included: the node that owns the key in the healthy cluster.
    /// Hinted handoff addresses solutions here, not to [`Self::owner_of`]
    /// — after the failure detector evicts a partitioned-away owner, the
    /// live ring says the key is ours, but the heal will hand it back.
    pub fn home_of(&self, key: &str) -> Option<String> {
        lock_ok(&self.home_ring).owner_of(key).map(str::to_string)
    }

    /// Address of a known peer.
    pub fn addr_of(&self, id: &str) -> Option<String> {
        lock_ok(&self.membership).addr_of(id).map(str::to_string)
    }

    /// Hints currently waiting for their owner.
    pub fn hints_pending(&self) -> usize {
        lock_ok(&self.hints).len()
    }

    /// Members currently Alive, counting self.
    pub fn members_alive(&self) -> usize {
        lock_ok(&self.membership).members_alive()
    }

    /// Rebuild the ring from the current membership — idempotently: the
    /// probe loop and a gossip merge can both observe the same rejoin in
    /// one tick and double-fire a rebuild event, so a rebuild that would
    /// not change the ring neither swaps it nor counts.
    fn rebuild_ring(&self, m: &Membership) {
        {
            let next = HashRing::build(&m.ring_members());
            let mut ring = lock_ok(&self.ring);
            if *ring != next {
                *ring = next;
                self.ring_rebuilds.inc();
            }
        }
        // The home ring tracks the full member set (it only changes when
        // a brand-new peer is learned), also idempotently and uncounted.
        let home_next = HashRing::build(&m.all_members());
        let mut home = lock_ok(&self.home_ring);
        if *home != home_next {
            *home = home_next;
        }
    }

    /// Feed a successful probe/forward of `id` to the failure detector.
    pub fn peer_success(&self, id: &str) {
        let mut m = lock_ok(&self.membership);
        if let Some(ev) = m.record_success(id) {
            if ev.rebuilds_ring() {
                self.rebuild_ring(&m);
            }
        }
    }

    /// Feed a failed probe/forward of `id` to the failure detector.
    pub fn peer_failure(&self, id: &str) {
        let mut m = lock_ok(&self.membership);
        if let Some(ev) = m.record_failure(id) {
            // The first death while no peer was dead marks the cluster
            // entering a partitioned regime (a crash is indistinguishable
            // from here, and counts the same).
            if matches!(ev, MembershipEvent::Died(_)) && m.members_dead() == 1 {
                self.partitions_observed.inc();
            }
            if ev.rebuilds_ring() {
                self.rebuild_ring(&m);
            }
        }
    }

    /// One HTTP exchange with peer `id`, routed through the chaos model
    /// when one is installed. All inter-node traffic (probes, forwards,
    /// hint deliveries) goes through here so chaos covers every byte.
    pub fn exchange_with(
        &self,
        id: &str,
        method: &str,
        path: &str,
        body: &[u8],
        hops: u32,
        timeout: Duration,
    ) -> Result<ParsedResponse, ForwardError> {
        let Some(addr) = self.addr_of(id) else {
            return Err(ForwardError::Transport(format!("no address for peer {id}")));
        };
        self.exchange_addr(id, &addr, method, path, body, hops, timeout)
    }

    #[allow(clippy::too_many_arguments)]
    fn exchange_addr(
        &self,
        id: &str,
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
        hops: u32,
        timeout: Duration,
    ) -> Result<ParsedResponse, ForwardError> {
        forward::exchange_link(
            self.chaos.as_deref(),
            &self.node_id,
            id,
            addr,
            method,
            path,
            body,
            hops,
            timeout,
            FORWARD_MAX_BODY,
        )
    }

    /// Queue a solution for `key` to be handed to `owner` once it is
    /// Alive. Deduplicates by key (the newest report wins); at capacity
    /// the oldest hint is dropped and counted. This only pushes under a
    /// private lock — no network, safe from solve-pool workers.
    pub fn queue_hint(&self, owner: String, key: String, report: JsonValue) {
        if self.handoff_capacity == 0 {
            self.handoff_dropped.inc();
            return;
        }
        let mut hints = lock_ok(&self.hints);
        if let Some(existing) = hints.iter_mut().find(|h| h.key == key) {
            existing.owner = owner;
            existing.report = report;
            return;
        }
        if hints.len() >= self.handoff_capacity {
            hints.pop_front();
            self.handoff_dropped.inc();
        }
        hints.push_back(Hint { owner, key, report });
        self.handoff_queued.inc();
    }

    /// Deliver queued hints whose owner is Alive (one pass; called from
    /// the gossip thread after each heartbeat tick). Hints for dead or
    /// suspect owners are requeued untouched; a transport failure stops
    /// the pass (the peer will be retried next tick and the failure is
    /// fed to the detector); an owner that answers with a non-200
    /// rejects the hint, which is dropped rather than retried forever.
    pub fn drain_hints(&self) {
        let pending = self.hints_pending();
        for _ in 0..pending {
            let Some(hint) = lock_ok(&self.hints).pop_front() else {
                break;
            };
            let (alive, addr) = {
                let m = lock_ok(&self.membership);
                (
                    m.is_alive(&hint.owner),
                    m.addr_of(&hint.owner).map(str::to_string),
                )
            };
            let Some(addr) = addr else {
                // The owner is no longer a known member at all.
                self.handoff_dropped.inc();
                continue;
            };
            if !alive {
                lock_ok(&self.hints).push_back(hint);
                continue;
            }
            let body = json::encode(&JsonValue::object(vec![
                ("key", hint.key.as_str().into()),
                ("report", hint.report.clone()),
            ]));
            let outcome = self.exchange_addr(
                &hint.owner,
                &addr,
                "POST",
                "/v1/cluster/hint",
                body.as_bytes(),
                0,
                self.forward_timeout,
            );
            match outcome {
                Ok(resp) if resp.status == 200 => {
                    self.handoff_delivered.inc();
                    self.peer_success(&hint.owner);
                }
                Ok(_) => {
                    self.handoff_dropped.inc();
                }
                Err(e) => {
                    if e.is_transport() {
                        self.peer_failure(&hint.owner);
                    }
                    lock_ok(&self.hints).push_back(hint);
                    break;
                }
            }
        }
    }

    /// The `GET /v1/cluster/members` document: this node's identity plus
    /// its full member table (self included, always alive from its own
    /// point of view).
    pub fn members_doc(&self) -> JsonValue {
        let advertise = lock_ok(&self.advertise_addr).clone();
        let m = lock_ok(&self.membership);
        let mut members = vec![JsonValue::object(vec![
            ("id", self.node_id.as_str().into()),
            ("addr", advertise.as_str().into()),
            ("health", "alive".into()),
        ])];
        for p in m.peers() {
            members.push(JsonValue::object(vec![
                ("id", p.id.as_str().into()),
                ("addr", p.addr.as_str().into()),
                ("health", p.health.label().into()),
            ]));
        }
        let ring_nodes: Vec<JsonValue> = lock_ok(&self.ring)
            .nodes()
            .iter()
            .map(|n| n.as_str().into())
            .collect();
        JsonValue::object(vec![
            ("node_id", self.node_id.as_str().into()),
            ("addr", advertise.as_str().into()),
            ("members", JsonValue::Array(members)),
            ("ring_nodes", JsonValue::Array(ring_nodes)),
        ])
    }

    /// Gossip merge: learn any peer in a members document we have never
    /// heard of (dead entries and self are skipped — a peer another node
    /// gave up on must prove itself to us directly).
    pub fn merge_members(&self, doc: &JsonValue) {
        let Some(list) = doc.get("members").and_then(|m| m.as_array()) else {
            return;
        };
        for entry in list {
            let (Some(id), Some(addr)) = (
                entry.get("id").and_then(|v| v.as_str()),
                entry.get("addr").and_then(|v| v.as_str()),
            ) else {
                continue;
            };
            if addr.is_empty() || entry.get("health").and_then(|v| v.as_str()) == Some("dead") {
                continue;
            }
            let mut m = lock_ok(&self.membership);
            if let Some(ev) = m.learn(id, addr) {
                if ev.rebuilds_ring() {
                    self.rebuild_ring(&m);
                }
            }
        }
    }

    /// The `cluster` object embedded in `GET /metrics`.
    pub fn metrics_doc(&self) -> JsonValue {
        let owned = lock_ok(&self.ring).owned_ratio(&self.node_id);
        JsonValue::object(vec![
            ("node_id", self.node_id.as_str().into()),
            ("owned_keys_ratio", owned.into()),
            ("hits_local", (&self.hits_local).into()),
            ("hits_forwarded", (&self.hits_forwarded).into()),
            ("forward_errors", (&self.forward_errors).into()),
            ("members_alive", self.members_alive().into()),
            ("ring_rebuilds", (&self.ring_rebuilds).into()),
            ("partitions_observed", (&self.partitions_observed).into()),
            (
                "forward",
                JsonValue::object(vec![
                    ("retries", (&self.forward_retries).into()),
                    ("replica_hits", (&self.replica_hits).into()),
                    ("budget_exhausted", (&self.budget_exhausted).into()),
                ]),
            ),
            (
                "handoff",
                JsonValue::object(vec![
                    ("queued", (&self.handoff_queued).into()),
                    ("delivered", (&self.handoff_delivered).into()),
                    ("dropped", (&self.handoff_dropped).into()),
                    ("pending", self.hints_pending().into()),
                ]),
            ),
        ])
    }

    /// One heartbeat round: probe every known peer (dead ones included —
    /// that is how a rejoin is noticed) with `GET /v1/cluster/members`,
    /// feed the outcome to the failure detector, and merge the member
    /// lists of the peers that answered. A peer that answers with the
    /// wrong `node_id` (address reuse after a restart under a new
    /// identity) counts as a miss.
    pub fn heartbeat_tick(&self) {
        let peers: Vec<(String, String)> = {
            let m = lock_ok(&self.membership);
            m.peers()
                .iter()
                .map(|p| (p.id.clone(), p.addr.clone()))
                .collect()
        };
        for (id, addr) in peers {
            let outcome = self.exchange_addr(
                &id,
                &addr,
                "GET",
                "/v1/cluster/members",
                b"",
                0,
                self.forward_timeout,
            );
            let doc = match outcome {
                Ok(resp) if resp.status == 200 => std::str::from_utf8(&resp.body)
                    .ok()
                    .and_then(|text| json::parse(text).ok()),
                _ => None,
            };
            match doc {
                Some(doc) if doc.get("node_id").and_then(|v| v.as_str()) == Some(id.as_str()) => {
                    self.peer_success(&id);
                    self.merge_members(&doc);
                }
                _ => self.peer_failure(&id),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node_cfg(me: &str) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(me);
        cfg.peers = ["a", "b", "c"]
            .iter()
            .filter(|id| **id != me)
            .map(|id| (id.to_string(), format!("127.0.0.1:{}", 7000)))
            .collect();
        cfg
    }

    #[test]
    fn replicas_agree_on_ownership_without_talking() {
        let a = Cluster::new(&three_node_cfg("a"));
        let b = Cluster::new(&three_node_cfg("b"));
        let c = Cluster::new(&three_node_cfg("c"));
        for i in 0..100 {
            let key = format!("v1;cfg={i};solver=auto");
            let owner = a.owner_of(&key);
            assert_eq!(owner, b.owner_of(&key));
            assert_eq!(owner, c.owner_of(&key));
        }
    }

    #[test]
    fn death_and_rejoin_drive_ring_rebuilds() {
        let cl = Cluster::new(&three_node_cfg("a"));
        assert_eq!(cl.ring_rebuilds.get(), 0, "initial build is free");
        assert_eq!(cl.members_alive(), 3);

        // Walk b to Dead: suspect_after=2 misses suspect it (no
        // rebuild), dead_after=4 misses kill it (one rebuild).
        for _ in 0..3 {
            cl.peer_failure("b");
        }
        assert_eq!(cl.ring_rebuilds.get(), 0, "suspect does not rebuild");
        cl.peer_failure("b");
        assert_eq!(cl.ring_rebuilds.get(), 1);
        assert_eq!(cl.members_alive(), 2);
        // Every key b owned now lands on a or c.
        for i in 0..200 {
            let owner = cl.owner_of(&format!("key-{i}")).unwrap();
            assert_ne!(owner, "b");
        }

        cl.peer_success("b");
        assert_eq!(cl.ring_rebuilds.get(), 2, "rejoin rebuilds");
        assert_eq!(cl.members_alive(), 3);
        let fresh = Cluster::new(&three_node_cfg("a"));
        for i in 0..200 {
            let key = format!("key-{i}");
            assert_eq!(
                cl.owner_of(&key),
                fresh.owner_of(&key),
                "rejoined ring matches the original assignment"
            );
        }
    }

    #[test]
    fn members_doc_round_trips_through_merge() {
        let a = Cluster::new(&three_node_cfg("a"));
        a.set_advertise_addr("127.0.0.1:9001");
        // A fourth node only a knows about.
        {
            let mut m = lock_ok(&a.membership);
            let ev = m.learn("d", "127.0.0.1:9004");
            assert!(ev.is_some());
            a.rebuild_ring(&m);
        }
        let doc = a.members_doc();
        assert_eq!(doc.get("node_id").and_then(|v| v.as_str()), Some("a"));

        let b = Cluster::new(&three_node_cfg("b"));
        assert!(b.owner_of("k").is_some());
        b.merge_members(&doc);
        assert_eq!(b.addr_of("d"), Some("127.0.0.1:9004".to_string()));
        assert_eq!(
            b.addr_of("a"),
            Some("127.0.0.1:9001".to_string()),
            "gossip refreshes a known peer's address to what it advertises"
        );
        assert_eq!(b.ring_rebuilds.get(), 1, "learning d rebuilt b's ring");
        // Both now agree on the 4-node assignment.
        let a_doc = json::parse(&json::encode(&a.members_doc())).unwrap();
        let names: Vec<&str> = a_doc
            .get("ring_nodes")
            .and_then(|v| v.as_array())
            .map(|arr| arr.iter().filter_map(|n| n.as_str()).collect())
            .unwrap_or_default();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        for i in 0..100 {
            let key = format!("key-{i}");
            assert_eq!(a.owner_of(&key), b.owner_of(&key));
        }
    }

    #[test]
    fn merge_skips_dead_and_self_entries() {
        let a = Cluster::new(&three_node_cfg("a"));
        let doc = JsonValue::object(vec![(
            "members",
            JsonValue::Array(vec![
                JsonValue::object(vec![
                    ("id", "zombie".into()),
                    ("addr", "127.0.0.1:1".into()),
                    ("health", "dead".into()),
                ]),
                JsonValue::object(vec![
                    ("id", "a".into()),
                    ("addr", "127.0.0.1:2".into()),
                    ("health", "alive".into()),
                ]),
            ]),
        )]);
        a.merge_members(&doc);
        assert_eq!(a.addr_of("zombie"), None);
        assert_eq!(a.ring_rebuilds.get(), 0);
    }

    #[test]
    fn metrics_doc_has_the_advertised_counters() {
        let cl = Cluster::new(&three_node_cfg("a"));
        cl.hits_local.inc();
        cl.hits_forwarded.inc();
        cl.hits_forwarded.inc();
        cl.forward_errors.inc();
        let doc = cl.metrics_doc();
        assert_eq!(doc.get("hits_local").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("hits_forwarded").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(doc.get("forward_errors").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("members_alive").and_then(|v| v.as_u64()), Some(3));
        let ratio = doc
            .get("owned_keys_ratio")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(ratio > 0.0 && ratio < 1.0, "{ratio}");
    }

    #[test]
    fn double_fired_rejoin_rebuilds_the_ring_exactly_once() {
        // Under a long partition the dead-peer re-probe and a gossip
        // merge can both observe the same rejoin in one tick. The second
        // rebuild must be a no-op: same membership, same ring, no count.
        let cl = Cluster::new(&three_node_cfg("a"));
        for _ in 0..4 {
            cl.peer_failure("b");
        }
        assert_eq!(cl.ring_rebuilds.get(), 1, "death rebuilds once");
        cl.peer_success("b");
        assert_eq!(cl.ring_rebuilds.get(), 2, "rejoin rebuilds once");
        // Double fire: force the rebuild path again with unchanged
        // membership, as the second Rejoined observer would.
        {
            let m = lock_ok(&cl.membership);
            cl.rebuild_ring(&m);
            cl.rebuild_ring(&m);
        }
        assert_eq!(
            cl.ring_rebuilds.get(),
            2,
            "idempotent: unchanged ring does not count"
        );
        // And a redundant success (probe + gossip in the same tick) is
        // silent too.
        cl.peer_success("b");
        assert_eq!(cl.ring_rebuilds.get(), 2);
    }

    #[test]
    fn first_death_counts_one_partition_entry() {
        let cl = Cluster::new(&three_node_cfg("a"));
        assert_eq!(cl.partitions_observed.get(), 0);
        for _ in 0..4 {
            cl.peer_failure("b");
        }
        assert_eq!(
            cl.partitions_observed.get(),
            1,
            "entering the partitioned regime"
        );
        for _ in 0..4 {
            cl.peer_failure("c");
        }
        assert_eq!(
            cl.partitions_observed.get(),
            1,
            "a second death inside the same regime does not re-count"
        );
        cl.peer_success("b");
        cl.peer_success("c");
        for _ in 0..4 {
            cl.peer_failure("c");
        }
        assert_eq!(
            cl.partitions_observed.get(),
            2,
            "a fresh regime counts again"
        );
    }

    #[test]
    fn replica_sets_follow_the_configured_size() {
        let mut cfg = three_node_cfg("a");
        cfg.replicas = 2;
        let cl = Cluster::new(&cfg);
        for i in 0..50 {
            let key = format!("key-{i}");
            let reps = cl.replicas_of(&key);
            assert_eq!(reps.len(), 2);
            assert_eq!(Some(reps[0].clone()), cl.owner_of(&key));
            assert_ne!(reps[0], reps[1]);
        }
    }

    #[test]
    fn home_ring_survives_deaths_the_live_ring_forgets() {
        let cl = Cluster::new(&three_node_cfg("a"));
        // Find a key b owns, kill b: the live ring reassigns it, the
        // home ring still names b — that is where the hint must go.
        let key = (0..200)
            .map(|i| format!("key-{i}"))
            .find(|k| cl.owner_of(k).as_deref() == Some("b"))
            .expect("some key is owned by b");
        for _ in 0..4 {
            cl.peer_failure("b");
        }
        assert_ne!(cl.owner_of(&key).as_deref(), Some("b"));
        assert_eq!(cl.home_of(&key).as_deref(), Some("b"));
        cl.peer_success("b");
        assert_eq!(cl.owner_of(&key).as_deref(), Some("b"));
    }

    #[test]
    fn hint_queue_is_bounded_and_deduplicates_by_key() {
        let mut cfg = three_node_cfg("a");
        cfg.handoff_queue = 2;
        let cl = Cluster::new(&cfg);
        cl.queue_hint("b".into(), "k1".into(), JsonValue::object(vec![]));
        cl.queue_hint("b".into(), "k2".into(), JsonValue::object(vec![]));
        assert_eq!(cl.handoff_queued.get(), 2);
        assert_eq!(cl.hints_pending(), 2);

        // Same key again: replaced in place, not recounted.
        cl.queue_hint(
            "b".into(),
            "k2".into(),
            JsonValue::object(vec![("x", 1u64.into())]),
        );
        assert_eq!(cl.handoff_queued.get(), 2);
        assert_eq!(cl.hints_pending(), 2);

        // Capacity overflow: oldest dropped and counted.
        cl.queue_hint("c".into(), "k3".into(), JsonValue::object(vec![]));
        assert_eq!(cl.handoff_queued.get(), 3);
        assert_eq!(cl.handoff_dropped.get(), 1);
        assert_eq!(cl.hints_pending(), 2);
    }

    #[test]
    fn drain_requeues_hints_for_dead_owners() {
        let cl = Cluster::new(&three_node_cfg("a"));
        for _ in 0..4 {
            cl.peer_failure("b");
        }
        cl.queue_hint("b".into(), "k1".into(), JsonValue::object(vec![]));
        cl.drain_hints();
        assert_eq!(cl.hints_pending(), 1, "dead owner: hint waits");
        assert_eq!(cl.handoff_delivered.get(), 0);
        assert_eq!(cl.handoff_dropped.get(), 0);

        // An owner that vanished from membership entirely drops the hint.
        cl.queue_hint("ghost".into(), "k2".into(), JsonValue::object(vec![]));
        cl.drain_hints();
        assert_eq!(cl.handoff_dropped.get(), 1);
    }

    #[test]
    fn advertise_addr_is_set_once() {
        let cl = Cluster::new(&ClusterConfig::new("solo"));
        cl.set_advertise_addr("127.0.0.1:1111");
        cl.set_advertise_addr("127.0.0.1:2222");
        let doc = cl.members_doc();
        assert_eq!(
            doc.get("addr").and_then(|v| v.as_str()),
            Some("127.0.0.1:1111")
        );
        assert_eq!(cl.owner_of("k"), Some("solo".to_string()));
    }
}
