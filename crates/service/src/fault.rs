//! Deterministic fault injection for chaos-testing `latencyd`.
//!
//! A [`FaultPlan`] draws one [`FaultDecision`] per request from a seeded
//! [`lt_desim::SimRng`] substream keyed by the request's admission index,
//! so the injected fault sequence is a pure function of `(seed, index)` —
//! independent of thread interleaving, wall clock, and connection reuse.
//! The plan is wired through [`crate::ServerConfig::fault_plan`]: `None`
//! (the production default) costs one branch per request and allocates
//! nothing.
//!
//! The fault taxonomy mirrors what operating the service has to survive:
//!
//! | fault            | injected where                  | expected outcome |
//! |------------------|---------------------------------|------------------|
//! | `latency`        | before dispatch                 | slower answer, deadline still enforced |
//! | `worker_panic`   | inside the pool job             | worker respawned; bounded retry or structured `worker_lost` |
//! | `no_convergence` | primary solver forced to fail   | tagged degraded/bounds answer; breaker failure |
//! | `cache_corrupt`  | cache key mangled               | treated as a miss; fresh result not cached |
//! | `conn_drop`      | connection closed, not answered | clean connection close, no partial write |
//!
//! Cluster mode adds a second, independent fault surface: the network
//! between nodes. [`ChaosNet`] models each directed link with a
//! [`LinkFaultSpec`] (drop, delay, duplicate) plus an optional
//! [`Partition`] (full or one-way node-set bisection), drawn
//! deterministically from `SimRng::substream(seed ^ link_index, message
//! index)` so a partition scenario replays bit-for-bit. The production
//! path carries `None` and costs nothing.

use lt_core::json::JsonValue;
use lt_desim::SimRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::Counter;
use crate::sync::lock_ok;

/// Probabilities and magnitudes of the injectable faults. All
/// probabilities default to zero (inject nothing).
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Seed of the per-request decision stream.
    pub seed: u64,
    /// Inject only into the first `window` requests; `None` means always.
    /// A finite window lets a test drive a fault burst and then observe
    /// recovery on the same server.
    pub window: Option<u64>,
    /// Probability of an artificial pre-dispatch delay.
    pub latency_prob: f64,
    /// The delay injected when `latency_prob` fires.
    pub latency: Duration,
    /// Probability the pool job panics (killing its worker thread).
    pub worker_panic_prob: f64,
    /// Probability the primary solver is forced to fail, exercising the
    /// degradation ladder and the circuit breaker.
    pub no_convergence_prob: f64,
    /// Probability the cache key is mangled (lookup misses, result is not
    /// cached).
    pub cache_corrupt_prob: f64,
    /// Probability the connection is dropped instead of answered.
    pub conn_drop_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            window: None,
            latency_prob: 0.0,
            latency: Duration::ZERO,
            worker_panic_prob: 0.0,
            no_convergence_prob: 0.0,
            cache_corrupt_prob: 0.0,
            conn_drop_prob: 0.0,
        }
    }
}

/// The faults drawn for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Sleep this long before dispatching.
    pub latency: Option<Duration>,
    /// Panic inside the pool job (via [`detonate`]).
    pub worker_panic: bool,
    /// Force the primary solver down the degradation ladder.
    pub no_convergence: bool,
    /// Mangle the cache key for this request.
    pub cache_corrupt: bool,
    /// Drop the connection instead of writing a response.
    pub conn_drop: bool,
}

/// A seeded fault plan plus counters of what actually fired.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Requests that have drawn a decision: the next request's index in
    /// the decision stream, and the `requests_seen` metric.
    requests_seen: AtomicU64,
    /// Pre-dispatch delays injected.
    pub injected_latency: Counter,
    /// Pool jobs detonated.
    pub injected_worker_panics: Counter,
    /// Primary solvers forced to fail.
    pub injected_no_convergence: Counter,
    /// Cache keys mangled.
    pub injected_cache_corruptions: Counter,
    /// Connections dropped unanswered.
    pub injected_conn_drops: Counter,
}

impl FaultPlan {
    /// A plan drawing from `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan {
            spec,
            requests_seen: AtomicU64::new(0),
            injected_latency: Counter::default(),
            injected_worker_panics: Counter::default(),
            injected_no_convergence: Counter::default(),
            injected_cache_corruptions: Counter::default(),
            injected_conn_drops: Counter::default(),
        }
    }

    /// Draw the decision for the next request. The draw is a pure
    /// function of `(spec.seed, admission index)`.
    pub fn next(&self) -> FaultDecision {
        let index = self.requests_seen.fetch_add(1, Ordering::Relaxed);
        if self.spec.window.is_some_and(|w| index >= w) {
            return FaultDecision::default();
        }
        let mut rng = SimRng::substream(self.spec.seed, index);
        let decision = FaultDecision {
            latency: rng
                .bernoulli(self.spec.latency_prob)
                .then_some(self.spec.latency),
            worker_panic: rng.bernoulli(self.spec.worker_panic_prob),
            no_convergence: rng.bernoulli(self.spec.no_convergence_prob),
            cache_corrupt: rng.bernoulli(self.spec.cache_corrupt_prob),
            conn_drop: rng.bernoulli(self.spec.conn_drop_prob),
        };
        for (fired, counter) in [
            (decision.latency.is_some(), &self.injected_latency),
            (decision.worker_panic, &self.injected_worker_panics),
            (decision.no_convergence, &self.injected_no_convergence),
            (decision.cache_corrupt, &self.injected_cache_corruptions),
            (decision.conn_drop, &self.injected_conn_drops),
        ] {
            if fired {
                counter.inc();
            }
        }
        decision
    }

    /// The `fault_injection` object of the `/metrics` document.
    pub fn metrics_doc(&self) -> JsonValue {
        JsonValue::object(vec![
            (
                "requests_seen",
                self.requests_seen.load(Ordering::Relaxed).into(),
            ),
            ("injected_latency", (&self.injected_latency).into()),
            (
                "injected_worker_panics",
                (&self.injected_worker_panics).into(),
            ),
            (
                "injected_no_convergence",
                (&self.injected_no_convergence).into(),
            ),
            (
                "injected_cache_corruptions",
                (&self.injected_cache_corruptions).into(),
            ),
            ("injected_conn_drops", (&self.injected_conn_drops).into()),
        ])
    }
}

/// Deliberately kill the calling worker thread. Only fault injection
/// calls this; it exists so the panic lives in exactly one audited place.
pub fn detonate() -> ! {
    // lt-lint: allow(LT01, fault injection: killing the worker thread is the tested failure mode itself)
    panic!("fault injection: worker detonated")
}

/// Mangle a cache key so the lookup misses. The prefix cannot occur in a
/// canonical key (those start with a version tag), so a corrupted lookup
/// can never alias a real entry.
pub fn corrupt_key(key: &str) -> String {
    format!("!corrupt!{key}")
}

/// Probabilities and magnitudes of the per-link network faults injected
/// by a [`ChaosNet`]. All probabilities default to zero, so a default
/// spec plus [`ChaosNet::set_partition`] gives pure, noise-free
/// partition scenarios.
#[derive(Debug, Clone)]
pub struct LinkFaultSpec {
    /// Seed of the per-link decision streams. Each directed link draws
    /// from `SimRng::substream(seed ^ link_index, message index)`, so the
    /// full fault schedule is a pure function of `(seed, link, index)`.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delayed by `delay` before sending.
    pub delay_prob: f64,
    /// The delay injected when `delay_prob` fires.
    pub delay: Duration,
    /// Probability a message is sent twice (the duplicate's response is
    /// discarded; idempotent endpoints must tolerate it).
    pub duplicate_prob: f64,
}

impl Default for LinkFaultSpec {
    fn default() -> Self {
        LinkFaultSpec {
            seed: 0,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            duplicate_prob: 0.0,
        }
    }
}

/// A partition of the cluster by node-set bisection: `side` versus
/// everyone else. `Full` severs both directions; `OneWay` severs only
/// messages *from* `side`, modelling the asymmetric link where A's
/// requests vanish but B's requests reach A and then B never hears the
/// response — the case that makes failure detectors disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    side: Vec<String>,
    one_way: bool,
}

impl Partition {
    /// A full bisection: no message crosses between `side` and the rest.
    pub fn full<S: Into<String>>(side: impl IntoIterator<Item = S>) -> Self {
        Partition {
            side: side.into_iter().map(Into::into).collect(),
            one_way: false,
        }
    }

    /// An asymmetric bisection: messages *from* `side` to the rest are
    /// severed; messages toward `side` are delivered but their responses
    /// (which travel from `side`) are lost.
    pub fn one_way<S: Into<String>>(side: impl IntoIterator<Item = S>) -> Self {
        Partition {
            side: side.into_iter().map(Into::into).collect(),
            one_way: true,
        }
    }

    /// Whether a message from `src` to `dst` is severed by this
    /// partition.
    pub fn severs(&self, src: &str, dst: &str) -> bool {
        let src_inside = self.side.iter().any(|n| n == src);
        let dst_inside = self.side.iter().any(|n| n == dst);
        if src_inside == dst_inside {
            return false; // same side: unaffected
        }
        if self.one_way {
            src_inside
        } else {
            true
        }
    }
}

/// What a [`ChaosNet`] decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Send normally.
    Deliver,
    /// Lose the message (probabilistic drop or severed by a partition).
    Drop,
    /// Sleep this long, then send with whatever timeout remains.
    Delay(Duration),
    /// Send the message twice; keep the first response.
    Duplicate,
}

/// A deterministic model of the network between cluster nodes.
///
/// One `ChaosNet` is shared (via `Arc`) by every in-process test node,
/// so [`set_partition`](ChaosNet::set_partition) bisects the whole
/// cluster atomically. Each directed link keeps its own message counter;
/// decision `i` on link `src→dst` is drawn from
/// `SimRng::substream(spec.seed ^ fnv1a(src, dst), i)` and is therefore
/// reproducible across runs regardless of thread interleaving on other
/// links.
#[derive(Debug, Default)]
pub struct ChaosNet {
    spec: LinkFaultSpec,
    partition: Mutex<Option<Partition>>,
    /// Messages attempted per directed link, keyed by link index.
    link_messages: Mutex<BTreeMap<u64, u64>>,
    /// Messages lost to a probabilistic drop.
    pub(crate) dropped: Counter,
    /// Messages delayed before sending.
    pub(crate) delayed: Counter,
    /// Messages sent twice.
    pub(crate) duplicated: Counter,
    /// Messages (or responses) severed by a partition.
    pub(crate) severed: Counter,
}

impl ChaosNet {
    /// A network drawing from `spec`, initially unpartitioned.
    pub fn new(spec: LinkFaultSpec) -> Self {
        ChaosNet {
            spec,
            ..ChaosNet::default()
        }
    }

    /// The stable index of the directed link `src→dst` (FNV-1a over
    /// `src`, a separator byte, `dst`).
    pub fn link_index(src: &str, dst: &str) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for byte in src.as_bytes().iter().chain(&[0x01u8]).chain(dst.as_bytes()) {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// Install (or with `None`, heal) a partition. Takes effect for the
    /// next message on every link simultaneously.
    pub fn set_partition(&self, partition: Option<Partition>) {
        *lock_ok(&self.partition) = partition;
    }

    /// The currently installed partition, if any.
    pub fn partition(&self) -> Option<Partition> {
        lock_ok(&self.partition).clone()
    }

    /// Whether the response path `dst→src` of an already-delivered
    /// request is severed by the current partition. Models the one-way
    /// link: the request got through, the answer never comes back.
    pub fn response_severed(&self, src: &str, dst: &str) -> bool {
        let severed = lock_ok(&self.partition)
            .as_ref()
            .is_some_and(|p| p.severs(dst, src));
        if severed {
            self.severed.inc();
        }
        severed
    }

    /// Draw the fate of the next message on `src→dst`.
    pub fn decide(&self, src: &str, dst: &str) -> LinkDecision {
        if lock_ok(&self.partition)
            .as_ref()
            .is_some_and(|p| p.severs(src, dst))
        {
            self.severed.inc();
            return LinkDecision::Drop;
        }
        let link = Self::link_index(src, dst);
        let index = {
            let mut counters = lock_ok(&self.link_messages);
            let slot = counters.entry(link).or_insert(0);
            let index = *slot;
            *slot += 1;
            index
        };
        let mut rng = SimRng::substream(self.spec.seed ^ link, index);
        // Draw every fault unconditionally so the stream layout (and
        // hence later decisions) does not depend on earlier outcomes.
        let drop = rng.bernoulli(self.spec.drop_prob);
        let delay = rng.bernoulli(self.spec.delay_prob);
        let duplicate = rng.bernoulli(self.spec.duplicate_prob);
        if drop {
            self.dropped.inc();
            LinkDecision::Drop
        } else if delay {
            self.delayed.inc();
            LinkDecision::Delay(self.spec.delay)
        } else if duplicate {
            self.duplicated.inc();
            LinkDecision::Duplicate
        } else {
            LinkDecision::Deliver
        }
    }

    /// The `link_faults` object of the `/metrics` document.
    pub fn metrics_doc(&self) -> JsonValue {
        JsonValue::object(vec![
            ("dropped", (&self.dropped).into()),
            ("delayed", (&self.delayed).into()),
            ("duplicated", (&self.duplicated).into()),
            ("severed", (&self.severed).into()),
            ("partitioned", self.partition().is_some().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_seed_and_index() {
        let spec = FaultSpec {
            seed: 42,
            latency_prob: 0.5,
            latency: Duration::from_millis(5),
            worker_panic_prob: 0.3,
            no_convergence_prob: 0.3,
            cache_corrupt_prob: 0.3,
            conn_drop_prob: 0.3,
            window: None,
        };
        let a = FaultPlan::new(spec.clone());
        let b = FaultPlan::new(spec);
        let da: Vec<_> = (0..64).map(|_| a.next()).collect();
        let db: Vec<_> = (0..64).map(|_| b.next()).collect();
        assert_eq!(da, db, "same seed, same sequence");
        assert!(da.iter().any(|d| d.worker_panic));
        assert!(da.iter().any(|d| !d.worker_panic));
    }

    #[test]
    fn window_bounds_the_injection() {
        let plan = FaultPlan::new(FaultSpec {
            conn_drop_prob: 1.0,
            window: Some(3),
            ..FaultSpec::default()
        });
        let fired: Vec<bool> = (0..6).map(|_| plan.next().conn_drop).collect();
        assert_eq!(fired, [true, true, true, false, false, false]);
        assert_eq!(plan.injected_conn_drops.get(), 3);
        assert_eq!(plan.requests_seen.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn zero_spec_injects_nothing() {
        let plan = FaultPlan::new(FaultSpec::default());
        for _ in 0..32 {
            assert_eq!(plan.next(), FaultDecision::default());
        }
        let doc = plan.metrics_doc();
        assert_eq!(doc.get("requests_seen").and_then(|v| v.as_u64()), Some(32));
        for key in [
            "injected_latency",
            "injected_worker_panics",
            "injected_no_convergence",
            "injected_cache_corruptions",
            "injected_conn_drops",
        ] {
            assert_eq!(doc.get(key).and_then(|v| v.as_u64()), Some(0), "{key}");
        }
    }

    #[test]
    fn corrupt_key_never_aliases_a_canonical_key() {
        let key = "v1;topo=t4x4;solver=auto";
        let bad = corrupt_key(key);
        assert_ne!(bad, key);
        assert!(!bad.starts_with("v1;"));
    }

    #[test]
    fn chaos_decisions_are_per_link_deterministic() {
        let spec = LinkFaultSpec {
            seed: 7,
            drop_prob: 0.3,
            delay_prob: 0.3,
            delay: Duration::from_millis(2),
            duplicate_prob: 0.3,
        };
        let a = ChaosNet::new(spec.clone());
        let b = ChaosNet::new(spec);
        // Interleave links differently on the two nets: per-link
        // counters make the sequences identical anyway.
        let mut da = Vec::new();
        for _ in 0..32 {
            da.push(a.decide("alpha", "beta"));
            a.decide("beta", "alpha");
        }
        for _ in 0..32 {
            b.decide("beta", "alpha");
        }
        let db: Vec<_> = (0..32).map(|_| b.decide("alpha", "beta")).collect();
        assert_eq!(da, db, "same seed and link, same sequence");
        assert!(da.iter().any(|d| *d != LinkDecision::Deliver));
        assert!(da.contains(&LinkDecision::Deliver));
    }

    #[test]
    fn full_partition_severs_both_directions_and_heals() {
        let net = ChaosNet::new(LinkFaultSpec::default());
        assert_eq!(net.decide("alpha", "gamma"), LinkDecision::Deliver);
        net.set_partition(Some(Partition::full(["alpha", "beta"])));
        assert_eq!(net.decide("alpha", "gamma"), LinkDecision::Drop);
        assert_eq!(net.decide("gamma", "alpha"), LinkDecision::Drop);
        assert_eq!(
            net.decide("alpha", "beta"),
            LinkDecision::Deliver,
            "same side stays connected"
        );
        net.set_partition(None);
        assert_eq!(net.decide("alpha", "gamma"), LinkDecision::Deliver);
        assert_eq!(net.severed.get(), 2, "two severed messages counted");
    }

    #[test]
    fn one_way_partition_delivers_requests_but_loses_responses() {
        let net = ChaosNet::new(LinkFaultSpec::default());
        net.set_partition(Some(Partition::one_way(["alpha"])));
        // alpha's requests vanish outright.
        assert_eq!(net.decide("alpha", "beta"), LinkDecision::Drop);
        // beta's requests reach alpha...
        assert_eq!(net.decide("beta", "alpha"), LinkDecision::Deliver);
        // ...but the response (alpha -> beta) is severed.
        assert!(net.response_severed("beta", "alpha"));
        assert!(!net.response_severed("alpha", "beta"));
    }
}
