//! Service observability: one mechanism for every number `latencyd`
//! serves at `GET /metrics`.
//!
//! * [`Counter`] — a monotone event count (relaxed `inc`/`add`/`get` over
//!   an `AtomicU64`). Every service counter is a *declared field* of this
//!   type on the component that owns the event — [`ServiceMetrics`],
//!   [`crate::cluster::Cluster`], [`crate::fault::FaultPlan`],
//!   [`crate::fault::ChaosNet`], [`crate::pool::WorkerPool`],
//!   [`crate::pool::HandlerPool`], [`crate::cache::SolveCache`] and
//!   [`crate::workspace::WorkspacePool`] — and each component renders its
//!   own `/metrics` section from its fields in one function. There are no
//!   per-counter `record_x`/`x` method pairs: the field is the API.
//! * [`Gauge`] — a level that moves both ways; the reactor's
//!   connection-phase census (`reactor.conn.*`) is one gauge per
//!   [`ConnPhase`].
//! * `Histogram` — the request-latency distribution, log-bucketed in
//!   HDR style: 128 linear sub-buckets per power of two of nanoseconds,
//!   so a bucket is at most 1/128 (0.78%) of the values it holds, from
//!   512 ns up to 2^36 ns (about 69 s); values outside clamp into the
//!   edge buckets. Recording takes no lock (one relaxed `fetch_add` on a
//!   bucket, one on the nanosecond sum, and a `fetch_max` only when a new
//!   maximum arrives). Count, sum and max are exact; `p50`/`p95`/`p99`
//!   are the nearest-rank order statistics rounded to the middle of
//!   their bucket (and capped at the exact max), so each lies within one
//!   bucket width — under 1% — of the true order statistic. A scrape
//!   reads the fixed bucket array, so it costs the same after one sample
//!   or after a billion, and two histograms merge exactly by adding
//!   bucket counts and sums and taking the larger max.
//!
//! The `/metrics` document keeps one key set, nesting and order (pinned
//! by a golden leaf-path test): `endpoints`, `errors_by_kind`, `latency`
//! and `resilience` from [`ServiceMetrics::to_json`], then the server's
//! `cache`, `pool`, `breakers`, `solver` and `reactor` sections, then
//! `fault_injection` when a fault plan is installed, and `cluster` plus
//! `link_faults` in cluster mode with a chaos model.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::breaker::BreakerState;
use lt_core::json::JsonValue;
use lt_core::Fidelity;

/// The endpoints latencyd serves, in display order (`cluster` covers
/// `/v1/cluster/ping`, `/v1/cluster/members`, and `/v1/cluster/hint`).
pub const ENDPOINTS: [&str; 6] = [
    "solve",
    "sweep",
    "tolerance",
    "healthz",
    "metrics",
    "cluster",
];

/// Error kinds counted by the service: the `LtError::kind` labels plus
/// the service-level kinds (timeout, bad_request, overloaded,
/// worker_lost, not_found, internal). `internal` must stay last: unknown
/// kinds fold into the final slot.
pub const ERROR_KINDS: [&str; 12] = [
    "invalid_config",
    "invalid_field",
    "no_convergence",
    "problem_too_large",
    "degenerate_model",
    "unsupported",
    "timeout",
    "bad_request",
    "overloaded",
    "worker_lost",
    "not_found",
    "internal",
];

/// A monotone event counter. Relaxed ordering throughout: a counter
/// orders nothing, it only has to add up exactly.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Events counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl From<&Counter> for JsonValue {
    fn from(c: &Counter) -> JsonValue {
        c.get().into()
    }
}

/// A level that rises and falls (connections in a phase).
#[derive(Debug, Default)]
pub struct Gauge(AtomicUsize);

impl Gauge {
    /// Raise the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

impl From<&Gauge> for JsonValue {
    fn from(g: &Gauge) -> JsonValue {
        g.get().into()
    }
}

/// Linear sub-buckets per power of two (`2^SUB_BITS`): a bucket spans at
/// most `1/2^SUB_BITS` of its values.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// The first bucket starts at `2^LOW_EXP` ns; smaller values clamp into it.
const LOW_EXP: u32 = 9;
/// Values of `2^HIGH_EXP` ns and more clamp into the last bucket.
const HIGH_EXP: u32 = 36;
/// Buckets in a [`Histogram`].
const BUCKETS: usize = (HIGH_EXP - LOW_EXP) as usize * SUB;

/// The bucket holding `ns` (clamped into the tracked range).
fn bucket_of(ns: u64) -> usize {
    let v = ns.clamp(1 << LOW_EXP, (1 << HIGH_EXP) - 1);
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize - SUB;
    (exp - LOW_EXP) as usize * SUB + sub
}

/// `(lower bound, width)` of bucket `i`, in ns.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let shift = LOW_EXP + (i / SUB) as u32 - SUB_BITS;
    (((SUB + i % SUB) as u64) << shift, 1 << shift)
}

/// A lock-free, fixed-size, log-bucketed latency histogram (see the
/// module docs for its resolution and what its quantiles mean).
pub(crate) struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// Count, mean, max and p50/p95/p99 of everything recorded, in ms.
    /// Reads each bucket once; samples recorded concurrently may or may
    /// not be included.
    pub fn summary(&self) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return LatencySummary::EMPTY;
        }
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let ms = |ns: u64| ns as f64 / 1e6;
        // Nearest rank: the smallest value with at least ceil(q·count)
        // samples at or below it, reported as its bucket's midpoint.
        let quantile = |q: f64| {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    let (lo, width) = bucket_bounds(i);
                    return ms((lo + width / 2).min(max_ns));
                }
            }
            ms(max_ns)
        };
        LatencySummary {
            count,
            mean_ms: ms(self.sum_ns.load(Ordering::Relaxed)) / count as f64,
            max_ms: ms(max_ns),
            p50_ms: quantile(0.50),
            p95_ms: quantile(0.95),
            p99_ms: quantile(0.99),
        }
    }
}

/// Latency view returned by [`ServiceMetrics::latency_summary`].
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Largest observed latency in milliseconds.
    pub max_ms: f64,
    /// Median (ms), within one histogram bucket.
    pub p50_ms: f64,
    /// 95th percentile (ms), within one histogram bucket.
    pub p95_ms: f64,
    /// 99th percentile (ms), within one histogram bucket.
    pub p99_ms: f64,
}

impl LatencySummary {
    /// The all-zero summary (no samples yet).
    pub const EMPTY: LatencySummary = LatencySummary {
        count: 0,
        mean_ms: 0.0,
        max_ms: 0.0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
    };
}

/// One endpoint's counters.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    /// Requests routed to the endpoint.
    pub requests: Counter,
    /// Requests to the endpoint answered with an error.
    pub errors: Counter,
}

/// Which stage of its lifecycle a reactor-owned connection is in; each
/// maps to one `conn.*` gauge in the `/metrics` scrape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnPhase {
    /// Keep-alive, no request bytes buffered.
    Idle,
    /// A partial request head or body is buffered.
    Reading,
    /// A complete request is running on a handler or worker thread.
    Dispatched,
    /// A serialized response is partially written.
    Writing,
}

impl ConnPhase {
    /// All phases in gauge display order.
    pub const ALL: [ConnPhase; 4] = [
        ConnPhase::Idle,
        ConnPhase::Reading,
        ConnPhase::Dispatched,
        ConnPhase::Writing,
    ];

    /// The gauge label (`conn.{label}` in `/metrics`).
    pub fn label(self) -> &'static str {
        match self {
            ConnPhase::Idle => "idle",
            ConnPhase::Reading => "reading",
            ConnPhase::Dispatched => "dispatched",
            ConnPhase::Writing => "writing",
        }
    }
}

/// Request, error, latency, resilience and reactor metrics; shared
/// behind the server state by every reactor and handler thread.
#[derive(Default)]
pub struct ServiceMetrics {
    endpoints: [EndpointCounters; ENDPOINTS.len()],
    error_kinds: [Counter; ERROR_KINDS.len()],
    latency: Histogram,
    /// Requests shed by admission control (answered `429`).
    pub(crate) shed: Counter,
    /// Worker-lost retries attempted.
    pub retries: Counter,
    /// Breaker transitions into closed, open, half-open.
    breaker_transitions: [Counter; 3],
    /// Successful responses, in `Fidelity::ALL` order.
    responses_by_fidelity: [Counter; Fidelity::ALL.len()],
    /// Reactor connections per phase, in `ConnPhase::ALL` order.
    conns: [Gauge; ConnPhase::ALL.len()],
    /// Failed accepts (listener errors, sockets that could not be
    /// registered or were refused).
    pub(crate) accept_errors: Counter,
    /// Reactor wakeups delivered through the message channel
    /// (registrations and completed dispatches).
    pub(crate) reactor_wakeups: Counter,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters of `name` (an [`ENDPOINTS`] label); `None` for any
    /// other name.
    pub fn endpoint(&self, name: &str) -> Option<&EndpointCounters> {
        let i = ENDPOINTS.iter().position(|e| *e == name)?;
        Some(&self.endpoints[i])
    }

    /// The counter of error kind `kind`; unknown kinds fold into
    /// `internal` so nothing is silently dropped.
    pub fn error_kind(&self, kind: &str) -> &Counter {
        let i = ERROR_KINDS
            .iter()
            .position(|e| *e == kind)
            .unwrap_or(ERROR_KINDS.len() - 1);
        &self.error_kinds[i]
    }

    /// Count one error under `kind`, and on `endpoint` when it is one.
    pub fn record_error(&self, endpoint: &str, kind: &str) {
        if let Some(e) = self.endpoint(endpoint) {
            e.errors.inc();
        }
        self.error_kind(kind).inc();
    }

    /// Transitions of any solver tier's breaker into `state`.
    pub fn breaker_transitions(&self, state: BreakerState) -> &Counter {
        &self.breaker_transitions[match state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }]
    }

    /// Successful responses of `fidelity`.
    pub fn responses(&self, fidelity: Fidelity) -> &Counter {
        let i = Fidelity::ALL
            .iter()
            .position(|f| *f == fidelity)
            .unwrap_or(0);
        &self.responses_by_fidelity[i]
    }

    /// Connections currently in `phase`.
    pub fn conns(&self, phase: ConnPhase) -> &Gauge {
        let i = ConnPhase::ALL.iter().position(|p| *p == phase).unwrap_or(0);
        &self.conns[i]
    }

    /// Move a connection between phase gauges. `None` means the
    /// connection is entering (accepted) or leaving (closed) the reactor.
    pub fn conn_transition(&self, from: Option<ConnPhase>, to: Option<ConnPhase>) {
        if let Some(p) = from {
            self.conns(p).dec();
        }
        if let Some(p) = to {
            self.conns(p).inc();
        }
    }

    /// Record one request's wall-clock latency (lock-free).
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency.record(elapsed);
    }

    /// The latency distribution so far; O(buckets), whatever the uptime.
    pub fn latency_summary(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// The `reactor` object of the `/metrics` document, minus the
    /// fields only the server knows (`io_threads`, handler stats).
    pub fn reactor_doc(&self) -> Vec<(&'static str, JsonValue)> {
        let conn = ConnPhase::ALL
            .iter()
            .map(|p| (p.label().to_string(), self.conns(*p).into()))
            .collect();
        vec![
            ("conn", JsonValue::Object(conn)),
            ("accept_errors", (&self.accept_errors).into()),
            ("wakeups", (&self.reactor_wakeups).into()),
        ]
    }

    /// The `/metrics` document: this registry's sections followed by
    /// the `extra` sections other components rendered.
    pub fn to_json(&self, extra: Vec<(&str, JsonValue)>) -> JsonValue {
        let endpoints = ENDPOINTS
            .iter()
            .zip(&self.endpoints)
            .map(|(name, c)| {
                let doc = JsonValue::object(vec![
                    ("requests", (&c.requests).into()),
                    ("errors", (&c.errors).into()),
                ]);
                ((*name).to_string(), doc)
            })
            .collect();
        let errors = ERROR_KINDS
            .iter()
            .zip(&self.error_kinds)
            .map(|(kind, c)| ((*kind).to_string(), c.into()))
            .collect();
        let lat = self.latency_summary();
        let latency = JsonValue::object(vec![
            ("count", lat.count.into()),
            ("mean_ms", lat.mean_ms.into()),
            ("max_ms", lat.max_ms.into()),
            ("p50_ms", lat.p50_ms.into()),
            ("p95_ms", lat.p95_ms.into()),
            ("p99_ms", lat.p99_ms.into()),
        ]);
        let breaker = JsonValue::object(vec![
            (
                "closed",
                self.breaker_transitions(BreakerState::Closed).into(),
            ),
            (
                "opened",
                self.breaker_transitions(BreakerState::Open).into(),
            ),
            (
                "half_opened",
                self.breaker_transitions(BreakerState::HalfOpen).into(),
            ),
        ]);
        let by_fidelity = Fidelity::ALL
            .iter()
            .map(|f| (f.label().to_string(), self.responses(*f).into()))
            .collect();
        let resilience = JsonValue::object(vec![
            ("shed", (&self.shed).into()),
            ("retries", (&self.retries).into()),
            ("breaker_transitions", breaker),
            ("responses_by_fidelity", JsonValue::Object(by_fidelity)),
        ]);
        let mut fields = vec![
            ("endpoints", JsonValue::Object(endpoints)),
            ("errors_by_kind", JsonValue::Object(errors)),
            ("latency", latency),
            ("resilience", resilience),
        ];
        fields.extend(extra);
        JsonValue::object(fields)
    }

    /// One-line human summary, logged at shutdown.
    pub fn summary_line(&self) -> String {
        let total: u64 = self.endpoints.iter().map(|e| e.requests.get()).sum();
        let errors: u64 = self.endpoints.iter().map(|e| e.errors.get()).sum();
        let lat = self.latency_summary();
        format!(
            "requests={total} errors={errors} latency_ms(mean={:.2} p50={:.2} p95={:.2} p99={:.2} max={:.2} n={})",
            lat.mean_ms, lat.p50_ms, lat.p95_ms, lat.p99_ms, lat.max_ms, lat.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_desim::SimRng;
    use std::sync::Arc;

    #[test]
    fn counters_track_per_endpoint() {
        let m = ServiceMetrics::new();
        let solve = m.endpoint("solve").unwrap();
        solve.requests.inc();
        solve.requests.inc();
        m.endpoint("sweep").unwrap().requests.inc();
        m.record_error("solve", "invalid_field");
        assert_eq!(solve.requests.get(), 2);
        assert_eq!(m.endpoint("sweep").unwrap().requests.get(), 1);
        assert_eq!(solve.errors.get(), 1);
        assert_eq!(m.endpoint("sweep").unwrap().errors.get(), 0);
        assert_eq!(m.error_kind("invalid_field").get(), 1);
        assert!(m.endpoint("nope").is_none());
    }

    #[test]
    fn unknown_error_kind_folds_into_internal() {
        let m = ServiceMetrics::new();
        m.record_error("solve", "something_novel");
        assert_eq!(m.error_kind("internal").get(), 1);
    }

    #[test]
    fn overload_error_kinds_are_first_class() {
        let m = ServiceMetrics::new();
        m.record_error("solve", "overloaded");
        m.record_error("solve", "worker_lost");
        assert_eq!(m.error_kind("overloaded").get(), 1);
        assert_eq!(m.error_kind("worker_lost").get(), 1);
        assert_eq!(m.error_kind("internal").get(), 0, "no fold for known kinds");
    }

    /// Seeded latencies spread log-uniformly over 1 µs .. 10 s.
    fn log_uniform_samples(n: usize, seed: u64) -> Vec<Duration> {
        let mut rng = SimRng::new(seed);
        let (lo, hi) = (1e3f64.ln(), 1e10f64.ln());
        (0..n)
            .map(|_| Duration::from_nanos((lo + (hi - lo) * rng.uniform01()).exp() as u64))
            .collect()
    }

    #[test]
    fn buckets_are_at_most_one_percent_wide_and_tile_the_range() {
        let mut next = bucket_bounds(0).0;
        assert_eq!(next, 1 << LOW_EXP);
        for i in 0..BUCKETS {
            let (lo, width) = bucket_bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert!(width as f64 / lo as f64 <= 0.01, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + width - 1), i);
            next = lo + width;
        }
        assert_eq!(next, 1 << HIGH_EXP);
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_the_exact_order_statistics() {
        for seed in [1, 2, 3] {
            let samples = log_uniform_samples(20_000, seed);
            let h = Histogram::default();
            for d in &samples {
                h.record(*d);
            }
            let mut sorted: Vec<u64> = samples.iter().map(|d| d.as_nanos() as u64).collect();
            sorted.sort_unstable();
            let s = h.summary();
            for (q, got_ms) in [(0.50, s.p50_ms), (0.95, s.p95_ms), (0.99, s.p99_ms)] {
                let rank = (q * sorted.len() as f64).ceil() as usize;
                let exact = sorted[rank - 1];
                let (_, width) = bucket_bounds(bucket_of(exact));
                let err_ns = (got_ms * 1e6 - exact as f64).abs();
                assert!(
                    err_ns <= width as f64,
                    "seed {seed} q {q}: {got_ms} ms vs exact {exact} ns (bucket width {width} ns)"
                );
            }
            assert_eq!(s.count, samples.len() as u64);
            assert_eq!(s.max_ms, *sorted.last().unwrap() as f64 / 1e6);
        }
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let samples = Arc::new(log_uniform_samples(5_000, 9));
        let one = Histogram::default();
        for d in samples.iter() {
            one.record(*d);
        }
        let shared = Arc::new(Histogram::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (h, samples) = (Arc::clone(&shared), Arc::clone(&samples));
                std::thread::spawn(move || {
                    for d in samples.iter() {
                        h.record(*d);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (a, b) = (one.summary(), shared.summary());
        assert_eq!(b.count, 8 * a.count);
        assert_eq!(
            shared.sum_ns.load(Ordering::Relaxed),
            8 * one.sum_ns.load(Ordering::Relaxed)
        );
        assert_eq!(b.max_ms, a.max_ms);
        assert_eq!(
            (b.p50_ms, b.p95_ms, b.p99_ms),
            (a.p50_ms, a.p95_ms, a.p99_ms)
        );
    }

    #[test]
    fn out_of_range_values_clamp_into_the_edge_buckets() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(3));
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 1);
        let s = h.summary();
        assert_eq!(s.max_ms, 3e-6, "max stays exact below the range");
        assert_eq!(s.p50_ms, s.max_ms, "a quantile never exceeds the max");

        let huge = Duration::from_secs(1_000);
        h.record(huge);
        assert_eq!(h.buckets[BUCKETS - 1].load(Ordering::Relaxed), 1);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ms, 1e6, "max stays exact above the range");
        let mean_ms = (huge.as_nanos() as f64 + 3.0) / 2.0 / 1e6;
        assert!((s.mean_ms - mean_ms).abs() < 1e-9, "{}", s.mean_ms);
    }

    #[test]
    fn empty_histogram_reports_all_zeros() {
        let s = ServiceMetrics::new().latency_summary();
        assert_eq!(s.count, 0);
        for v in [s.mean_ms, s.max_ms, s.p50_ms, s.p95_ms, s.p99_ms] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn to_json_has_the_metrics_schema() {
        let m = ServiceMetrics::new();
        m.endpoint("solve").unwrap().requests.inc();
        m.record_latency(Duration::from_millis(10));
        let doc = m.to_json(vec![("cache", JsonValue::object(vec![]))]);
        let back = lt_core::json::parse(&lt_core::json::encode(&doc)).unwrap();
        assert_eq!(
            back.get("endpoints")
                .and_then(|e| e.get("solve"))
                .and_then(|s| s.get("requests"))
                .and_then(|r| r.as_u64()),
            Some(1)
        );
        let p50 = back.get("latency").and_then(|l| l.get("p50_ms"));
        assert!((p50.and_then(|v| v.as_f64()).unwrap() - 10.0).abs() < 0.1);
        assert!(back.get("cache").is_some());
        assert!(back
            .get("errors_by_kind")
            .and_then(|e| e.get("timeout"))
            .is_some());
    }

    #[test]
    fn resilience_counters_track_and_serialize() {
        let m = ServiceMetrics::new();
        m.shed.inc();
        m.shed.inc();
        m.retries.inc();
        m.breaker_transitions(BreakerState::Open).inc();
        m.breaker_transitions(BreakerState::HalfOpen).inc();
        m.breaker_transitions(BreakerState::Closed).inc();
        m.responses(Fidelity::Exact).inc();
        m.responses(Fidelity::Degraded).add(2);
        assert_eq!(m.responses(Fidelity::Bounds).get(), 0);

        let doc = m.to_json(vec![]);
        let back = lt_core::json::parse(&lt_core::json::encode(&doc)).unwrap();
        let res = back.get("resilience").expect("resilience object");
        let at = |path: [&str; 2]| {
            res.get(path[0])
                .and_then(|b| b.get(path[1]))
                .and_then(|v| v.as_u64())
        };
        assert_eq!(res.get("shed").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(res.get("retries").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(at(["breaker_transitions", "opened"]), Some(1));
        assert_eq!(at(["responses_by_fidelity", "degraded"]), Some(2));
    }

    #[test]
    fn reactor_stats_track_phases_and_counters() {
        let m = ServiceMetrics::new();
        m.conn_transition(None, Some(ConnPhase::Idle));
        m.conn_transition(None, Some(ConnPhase::Idle));
        m.conn_transition(Some(ConnPhase::Idle), Some(ConnPhase::Reading));
        m.conn_transition(Some(ConnPhase::Reading), Some(ConnPhase::Dispatched));
        assert_eq!(m.conns(ConnPhase::Idle).get(), 1);
        assert_eq!(m.conns(ConnPhase::Reading).get(), 0);
        assert_eq!(m.conns(ConnPhase::Dispatched).get(), 1);
        m.conn_transition(Some(ConnPhase::Dispatched), None);
        assert_eq!(m.conns(ConnPhase::Dispatched).get(), 0);

        m.accept_errors.inc();
        m.reactor_wakeups.add(3);
        let doc = JsonValue::object(m.reactor_doc());
        let back = lt_core::json::parse(&lt_core::json::encode(&doc)).unwrap();
        assert_eq!(
            back.get("conn")
                .and_then(|c| c.get("idle"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(back.get("accept_errors").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(back.get("wakeups").and_then(|v| v.as_u64()), Some(3));
    }

    #[test]
    fn summary_line_mentions_request_count() {
        let m = ServiceMetrics::new();
        m.endpoint("solve").unwrap().requests.inc();
        assert!(m.summary_line().contains("requests=1"));
    }
}
