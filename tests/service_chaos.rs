//! Chaos suite: drive seeded fault plans through `latencyd` end-to-end
//! over loopback HTTP and pin the resilience contract.
//!
//! The contract under test, for every injected fault class:
//!
//! * the service never hangs and never panics out of a handler;
//! * every answered request is either correct and full-fidelity, or
//!   carries an explicit degraded `fidelity` tag, or is a structured
//!   error (`worker_lost`, `timeout`, `overloaded`) — never a silent
//!   wrong answer;
//! * once the fault window passes, the service recovers on its own
//!   (workers respawned, breakers re-closed, cache coherent).
//!
//! Every fault plan here is seeded and window-bounded
//! ([`FaultSpec::window`]), and requests are issued sequentially on
//! fresh connections, so each test sees an exactly reproducible fault
//! sequence: request `i` draws decision `i` of the plan's stream.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Once};
use std::time::Duration;

use lt_core::json::{self, JsonValue};
use lt_core::prelude::*;
use lt_core::wire;
use lt_service::{BreakerState, FaultPlan, FaultSpec, Server, ServerConfig, ServerHandle};

/// Injected worker panics are the *tested* failure mode; keep their
/// backtraces out of the test output while leaving every other panic
/// (including test assertion failures) loud.
fn quiet_worker_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("latencyd-worker"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// One HTTP request on a fresh connection; `None` if the server closed
/// the connection without answering (the injected `conn_drop` outcome).
fn try_http(addr: SocketAddr, path: &str, body: &str) -> Option<(u16, JsonValue)> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    if status_line.is_empty() {
        return None; // clean close before any bytes: the dropped connection
    }
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().ok()?;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    let text = String::from_utf8(body).ok()?;
    Some((status, json::parse(&text).expect("response is JSON")))
}

/// Like [`try_http`] but the request must be answered.
fn http(addr: SocketAddr, path: &str, body: &str) -> (u16, JsonValue) {
    try_http(addr, path, body).expect("server dropped a connection it should have answered")
}

/// Start a server wired to `spec`, returning the handle plus the plan
/// (for its injection counters).
fn start_faulty(
    spec: FaultSpec,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (ServerHandle, Arc<FaultPlan>) {
    quiet_worker_panics();
    let plan = Arc::new(FaultPlan::new(spec));
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_capacity: 64,
        default_timeout_ms: 60_000,
        fault_plan: Some(Arc::clone(&plan)),
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    (Server::bind(cfg).expect("bind").spawn(), plan)
}

fn solve_body(cfg: &SystemConfig, solver: Option<&str>) -> String {
    let cfg_json = wire::config_to_json(cfg).encode();
    match solver {
        Some(s) => format!("{{\"config\":{cfg_json},\"solver\":\"{s}\"}}"),
        None => format!("{{\"config\":{cfg_json}}}"),
    }
}

fn report_field<'a>(v: &'a JsonValue, field: &str) -> Option<&'a JsonValue> {
    v.get("report").and_then(|r| r.get(field))
}

fn fidelity_of(v: &JsonValue) -> &str {
    report_field(v, "fidelity")
        .and_then(|f| f.as_str())
        .expect("every report carries a fidelity tag")
}

#[test]
fn injected_latency_slows_but_never_corrupts() {
    let (h, plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(2),
            latency_prob: 1.0,
            latency: Duration::from_millis(40),
            ..FaultSpec::default()
        },
        |_| {},
    );
    let cfg = SystemConfig::paper_default();
    let want = solve(&cfg).unwrap().u_p;
    let body = solve_body(&cfg, None);
    for round in 0..3 {
        let (status, v) = http(h.addr(), "/v1/solve", &body);
        assert_eq!(status, 200, "round {round}: {}", v.encode());
        let u_p = report_field(&v, "u_p").and_then(|x| x.as_f64()).unwrap();
        assert_eq!(u_p.to_bits(), want.to_bits(), "round {round}");
        assert!(
            matches!(fidelity_of(&v), "exact" | "approximate"),
            "latency alone must not degrade fidelity"
        );
    }
    assert_eq!(
        plan.injected_latency.get(),
        2,
        "both windowed requests were delayed"
    );
    h.shutdown();
}

#[test]
fn dropped_connections_close_cleanly_and_service_recovers() {
    let (h, plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(3),
            conn_drop_prob: 1.0,
            ..FaultSpec::default()
        },
        |_| {},
    );
    let cfg = SystemConfig::paper_default();
    let body = solve_body(&cfg, None);
    // The first three requests are dropped: a clean close, no partial
    // response, no hang.
    for round in 0..3 {
        assert!(
            try_http(h.addr(), "/v1/solve", &body).is_none(),
            "round {round} should have been dropped"
        );
    }
    assert_eq!(plan.injected_conn_drops.get(), 3);
    // The window has passed: the same request now succeeds, and the
    // server is healthy.
    let (status, v) = http(h.addr(), "/v1/solve", &body);
    assert_eq!(status, 200, "{}", v.encode());
    let want = solve(&cfg).unwrap().u_p;
    let u_p = report_field(&v, "u_p").and_then(|x| x.as_f64()).unwrap();
    assert_eq!(u_p.to_bits(), want.to_bits());
    h.shutdown();
}

#[test]
fn worker_panic_is_retried_transparently_and_the_worker_respawns() {
    let (h, plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(1),
            worker_panic_prob: 1.0,
            ..FaultSpec::default()
        },
        |cfg| cfg.retry_max = 2,
    );
    let cfg = SystemConfig::paper_default();
    let want = solve(&cfg).unwrap().u_p;
    // Request 0 detonates its first attempt; the retry answers in full.
    let (status, v) = http(h.addr(), "/v1/solve", &solve_body(&cfg, None));
    assert_eq!(status, 200, "{}", v.encode());
    let u_p = report_field(&v, "u_p").and_then(|x| x.as_f64()).unwrap();
    assert_eq!(u_p.to_bits(), want.to_bits());
    assert!(
        matches!(fidelity_of(&v), "exact" | "approximate"),
        "a retried solve is a full-fidelity solve"
    );
    assert_eq!(
        plan.injected_worker_panics.get(),
        1,
        "exactly one panic injected"
    );
    let state = h.state();
    assert!(state.metrics.retries.get() >= 1, "the retry was counted");
    // The dead worker was replaced: a fresh request still has a full
    // worker complement to run on.
    let (status, _) = http(h.addr(), "/v1/solve", &solve_body(&cfg, Some("amva")));
    assert_eq!(status, 200);
    h.shutdown();
}

#[test]
fn worker_panic_with_retries_disabled_is_a_structured_error() {
    let (h, plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(1),
            worker_panic_prob: 1.0,
            ..FaultSpec::default()
        },
        |cfg| cfg.retry_max = 0,
    );
    let cfg = SystemConfig::paper_default();
    let body = solve_body(&cfg, None);
    // No retries: the lost worker surfaces as a structured 500 naming
    // the failure, within milliseconds — not a 60 s deadline wait.
    let (status, v) = http(h.addr(), "/v1/solve", &body);
    assert_eq!(status, 500, "{}", v.encode());
    let err = v.get("error").expect("structured error body");
    assert_eq!(
        err.get("kind").and_then(|k| k.as_str()),
        Some("worker_lost")
    );
    assert_eq!(plan.injected_worker_panics.get(), 1);
    assert_eq!(h.state().metrics.error_kind("worker_lost").get(), 1);
    // Recovery: the pool respawned the worker, the next identical
    // request simply succeeds.
    let (status, v) = http(h.addr(), "/v1/solve", &body);
    assert_eq!(status, 200, "{}", v.encode());
    assert!(matches!(fidelity_of(&v), "exact" | "approximate"));
    h.shutdown();
}

#[test]
fn forced_no_convergence_degrades_opens_the_breaker_and_recloses_it() {
    // A cooldown much longer than a few loopback round-trips, so phases
    // 1–2 reliably complete before the breaker is eligible to probe.
    const THRESHOLD: u32 = 3;
    const COOLDOWN: Duration = Duration::from_millis(500);
    let (h, plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(THRESHOLD as u64),
            no_convergence_prob: 1.0,
            ..FaultSpec::default()
        },
        |cfg| {
            cfg.breaker_threshold = THRESHOLD;
            cfg.breaker_cooldown_ms = COOLDOWN.as_millis() as u64;
        },
    );
    let state = h.state();
    let tier = SolverChoice::Linearizer;

    // Phase 1 — the fault window: every primary solve is forced to fail,
    // so each answer comes from the degradation ladder, tagged, and each
    // failure feeds the linearizer tier's breaker.
    for i in 0..THRESHOLD {
        let cfg = SystemConfig::paper_default().with_n_threads(2 + i as usize);
        let (status, v) = http(h.addr(), "/v1/solve", &solve_body(&cfg, Some("linearizer")));
        assert_eq!(status, 200, "degraded answers still answer: {}", v.encode());
        assert!(
            matches!(fidelity_of(&v), "degraded" | "bounds"),
            "a failed primary must never produce an untagged answer, got {:?}",
            fidelity_of(&v)
        );
    }
    assert_eq!(plan.injected_no_convergence.get(), THRESHOLD as u64);
    assert_eq!(state.breaker_state(tier), BreakerState::Open);
    assert!(state.metrics.breaker_transitions(BreakerState::Open).get() >= 1);

    // Phase 2 — breaker open, fault window over: requests skip the
    // (actually healthy) primary and answer degraded. Still tagged.
    let probe_cfg = SystemConfig::paper_default().with_n_threads(7);
    let (status, v) = http(
        h.addr(),
        "/v1/solve",
        &solve_body(&probe_cfg, Some("linearizer")),
    );
    assert_eq!(status, 200);
    assert!(
        matches!(fidelity_of(&v), "degraded" | "bounds"),
        "an open breaker answers from the ladder"
    );
    assert_eq!(state.breaker_state(tier), BreakerState::Open);

    // Phase 3 — after the cooldown one probe runs the primary, which now
    // converges, and the breaker re-closes: full fidelity is back.
    std::thread::sleep(COOLDOWN + Duration::from_millis(100));
    let recovered_cfg = SystemConfig::paper_default().with_n_threads(9);
    let (status, v) = http(
        h.addr(),
        "/v1/solve",
        &solve_body(&recovered_cfg, Some("linearizer")),
    );
    assert_eq!(status, 200, "{}", v.encode());
    assert!(
        matches!(fidelity_of(&v), "exact" | "approximate"),
        "the successful probe restores full fidelity, got {:?}",
        fidelity_of(&v)
    );
    assert_eq!(state.breaker_state(tier), BreakerState::Closed);
    assert!(
        state
            .metrics
            .breaker_transitions(BreakerState::HalfOpen)
            .get()
            >= 1
    );
    assert!(
        state
            .metrics
            .breaker_transitions(BreakerState::Closed)
            .get()
            >= 1
    );

    // The whole episode is visible in /metrics.
    let metrics_doc = get_metrics(h.addr());
    let fi = metrics_doc.get("fault_injection").expect("plan is exposed");
    assert_eq!(
        fi.get("injected_no_convergence").and_then(|x| x.as_u64()),
        Some(THRESHOLD as u64)
    );
    let degraded = state.metrics.responses(lt_core::Fidelity::Degraded).get()
        + state.metrics.responses(lt_core::Fidelity::Bounds).get();
    assert!(degraded >= (THRESHOLD + 1) as u64);
    h.shutdown();
}

/// GET /metrics on a fresh connection.
fn get_metrics(addr: SocketAddr) -> JsonValue {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    assert!(status_line.contains("200"), "{status_line}");
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
    json::parse(&String::from_utf8(body).unwrap()).expect("metrics is JSON")
}

#[test]
fn cache_corruption_is_a_miss_never_a_poisoned_answer() {
    let (h, plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(1),
            cache_corrupt_prob: 1.0,
            ..FaultSpec::default()
        },
        |_| {},
    );
    let cfg = SystemConfig::paper_default();
    let body = solve_body(&cfg, None);
    let want = solve(&cfg).unwrap().u_p;
    // Request 0: corrupted key — solved fresh, result NOT cached.
    // Request 1: window over, still a miss (nothing was cached) — solved
    // fresh and cached. Request 2: a genuine hit. All three identical.
    let mut cached_flags = Vec::new();
    for round in 0..3 {
        let (status, v) = http(h.addr(), "/v1/solve", &body);
        assert_eq!(status, 200, "round {round}");
        let u_p = report_field(&v, "u_p").and_then(|x| x.as_f64()).unwrap();
        assert_eq!(u_p.to_bits(), want.to_bits(), "round {round}");
        cached_flags.push(v.get("cached").and_then(|c| c.as_bool()).unwrap());
    }
    assert_eq!(
        cached_flags,
        [false, false, true],
        "corruption must cost exactly the one poisoned round"
    );
    assert_eq!(plan.injected_cache_corruptions.get(), 1);
    h.shutdown();
}

#[test]
fn mixed_fault_storm_never_hangs_and_every_answer_is_accounted_for() {
    // Everything at once, windowed: each of the first 24 requests draws
    // independently from every fault class; afterwards the server must
    // be fully recovered. The assertions here are the resilience
    // contract itself, not any particular fault schedule.
    let (h, _plan) = start_faulty(
        FaultSpec {
            seed: 0xC0FFEE,
            window: Some(24),
            latency_prob: 0.3,
            latency: Duration::from_millis(5),
            worker_panic_prob: 0.3,
            no_convergence_prob: 0.3,
            cache_corrupt_prob: 0.3,
            conn_drop_prob: 0.2,
        },
        |cfg| {
            cfg.workers = 4;
            cfg.retry_max = 2;
            cfg.breaker_threshold = 3;
            cfg.breaker_cooldown_ms = 50;
        },
    );
    let mut answered = 0u32;
    let mut dropped = 0u32;
    let mut degraded = 0u32;
    let mut errors = 0u32;
    for i in 0..30u32 {
        let cfg = SystemConfig::paper_default().with_n_threads(1 + (i as usize % 12));
        let want = solve(&cfg).unwrap().u_p;
        match try_http(h.addr(), "/v1/solve", &solve_body(&cfg, None)) {
            None => dropped += 1,
            Some((200, v)) => {
                answered += 1;
                match fidelity_of(&v) {
                    "exact" | "approximate" => {
                        let u_p = report_field(&v, "u_p").and_then(|x| x.as_f64()).unwrap();
                        assert_eq!(
                            u_p.to_bits(),
                            want.to_bits(),
                            "request {i}: a full-fidelity answer must be the correct answer"
                        );
                    }
                    "degraded" | "bounds" => degraded += 1,
                    other => panic!("request {i}: unknown fidelity tag {other:?}"),
                }
            }
            Some((status, v)) => {
                errors += 1;
                let kind = v
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(|k| k.as_str())
                    .unwrap_or_else(|| panic!("request {i}: unstructured {status} body"));
                assert!(
                    matches!(kind, "worker_lost" | "timeout" | "overloaded" | "internal"),
                    "request {i}: unexpected error kind {kind:?}"
                );
            }
        }
    }
    assert_eq!(answered as usize + dropped as usize + errors as usize, 30);
    // The storm is over. A breaker tripped mid-storm may still be
    // cooling; give it one cooldown, then the next probe must re-close
    // it and full fidelity must return within a couple of requests.
    std::thread::sleep(Duration::from_millis(120));
    let cfg = SystemConfig::paper_default();
    let recovered = (0..5).any(|_| {
        let (status, v) = http(h.addr(), "/v1/solve", &solve_body(&cfg, None));
        assert_eq!(status, 200, "{}", v.encode());
        matches!(fidelity_of(&v), "exact" | "approximate")
    });
    assert!(recovered, "full fidelity must return once faults clear");
    let m = get_metrics(h.addr());
    assert!(m.get("fault_injection").is_some());
    let summary = h.shutdown();
    assert!(summary.contains("latencyd shutdown"), "{summary}");
    // Not all storms shed or degrade — but the counters must exist and
    // the arithmetic must hold up.
    let _ = (degraded, dropped);
}
