//! Answer checks and the in-process replay.
//!
//! After the window, every request the run sent is replayed in process
//! through the same public functions `latencyd` calls, in send order,
//! from two submitters over a two-worker `WorkerPool`, with a solution
//! cache of the server's capacity. The replay yields the reference
//! answer every response is checked against, and, in a traced run, one
//! span per layer call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lt_core::analysis::{solve_network_in, solve_network_with};
use lt_core::json::{self, JsonValue};
use lt_core::metrics::{report, Fidelity, PerformanceReport};
use lt_core::mva::{exact, SolverOptions};
use lt_core::params::SystemConfig;
use lt_core::qn::build::build_network;
use lt_core::sweep::{solve_sweep, SweepOptions};
use lt_core::tolerance::{tolerance_index, ToleranceReport};
use lt_core::wire::{canonical_solve_key, tolerance_to_json};
use lt_core::{LtError, SolverChoice, SolverWorkspace};
use lt_service::http::{ParseStatus, RequestParser, Response};
use lt_service::{api, ServerConfig, SolveCache, WorkerPool};

use crate::daemon::body_json;
use crate::drive::{Phase, Record};
use crate::gen::{Kind, Plan};
use crate::trace::Spans;

/// The cache capacity `latencyd` runs with.
pub fn server_cache() -> usize {
    ServerConfig::default().cache_capacity
}

/// Population-lattice entries (lattice states × stations) up to which
/// the panel reference is exact MVA: a few tens of MB of tables.
const EXACT_ENTRIES: u128 = 4_000_000;
/// Served and replayed `U_p` (or tolerance index) must agree this closely.
const REL_TOL: f64 = 1e-6;

/// One solve as the replay ran it.
#[derive(Debug, Clone, Copy)]
pub struct SolveCost {
    pub rung: &'static str,
    pub build_us: f64,
    pub solve_us: f64,
    pub iterations: usize,
}

/// What the replay learned, besides the spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// The replayed report of every solved configuration.
    pub reports: HashMap<usize, Arc<PerformanceReport>>,
    pub tolerance: HashMap<usize, ToleranceReport>,
    /// `U_p` of every point of the replayed sweeps.
    pub sweep_u_p: HashMap<usize, f64>,
    pub solves: Vec<SolveCost>,
    /// Submit-to-start wait of every pool job, microseconds.
    pub queue_wait_us: Vec<f64>,
    pub tolerance_us: Vec<f64>,
    /// Microseconds per point of every replayed sweep.
    pub sweep_point_us: Vec<f64>,
    pub sweep_warm: u64,
    pub sweep_cold: u64,
    /// Replayed in-process service time of each replayed request, by record index.
    pub service_us: HashMap<usize, f64>,
    /// Replay failures (a config the server answered but the library rejects).
    pub errors: Vec<String>,
}

/// The Auto rung that answered, as a span name.
pub fn rung_span(solver: &str) -> &'static str {
    match solver {
        "exact-mva" => "mva.exact",
        "linearizer" => "mva.linearizer",
        "symmetric-amva" => "mva.symmetric_amva",
        "amva" => "mva.amva",
        _ => "mva.other",
    }
}

/// Build, solve with Auto and extract the report: the three steps of
/// `lt_core::solve_with`, timed one by one.
pub fn solve_timed(cfg: &SystemConfig) -> Result<(PerformanceReport, [Instant; 3]), LtError> {
    let t0 = Instant::now();
    let mms = build_network(cfg)?;
    let t1 = Instant::now();
    let sol = solve_network_in(
        &mms,
        SolverChoice::Auto,
        SolverOptions::default(),
        None,
        &mut SolverWorkspace::new(),
    )?;
    let t2 = Instant::now();
    Ok((report(&mms, &sol), [t0, t1, t2]))
}

fn us(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e6
}

struct Shared<'a> {
    plan: &'a Plan,
    records: &'a [Record],
    list: Vec<usize>,
    next: AtomicUsize,
    cache: SolveCache<Arc<PerformanceReport>>,
    /// Largest body the replayed parser accepts (the server's default).
    max_body: usize,
    pool: WorkerPool,
    out: Mutex<Replay>,
}

/// Replay every solve and tolerance request (in send order, two
/// submitters) and every sweep; returns the reference answers and
/// timings, and the spans when `traced`.
pub fn replay(plan: &Plan, records: &[Record], traced: bool) -> (Replay, Spans) {
    let list = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(plan.ops[r.op].kind, Kind::Solve | Kind::Tolerance))
        .map(|(i, _)| i)
        .collect();
    let shared = Shared {
        plan,
        records,
        list,
        next: AtomicUsize::new(0),
        cache: SolveCache::new(server_cache()),
        max_body: ServerConfig::default().max_body_bytes,
        pool: WorkerPool::new(2),
        out: Mutex::new(Replay::default()),
    };
    let mut spans = std::thread::scope(|s| {
        let other = s.spawn(|| submitter(&shared, traced));
        let mut mine = submitter(&shared, traced);
        mine.spans
            .extend(other.join().expect("replay submitter panicked").spans);
        mine
    });
    shared.pool.shutdown();
    let mut out = shared.out.into_inner().expect("replay state poisoned");
    for (i, r) in records.iter().enumerate() {
        let op = &plan.ops[r.op];
        if op.kind != Kind::Sweep {
            continue;
        }
        let cfgs: Vec<SystemConfig> = op.cfgs.iter().map(|&c| plan.configs[c].clone()).collect();
        let start = Instant::now();
        let outcome = solve_sweep(
            &cfgs,
            &SweepOptions {
                threads: Some(2),
                ..SweepOptions::default()
            },
        );
        let end = Instant::now();
        spans.push(i as u64, "sweep.batch", "", start, end);
        out.sweep_point_us.push(us(start, end) / cfgs.len() as f64);
        out.sweep_warm += outcome.warm_hits;
        out.sweep_cold += outcome.cold_solves;
        for (&c, rep) in op.cfgs.iter().zip(outcome.reports) {
            match rep {
                Ok(rep) => {
                    out.sweep_u_p.insert(c, rep.u_p);
                }
                Err(e) => out.errors.push(format!("sweep point {c}: {e}")),
            }
        }
    }
    (out, spans)
}

fn submitter(sh: &Shared, traced: bool) -> Spans {
    let mut spans = Spans::new(traced);
    loop {
        let i = sh.next.fetch_add(1, Ordering::Relaxed);
        let Some(&idx) = sh.list.get(i) else {
            return spans;
        };
        let rec = &sh.records[idx];
        let op = &sh.plan.ops[rec.op];
        let id = idx as u64;
        let root = Instant::now();
        match replay_one(sh, op.kind, &op.bytes, op.cfgs[0], id, &mut spans) {
            Ok(()) => {
                let end = Instant::now();
                let parent = if rec.traced { "request" } else { "" };
                spans.push(id, "replay", parent, root, end);
                sh.out
                    .lock()
                    .expect("replay state poisoned")
                    .service_us
                    .insert(idx, us(root, end));
            }
            Err(e) => sh
                .out
                .lock()
                .expect("replay state poisoned")
                .errors
                .push(format!("request {idx}: {e}")),
        }
    }
}

fn replay_one(
    sh: &Shared,
    kind: Kind,
    bytes: &[u8],
    cfg_id: usize,
    id: u64,
    spans: &mut Spans,
) -> Result<(), String> {
    let t = Instant::now();
    let mut parser = RequestParser::new(sh.max_body);
    parser.feed(bytes);
    let req = match parser.poll() {
        ParseStatus::Ready(req) => req,
        other => return Err(format!("request does not parse: {other:?}")),
    };
    spans.push(id, "http.parse", "replay", t, Instant::now());

    let body = if kind == Kind::Solve {
        let t = Instant::now();
        let sreq = api::parse_solve(&req.body).map_err(|e| e.message)?;
        let t1 = Instant::now();
        let key = canonical_solve_key(&sreq.config, sreq.solver);
        let t2 = Instant::now();
        let hit = sh.cache.get(&key);
        let t3 = Instant::now();
        spans.push(id, "api.decode", "replay", t, t1);
        spans.push(id, "wire.key", "replay", t1, t2);
        spans.push(id, "cache.get", "replay", t2, t3);
        let (cached, rep) = match hit {
            Some(rep) => (true, rep),
            None => {
                let cfg = sreq.config;
                let submitted = Instant::now();
                let rx = sh
                    .pool
                    .execute(move || {
                        let started = Instant::now();
                        solve_timed(&cfg).map(|(rep, t)| (started, rep, t, Instant::now()))
                    })
                    .ok_or("replay pool closed")?;
                let (started, rep, [t0, t1, t2], t3) = rx
                    .recv()
                    .map_err(|_| "replay worker lost".to_string())?
                    .map_err(|e| e.to_string())?;
                let rung = rung_span(rep.diagnostics.solver);
                spans.push(id, "pool.queue", "replay", submitted, started);
                spans.push(id, "pool.job", "replay", started, t3);
                spans.push(id, "qn.build", "pool.job", t0, t1);
                spans.push(id, rung, "pool.job", t1, t2);
                spans.push(id, "core.report", "pool.job", t2, t3);
                let rep = Arc::new(rep);
                let t = Instant::now();
                sh.cache.insert(key, Arc::clone(&rep));
                spans.push(id, "cache.insert", "replay", t, Instant::now());
                let mut out = sh.out.lock().expect("replay state poisoned");
                out.queue_wait_us.push(us(submitted, started));
                out.solves.push(SolveCost {
                    rung,
                    build_us: us(t0, t1),
                    solve_us: us(t1, t2),
                    iterations: rep.iterations,
                });
                out.reports
                    .entry(cfg_id)
                    .or_insert_with(|| Arc::clone(&rep));
                (false, rep)
            }
        };
        let t = Instant::now();
        let body = api::solve_response(cached, &rep);
        spans.push(id, "api.encode", "replay", t, Instant::now());
        body
    } else {
        let t = Instant::now();
        let treq = api::parse_tolerance(&req.body).map_err(|e| e.message)?;
        spans.push(id, "api.decode", "replay", t, Instant::now());
        let submitted = Instant::now();
        let rx = sh
            .pool
            .execute(move || {
                let started = Instant::now();
                let tol = tolerance_index(&treq.config, treq.spec);
                (started, tol, Instant::now())
            })
            .ok_or("replay pool closed")?;
        let (started, tol, ended) = rx.recv().map_err(|_| "replay worker lost".to_string())?;
        let tol = tol.map_err(|e| e.to_string())?;
        spans.push(id, "pool.queue", "replay", submitted, started);
        spans.push(id, "tolerance.index", "replay", started, ended);
        {
            let mut out = sh.out.lock().expect("replay state poisoned");
            out.queue_wait_us.push(us(submitted, started));
            out.tolerance_us.push(us(started, ended));
            out.tolerance.insert(cfg_id, tol);
        }
        let t = Instant::now();
        let body = json::encode(&JsonValue::object(vec![(
            "tolerance",
            tolerance_to_json(&tol),
        )]));
        spans.push(id, "api.encode", "replay", t, Instant::now());
        body
    };
    let t = Instant::now();
    let mut wire = Vec::with_capacity(body.len() + 128);
    Response::json(200, body)
        .write_to(&mut wire)
        .map_err(|e| e.to_string())?;
    spans.push(id, "http.write", "replay", t, Instant::now());
    Ok(())
}

fn close(served: f64, reference: f64) -> bool {
    (served - reference).abs() <= REL_TOL * reference.abs().max(1e-9)
}

/// A served full-fidelity report: its `U_p` and the rung that answered.
fn served_report(v: &JsonValue) -> Result<(f64, String), String> {
    let fidelity = v
        .get("fidelity")
        .and_then(JsonValue::as_str)
        .and_then(Fidelity::from_label)
        .ok_or("report has no fidelity")?;
    if !fidelity.is_full() {
        return Err(format!("fidelity {} is not full", fidelity.label()));
    }
    let u_p = v
        .get("u_p")
        .and_then(JsonValue::as_f64)
        .ok_or("report has no u_p")?;
    let rung = v
        .get("diagnostics")
        .and_then(|d| d.get("solver"))
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_string();
    Ok((u_p, rung))
}

/// What checking one response found: the rung of a served solve.
pub type Verdict = Result<Option<String>, String>;

/// Check one response against the plan and the replay.
pub fn verify(plan: &Plan, rep: &Replay, r: &Record) -> Verdict {
    if r.status == 0 {
        return Err("transport error".into());
    }
    if !(200..300).contains(&r.status) {
        return Err(format!("status {}", r.status));
    }
    let op = &plan.ops[r.op];
    let doc = body_json(&r.body).ok_or("body is not JSON")?;
    match op.kind {
        Kind::Solve => {
            let cached = doc
                .get("cached")
                .and_then(JsonValue::as_bool)
                .ok_or("no cached flag")?;
            if op.expect_cached.is_some_and(|want| want != cached) {
                return Err(format!("cached is {cached}"));
            }
            let (u_p, rung) = served_report(doc.get("report").ok_or("no report")?)?;
            let want = rep.reports.get(&op.cfgs[0]).ok_or("no replayed answer")?;
            if !close(u_p, want.u_p) {
                return Err(format!("U_p {u_p} but the library gives {}", want.u_p));
            }
            Ok(Some(rung))
        }
        Kind::Tolerance => {
            let index = doc
                .get("tolerance")
                .and_then(|t| t.get("index"))
                .and_then(JsonValue::as_f64)
                .ok_or("no tolerance index")?;
            let want = rep.tolerance.get(&op.cfgs[0]).ok_or("no replayed answer")?;
            if !close(index, want.index) {
                return Err(format!(
                    "index {index} but the library gives {}",
                    want.index
                ));
            }
            Ok(None)
        }
        Kind::Sweep => {
            let items = doc
                .get("results")
                .and_then(JsonValue::as_array)
                .ok_or("no results")?;
            if items.len() != op.cfgs.len() {
                return Err(format!(
                    "{} results for {} configs",
                    items.len(),
                    op.cfgs.len()
                ));
            }
            for (item, c) in items.iter().zip(&op.cfgs) {
                if item.get("ok").and_then(JsonValue::as_bool) != Some(true) {
                    return Err("a sweep item failed".into());
                }
                let (u_p, _) = served_report(item.get("report").ok_or("no report")?)?;
                let want = rep.sweep_u_p.get(c).ok_or("no replayed answer")?;
                if !close(u_p, *want) {
                    return Err(format!("sweep U_p {u_p} but the library gives {want}"));
                }
            }
            Ok(None)
        }
        Kind::Metrics => {
            doc.get("endpoints").ok_or("no endpoints in /metrics")?;
            Ok(None)
        }
    }
}

/// The reference for the accuracy panel: exact MVA where the population
/// lattice fits, else the general Linearizer at a tolerance tighter than
/// the default.
pub fn reference_u_p(cfg: &SystemConfig) -> Result<(f64, &'static str), LtError> {
    let mms = build_network(cfg)?;
    if let Ok(sol) = exact::solve_with_limit(&mms.net, EXACT_ENTRIES) {
        return Ok((report(&mms, &sol).u_p, "exact"));
    }
    let opts = SolverOptions {
        tolerance: 1e-12,
        ..SolverOptions::default()
    };
    let sol = solve_network_with(&mms, SolverChoice::Linearizer, opts)?;
    Ok((report(&mms, &sol).u_p, "linearizer"))
}

/// Largest relative `U_p` error of the served panel answers, in percent.
pub fn panel_error_pct(plan: &Plan, records: &[Record]) -> Result<f64, String> {
    let served: Vec<(usize, f64)> = records
        .iter()
        .filter(|r| r.phase == Phase::Panel)
        .map(|r| {
            let doc = body_json(&r.body).ok_or("panel answer is not JSON")?;
            let (u_p, _) = served_report(doc.get("report").ok_or("panel answer has no report")?)?;
            Ok((plan.ops[r.op].cfgs[0], u_p))
        })
        .collect::<Result<_, String>>()?;
    if served.len() != plan.panel.len() {
        return Err("the panel was not fully served".into());
    }
    let errors = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .iter()
            .map(|&(c, u_p)| {
                s.spawn(move || {
                    reference_u_p(&plan.configs[c])
                        .map(|(want, _)| 100.0 * (u_p - want).abs() / want)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect::<Result<Vec<f64>, String>>()
    })?;
    Ok(errors.into_iter().fold(0.0, f64::max))
}

/// Time `f` over `n` calls, nanoseconds per call.
pub fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Duration as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_core::Topology;

    #[test]
    fn timed_solve_is_solve_with() {
        for k in [2, 3, 5] {
            let cfg = SystemConfig::paper_default()
                .with_topology(Topology::torus(k))
                .with_n_threads(3);
            let (timed, _) = solve_timed(&cfg).unwrap();
            assert_eq!(timed, {
                let mut r = lt_core::solve_with(&cfg, SolverChoice::Auto).unwrap();
                r.diagnostics.wall_time = timed.diagnostics.wall_time;
                r
            });
        }
    }

    #[test]
    fn reference_is_exact_where_the_lattice_fits() {
        let small = SystemConfig::paper_default().with_topology(Topology::torus(2));
        assert_eq!(reference_u_p(&small).unwrap().1, "exact");
        let exact = lt_core::solve_with(&small, SolverChoice::Exact)
            .unwrap()
            .u_p;
        assert_eq!(reference_u_p(&small).unwrap().0, exact);
        let large = SystemConfig::paper_default().with_topology(Topology::torus(3));
        assert_eq!(reference_u_p(&large).unwrap().1, "linearizer");
    }

    #[test]
    fn closeness_is_relative() {
        assert!(close(0.5, 0.5 + 1e-8));
        assert!(!close(0.5, 0.5001));
    }
}
