//! `perfbench`: the benchmark of record for `latencyd`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hit-think|miss-solve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `latencyd`,
//! starts it as a child process on `127.0.0.1:0`, drives one seeded
//! workload over two keep-alive connections in slices separated by probe
//! rounds of the tolerance, sweep and scrape paths, checks every answer, and
//! prints one JSON line last: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). See `perfbench/README.md`.

mod check;
mod daemon;
mod drive;
mod gen;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lt_core::json::JsonValue;
use lt_service::ServiceMetrics;

use check::{ms, per_call_ns, Replay};
use daemon::{body_json, counter, requests_counted, Client, Daemon};
use drive::{Phase, Record};
use gen::{Kind, Plan, Window, Workload};
use stats::{median, percentile, quantile, supported_quantile};

/// `latencyd` start-ups timed before the window; the last one serves
/// the run. One more is timed after each probe round, so that `setup_s`,
/// the median of them all, samples the host across the whole run rather
/// than in one burst at its start.
const SETUP_RUNS: usize = 5;
/// Little's law on `miss-solve`: the measured mean number in the system
/// must be within this share of the two clients.
const LITTLE_TOLERANCE: f64 = 0.05;
/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`).
const TICK_MS: f64 = 10.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or("--seconds expects a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.line);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Outcome {
    line: String,
    correct: bool,
}

/// Traces a pseudo-random half of the window's requests (the top bit of
/// a multiplicative hash of the index), so the traced half does not
/// line up with the torus-size cycle or with one connection.
fn half(i: usize) -> bool {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
}

/// A bracketing `/metrics` scrape. A failed one yields `null`, whose
/// counters read NaN, so the request-count check fails the run.
fn scrape(client: &mut Client, plan: &Plan, op: usize) -> (Record, JsonValue) {
    let r = drive::one(client, &plan.ops, op, Phase::Bracket);
    let doc = body_json(&r.body).unwrap_or(JsonValue::Null);
    (r, doc)
}

/// Self-check: the server counted exactly the requests sent between two
/// scrapes (the later scrape counts itself).
fn count_check(checks: &mut Vec<String>, what: &str, a: &JsonValue, b: &JsonValue, sent: usize) {
    let counted = requests_counted(b) - requests_counted(a);
    if counted != (sent + 1) as f64 {
        checks.push(format!(
            "/metrics counted {counted} requests over {what}, the client sent {}",
            sent + 1
        ));
    }
}

/// Everything the run measured before the checks.
struct Measured {
    records: Vec<Record>,
    setups: Vec<f64>,
    /// Summed length of the window's slices.
    window_s: f64,
    cpu_ticks: u64,
    rss_kb: u64,
    /// `/metrics` before and after each slice of the window.
    slices: Vec<[JsonValue; 2]>,
    /// `/metrics` after the accuracy panel.
    last: JsonValue,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window: timings from a run with a high share are suspect.
    steal: f64,
    checks: Vec<String>,
}

impl Measured {
    /// A `/metrics` counter's growth over the window's slices.
    fn window_delta(&self, path: &[&str]) -> f64 {
        self.slices
            .iter()
            .map(|[a, b]| counter(b, path) - counter(a, path))
            .sum()
    }
}

fn measure(args: &Args, plan: &Plan) -> Result<Measured, String> {
    let bin = daemon::build_latencyd()?;
    let mut setups = Vec::with_capacity(SETUP_RUNS + plan.probes.len());
    let mut kept = None;
    for _ in 0..SETUP_RUNS {
        let (d, took) = Daemon::start(&bin, &[])?;
        setups.push(took.as_secs_f64());
        kept = Some(d);
    }
    let daemon = kept.expect("SETUP_RUNS > 0");
    let mut clients = [Client::new(daemon.addr), Client::new(daemon.addr)];
    let ops = &plan.ops;
    let mut records = drive::closed(&mut clients, ops, &plan.prewarm, Phase::Prewarm, None);

    let scrape_op = ops
        .iter()
        .position(|o| o.kind == Kind::Metrics)
        .expect("every plan scrapes /metrics");
    let mut checks = Vec::new();
    let (r, mut doc) = scrape(&mut clients[0], plan, scrape_op);
    records.push(r);
    let slice = Duration::from_secs(args.seconds) / plan.probes.len() as u32;
    // Window ops each connection (think time) or the loop (closed) used.
    let mut used = [0usize; 2];
    let (mut window_s, mut cpu_ticks, mut host, mut stolen) = (0.0, 0, 0, 0);
    let mut slices = Vec::with_capacity(plan.probes.len());
    for round in &plan.probes {
        let cpu0 = daemon.cpu_ticks()?;
        let host0 = daemon::host_ticks();
        let start = Instant::now() + Duration::from_millis(1);
        let until = start + slice;
        let got = match &plan.window {
            Window::Think([a, b]) => {
                let got = drive::think(
                    &mut clients,
                    ops,
                    [&a[used[0]..], &b[used[1]..]],
                    start,
                    until,
                )
                .ok_or("hit-think ran out of generated requests")?;
                for r in &got {
                    used[r.conn] += 1;
                }
                got
            }
            Window::Closed(list) => {
                let got = drive::closed(
                    &mut clients,
                    ops,
                    &list[used[0]..],
                    Phase::Window,
                    Some(until),
                );
                used[0] += got.len();
                if used[0] >= list.len() {
                    return Err("miss-solve ran out of distinct configurations".into());
                }
                got
            }
        };
        window_s += drive::span_of(&got, start).as_secs_f64();
        cpu_ticks += daemon.cpu_ticks()? - cpu0;
        if let (Some((t0, s0)), Some((t1, s1))) = (host0, daemon::host_ticks()) {
            host += t1 - t0;
            stolen += s1 - s0;
        }
        let (r, after) = scrape(&mut clients[0], plan, scrape_op);
        count_check(&mut checks, "a window slice", &doc, &after, got.len());
        records.extend(got);
        records.push(r);

        for &op in round {
            records.push(drive::one(&mut clients[0], ops, op, Phase::Probe));
        }
        let (r, next) = scrape(&mut clients[0], plan, scrape_op);
        count_check(&mut checks, "a probe round", &after, &next, round.len());
        records.push(r);
        slices.push([std::mem::replace(&mut doc, next), after]);
        let (spare, took) = Daemon::start(&bin, &[])?;
        setups.push(took.as_secs_f64());
        drop(spare);
    }
    for &op in &plan.panel {
        records.push(drive::one(&mut clients[0], ops, op, Phase::Panel));
    }
    let (r, last) = scrape(&mut clients[0], plan, scrape_op);
    count_check(
        &mut checks,
        "the accuracy panel",
        &doc,
        &last,
        plan.panel.len(),
    );
    records.push(r);
    let rss_kb = daemon.rss_peak_kb()?;
    drop(daemon);

    if args.trace {
        let window = records.iter_mut().filter(|r| r.phase == Phase::Window);
        for (i, r) in window.enumerate() {
            r.traced = half(i);
        }
    }
    Ok(Measured {
        records,
        setups,
        window_s,
        cpu_ticks,
        rss_kb,
        slices,
        last,
        steal: ratio(stolen as f64, host as f64),
        checks,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let plan = gen::plan(args.workload, args.seed, args.seconds as f64);
    let m = measure(args, &plan)?;
    let (replay, mut spans) = check::replay(&plan, &m.records, args.trace);
    let verdicts: Vec<check::Verdict> = m
        .records
        .iter()
        .map(|r| check::verify(&plan, &replay, r))
        .collect();
    let failed = verdicts.iter().filter(|v| v.is_err()).count();
    let mut checks = m.checks.clone();
    for (r, v) in m.records.iter().zip(&verdicts) {
        if let Err(e) = v {
            if checks.len() < 20 {
                checks.push(format!("{:?} request failed: {e}", r.phase));
            }
        }
    }
    checks.extend(replay.errors.iter().take(5).cloned());

    let window: Vec<(usize, &Record)> = m
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.phase == Phase::Window)
        .collect();
    let kind = |r: &Record| plan.ops[r.op].kind;
    // Failed requests count as +∞ latency.
    let latencies = |k: Kind, phase: Phase| -> Vec<f64> {
        m.records
            .iter()
            .zip(&verdicts)
            .filter(|(r, _)| r.phase == phase && kind(r) == k)
            .map(|(r, v)| {
                if v.is_ok() {
                    r.latency_ms()
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    };
    let solves = latencies(Kind::Solve, Phase::Window);
    let mut aux = Vec::new();
    for (name, k) in [
        ("tolerance_p50_ms", Kind::Tolerance),
        ("sweep_p50_ms", Kind::Sweep),
        ("scrape_p50_ms", Kind::Metrics),
    ] {
        let v = percentile(&latencies(k, Phase::Probe), 0.5)
            .ok_or_else(|| format!("no {name} samples"))?;
        aux.push((name, v));
    }
    let ok_solves = solves.iter().filter(|l| l.is_finite()).count();

    if plan.workload == Workload::MissSolve {
        // Little's law: two closed-loop clients are always in the system.
        let w_s = stats::mean(
            &window
                .iter()
                .map(|(_, r)| r.service_us() / 1e6)
                .collect::<Vec<_>>(),
        );
        let l = window.len() as f64 / m.window_s * w_s;
        if (l / 2.0 - 1.0).abs() > LITTLE_TOLERANCE {
            checks.push(format!(
                "Little's law: rate × mean latency = {l:.3}, not the 2 clients"
            ));
        }
    }
    let up_err = check::panel_error_pct(&plan, &m.records).unwrap_or_else(|e| {
        checks.push(format!("accuracy panel: {e}"));
        f64::NAN
    });
    let correct = checks.is_empty();
    for c in &checks {
        eprintln!("perfbench: check failed: {c}");
    }
    quality(&plan, &m, &verdicts, &window);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        per_layer(&plan, &m, &replay, &spans, &window, &mut metrics);
        for (i, r) in &window {
            if r.traced {
                spans.push(*i as u64, "request", "", r.sent, r.done);
            }
        }
        let path = target_dir().join("perfbench").join(format!(
            "trace-{}-{}.jsonl",
            plan.workload.name(),
            args.seed
        ));
        let epoch = m.records.first().map_or_else(Instant::now, |r| r.sent);
        trace::write(&path, &spans.spans, epoch).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.spans.len(),
            path.display()
        );
    } else {
        metrics.push(("setup_s", median(&m.setups), "s"));
        metrics.push((
            "solve_p50_ms",
            percentile(&solves, 0.5).ok_or("no solve samples")?,
            "ms",
        ));
        metrics.push((
            "solve_p99_ms",
            quantile(&solves, 0.99)
                .ok_or_else(|| format!("{} solves are too few for a p99", solves.len()))?,
            "ms",
        ));
        metrics.push(("solve_rps", ok_solves as f64 / m.window_s, "1/s"));
        // Add-one estimate: a run with no failure reads 1/(n+1), never 0,
        // and one failure doubles it.
        metrics.push((
            "error_ratio",
            (failed + 1) as f64 / (m.records.len() + 1) as f64,
            "ratio",
        ));
        metrics.push(("up_err_max_pct", up_err, "%"));
        metrics.push((
            "cpu_ms_per_req",
            m.cpu_ticks as f64 * TICK_MS / window.len().max(1) as f64,
            "ms",
        ));
        metrics.push(("rss_peak_mb", m.rss_kb as f64 / 1024.0, "MB"));
        for (name, v) in aux {
            metrics.push((name, v, "ms"));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 1e300 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.records.len(),
        body.join(", ")
    );
    Ok(Outcome { line, correct })
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The generator's own quality, on stderr: how late sends ran, the
/// think gaps, the hit ratio, the Auto rungs that answered, the key space
/// against the cache, and the host's stolen CPU time.
fn quality(plan: &Plan, m: &Measured, verdicts: &[check::Verdict], window: &[(usize, &Record)]) {
    let lags: Vec<f64> = window.iter().map(|(_, r)| r.lag_ms()).collect();
    let mut rungs: BTreeMap<String, usize> = BTreeMap::new();
    let mut torus: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, r) in window {
        if plan.ops[r.op].kind != Kind::Solve {
            continue;
        }
        if let Ok(Some(rung)) = &verdicts[*i] {
            *rungs.entry(rung.clone()).or_default() += 1;
        }
        let k = plan.configs[plan.ops[r.op].cfgs[0]].arch.topology.k();
        *torus.entry(k).or_default() += 1;
    }
    let solves: usize = torus.values().sum();
    let share = |map: Vec<(String, usize)>| -> String {
        map.iter()
            .map(|(k, n)| format!("\"{k}\": {:.4}", *n as f64 / solves.max(1) as f64))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // Idle gap before each request on its connection, within a slice.
    let mut gaps = [0usize; 5];
    let mut prev: [Option<Instant>; 2] = [None, None];
    for r in &m.records {
        if r.phase != Phase::Window {
            prev = [None, None];
            continue;
        }
        if let Some(p) = prev[r.conn] {
            let gap = ms(r.sent.saturating_duration_since(p));
            let bucket = [5.0, 50.0, 100.0, 200.0]
                .iter()
                .position(|&edge| gap < edge)
                .unwrap_or(4);
            gaps[bucket] += 1;
        }
        prev[r.conn] = Some(r.done);
    }
    let hits = m.window_delta(&["cache", "hits"]);
    let misses = m.window_delta(&["cache", "misses"]);
    let keyspace = match plan.workload {
        Workload::HitThink => gen::HIT_SET as f64,
        Workload::MissSolve => window.len() as f64,
    };
    let cache = check::server_cache() as f64;
    eprintln!(
        "perfbench quality: {{\"workload\": \"{}\", \"window_requests\": {}, \"lag_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}}, \
         \"think_gap_ms\": {{\"<5\": {}, \"5-50\": {}, \"50-100\": {}, \"100-200\": {}, \">=200\": {}}}, \
         \"cache_hit_ratio\": {:.4}, \"rung_share\": {{{}}}, \"torus_share\": {{{}}}, \
         \"keyspace_to_cache\": {:.3}, \"host_steal_pct\": {:.2}}}",
        plan.workload.name(),
        window.len(),
        percentile(&lags, 0.5).unwrap_or(0.0),
        supported_quantile(&lags, 0.99).unwrap_or(0.0),
        lags.iter().cloned().fold(0.0, f64::max),
        gaps[0],
        gaps[1],
        gaps[2],
        gaps[3],
        gaps[4],
        ratio(hits, hits + misses),
        share(rungs.into_iter().collect()),
        share(torus.into_iter().map(|(k, n)| (format!("{k}x{k}"), n)).collect()),
        keyspace / cache,
        100.0 * m.steal,
    );
}

/// Per-layer metrics of a traced run.
fn per_layer(
    plan: &Plan,
    m: &Measured,
    rep: &Replay,
    spans: &trace::Spans,
    window: &[(usize, &Record)],
    out: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let n = window.len().max(1) as f64;
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let tail = |v: &[f64]| supported_quantile(v, 0.99).unwrap_or(0.0);
    let span_med = |name: &str| med(&trace::self_times_us(&spans.spans, name));

    let solve_window: Vec<&Record> = window
        .iter()
        .map(|(_, r)| *r)
        .filter(|r| plan.ops[r.op].kind == Kind::Solve)
        .collect();
    let residual: Vec<f64> = window
        .iter()
        .filter(|(_, r)| plan.ops[r.op].kind == Kind::Solve)
        .filter_map(|(i, r)| rep.service_us.get(i).map(|s| r.service_us() - s))
        .collect();
    out.push(("reactor.residual_p50_us", med(&residual), "us"));
    out.push(("reactor.residual_p99_us", tail(&residual), "us"));
    out.push((
        "reactor.wakeups_per_req",
        m.window_delta(&["reactor", "wakeups"]) / n,
        "count/req",
    ));
    out.push(("http.parse_us", span_med("http.parse"), "us"));
    out.push(("http.write_us", span_med("http.write"), "us"));
    out.push(("api.decode_us", span_med("api.decode"), "us"));
    out.push(("wire.key_us", span_med("wire.key"), "us"));
    out.push(("api.encode_us", span_med("api.encode"), "us"));
    out.push(("cache.get_us", span_med("cache.get"), "us"));
    out.push(("cache.insert_us", span_med("cache.insert"), "us"));
    let hits = m.window_delta(&["cache", "hits"]);
    let misses = m.window_delta(&["cache", "misses"]);
    out.push(("cache.hit_ratio", ratio(hits, hits + misses), "ratio"));
    out.push((
        "cache.evictions_per_req",
        m.window_delta(&["cache", "evictions"]) / n,
        "count/req",
    ));
    out.push(("pool.queue_wait_p50_us", med(&rep.queue_wait_us), "us"));
    out.push(("pool.queue_wait_p99_us", tail(&rep.queue_wait_us), "us"));
    out.push((
        "pool.jobs_per_req",
        m.window_delta(&["pool", "jobs_submitted"]) / n,
        "count/req",
    ));
    out.push((
        "server.handler_threads_spawned",
        m.window_delta(&["reactor", "handler_threads_spawned"]),
        "count",
    ));
    out.push((
        "server.shed_ratio",
        m.window_delta(&["resilience", "shed"]) / n,
        "ratio",
    ));

    // The metrics registry, fed the run's own latencies.
    let lat: Vec<Duration> = solve_window
        .iter()
        .map(|r| r.done.duration_since(r.sent))
        .collect();
    let registry = ServiceMetrics::new();
    let record_ns = per_call_ns(lat.len(), |i| registry.record_latency(lat[i]));
    let summary_us = |registry: &ServiceMetrics| {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                registry.record_latency(Duration::from_micros(500));
                let t = Instant::now();
                std::hint::black_box(registry.latency_summary());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&times)
    };
    out.push(("metrics.record_ns", record_ns, "ns"));
    out.push(("metrics.summary_us", summary_us(&registry), "us"));
    let big = ServiceMetrics::new();
    for i in 0..1_000_000u64 {
        big.record_latency(
            lat.get(i as usize % lat.len().max(1))
                .copied()
                .unwrap_or_default(),
        );
    }
    out.push(("metrics.summary_us_1m", summary_us(&big), "us"));

    out.push((
        "qn.build_us",
        med(&rep.solves.iter().map(|s| s.build_us).collect::<Vec<_>>()),
        "us",
    ));
    let total = rep.solves.len().max(1) as f64;
    for (rung, us_name, iters_name, share_name) in [
        ("mva.exact", "mva.exact_us", "", "mva.rung_share.exact"),
        (
            "mva.linearizer",
            "mva.linearizer_us",
            "mva.linearizer_iters",
            "mva.rung_share.linearizer",
        ),
        (
            "mva.symmetric_amva",
            "mva.symmetric_amva_us",
            "mva.symmetric_amva_iters",
            "mva.rung_share.symmetric_amva",
        ),
        ("mva.amva", "", "", "mva.rung_share.amva"),
    ] {
        let of: Vec<_> = rep.solves.iter().filter(|s| s.rung == rung).collect();
        if !us_name.is_empty() {
            out.push((
                us_name,
                med(&of.iter().map(|s| s.solve_us).collect::<Vec<_>>()),
                "us",
            ));
        }
        if !iters_name.is_empty() {
            out.push((
                iters_name,
                med(&of.iter().map(|s| s.iterations as f64).collect::<Vec<_>>()),
                "count",
            ));
        }
        out.push((share_name, of.len() as f64 / total, "ratio"));
    }
    out.push(("sweep.point_us", med(&rep.sweep_point_us), "us"));
    out.push((
        "sweep.warm_hit_ratio",
        ratio(
            rep.sweep_warm as f64,
            (rep.sweep_warm + rep.sweep_cold) as f64,
        ),
        "ratio",
    ));
    out.push(("tolerance.index_us", med(&rep.tolerance_us), "us"));
    let created = counter(&m.last, &["solver", "workspaces_created"]);
    let reused = counter(&m.last, &["solver", "workspaces_reused"]);
    out.push((
        "workspace.reuse_ratio",
        ratio(reused, created + reused),
        "ratio",
    ));

    // Tracing overhead: traced minus untraced requests of the same window.
    let p50_of = |traced: bool| {
        let v: Vec<f64> = solve_window
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.latency_ms() * 1e3)
            .collect();
        med(&v)
    };
    out.push(("trace.overhead_p50_us", p50_of(true) - p50_of(false), "us"));
}
