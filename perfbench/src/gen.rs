//! Seeded input generation.
//!
//! Everything `latencyd` sees is built here from `--seed` before the
//! server starts: the model configurations, the exact request bytes and
//! the think times. The same seed gives byte-identical requests and the
//! same think times; the server never sees the seed itself.
//!
//! Configurations come from one generator, [`config`], that spans the
//! paper's Figure 4–9 axes. The torus size follows a fixed cycle by
//! slot, so every workload holds each size in the same share and the
//! solver mix (which Auto rung answers) does not drift with the seed.

use std::collections::HashSet;
use std::time::Duration;

use lt_core::json::{self, JsonValue};
use lt_core::params::SystemConfig;
use lt_core::wire;
use lt_core::{AccessPattern, SolverChoice, Topology};

/// SplitMix64: a small, well-mixed generator. Streams with different
/// tags are independent for every practical purpose here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Torus sizes `k` (a `k × k` machine) in the order slots take them:
/// 2×2 and 3×3 a tenth each, 4×4 a fifth, 5×5 and 6×6 three tenths
/// each. Weighting the sizes Auto answers with symmetric AMVA puts the
/// median solve inside one rung's narrow cost band instead of on the
/// edge between a cheap rung and an expensive one, where the median of
/// a run would jump with the seed.
pub const TORUS_CYCLE: [usize; 10] = [2, 3, 4, 5, 6, 4, 5, 6, 5, 6];

/// One configuration from the Figure 4–9 axes: `n_t ∈ 1..=16`,
/// `p_remote` continuous in `[0.05, 0.9]`, `R ∈ {0.5, 1, 2}`,
/// `S, L ∈ {1, 2}`, geometric (`p_sw = 0.5`) or uniform remote
/// accesses; the torus size comes from `slot`.
pub fn config(rng: &mut Rng, slot: usize) -> SystemConfig {
    let k = TORUS_CYCLE[slot % TORUS_CYCLE.len()];
    let n_t = 1 + rng.below(16);
    let p_remote = 0.05 + 0.85 * rng.unit();
    let runlength = [0.5, 1.0, 2.0][rng.below(3)];
    let switch_delay = [1.0, 2.0][rng.below(2)];
    let memory_latency = [1.0, 2.0][rng.below(2)];
    let pattern = if rng.below(2) == 0 {
        AccessPattern::geometric(0.5)
    } else {
        AccessPattern::Uniform
    };
    SystemConfig::paper_default()
        .with_topology(Topology::torus(k))
        .with_n_threads(n_t)
        .with_p_remote(p_remote)
        .with_runlength(runlength)
        .with_switch_delay(switch_delay)
        .with_memory_latency(memory_latency)
        .with_pattern(pattern)
}

/// A Figure 4 point: the paper's default machine (4×4 torus, `R = 1`)
/// at the given thread count and remote-access probability.
pub fn figure4_point(n_t: usize, p_remote: f64) -> SystemConfig {
    SystemConfig::paper_default()
        .with_n_threads(n_t)
        .with_p_remote(p_remote)
}

/// The 16 points of one Figure 4 sweep: `n_t ∈ {2, 4, 8, 16}` by
/// `p_remote ∈ {0.1, 0.3, 0.5, 0.7}`, all shifted by one seeded offset
/// in `[0, 0.005)`: every sweep carries keys never sent before, at nearly
/// the same solver cost.
pub fn figure4_sweep(rng: &mut Rng) -> Vec<SystemConfig> {
    let shift = 0.005 * rng.unit();
    let mut out = Vec::with_capacity(16);
    for n_t in [2, 4, 8, 16] {
        for p in [0.1, 0.3, 0.5, 0.7] {
            out.push(figure4_point(n_t, p + shift));
        }
    }
    out
}

/// The accuracy panel: the paper's default workload on every torus
/// size, plus the largest population lattice Auto solves exactly (2×2,
/// `n_t = 11`), so that every run's peak memory includes it. The panel
/// is the same in every run, so its error against the reference is a
/// property of the solver, not of the seed.
pub fn accuracy_panel() -> Vec<SystemConfig> {
    let mut panel: Vec<SystemConfig> = [2, 3, 4, 5, 6]
        .iter()
        .map(|&k| SystemConfig::paper_default().with_topology(Topology::torus(k)))
        .collect();
    panel.push(panel[0].with_n_threads(11));
    panel
}

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Solve,
    Tolerance,
    Sweep,
    Metrics,
}

/// One request: its kind, the configurations it names (indices into
/// [`Plan::configs`]), the `cached` flag the answer must carry when the
/// workload fixes it, and the exact bytes sent.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub cfgs: Vec<usize>,
    pub expect_cached: Option<bool>,
    pub bytes: Vec<u8>,
}

/// How the timed window sends its ops.
#[derive(Debug, Clone)]
pub enum Window {
    /// Think time per connection: after each answer the connection waits
    /// the think time of its next `(think, op)` item, then sends the op.
    Think([Vec<(Duration, usize)>; 2]),
    /// Closed loop: each connection sends the next op as soon as its
    /// previous answer arrived, until the window ends.
    Closed(Vec<usize>),
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitThink,
    MissSolve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hit-think" => Some(Workload::HitThink),
            "miss-solve" => Some(Workload::MissSolve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitThink => "hit-think",
            Workload::MissSolve => "miss-solve",
        }
    }
}

/// `hit-think`: size of the pre-warmed working set.
pub const HIT_SET: usize = 30;
/// `hit-think`: mean of the exponential think time a connection waits
/// after each answer before its next request.
pub const THINK_MEAN_S: f64 = 0.040;
/// `hit-think`: think times are stratified in blocks of this many.
pub const THINK_BLOCK: usize = 64;
/// `miss-solve`: distinct configurations generated for the closed loop.
pub const MISS_POOL: usize = 16_000;
/// The timed window is cut into this many slices of equal length. After
/// each slice one probe round goes to the idle server: three tolerance
/// requests, three scrapes and a sweep. Spreading the probes over the
/// whole window samples the host's speed, which drifts over seconds, as
/// evenly as the window's own requests do.
pub const PROBE_ROUNDS: usize = 16;

/// Every input of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub configs: Vec<SystemConfig>,
    pub ops: Vec<Op>,
    /// Sent in a closed loop before the window (all of them).
    pub prewarm: Vec<usize>,
    pub window: Window,
    /// Probe rounds, one after each slice of the window, sent one op at
    /// a time to the idle server.
    pub probes: Vec<Vec<usize>>,
    /// The accuracy panel's solves, sent after the probes.
    pub panel: Vec<usize>,
}

fn post(path: &str, body: &JsonValue) -> Vec<u8> {
    let body = json::encode(body);
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
}

struct Builder {
    configs: Vec<SystemConfig>,
    ops: Vec<Op>,
}

impl Builder {
    fn config(&mut self, cfg: SystemConfig) -> usize {
        self.configs.push(cfg);
        self.configs.len() - 1
    }

    fn op(&mut self, kind: Kind, cfgs: Vec<usize>, expect_cached: Option<bool>) -> usize {
        let bytes = match kind {
            Kind::Solve => post(
                "/v1/solve",
                &JsonValue::object(vec![(
                    "config",
                    wire::config_to_json(&self.configs[cfgs[0]]),
                )]),
            ),
            Kind::Tolerance => post(
                "/v1/tolerance",
                &JsonValue::object(vec![
                    ("config", wire::config_to_json(&self.configs[cfgs[0]])),
                    ("spec", "network".into()),
                ]),
            ),
            Kind::Sweep => post(
                "/v1/sweep",
                &JsonValue::object(vec![(
                    "configs",
                    JsonValue::Array(
                        cfgs.iter()
                            .map(|&c| wire::config_to_json(&self.configs[c]))
                            .collect(),
                    ),
                )]),
            ),
            Kind::Metrics => get("/metrics"),
        };
        self.ops.push(Op {
            kind,
            cfgs,
            expect_cached,
            bytes,
        });
        self.ops.len() - 1
    }

    fn sweep(&mut self, rng: &mut Rng) -> usize {
        let cfgs = figure4_sweep(rng)
            .into_iter()
            .map(|c| self.config(c))
            .collect();
        self.op(Kind::Sweep, cfgs, None)
    }

    /// Network tolerance of the paper's default workload on the largest
    /// machine the generator covers (6×6 torus, `n_t = 8`, `p_remote` in
    /// `[0.15, 0.25)`): two symmetric-AMVA solves, a cost that varies
    /// little with the drawn `p_remote`.
    fn tolerance(&mut self, rng: &mut Rng) -> usize {
        let c = self.config(
            SystemConfig::paper_default()
                .with_topology(Topology::torus(6))
                .with_p_remote(0.15 + 0.1 * rng.unit()),
        );
        self.op(Kind::Tolerance, vec![c], None)
    }

    /// Idle-server probes of the tolerance, sweep and scrape paths.
    fn probes(&mut self, rng: &mut Rng) -> Vec<Vec<usize>> {
        let scrape = self.op(Kind::Metrics, vec![], None);
        (0..PROBE_ROUNDS)
            .map(|_| {
                vec![
                    self.tolerance(rng),
                    scrape,
                    self.tolerance(rng),
                    scrape,
                    self.sweep(rng),
                    self.tolerance(rng),
                    scrape,
                ]
            })
            .collect()
    }
}

/// `n` exponential think times of mean [`THINK_MEAN_S`], stratified:
/// each block of [`THINK_BLOCK`] holds one draw from each of its
/// equal-probability strata, in shuffled order. Taken together the times
/// are exponential, but their sum over a block, and with it the number of
/// requests in a window and the share that find the server cold, varies
/// far less with the seed than with independent draws.
fn think_times(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n + THINK_BLOCK);
    while out.len() < n {
        let mut block: Vec<f64> = (0..THINK_BLOCK)
            .map(|i| (i as f64 + rng.unit()) / THINK_BLOCK as f64)
            .map(|u| -THINK_MEAN_S * (1.0 - u).ln())
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// Build every input of a run of `workload` with `seed` and a window of
/// `seconds`.
pub fn plan(workload: Workload, seed: u64, seconds: f64) -> Plan {
    let mut b = Builder {
        configs: Vec::new(),
        ops: Vec::new(),
    };
    let mut prewarm = Vec::new();
    let window = match workload {
        Workload::HitThink => {
            let mut rng = Rng::new(seed, 1);
            let mut hit_ops = Vec::with_capacity(HIT_SET);
            for slot in 0..HIT_SET {
                let c = b.config(config(&mut rng, slot));
                prewarm.push(b.op(Kind::Solve, vec![c], Some(false)));
                hit_ops.push(b.op(Kind::Solve, vec![c], Some(true)));
            }
            // Twice the items a window can use: think times alone sum to
            // about twice the window.
            let n = (2.0 * seconds / THINK_MEAN_S).ceil() as usize;
            let per_conn = [2, 3].map(|stream| {
                let mut rng = Rng::new(seed, stream);
                think_times(&mut rng, n)
                    .into_iter()
                    .map(|t| (Duration::from_secs_f64(t), hit_ops[rng.below(HIT_SET)]))
                    .collect()
            });
            Window::Think(per_conn)
        }
        Workload::MissSolve => {
            let mut rng = Rng::new(seed, 1);
            let ops = (0..MISS_POOL)
                .map(|slot| {
                    let c = b.config(config(&mut rng, slot));
                    b.op(Kind::Solve, vec![c], Some(false))
                })
                .collect::<Vec<_>>();
            let keys: HashSet<String> = b
                .configs
                .iter()
                .map(|c| wire::canonical_solve_key(c, SolverChoice::Auto))
                .collect();
            assert_eq!(
                keys.len(),
                b.configs.len(),
                "miss-solve generated a repeated solve key"
            );
            Window::Closed(ops)
        }
    };
    let probes = b.probes(&mut Rng::new(seed, 4));
    let panel = accuracy_panel()
        .into_iter()
        .map(|cfg| {
            let c = b.config(cfg);
            b.op(Kind::Solve, vec![c], None)
        })
        .collect();
    Plan {
        workload,
        configs: b.configs,
        ops: b.ops,
        prewarm,
        window,
        probes,
        panel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_ops(p: &Plan) -> Vec<(Duration, usize)> {
        match &p.window {
            Window::Think([a, b]) => a.iter().chain(b).copied().collect(),
            Window::Closed(ops) => ops.iter().map(|&o| (Duration::ZERO, o)).collect(),
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for w in [Workload::HitThink, Workload::MissSolve] {
            let (a, b) = (plan(w, 7, 5.0), plan(w, 7, 5.0));
            assert_eq!(a.ops.len(), b.ops.len());
            for (x, y) in a.ops.iter().zip(&b.ops) {
                assert_eq!(x.bytes, y.bytes, "{}", w.name());
            }
            assert_eq!(window_ops(&a), window_ops(&b));
            assert_eq!(a.probes, b.probes);
            let c = plan(w, 8, 5.0);
            assert_ne!(
                a.ops.iter().map(|o| &o.bytes).collect::<Vec<_>>(),
                c.ops.iter().map(|o| &o.bytes).collect::<Vec<_>>(),
                "another seed gives other requests"
            );
        }
    }

    #[test]
    fn miss_solve_keys_are_distinct() {
        let p = plan(Workload::MissSolve, 3, 5.0);
        let Window::Closed(ops) = &p.window else {
            panic!("miss-solve is a closed loop")
        };
        let mut seen = HashSet::new();
        for &o in ops {
            let cfg = &p.configs[p.ops[o].cfgs[0]];
            assert!(seen.insert(wire::canonical_solve_key(cfg, SolverChoice::Auto)));
            assert_eq!(p.ops[o].expect_cached, Some(false));
        }
        assert_eq!(seen.len(), MISS_POOL);
    }

    #[test]
    fn generated_configs_are_valid_and_span_the_axes() {
        let mut rng = Rng::new(11, 0);
        let cfgs: Vec<_> = (0..500).map(|s| config(&mut rng, s)).collect();
        for c in &cfgs {
            c.validate().unwrap();
            assert!((0.05..=0.9).contains(&c.workload.p_remote));
            assert!((1..=16).contains(&c.workload.n_threads));
        }
        for (k, share) in [(2, 50), (3, 50), (4, 100), (5, 150), (6, 150)] {
            let n = cfgs.iter().filter(|c| c.arch.topology.k() == k).count();
            assert_eq!(n, share, "torus sizes follow the fixed cycle");
        }
        assert!(cfgs
            .iter()
            .any(|c| c.workload.pattern == AccessPattern::Uniform));
        assert!(cfgs.iter().any(|c| c.workload.n_threads == 16));
    }

    #[test]
    fn hit_think_thinks_with_the_think_mean() {
        let p = plan(Workload::HitThink, 9, 25.0);
        let Window::Think(conns) = &p.window else {
            panic!("hit-think thinks per connection")
        };
        for c in conns {
            let thinks: Vec<f64> = c.iter().map(|(t, _)| t.as_secs_f64()).collect();
            assert!(
                thinks.iter().sum::<f64>() > 1.5 * 25.0,
                "enough items for the window"
            );
            let mean = thinks.iter().sum::<f64>() / thinks.len() as f64;
            assert!((mean - THINK_MEAN_S).abs() < 0.004, "mean think {mean}");
            let past_hot_window = thinks.iter().filter(|&&t| t > 0.1).count() as f64;
            assert!(
                past_hot_window / thinks.len() as f64 > 0.04,
                "some thinks exceed 100 ms"
            );
            assert!(c
                .iter()
                .all(|&(_, op)| p.ops[op].expect_cached == Some(true)));
        }
    }

    #[test]
    fn stratified_think_times_keep_the_window_count() {
        let n = 10 * THINK_BLOCK;
        for seed in 0..10 {
            let t = think_times(&mut Rng::new(seed, 2), n);
            assert_eq!(t.len(), n);
            let mean = t.iter().sum::<f64>() / n as f64;
            assert!(
                (mean / THINK_MEAN_S - 1.0).abs() < 0.03,
                "seed {seed}: mean think {mean}"
            );
            let long = t.iter().filter(|&&x| x > 0.1).count() as f64 / n as f64;
            assert!((long - (-0.1 / THINK_MEAN_S).exp()).abs() < 0.01, "{long}");
        }
    }

    #[test]
    fn probe_rounds_sample_every_aux_path() {
        for w in [Workload::HitThink, Workload::MissSolve] {
            let p = plan(w, 2, 5.0);
            assert_eq!(p.probes.len(), PROBE_ROUNDS);
            for round in &p.probes {
                let kinds: Vec<Kind> = round.iter().map(|&o| p.ops[o].kind).collect();
                for k in [Kind::Tolerance, Kind::Sweep, Kind::Metrics] {
                    assert!(kinds.contains(&k), "{}: {kinds:?}", w.name());
                }
            }
            let sweeps: HashSet<&[u8]> = p
                .probes
                .iter()
                .flatten()
                .filter(|&&o| p.ops[o].kind == Kind::Sweep)
                .map(|&o| p.ops[o].bytes.as_slice())
                .collect();
            assert_eq!(sweeps.len(), PROBE_ROUNDS, "every sweep is new");
        }
    }
}
