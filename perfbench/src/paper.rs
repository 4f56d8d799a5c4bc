//! The batch workload: the paper's figure set, run the way `repro` runs
//! it by default — figure functions on a `CampaignEngine` backed by a
//! fresh on-disk store.

use crate::util::{cpu_seconds, json_u64, median, parse_json, ratio, Digest};
use crate::{Iteration, SETUPS};
use experiments::campaign::{CampaignEngine, CampaignMetrics};
use experiments::context::{ExpCtx, Scenario};
use experiments::{
    fig02_datasize, fig04_nodes, fig06_stripe, fig11_nodes_stripe, fig12_concurrent, fig13_sharing,
};
use obs::metrics::{Histogram, MetricsRegistry};
use std::path::PathBuf;
use std::time::Instant;

/// Repetitions per configuration. The paper uses 100; a quarter keeps
/// one pass near a second on two cores, so a run holds many passes.
pub const REPS: usize = 25;

const SCENARIOS: [Scenario; 2] = [Scenario::S1Ethernet, Scenario::S2Omnipath];

/// One figure call of the set.
#[derive(Debug, Clone, Copy)]
enum Call {
    Fig02(Scenario),
    /// Fig. 4 at 8 ppn; with 16 ppn it is Fig. 5's second sweep (its
    /// 8-ppn sweep is Fig. 4 again, served from the store).
    Fig04(Scenario, u32),
    Fig06(Scenario),
    Fig11,
    Fig12,
    Fig13,
}

impl Call {
    /// The campaign a call runs on the engine, `None` for figures still
    /// on `context::repeat`.
    fn campaign(self) -> Option<&'static str> {
        match self {
            Call::Fig04(..) => Some("fig04"),
            Call::Fig06(_) => Some("fig06"),
            Call::Fig11 => Some("fig11"),
            Call::Fig02(_) | Call::Fig12 | Call::Fig13 => None,
        }
    }
}

/// The figure set in `repro all` order: Figs. 2, 4, 5, 6/8/10, 11, 12, 13.
fn calls() -> Vec<Call> {
    let mut v: Vec<Call> = SCENARIOS.iter().map(|&s| Call::Fig02(s)).collect();
    v.extend(SCENARIOS.iter().map(|&s| Call::Fig04(s, 8)));
    for &s in &SCENARIOS {
        v.push(Call::Fig04(s, 8));
        v.push(Call::Fig04(s, 16));
    }
    v.extend(SCENARIOS.iter().map(|&s| Call::Fig06(s)));
    v.extend([Call::Fig11, Call::Fig12, Call::Fig13]);
    v
}

/// What one figure call returned: its serialized data (the digest
/// input) and the per-app bandwidth samples it keeps per rep.
struct FigOut {
    json: String,
    samples: Vec<f64>,
    /// The call's own output checks that failed.
    failures: Vec<String>,
}

fn run_call(engine: &CampaignEngine, ctx: &ExpCtx, call: Call) -> FigOut {
    let mut failures = Vec::new();
    let (json, samples) = match call {
        Call::Fig02(s) => {
            let f = fig02_datasize::run(ctx, s);
            let samples = f.points.iter().flat_map(|p| p.samples.clone()).collect();
            (serde_json::to_string(&f), samples)
        }
        Call::Fig04(s, ppn) => {
            let f = fig04_nodes::run_with_ppn_on(engine, ctx, s, ppn).expect("figure 4 campaign");
            let samples = f.points.iter().flat_map(|p| p.samples.clone()).collect();
            (serde_json::to_string(&f), samples)
        }
        Call::Fig06(s) => {
            let f = fig06_stripe::run_on(engine, ctx, s).expect("figure 6 campaign");
            failures.extend(check_fig06(&f));
            let samples = f.points.iter().flat_map(|p| p.bandwidths()).collect();
            (serde_json::to_string(&f), samples)
        }
        Call::Fig11 => {
            let f = fig11_nodes_stripe::run_on(engine, ctx).expect("figure 11 campaign");
            (serde_json::to_string(&f), Vec::new())
        }
        Call::Fig12 => {
            let f = fig12_concurrent::run(ctx);
            (serde_json::to_string(&f), Vec::new())
        }
        Call::Fig13 => {
            let f = fig13_sharing::run(ctx);
            let samples = f
                .shared_same
                .iter()
                .chain(&f.all_different)
                .copied()
                .collect();
            (serde_json::to_string(&f), samples)
        }
    };
    FigOut {
        json: json.expect("figure data serializes"),
        samples,
        failures,
    }
}

/// Lessons 4 and 6 as output checks: in scenario 2 the mean rises with
/// the stripe count; in scenario 1 balanced allocations beat unbalanced
/// ones of the same stripe count.
fn check_fig06(f: &fig06_stripe::Fig06) -> Vec<String> {
    let mut failures = Vec::new();
    match f.scenario {
        Scenario::S2Omnipath => {
            let means: Vec<f64> = [1, 2, 4, 8]
                .iter()
                .map(|&s| f.point(s).summary().mean)
                .collect();
            if !means.windows(2).all(|w| w[0] < w[1]) {
                failures.push(format!(
                    "fig6 scenario 2: mean does not rise with stripe count 1,2,4,8: {means:?}"
                ));
            }
        }
        Scenario::S1Ethernet => {
            for p in &f.points {
                let (bal, unbal): (Vec<_>, Vec<_>) =
                    p.samples.iter().partition(|s| s.balance >= 1.0);
                if bal.is_empty() || unbal.is_empty() {
                    continue;
                }
                let mean = |v: &[&fig06_stripe::StripeSample]| {
                    v.iter().map(|s| s.mib_s).sum::<f64>() / v.len() as f64
                };
                let (b, u) = (mean(&bal), mean(&unbal));
                if b <= u {
                    failures.push(format!(
                        "fig6 scenario 1 stripe {}: balanced {b:.1} MiB/s does not beat \
                         unbalanced {u:.1} MiB/s",
                        p.stripe_count
                    ));
                }
            }
        }
    }
    failures
}

/// Rebuild a campaign's merged registry from its byte-stable snapshot
/// (counters, and histograms at bucket midpoints) into `into`.
fn merge_snapshot(text: &str, into: &mut MetricsRegistry) {
    let v = parse_json(text).expect("metrics snapshot parses");
    let u = json_u64;
    for m in v.get("metrics").and_then(|m| m.as_seq()).unwrap_or(&[]) {
        let name = m.get("name").and_then(|n| n.as_str()).unwrap_or("");
        match m.get("type").and_then(|t| t.as_str()) {
            Some("counter") => into.add(name, u(m.get("value"))),
            Some("histogram") => {
                into.observe_n(name, 0.0, u(m.get("zeros")));
                for b in m.get("buckets").and_then(|b| b.as_seq()).unwrap_or(&[]) {
                    let pair = b.as_seq().unwrap_or(&[]);
                    let idx = u(pair.first()) as usize;
                    into.observe_n(name, Histogram::bucket_midpoint(idx), u(pair.get(1)));
                }
            }
            _ => {}
        }
    }
}

pub struct Paper {
    ctx: ExpCtx,
    root: PathBuf,
}

impl Paper {
    /// Stores live under `root`, one fresh directory per pass.
    pub fn new(seed: u64, root: PathBuf) -> Self {
        Paper {
            ctx: ExpCtx { seed, reps: REPS },
            root,
        }
    }

    /// Reps one pass delivers: every configuration's repetitions,
    /// computed or served from the store.
    fn expected_reps(&self) -> usize {
        let ctx = &self.ctx;
        let mut reps = 0;
        for call in calls() {
            reps += match call {
                Call::Fig02(_) => fig02_datasize::SIZES_GIB.len() * ctx.reps,
                Call::Fig04(s, ppn) => fig04_nodes::campaign(ctx, s, ppn).total_reps(),
                Call::Fig06(s) => {
                    fig06_stripe::campaign(ctx, s, beegfs_core::ChooserKind::RoundRobin)
                        .total_reps()
                }
                Call::Fig11 => fig11_nodes_stripe::campaign(ctx).total_reps(),
                // 3 app counts x 3 stripe counts.
                Call::Fig12 => 9 * ctx.reps,
                Call::Fig13 => ctx.reps,
            };
        }
        reps
    }

    /// One pass: open a fresh store, run the figure set cold, check it.
    /// A traced pass also reads each campaign's metrics documents
    /// between calls and re-runs the campaign figures warm.
    pub fn iterate(&self, pass: usize, traced: bool, warm: bool, anchor: Instant) -> Iteration {
        // Set up SETUPS times on the same, still empty, store directory
        // and keep the last engine.
        let dir = self.root.join(format!("store-{pass}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut deploys, mut inputs, mut setups) = (Vec::new(), Vec::new(), Vec::new());
        let mut engine = None;
        let mut expected = 0;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            engine = Some(CampaignEngine::with_store(&dir).expect("the benchmark store opens"));
            let t1 = Instant::now();
            expected = self.expected_reps();
            let t2 = Instant::now();
            deploys.push((t1 - t0).as_secs_f64());
            inputs.push((t2 - t1).as_secs_f64());
            setups.push((t2 - t0).as_secs_f64());
        }
        let engine = engine.expect("at least one set-up");

        let mut outs = Vec::new();
        let mut layer = Layer::default();
        let cpu0 = cpu_seconds(anchor);
        let start = Instant::now();
        for call in calls() {
            let c0 = Instant::now();
            let out = run_call(&engine, &self.ctx, call);
            let dt = c0.elapsed().as_secs_f64();
            match call.campaign() {
                None => layer.repeat_s += dt,
                Some(name) => {
                    layer.campaign_calls_s += dt;
                    if traced {
                        layer.read_campaign(&engine, name);
                    }
                }
            }
            outs.push(out);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds(anchor) - cpu0;

        let mut digest = Digest::new();
        let mut samples = Vec::new();
        let mut checks = Vec::new();
        for o in &outs {
            digest.bytes(o.json.as_bytes());
            samples.extend_from_slice(&o.samples);
            checks.extend(o.failures.iter().cloned());
        }
        let mut warm_s = 0.0;
        if warm {
            let (s, failures) = self.warm_pass(&engine, &outs);
            warm_s = s;
            checks.extend(failures);
        }
        let layers = if traced {
            layer.metrics(wall_s, warm_s)
        } else {
            Vec::new()
        };
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);

        Iteration {
            deploy_s: median(&deploys),
            inputs_s: median(&inputs),
            setup_s: median(&setups),
            wall_s,
            cpu_s,
            work: expected as u64,
            failed: if checks.is_empty() {
                0
            } else {
                expected as u64
            },
            checks,
            digest: digest.hex(),
            app_mib_s: samples,
            slowdowns: Vec::new(),
            notes: Vec::new(),
            layers,
        }
    }

    /// Re-run the campaign figures on the warm store: every rep must come
    /// from the store with zero simulation, and the data must match the
    /// cold pass byte for byte. Returns the warm wall time.
    fn warm_pass(&self, engine: &CampaignEngine, cold: &[FigOut]) -> (f64, Vec<String>) {
        let mut failures = Vec::new();
        let mut wall = 0.0;
        for (call, cold) in calls().into_iter().zip(cold) {
            let Some(name) = call.campaign() else {
                continue;
            };
            let t = Instant::now();
            let out = run_call(engine, &self.ctx, call);
            wall += t.elapsed().as_secs_f64();
            let m = read_metrics(engine, name);
            if m.stats.cache_hit_rate() != 1.0 || m.stats.sim_events != 0 {
                failures.push(format!(
                    "warm {name}: hit rate {} with {} sim events",
                    m.stats.cache_hit_rate(),
                    m.stats.sim_events
                ));
            }
            if out.json != cold.json {
                failures.push(format!("warm {name}: data differs from the cold pass"));
            }
        }
        (wall, failures)
    }
}

fn read_metrics(engine: &CampaignEngine, name: &str) -> CampaignMetrics {
    let path = engine.metrics_path(name).expect("the engine has a store");
    let text = std::fs::read_to_string(path).expect("campaign metrics are written");
    serde_json::from_str(&text).expect("campaign metrics parse")
}

/// Campaign-engine accounting of one traced pass.
#[derive(Default)]
struct Layer {
    repeat_s: f64,
    campaign_calls_s: f64,
    campaign_wall_s: f64,
    compute_s: f64,
    reps_total: usize,
    reps_cached: usize,
    reps_computed: usize,
    sim_events: u64,
    registry: MetricsRegistry,
}

impl Layer {
    fn read_campaign(&mut self, engine: &CampaignEngine, name: &str) {
        let m = read_metrics(engine, name);
        self.campaign_wall_s += m.stats.wall_secs;
        self.compute_s += m.cells.iter().map(|c| c.compute_secs).sum::<f64>();
        self.reps_total += m.stats.reps_total;
        self.reps_cached += m.stats.reps_cached;
        self.reps_computed += m.stats.reps_computed;
        self.sim_events += m.stats.sim_events;
        let snap = engine
            .metrics_snapshot_path(name)
            .expect("the engine has a store");
        let text = std::fs::read_to_string(snap).expect("metrics snapshot is written");
        merge_snapshot(&text, &mut self.registry);
    }

    fn metrics(&self, wall_s: f64, warm_s: f64) -> Vec<(&'static str, f64)> {
        let r = &self.registry;
        let c = |n: &str| r.counter(n) as f64;
        let q = |n: &str, p: f64| {
            r.histogram(n)
                .filter(|h| h.count() > 0)
                .map_or(0.0, |h| h.quantile(p))
        };
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let analysis_s = self.campaign_calls_s - self.campaign_wall_s;
        let accounted = self.repeat_s + self.campaign_wall_s + analysis_s;
        vec![
            ("campaign.wall_frac", self.campaign_wall_s / wall_s),
            ("experiments.repeat_frac", self.repeat_s / wall_s),
            ("experiments.analysis_frac", analysis_s / wall_s),
            ("trace.accounted_frac", accounted / wall_s),
            (
                "campaign.parallel_eff",
                ratio(self.compute_s, self.campaign_wall_s * threads),
            ),
            (
                "campaign.cache_hit_rate",
                ratio(self.reps_cached as f64, self.reps_total as f64),
            ),
            ("campaign.reps_computed", self.reps_computed as f64),
            (
                "campaign.store_warm_frac",
                ratio(warm_s, self.campaign_wall_s),
            ),
            (
                "ior.reps_per_cpu_s",
                ratio(self.reps_computed as f64, self.compute_s),
            ),
            (
                "ior.events_per_cpu_s",
                ratio(self.sim_events as f64, self.compute_s),
            ),
            // Only campaign reps count their events; the figures still on
            // `context::repeat` are invisible here.
            (
                "simcore.events_per_work",
                ratio(self.sim_events as f64, self.reps_computed as f64),
            ),
            (
                "simcore.events_per_s",
                ratio(self.sim_events as f64, self.campaign_wall_s),
            ),
            (
                "simcore.skip_ratio",
                ratio(c("sim.solve_skips"), c("sim.solves") + c("sim.solve_skips")),
            ),
            (
                "simcore.flows_per_solve",
                ratio(c("sim.flows_solved"), c("sim.solves")),
            ),
            (
                "simcore.component_size_p50",
                q("sim.dirty_component_size", 0.5),
            ),
            (
                "simcore.component_size_p99",
                q("sim.dirty_component_size", 0.99),
            ),
            (
                "simcore.components_per_solve_p50",
                q("sim.dirty_components_per_solve", 0.5),
            ),
            (
                "simcore.heap_pushes_per_event",
                ratio(c("sim.event_heap.pushes"), c("sim.events_processed")),
            ),
            ("~campaign.wall_s", self.campaign_wall_s),
            ("~campaign.compute_s", self.compute_s),
            ("~experiments.repeat_s", self.repeat_s),
            ("~campaign.store_warm_s", warm_s),
            (
                "~ior.rep_ms",
                1e3 * ratio(self.compute_s, self.reps_computed as f64),
            ),
        ]
    }
}
