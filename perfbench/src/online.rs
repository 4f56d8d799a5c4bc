//! The three online workloads: seeded arrival streams served to
//! completion by `Scheduler::serve` in `AdmissionMode::Online`.

use crate::trace::{Stamp, StampRecorder, TimedPolicy, Tracer};
use crate::util::{cpu_seconds, median, quantile, ratio, Digest};
use crate::{Iteration, SETUPS};
use beegfs_core::{BeeGfs, ChooserKind, FaultPlan};
use cluster::TargetId;
use experiments::campaign::SchedPolicyKind;
use experiments::context::{deploy, deploy_on, Scenario};
use experiments::fig_interference::fleet_spec;
use ior::IorConfig;
use obs::metrics::MetricsRegistry;
use sched::{AdmissionMode, ArrivalStream, SchedOutcome, Scheduler};
use simcore::dist::uniform;
use simcore::rng::RngFactory;
use simcore::units::{GIB, MIB};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Where an online workload's sessions run.
#[derive(Debug, Clone, Copy)]
enum Platform {
    Scenario(Scenario),
    Fleet,
}

/// Seeded transient stragglers: one episode per period, at a random
/// offset that ends before the next period starts, on a random target.
#[derive(Debug, Clone, Copy)]
struct Stragglers {
    period_s: f64,
    factor: f64,
    duration_s: f64,
}

/// One online workload's fixed shape; the seed fills in the rest.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    platform: Platform,
    dir_stripe: u32,
    policy: SchedPolicyKind,
    /// Independent sessions per pass, each on its own deployment with
    /// its own seeded stream. A session samples one hardware noise
    /// realization for its whole length, so a longer stream does not
    /// average it out; more sessions do.
    sessions: usize,
    /// Arrivals per session.
    arrivals: usize,
    rate_per_s: f64,
    nodes: usize,
    ppn: u32,
    bytes: u64,
    stripe: u32,
    stragglers: Option<Stragglers>,
}

/// Light 1-node apps on scenario 1, about 1.3 in flight: admission
/// volume dominates.
pub const ONLINE_STEADY: Shape = Shape {
    platform: Platform::Scenario(Scenario::S1Ethernet),
    dir_stripe: 4,
    policy: SchedPolicyKind::LeastLoadedServer,
    sessions: 1,
    arrivals: 30_000,
    rate_per_s: 2.0,
    nodes: 1,
    ppn: 4,
    bytes: 256 * MIB,
    stripe: 4,
    stragglers: None,
};

/// Heavy apps on scenario 2 under adaptive restriping and transient
/// stragglers. Its cost per admission depends on the session's noise
/// realization (which apps widen), hence four sessions per pass.
pub const ONLINE_ADAPTIVE: Shape = Shape {
    platform: Platform::Scenario(Scenario::S2Omnipath),
    dir_stripe: 2,
    policy: SchedPolicyKind::AdaptiveStriping,
    sessions: 4,
    arrivals: 2_500,
    rate_per_s: 0.5,
    nodes: 4,
    ppn: 8,
    bytes: 4 * GIB,
    stripe: 2,
    stragglers: Some(Stragglers {
        period_s: 60.0,
        factor: 0.3,
        duration_s: 20.0,
    }),
};

/// About 100 apps in flight across the 100x10 non-blocking fleet.
pub const FLEET_CONTENDED: Shape = Shape {
    platform: Platform::Fleet,
    dir_stripe: 4,
    policy: SchedPolicyKind::UtilizationFeedback,
    sessions: 1,
    arrivals: 1_500,
    rate_per_s: 20.0,
    nodes: 2,
    ppn: 8,
    bytes: 4 * GIB,
    stripe: 4,
    stragglers: None,
};

/// The generated inputs of one session.
struct Inputs {
    fs: BeeGfs,
    stream: ArrivalStream,
    faults: FaultPlan,
    factory: RngFactory,
}

pub struct Online {
    shape: Shape,
    factory: RngFactory,
}

impl Online {
    pub fn new(shape: Shape, seed: u64) -> Self {
        Online {
            shape,
            factory: RngFactory::new(seed).derive("perfbench-online", 0),
        }
    }

    fn deploy(&self) -> BeeGfs {
        let s = &self.shape;
        match s.platform {
            Platform::Scenario(sc) => deploy(sc, s.dir_stripe, ChooserKind::Random),
            Platform::Fleet => deploy_on(
                fleet_spec().build().expect("the fleet spec is valid"),
                s.dir_stripe,
                ChooserKind::Random,
            ),
        }
    }

    fn inputs(&self, fs: &BeeGfs, factory: &RngFactory) -> (ArrivalStream, FaultPlan) {
        let s = &self.shape;
        let template = IorConfig::paper_default(s.nodes)
            .with_ppn(s.ppn)
            .with_total_bytes(s.bytes);
        let stream = ArrivalStream::poisson(
            s.rate_per_s,
            s.arrivals,
            template,
            s.stripe,
            &mut factory.stream("arrivals", 0),
        );
        let mut faults = FaultPlan::new();
        if let Some(st) = s.stragglers {
            let targets = fs.platform().total_targets();
            let horizon = stream.requests().last().map_or(0.0, |r| r.arrival_s);
            let mut rng = factory.stream("faults", 0);
            let mut period = 0.0;
            while period < horizon {
                let at = period + uniform(0.0, st.period_s - st.duration_s, &mut rng);
                let target =
                    ((uniform(0.0, 1.0, &mut rng) * targets as f64) as usize).min(targets - 1);
                faults = faults
                    .target_transient_straggler(
                        at,
                        TargetId(target as u32),
                        st.factor,
                        st.duration_s,
                    )
                    .expect("straggler parameters are valid");
                period += st.period_s;
            }
        }
        (stream, faults)
    }

    /// Set up every session: deploy, then generate the arrival stream
    /// and fault plan. Returns the deploy and input-generation times.
    fn setup(&self) -> (Vec<Inputs>, f64, f64) {
        let (mut deploy_s, mut inputs_s) = (0.0, 0.0);
        let mut sessions = Vec::with_capacity(self.shape.sessions);
        for k in 0..self.shape.sessions {
            let factory = self.factory.derive("session", k as u64);
            let t0 = Instant::now();
            let fs = self.deploy();
            let t1 = Instant::now();
            let (stream, faults) = self.inputs(&fs, &factory);
            let t2 = Instant::now();
            deploy_s += (t1 - t0).as_secs_f64();
            inputs_s += (t2 - t1).as_secs_f64();
            sessions.push(Inputs {
                fs,
                stream,
                faults,
                factory,
            });
        }
        (sessions, deploy_s, inputs_s)
    }

    /// Set up, serve every session's stream to completion, check the
    /// outcomes.
    pub fn iterate(&self, traced: bool, anchor: Instant) -> Iteration {
        let mut deploys = Vec::with_capacity(SETUPS);
        let mut inputs = Vec::with_capacity(SETUPS);
        let mut setups = Vec::with_capacity(SETUPS);
        let mut sessions = Vec::new();
        for _ in 0..SETUPS {
            let (i, d, g) = self.setup();
            deploys.push(d);
            inputs.push(g);
            setups.push(d + g);
            sessions = i;
        }

        let tracer = Rc::new(RefCell::new(Tracer::new()));
        let mut recorder = StampRecorder(tracer.clone());
        let mut registry = MetricsRegistry::new();
        let mut outs = Vec::with_capacity(sessions.len());
        let cpu0 = cpu_seconds(anchor);
        let t0 = Instant::now();
        for inp in &mut sessions {
            let policy = self.shape.policy.build();
            let serve_factory = inp.factory.derive("serve", 0);
            let faults = std::mem::take(&mut inp.faults);
            let out = if traced {
                let wrapped = Box::new(TimedPolicy {
                    inner: policy,
                    tracer: tracer.clone(),
                });
                tracer.borrow_mut().stamp(Stamp::Entry);
                let out = Scheduler::new(&mut inp.fs, wrapped)
                    .mode(AdmissionMode::Online)
                    .faults(faults)
                    .trace(&mut recorder)
                    .metrics(&mut registry)
                    .serve(&inp.stream, &serve_factory);
                tracer.borrow_mut().stamp(Stamp::Exit);
                out
            } else {
                Scheduler::new(&mut inp.fs, policy)
                    .mode(AdmissionMode::Online)
                    .faults(faults)
                    .serve(&inp.stream, &serve_factory)
            };
            outs.push(out.expect("the generated stream is schedulable"));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds(anchor) - cpu0;

        let mut failed = 0;
        let mut d = Digest::new();
        let mut app_mib_s = Vec::new();
        let mut slowdowns = Vec::new();
        let mut restripes = Vec::new();
        let mut sim_events = 0;
        for (out, inp) in outs.iter().zip(&sessions) {
            failed += check(out, &inp.stream);
            d.bytes(out.decision_log_json().as_bytes());
            d.bytes(out.restripe_log_json().as_bytes());
            for a in &out.apps {
                d.f64(a.end_s);
                app_mib_s.push(a.bandwidth.mib_per_sec());
                slowdowns.push(a.slowdown);
            }
            restripes.extend(out.restripes.iter().map(|r| r.kind.as_str()));
            sim_events += out.sim_events;
        }
        let work = (self.shape.sessions * self.shape.arrivals) as u64;
        let layers = if traced {
            per_layer(
                &tracer.borrow(),
                &registry,
                &restripes,
                sim_events,
                work,
                wall_s,
            )
        } else {
            Vec::new()
        };
        Iteration {
            deploy_s: median(&deploys),
            inputs_s: median(&inputs),
            setup_s: median(&setups),
            wall_s,
            cpu_s,
            work,
            failed,
            checks: Vec::new(),
            digest: d.hex(),
            notes: vec![
                format!(
                    "sim slowdown: mean {:.4}, p99 {:.4}",
                    crate::util::mean(&slowdowns),
                    quantile(&slowdowns, 0.99)
                ),
                format!("restripes {}", restripes.len()),
                format!(
                    "sim events per admission {:.2}",
                    sim_events as f64 / work as f64
                ),
            ],
            app_mib_s,
            slowdowns,
            layers,
        }
    }
}

/// Arrivals not completed exactly once, in arrival order, with a sane
/// end time and slowdown.
fn check(out: &SchedOutcome, stream: &ArrivalStream) -> u64 {
    let reqs = stream.requests();
    let mut seen = vec![0u32; reqs.len()];
    for a in &out.apps {
        if a.app < seen.len() {
            seen[a.app] += 1;
        }
    }
    let bad = out
        .apps
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            a.app != *i
                || a.arrival_s != reqs[*i].arrival_s
                || !(a.end_s.is_finite() && a.end_s > a.arrival_s)
                || !(a.slowdown.is_finite() && a.slowdown > 0.0)
        })
        .count();
    let missing = seen.iter().filter(|&&c| c != 1).count();
    (bad + missing) as u64
}

/// The traced sessions' per-layer metrics. `restripes` lists the kind
/// of every committed restripe.
fn per_layer(
    t: &Tracer,
    reg: &MetricsRegistry,
    restripes: &[&str],
    sim_events: u64,
    work: u64,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let l = &t.layers;
    let widens = restripes.iter().filter(|&&k| k == "widen").count() as f64;
    let narrows = restripes.iter().filter(|&&k| k == "narrow").count() as f64;
    let wait_p99 = reg
        .histogram("sched.wait_s")
        .filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.quantile(0.99));
    vec![
        ("sched.session_build_frac", l.session_build / wall_s),
        ("simcore.advance_frac", l.advance / wall_s),
        ("sched.admit_frac", l.admit / wall_s),
        ("sched.place_frac", l.place / wall_s),
        ("sched.restripe_eval_frac", l.restripe_eval / wall_s),
        ("sched.restripe_apply_frac", l.restripe_apply / wall_s),
        ("sched.finish_frac", l.finish / wall_s),
        ("trace.accounted_frac", l.total() / wall_s),
        ("simcore.events_per_work", sim_events as f64 / work as f64),
        ("simcore.events_per_s", sim_events as f64 / wall_s),
        ("sched.place_calls", t.place_calls as f64),
        ("sched.restripe_eval_calls", t.restripe_calls as f64),
        (
            "sched.restripe_fire_ratio",
            ratio(restripes.len() as f64, t.restripe_calls as f64),
        ),
        ("sched.widen_keep_ratio", ratio(widens - narrows, widens)),
        ("sched.queued", reg.counter("sched.queued") as f64),
        (
            "sched.live_apps_max",
            reg.gauge("sched.online.live_apps").unwrap_or(0.0),
        ),
        (
            "sched.live_flows_max",
            reg.gauge("sched.online.live_flows").unwrap_or(0.0),
        ),
        ("sched.wait_p99_sim_s", wait_p99),
        // Table-only (a `~` prefix): wall-clock latencies of layers the
        // batch workload never enters, so they have no sample there.
        (
            "~sched.place_us_mean",
            1e6 * ratio(l.place, t.place_calls as f64),
        ),
        (
            "~sched.admit_us_mean",
            1e6 * crate::util::mean(&t.admit_lat),
        ),
        ("~sched.place_us_p50", 1e6 * quantile(&t.place_lat, 0.5)),
        ("~sched.place_us_p99", 1e6 * quantile(&t.place_lat, 0.99)),
        ("~sched.admit_us_p50", 1e6 * quantile(&t.admit_lat, 0.5)),
        ("~sched.admit_us_p99", 1e6 * quantile(&t.admit_lat, 0.99)),
    ]
}
