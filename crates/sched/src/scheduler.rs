//! The scheduler: the admission core both modes share, and the
//! frozen-schedule reference oracle.
//!
//! The scheduler serves an [`ArrivalStream`] against one BeeGFS
//! deployment in either [`AdmissionMode`]; both run on one admission
//! core, defined here. [`Scheduler::serve`] checks every request once up
//! front. The admission gate (`Gate`) admits each request on arrival or
//! queues it (FIFO) until compute nodes and a concurrency slot free up;
//! on admission the [`PlacementPolicy`] picks targets and the
//! application starts at once. The decision ledger (`Ledger`) records
//! the lifecycle trace, the metrics, the decision and restripe logs and
//! the outcomes. The engines differ only in how they price an admission
//! and in their event calendars; the continuous one is [`crate::online`].
//!
//! # The frozen-schedule approximation
//!
//! Applications overlap in time, so an admission's response time
//! depends on the contention it meets. The frozen oracle prices each
//! admission with one *measurement run*: the new application plus a
//! snapshot of every still-running application, each pinned to its
//! placement and started at its original (absolute) start time, drain
//! together through the fluid simulation. Only the *new* application's
//! completion is taken from the run — earlier applications keep the
//! completion committed at their own admission. The approximation is
//! causal (a decision never sees later arrivals) and deterministic, and
//! it prices contention both ways: the newcomer is slowed by the
//! incumbents it lands next to, exactly as the incumbents were priced
//! against their own contemporaries.
//!
//! # Faults and re-placement
//!
//! A [`FaultPlan`] (absolute sim-time, replayed identically in every
//! measurement run) may take targets down mid-stream. When a
//! measurement run fails with [`RunError::TargetUnavailable`], the
//! scheduler marks the dead target offline in the deployment, asks the
//! policy to re-place every application whose allocation touched it,
//! and retries; re-placed incumbents take their new completion from the
//! retry run.
//!
//! # Slowdown
//!
//! Each admitted application also gets one *solo run*: the same
//! allocation on an otherwise idle, fault-free system. Its slowdown is
//! `(completion - arrival) / solo_duration` — queueing wait and
//! contention both count, and `1.0` means the stream never interfered
//! with it.

use beegfs_core::{BeeGfs, FaultPlan, TargetState};
use cluster::{Platform, TargetId};
use ior::{AppSpec, HedgeConfig, IorConfig, RetryPolicy, Run, RunError, SimArena};
use iostats::agg::{aggregate_bandwidth, AppInterval};
use serde::{Deserialize, Serialize};
use simcore::rng::{RngFactory, StreamRng};
use simcore::time::ns;
use simcore::units::Bandwidth;
use std::collections::VecDeque;
use std::ops::Range;

use crate::arrivals::{AppRequest, ArrivalStream};
use crate::error::SchedError;
use crate::online::AdmissionMode;
use crate::policy::{ClusterView, Placement, PlacementPolicy};

/// One committed placement decision, replayable from the log alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Index of the application in arrival order.
    pub app: u32,
    /// When the request arrived, seconds.
    pub arrival_s: f64,
    /// When it was admitted (equals its start time), seconds.
    pub admit_s: f64,
    /// The policy that placed it.
    pub policy: String,
    /// The targets it landed on (flat ids).
    pub targets: Vec<u32>,
    /// `true` when this decision replaced an earlier one after a fault
    /// evicted one of its targets.
    pub replaced: bool,
}

/// One application's journey through the scheduler.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Index of the application in arrival order.
    pub app: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Admission (= I/O start) time, seconds.
    pub admit_s: f64,
    /// Completion time, seconds.
    pub end_s: f64,
    /// Time spent queued before admission, seconds.
    pub wait_s: f64,
    /// Wall time from admission to completion, seconds.
    pub duration_s: f64,
    /// Duration of the same allocation on an idle, fault-free system.
    pub ideal_s: f64,
    /// `(end - arrival) / ideal`: queueing wait plus contention,
    /// normalized; `1.0` means the stream never touched it.
    pub slowdown: f64,
    /// Bytes written.
    pub bytes: u64,
    /// Final target allocation.
    pub targets: Vec<TargetId>,
    /// The application's own bandwidth over its wall time.
    pub bandwidth: Bandwidth,
}

/// One committed mid-flight stripe change: who moved, when, why, and
/// from/to which targets. Appended by the online engine for adaptive
/// restripes (`"widen"`/`"narrow"`/`"replace"`) and fault evictions
/// (`"evict"`); always empty in [`AdmissionMode::FrozenOracle`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestripeRecord {
    /// Index of the application in arrival order.
    pub app: u32,
    /// The instant of the stripe change, seconds.
    pub at_s: f64,
    /// `"widen"`, `"narrow"`, `"replace"`, or `"evict"`.
    pub kind: String,
    /// The stripe set before the change (flat ids).
    pub from: Vec<u32>,
    /// The stripe set after the change (flat ids).
    pub to: Vec<u32>,
}

/// Outcome of serving a whole arrival stream.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// Per-application outcomes, in arrival order.
    pub apps: Vec<AppOutcome>,
    /// The committed decision log, in decision order (re-placements
    /// append; they do not rewrite history).
    pub decisions: Vec<Decision>,
    /// Mid-flight stripe changes, in commit order (see
    /// [`RestripeRecord`]).
    pub restripes: Vec<RestripeRecord>,
    /// Equation-1 aggregate bandwidth over the whole stream: total
    /// volume over the union span of all application intervals.
    pub aggregate: Bandwidth,
    /// Completion time of the last application, seconds.
    pub makespan_s: f64,
    /// Simulation events processed across every committed measurement
    /// and solo run of the session.
    pub sim_events: u64,
}

impl SchedOutcome {
    /// Mean per-application slowdown.
    pub fn mean_slowdown(&self) -> f64 {
        let n = self.apps.len() as f64;
        self.apps.iter().map(|a| a.slowdown).sum::<f64>() / n
    }

    /// The `q`-quantile of the per-application slowdowns (nearest-rank,
    /// `q` in `[0, 1]`; `0.99` is the tail-latency p99).
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let mut s: Vec<f64> = self.apps.iter().map(|a| a.slowdown).collect();
        s.sort_by(f64::total_cmp);
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    /// The decision log as canonical JSON — the unit of the
    /// determinism guarantee (same seed, same stream, same bytes).
    pub fn decision_log_json(&self) -> String {
        serde_json::to_string(&self.decisions).expect("decision log serializes")
    }

    /// The restripe log as canonical JSON — byte-stable for the same
    /// seed and stream, like the decision log.
    pub fn restripe_log_json(&self) -> String {
        serde_json::to_string(&self.restripes).expect("restripe log serializes")
    }
}

/// Builder for one scheduling session over a deployment.
///
/// ```
/// use beegfs_core::{plafrim_registration_order, BeeGfs, DirConfig};
/// use cluster::presets;
/// use ior::IorConfig;
/// use sched::{ArrivalStream, LeastLoadedServer, Scheduler};
/// use simcore::rng::RngFactory;
///
/// let mut fs = BeeGfs::new(
///     presets::plafrim_ethernet(),
///     DirConfig::plafrim_default(),
///     plafrim_registration_order(),
/// );
/// let factory = RngFactory::new(1);
/// let stream = ArrivalStream::poisson(
///     0.05,
///     3,
///     IorConfig::paper_default(4),
///     4,
///     &mut factory.stream("arrivals", 0),
/// );
/// let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
///     .serve(&stream, &factory)?;
/// assert_eq!(out.apps.len(), 3);
/// # Ok::<(), sched::SchedError>(())
/// ```
pub struct Scheduler<'fs, 'r> {
    pub(crate) fs: &'fs mut BeeGfs,
    pub(crate) policy: Box<dyn PlacementPolicy>,
    pub(crate) faults: FaultPlan,
    pub(crate) retry: RetryPolicy,
    pub(crate) hedge: Option<HedgeConfig>,
    pub(crate) max_concurrent: usize,
    pub(crate) recorder: Option<&'r mut dyn obs::Recorder>,
    pub(crate) metrics: Option<&'r mut obs::metrics::MetricsRegistry>,
    /// How admissions are priced; the frozen oracle unless switched.
    pub(crate) mode: AdmissionMode,
}

impl<'fs, 'r> Scheduler<'fs, 'r> {
    /// A scheduler over a deployment, using `policy` for placement.
    pub fn new(fs: &'fs mut BeeGfs, policy: Box<dyn PlacementPolicy>) -> Self {
        Scheduler {
            fs,
            policy,
            faults: FaultPlan::new(),
            retry: RetryPolicy::default(),
            hedge: None,
            max_concurrent: usize::MAX,
            recorder: None,
            metrics: None,
            mode: AdmissionMode::default(),
        }
    }

    /// Switch how admissions are priced (default:
    /// [`AdmissionMode::FrozenOracle`]). [`AdmissionMode::Online`]
    /// serves the whole session through one continuous fluid
    /// simulation — see [`crate::online`] — which is what makes
    /// million-arrival streams tractable.
    pub fn mode(mut self, mode: AdmissionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Apply a fault timeline (absolute sim-time) to every measurement
    /// run of the session.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Override the client retry/backoff policy of measurement runs.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Hedge every measurement run: write in chunks, detect straggling
    /// targets from per-chunk completion times, and redirect the
    /// remaining chunks of affected streams (see [`ior::HedgeConfig`]).
    /// Targets flagged by any committed run accumulate into
    /// [`ClusterView::suspected`], which straggler-aware policies use to
    /// route subsequent placements around suspect hardware. Solo
    /// baseline runs stay unhedged — the slowdown denominator keeps
    /// meaning "an idle, healthy system".
    pub fn hedge(mut self, config: HedgeConfig) -> Self {
        self.hedge = Some(config);
        self
    }

    /// Cap how many applications may run concurrently (compute-node
    /// capacity always applies on top; default is node-capacity only).
    pub fn max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n.max(1);
        self
    }

    /// Stream the scheduler's lifecycle events (`SchedArrival`,
    /// `SchedQueued`, `SchedAdmitted`, `SchedPlaced`, `SchedReleased`)
    /// into a recorder.
    pub fn trace(mut self, recorder: &'r mut dyn obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Accumulate scheduler introspection metrics into a
    /// [`MetricsRegistry`](obs::metrics::MetricsRegistry): admissions,
    /// queueing (`sched.queue_depth`, `sched.wait_s`), per-policy
    /// decision counts (`sched.decisions.<policy>`), measurement/solo
    /// simulation work, fault evictions and re-placements, and the
    /// running suspect-set size. The attached registry never changes
    /// scheduling results.
    pub fn metrics(mut self, registry: &'r mut obs::metrics::MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Serve the stream to completion.
    ///
    /// `factory` seeds every RNG stream the session consumes (one per
    /// admission, retry, and solo run), so one factory seed fully
    /// determines the session.
    pub fn serve(
        mut self,
        stream: &ArrivalStream,
        factory: &RngFactory,
    ) -> Result<SchedOutcome, SchedError> {
        let reqs = stream.requests();
        let platform = self.fs.platform();
        let (targets, max_nodes) = (platform.total_targets(), platform.compute.max_nodes);
        check_requests(reqs, max_nodes)?;
        let mut gate = Gate {
            max_concurrent: self.max_concurrent,
            max_nodes,
            ..Gate::default()
        };
        let ledger = Ledger {
            recorder: self.recorder.take().map(|r| r as _),
            metrics: self.metrics.take(),
            reqs,
            policy: self.policy.name(),
            outcomes: vec![None; reqs.len()],
            ..Ledger::default()
        };
        if self.mode == AdmissionMode::Online {
            return crate::online::serve_online(self, gate, ledger, factory);
        }
        let mut frozen = Frozen {
            sched: self,
            ledger,
            factory,
            running: Vec::new(),
            busy_fraction: vec![0.0; targets],
            suspected: vec![false; targets],
            arena: SimArena::new(),
            sim_events: 0,
        };
        let mut next_arrival = 0usize;
        while next_arrival < reqs.len() || !frozen.running.is_empty() {
            let soonest = frozen
                .running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.end_s.total_cmp(&b.end_s))
                .map(|(pos, r)| (pos, r.end_s));
            match soonest {
                // Completions tie-break before arrivals: capacity frees
                // up before the simultaneous newcomer asks for it.
                Some((pos, end_s))
                    if reqs.get(next_arrival).is_none_or(|r| end_s <= r.arrival_s) =>
                {
                    let done = frozen.running.swap_remove(pos);
                    frozen.ledger.complete(
                        done.app,
                        done.start_s..end_s,
                        done.duration_s,
                        done.ideal_s,
                        done.bytes,
                        done.targets,
                    );
                    gate.release(done.app, end_s, &mut frozen)?;
                }
                _ => {
                    let i = next_arrival;
                    next_arrival += 1;
                    gate.arrive(i, reqs[i].arrival_s, &mut frozen)?;
                }
            }
        }
        Ok(frozen.ledger.finish(frozen.sim_events))
    }
}

/// The request checks both modes run before either engine starts: a
/// non-empty stream of shared-file requests with request 0's ppn and
/// access mode, each a valid [`IorConfig`] that fits the partition.
fn check_requests(reqs: &[AppRequest], max_nodes: usize) -> Result<(), SchedError> {
    let first = reqs.first().ok_or(SchedError::EmptyStream)?;
    for (app, r) in reqs.iter().enumerate() {
        if r.config.layout != ior::FileLayout::SharedFile {
            return Err(SchedError::UnsupportedLayout { app });
        }
        if r.config.ppn != first.config.ppn || r.config.mode != first.config.mode {
            return Err(SchedError::MixedWorkload { app });
        }
        r.config.validate().map_err(RunError::from)?;
        if r.config.nodes > max_nodes {
            return Err(SchedError::Unschedulable {
                app,
                nodes: r.config.nodes,
                available: max_nodes,
            });
        }
    }
    Ok(())
}

/// An admission engine as the [`Gate`] drives it: the ledger it commits
/// to, and how it places, starts and prices one admitted request.
pub(crate) trait Engine<'a> {
    fn ledger(&mut self) -> &mut Ledger<'a>;

    /// Admit request `app` at instant `at_s`.
    fn admit(&mut self, app: usize, at_s: f64) -> Result<(), SchedError>;
}

/// The admission gate both engines share: the FIFO queue, the
/// concurrency cap and the node capacity. Every admission and release
/// passes through it, at instants taken from the caller's calendar.
#[derive(Default)]
pub(crate) struct Gate {
    queue: VecDeque<usize>,
    max_concurrent: usize,
    max_nodes: usize,
    running: usize,
    nodes_in_use: usize,
}

impl Gate {
    /// Request `app` arrives at `at_s`: it joins the FIFO queue — traced
    /// as queued unless it can start at once — and the queue drains.
    pub(crate) fn arrive<'a>(
        &mut self,
        app: usize,
        at_s: f64,
        e: &mut impl Engine<'a>,
    ) -> Result<(), SchedError> {
        let (at, id) = (ns(at_s), app as u32);
        let ledger = e.ledger();
        ledger.record(|| obs::Event::SchedArrival { at, app: id });
        if !(self.queue.is_empty() && self.fits(ledger.reqs[app].config.nodes)) {
            ledger.record(|| obs::Event::SchedQueued { at, app: id });
            if let Some(reg) = ledger.metrics() {
                reg.inc("sched.queued");
            }
        }
        self.queue.push_back(app);
        self.drain(at_s, e)
    }

    /// Application `app` leaves the system at `at_s`: its capacity frees
    /// up and the queue drains.
    pub(crate) fn release<'a>(
        &mut self,
        app: usize,
        at_s: f64,
        e: &mut impl Engine<'a>,
    ) -> Result<(), SchedError> {
        let (at, id) = (ns(at_s), app as u32);
        let ledger = e.ledger();
        ledger.record(|| obs::Event::SchedReleased { at, app: id });
        self.running -= 1;
        self.nodes_in_use -= ledger.reqs[app].config.nodes;
        self.drain(at_s, e)
    }

    /// Does a request for `nodes` fit next to the running set right now?
    fn fits(&self, nodes: usize) -> bool {
        self.running < self.max_concurrent && self.nodes_in_use + nodes <= self.max_nodes
    }

    /// Admit from the queue head, in order, while the head fits.
    fn drain<'a>(&mut self, at_s: f64, e: &mut impl Engine<'a>) -> Result<(), SchedError> {
        let reqs = e.ledger().reqs;
        while let Some(&app) = self.queue.front() {
            let nodes = reqs[app].config.nodes;
            if !self.fits(nodes) {
                break;
            }
            self.queue.pop_front();
            self.running += 1;
            self.nodes_in_use += nodes;
            let (at, id) = (ns(at_s), app as u32);
            let ledger = e.ledger();
            ledger.record(|| obs::Event::SchedAdmitted { at, app: id });
            if let Some(reg) = ledger.metrics() {
                reg.inc("sched.admissions");
                reg.observe("sched.wait_s", at_s - reqs[app].arrival_s);
            }
            e.admit(app, at_s)?;
        }
        if let Some(reg) = e.ledger().metrics() {
            reg.observe("sched.queue_depth", self.queue.len() as f64);
        }
        Ok(())
    }
}

/// The decision ledger both engines share: the session's requests, the
/// lifecycle trace, the metrics registry, the decision and restripe
/// logs, and the per-application outcomes.
#[derive(Default)]
pub(crate) struct Ledger<'a> {
    recorder: Option<&'a mut dyn obs::Recorder>,
    metrics: Option<&'a mut obs::metrics::MetricsRegistry>,
    pub(crate) reqs: &'a [AppRequest],
    policy: &'static str,
    decisions: Vec<Decision>,
    restripes: Vec<RestripeRecord>,
    outcomes: Vec<Option<AppOutcome>>,
}

impl Ledger<'_> {
    /// Trace the event `ev` builds, if a recorder is attached.
    fn record(&mut self, ev: impl FnOnce() -> obs::Event) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(ev());
        }
    }

    /// The attached metrics registry, if any.
    pub(crate) fn metrics(&mut self) -> Option<&mut obs::metrics::MetricsRegistry> {
        self.metrics.as_deref_mut()
    }

    /// Commit a placement of `app` on `targets` at `at_s`: a
    /// `SchedPlaced` event, a decision-log entry and the per-policy
    /// decision count.
    pub(crate) fn decide(&mut self, app: usize, at_s: f64, targets: &[TargetId], replaced: bool) {
        let targets: Vec<u32> = targets.iter().map(|t| t.0).collect();
        let policy = self.policy;
        self.record(|| obs::Event::SchedPlaced {
            at: ns(at_s),
            app: app as u32,
            policy: policy.to_string(),
            targets: targets.clone(),
        });
        self.log(app, at_s, targets, replaced);
    }

    /// Commit a mid-flight stripe change of `app` from `from` to `to` at
    /// `at_s`: a replacing decision plus a [`RestripeRecord`] of `kind`.
    /// A fault eviction (`"evict"`) is a re-placement and traces as
    /// `SchedPlaced`; an adaptive restripe traces as `SchedRestriped` and
    /// counts under `sched.restripes`.
    pub(crate) fn restripe(
        &mut self,
        app: usize,
        at_s: f64,
        kind: &str,
        from: &[TargetId],
        to: &[TargetId],
    ) {
        let record = RestripeRecord {
            app: app as u32,
            at_s,
            kind: kind.to_string(),
            from: from.iter().map(|t| t.0).collect(),
            to: to.iter().map(|t| t.0).collect(),
        };
        if kind == "evict" {
            self.decide(app, at_s, to, true);
        } else {
            self.record(|| obs::Event::SchedRestriped {
                at: ns(at_s),
                app: record.app,
                kind: record.kind.clone(),
                from: record.from.clone(),
                to: record.to.clone(),
            });
            if let Some(reg) = self.metrics() {
                reg.inc("sched.restripes");
                reg.inc(&format!("sched.restripes.{kind}"));
            }
            self.log(app, at_s, record.to.clone(), true);
        }
        self.restripes.push(record);
    }

    fn log(&mut self, app: usize, at_s: f64, targets: Vec<u32>, replaced: bool) {
        self.decisions.push(Decision {
            app: app as u32,
            arrival_s: self.reqs[app].arrival_s,
            admit_s: at_s,
            policy: self.policy.to_string(),
            targets,
            replaced,
        });
        if let Some(reg) = self.metrics.as_deref_mut() {
            reg.inc(&format!("sched.decisions.{}", self.policy));
        }
    }

    /// Commit the outcome of `app`, which ran over `span` (admission to
    /// completion) on `targets`. `duration_s` is the engine's own measure
    /// of that span (the frozen oracle's measurement run can differ from
    /// `end - admit` in the last bit); wait, slowdown and bandwidth derive.
    pub(crate) fn complete(
        &mut self,
        app: usize,
        span: Range<f64>,
        duration_s: f64,
        ideal_s: f64,
        bytes: u64,
        targets: Vec<TargetId>,
    ) {
        let arrival_s = self.reqs[app].arrival_s;
        self.outcomes[app] = Some(AppOutcome {
            app,
            arrival_s,
            admit_s: span.start,
            end_s: span.end,
            wait_s: span.start - arrival_s,
            duration_s,
            ideal_s,
            slowdown: (span.end - arrival_s) / ideal_s,
            bytes,
            targets,
            bandwidth: Bandwidth::from_bytes_per_sec(bytes as f64 / duration_s),
        });
    }

    /// The session's outcome: every request completed exactly once,
    /// plus the logs and the simulation work behind them.
    pub(crate) fn finish(self, sim_events: u64) -> SchedOutcome {
        let apps: Vec<AppOutcome> = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("every request was admitted exactly once"))
            .collect();
        let intervals: Vec<AppInterval> = apps
            .iter()
            .map(|a| AppInterval {
                start_s: a.admit_s,
                end_s: a.end_s,
                volume_bytes: a.bytes,
            })
            .collect();
        SchedOutcome {
            decisions: self.decisions,
            restripes: self.restripes,
            aggregate: Bandwidth::from_bytes_per_sec(aggregate_bandwidth(&intervals)),
            makespan_s: apps.iter().map(|a| a.end_s).fold(0.0, f64::max),
            sim_events,
            apps,
        }
    }
}

/// An application currently on the frozen oracle's system.
struct Running {
    app: usize,
    start_s: f64,
    end_s: f64,
    /// Wall time from `start_s` to `end_s` as last measured.
    duration_s: f64,
    ideal_s: f64,
    placement: Placement,
    targets: Vec<TargetId>,
    bytes: u64,
}

/// The frozen oracle's session: the running set as committed so far and
/// the feedback its measurement runs accumulate.
struct Frozen<'fs, 'r, 'a> {
    sched: Scheduler<'fs, 'r>,
    ledger: Ledger<'a>,
    factory: &'a RngFactory,
    running: Vec<Running>,
    /// Per-target utilization from the last committed measurement run.
    busy_fraction: Vec<f64>,
    /// Per-target straggler suspicion accumulated from the hedge
    /// reports of committed measurement runs; sticky for the session.
    suspected: Vec<bool>,
    /// Recycled simulation buffers shared by every measurement run of
    /// the session (one admission can trigger several).
    arena: SimArena,
    sim_events: u64,
}

impl Frozen<'_, '_, '_> {
    /// Ask the policy for a placement against the committed running set.
    fn place(
        &mut self,
        stripe: u32,
        bytes: u64,
        rng: &mut StreamRng,
    ) -> Result<Placement, SchedError> {
        let running = self.running.iter().map(|r| (&r.targets[..], r.bytes));
        let inputs = ViewInputs::new(self.sched.fs, running);
        let platform = self.sched.fs.platform();
        let view = inputs.view(platform, &self.busy_fraction, &self.suspected);
        Ok(self.sched.policy.place(&view, stripe, bytes, rng)?)
    }
}

impl<'a> Engine<'a> for Frozen<'_, '_, 'a> {
    fn ledger(&mut self) -> &mut Ledger<'a> {
        &mut self.ledger
    }

    /// Admit request `i` at instant `now`: place it, price it with a
    /// measurement run (re-placing around dead targets as needed),
    /// commit its completion, and measure its solo baseline.
    fn admit(&mut self, i: usize, now: f64) -> Result<(), SchedError> {
        let req = self.ledger.reqs[i];
        let mut place_rng = self.factory.stream("sched-place", i as u64);
        let mut placement = self.place(req.stripe, req.config.total_bytes, &mut place_rng)?;
        // Incumbents re-placed during fault retries, by `running` index.
        let mut replaced: Vec<bool> = vec![false; self.running.len()];
        let (out, telemetry, attempt) = 'measured: {
            for attempt in 0..=self.sched.fs.platform().total_targets() {
                let mut run = Run::new(self.sched.fs).arena(&mut self.arena);
                for r in &self.running {
                    let cfg = self.ledger.reqs[r.app].config;
                    run = run.app(spec_for(&r.placement, cfg).starting_at(r.start_s));
                }
                run = run.app(spec_for(&placement, req.config).starting_at(now));
                run = run.faults(self.sched.faults.clone());
                run = run.policy(self.sched.retry);
                if let Some(cfg) = self.sched.hedge {
                    run = run.hedge(cfg);
                }
                let stream = (i as u64) << 8 | attempt as u64;
                let result = run.execute(&mut self.factory.stream("sched-run", stream));
                if let Some(reg) = self.ledger.metrics() {
                    reg.inc("sched.measurement_runs");
                }
                let target = match result {
                    Ok((out, telemetry)) => break 'measured (out, telemetry, attempt),
                    Err(RunError::TargetUnavailable { target, .. }) => target,
                    Err(e) => return Err(SchedError::Run(e)),
                };
                // The target is gone for good (the plan never revives it
                // within the retry deadline): take it out of the pool and
                // re-place everyone who touched it.
                self.sched
                    .fs
                    .set_target_state(target, TargetState::Offline)
                    .expect("run validated the fault plan's targets");
                if let Some(reg) = self.ledger.metrics() {
                    reg.inc("sched.evictions");
                }
                if matches!(&placement, Placement::Pinned(t) if t.contains(&target)) {
                    placement = self.place(req.stripe, req.config.total_bytes, &mut place_rng)?;
                }
                for (j, moved) in replaced.iter_mut().enumerate() {
                    let r = &self.running[j];
                    if r.targets.contains(&target) {
                        let (stripe, bytes) = (r.targets.len() as u32, r.bytes);
                        self.running[j].placement = self.place(stripe, bytes, &mut place_rng)?;
                        *moved = true;
                        if let Some(reg) = self.ledger.metrics() {
                            reg.inc("sched.replacements");
                        }
                    }
                }
            }
            return Err(SchedError::ReplacementExhausted { app: i });
        };
        self.sim_events += out.sim_events;
        // Quarantine targets the hedging detector flagged.
        for t in out.hedge.iter().flat_map(|h| &h.flagged) {
            self.suspected[t.index()] = true;
        }
        if let Some(reg) = self.ledger.metrics() {
            reg.add("sched.measurement_sim_events", out.sim_events);
            let n = self.suspected.iter().filter(|&&s| s).count();
            reg.gauge_max("sched.suspected_targets", n as f64);
        }
        // Refresh the per-target utilization feedback. The report is in
        // fabric order, and a fabric creates its OSTs last, in flat
        // target order: the report's tail is the per-target entries.
        let platform = self.sched.fs.platform();
        let osts = &telemetry.resources[telemetry.resources.len() - platform.total_targets()..];
        for (t, r) in platform.all_targets().zip(osts) {
            debug_assert_eq!(
                r.label,
                format!("oss{}.ost{}", platform.server_of(t).0, platform.slot_of(t))
            );
            self.busy_fraction[t.index()] = r.utilization(telemetry.io_secs);
        }
        // Re-placed incumbents take their new completion (and
        // allocation) from this run.
        for (j, r) in self.running.iter_mut().enumerate() {
            if !replaced[j] {
                continue;
            }
            let res = &out.apps[j];
            r.end_s = r.start_s + res.duration_s;
            r.duration_s = r.end_s - r.start_s;
            r.targets = res.file_targets[0].clone();
            self.ledger.decide(r.app, now, &r.targets, true);
        }
        let res = out.apps.last().expect("run included the new app");
        let targets = res.file_targets[0].clone();
        self.ledger.decide(i, now, &targets, attempt > 0);
        // Solo baseline: same allocation, idle fault-free system — the
        // denominator of the slowdown metric.
        let mut solo_rng = self.factory.stream("sched-solo", i as u64);
        let (solo, _) = Run::new(self.sched.fs)
            .arena(&mut self.arena)
            .app(AppSpec::pinned(req.config, targets.clone()))
            .execute(&mut solo_rng)?;
        self.sim_events += solo.sim_events;
        if let Some(reg) = self.ledger.metrics() {
            reg.add("sched.solo_sim_events", solo.sim_events);
        }
        self.running.push(Running {
            app: i,
            start_s: now,
            end_s: now + res.duration_s,
            duration_s: res.duration_s,
            ideal_s: solo.apps[0].duration_s,
            placement: Placement::Pinned(targets.clone()),
            targets,
            bytes: res.bytes,
        });
        Ok(())
    }
}

fn spec_for(placement: &Placement, cfg: IorConfig) -> AppSpec {
    match placement {
        Placement::Deferred => AppSpec::new(cfg),
        Placement::Pinned(targets) => AppSpec::pinned(cfg, targets.clone()),
    }
}

/// The owned inputs of a [`ClusterView`] at one instant: per-target
/// management-service liveness and per-server outstanding bytes of the
/// running set. Owned, so a view can borrow them while the policy is
/// borrowed mutably.
pub(crate) struct ViewInputs {
    online: Vec<bool>,
    outstanding: Vec<f64>,
}

impl ViewInputs {
    /// Snapshot the deployment's liveness and the running set's load:
    /// each `(targets, bytes)` entry spreads its bytes evenly over its
    /// targets' servers, accumulated in iteration order.
    pub(crate) fn new<'t>(
        fs: &BeeGfs,
        running: impl Iterator<Item = (&'t [TargetId], u64)>,
    ) -> Self {
        let platform = fs.platform();
        let online = platform
            .all_targets()
            .map(|t| fs.mgmt().state(t).selectable())
            .collect();
        let mut outstanding = vec![0.0f64; platform.server_count()];
        for (targets, bytes) in running {
            if targets.is_empty() {
                continue;
            }
            let share = bytes as f64 / targets.len() as f64;
            for &t in targets {
                outstanding[platform.server_of(t).index()] += share;
            }
        }
        ViewInputs {
            online,
            outstanding,
        }
    }

    /// The policy's view: these inputs plus the utilization feed and the
    /// straggler suspicion.
    pub(crate) fn view<'a>(
        &'a self,
        platform: &'a Platform,
        busy_fraction: &'a [f64],
        suspected: &'a [bool],
    ) -> ClusterView<'a> {
        ClusterView {
            platform,
            online: &self.online,
            outstanding_bytes: &self.outstanding,
            busy_fraction,
            suspected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::AppRequest;
    use crate::policy::{
        LeastLoadedServer, Random, RoundRobinServer, StragglerAware, UtilizationFeedback,
    };
    use beegfs_core::{plafrim_registration_order, ChooserKind, DirConfig, StripePattern};
    use cluster::presets;
    use simcore::units::GIB;

    fn deploy(chooser: ChooserKind) -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_ethernet(),
            DirConfig {
                pattern: StripePattern::new(4, 512 * 1024),
                chooser,
            },
            plafrim_registration_order(),
        )
    }

    /// Scenario 2 (Omni-Path) deployment: storage-bound, so a slow
    /// target actually shows up in completion times.
    fn deploy_s2() -> BeeGfs {
        BeeGfs::new(
            presets::plafrim_omnipath(),
            DirConfig {
                pattern: StripePattern::new(4, 512 * 1024),
                chooser: ChooserKind::RoundRobin,
            },
            plafrim_registration_order(),
        )
    }

    fn req(arrival_s: f64, nodes: usize) -> AppRequest {
        AppRequest {
            arrival_s,
            config: IorConfig {
                total_bytes: 4 * GIB,
                ..IorConfig::paper_default(nodes)
            },
            stripe: 4,
        }
    }

    #[test]
    fn serial_random_arrivals_match_plain_chooser_runs_bit_for_bit() {
        // The acceptance criterion of the subsystem: with the Random
        // policy, per-file allocations are bit-identical to the
        // existing chooser's under the same seed. Arrivals are spaced
        // so no two applications overlap: each measurement run then
        // contains exactly one app and consumes its RNG stream exactly
        // as a plain `Run` does.
        let stream = ArrivalStream::from_trace(vec![
            req(0.0, 4),
            req(10_000.0, 4),
            req(20_000.0, 4),
            req(30_000.0, 4),
        ])
        .unwrap();
        let factory = RngFactory::new(77);
        let mut fs = deploy(ChooserKind::Random);
        let out = Scheduler::new(&mut fs, Box::new(Random))
            .serve(&stream, &factory)
            .unwrap();
        for (i, app) in out.apps.iter().enumerate() {
            let mut fs = deploy(ChooserKind::Random);
            let mut rng = factory.stream("sched-run", (i as u64) << 8);
            let (plain, _) = Run::new(&mut fs)
                .app(AppSpec::new(req(0.0, 4).config).starting_at(app.admit_s))
                .execute(&mut rng)
                .unwrap();
            assert_eq!(
                app.targets, plain.apps[0].file_targets[0],
                "app {i} diverged from the plain chooser"
            );
            assert_eq!(
                app.duration_s.to_bits(),
                plain.apps[0].duration_s.to_bits(),
                "app {i} priced differently than the plain run"
            );
        }
    }

    #[test]
    fn overlapping_arrivals_contend_and_slowdown_reports_it() {
        // Two same-size apps arriving almost together on one deployment:
        // the second must see contention (slowdown > 1), and both
        // complete.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4)]).unwrap();
        let factory = RngFactory::new(5);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps.len(), 2);
        assert!(
            out.apps[1].slowdown > 1.1,
            "slowdown {}",
            out.apps[1].slowdown
        );
        assert!(out.makespan_s > out.apps[0].end_s.min(out.apps[1].end_s));
        assert_eq!(out.decisions.len(), 2);
    }

    #[test]
    fn queueing_defers_admission_until_capacity_frees() {
        // max_concurrent = 1 forces the second app to wait for the
        // first; its admission time is the first one's completion.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4)]).unwrap();
        let factory = RngFactory::new(6);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let mut timeline = obs::Timeline::new();
        let out = Scheduler::new(&mut fs, Box::new(RoundRobinServer::default()))
            .max_concurrent(1)
            .trace(&mut timeline)
            .serve(&stream, &factory)
            .unwrap();
        assert!(out.apps[1].wait_s > 0.0, "second app never queued");
        assert_eq!(out.apps[1].admit_s, out.apps[0].end_s);
        assert!(out.apps[1].slowdown > 1.0);
        let kinds: Vec<obs::EventKind> = timeline.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&obs::EventKind::SchedQueued));
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == obs::EventKind::SchedReleased)
                .count(),
            2
        );
    }

    #[test]
    fn node_capacity_gates_admission() {
        // Two 24-node apps cannot share the 44-node partition: the
        // second queues even without an explicit concurrency cap.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 24), req(1.0, 24)]).unwrap();
        let factory = RngFactory::new(7);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let max_nodes = fs.platform().compute.max_nodes;
        assert!(max_nodes < 48, "test assumes a partition under 48 nodes");
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps[1].admit_s, out.apps[0].end_s);
    }

    #[test]
    fn impossible_requests_are_a_typed_error() {
        let factory = RngFactory::new(8);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let max_nodes = fs.platform().compute.max_nodes;
        let stream = ArrivalStream::from_trace(vec![req(0.0, max_nodes + 1)]).unwrap();
        let err = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap_err();
        assert!(matches!(err, SchedError::Unschedulable { app: 0, .. }));

        let mut fs = deploy(ChooserKind::RoundRobin);
        let mixed = ArrivalStream::from_trace(vec![
            req(0.0, 4),
            AppRequest {
                config: IorConfig::paper_default(4).with_ppn(16),
                ..req(1.0, 4)
            },
        ])
        .unwrap();
        let err = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&mixed, &factory)
            .unwrap_err();
        assert!(matches!(err, SchedError::MixedWorkload { app: 1 }));
    }

    #[test]
    fn invalid_request_configs_fail_alike_in_both_modes() {
        // A zero-byte request is an invalid `IorConfig`: both admission
        // modes must reject the stream with the same typed error instead
        // of serving it.
        let factory = RngFactory::new(8);
        let stream = ArrivalStream::from_trace(vec![
            req(0.0, 4),
            AppRequest {
                config: req(1.0, 4).config.with_total_bytes(0),
                ..req(1.0, 4)
            },
        ])
        .unwrap();
        for mode in [AdmissionMode::FrozenOracle, AdmissionMode::Online] {
            let mut fs = deploy(ChooserKind::RoundRobin);
            let err = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
                .mode(mode)
                .serve(&stream, &factory)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    SchedError::Run(RunError::Config(ior::ConfigError::ZeroBytes))
                ),
                "{}: {err}",
                mode.label()
            );
        }
    }

    #[test]
    fn fault_evicts_target_and_policy_replaces_it() {
        // Target 0 dies mid-run and never recovers; the first placement
        // (cold-start LeastLoadedServer includes target 0) stalls past
        // the retry deadline, so the scheduler must evict t0, re-place,
        // and succeed without it.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(9);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let plan = FaultPlan::new().target_offline(0.5, TargetId(0)).unwrap();
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .faults(plan)
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .serve(&stream, &factory)
            .unwrap();
        let last = out.decisions.last().unwrap();
        assert!(last.replaced, "decision was not re-placed");
        assert!(!last.targets.contains(&0), "dead target still allocated");
        assert!(!out.apps[0].targets.contains(&TargetId(0)));
    }

    #[test]
    fn utilization_feedback_learns_from_committed_runs() {
        // After the first app lands, the second's placement must avoid
        // reusing the hottest targets blindly: its allocation stays
        // server-balanced or disjoint, never a (4,0)/(0,4) pile-up on
        // the busier server.
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4)]).unwrap();
        let factory = RngFactory::new(10);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(UtilizationFeedback))
            .serve(&stream, &factory)
            .unwrap();
        let platform = presets::plafrim_ethernet();
        let counts = platform.per_server_counts(&out.apps[1].targets);
        let spread = counts.iter().filter(|&&c| c > 0).count();
        assert!(spread >= 1 && out.apps[1].targets.len() == 4, "{counts:?}");
    }

    /// A scenario-2 request big enough for mid-run faults to land
    /// inside its I/O window (~2.7 s).
    fn req_s2(arrival_s: f64) -> AppRequest {
        AppRequest {
            arrival_s,
            config: IorConfig::paper_default(8),
            stripe: 4,
        }
    }

    #[test]
    fn hedged_scheduler_quarantines_flagged_targets() {
        // App 0's measurement run meets a transient straggler on target
        // 0; the hedging detector flags it, and the straggler-aware
        // policy must keep app 1 (arriving long after recovery, with no
        // live telemetry pointing at t0) off the suspect target.
        let stream = ArrivalStream::from_trace(vec![req_s2(0.0), req_s2(10_000.0)]).unwrap();
        let factory = RngFactory::new(21);
        let plan = FaultPlan::new()
            .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
            .unwrap();
        let mut fs = deploy_s2();
        let out = Scheduler::new(&mut fs, Box::new(StragglerAware))
            .faults(plan)
            .hedge(ior::HedgeConfig::default())
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(out.apps.len(), 2);
        assert!(
            out.decisions[0].targets.contains(&0),
            "cold start should have used t0: {:?}",
            out.decisions[0].targets
        );
        assert!(
            !out.decisions[1].targets.contains(&0),
            "suspected target re-used: {:?}",
            out.decisions[1].targets
        );
    }

    #[test]
    fn hedged_decision_log_is_deterministic() {
        // Same seed, same stream, same faults: two hedged sessions must
        // produce byte-identical decision logs (detection consumes no
        // randomness and flag refreshes are event-ordered).
        let plan = FaultPlan::new()
            .target_transient_straggler(1.0, TargetId(0), 0.12, 500.0)
            .unwrap();
        let serve = || {
            let stream =
                ArrivalStream::from_trace(vec![req_s2(0.0), req_s2(1.0), req_s2(2.0)]).unwrap();
            let factory = RngFactory::new(22);
            let mut fs = deploy_s2();
            Scheduler::new(&mut fs, Box::new(StragglerAware))
                .faults(plan.clone())
                .hedge(ior::HedgeConfig::default())
                .serve(&stream, &factory)
                .unwrap()
                .decision_log_json()
        };
        assert_eq!(serve(), serve());
    }

    #[test]
    fn metrics_capture_queueing_and_decisions() {
        // max_concurrent = 1: the second and third apps queue, so the
        // depth histogram must have seen a nonzero depth, and decision
        // counts must equal the committed log.
        let stream =
            ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4), req(2.0, 4)]).unwrap();
        let factory = RngFactory::new(30);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let mut reg = obs::metrics::MetricsRegistry::new();
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .max_concurrent(1)
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        assert_eq!(reg.counter("sched.admissions"), 3);
        assert_eq!(reg.counter("sched.queued"), 2);
        assert_eq!(
            reg.counter("sched.decisions.LeastLoadedServer"),
            out.decisions.len() as u64
        );
        let depth = reg.histogram("sched.queue_depth").unwrap();
        assert!(depth.quantile(1.0) >= 2.0, "never saw a depth-2 queue");
        let waits = reg.histogram("sched.wait_s").unwrap();
        assert_eq!(waits.count(), 3);
        assert!(waits.quantile(1.0) > 0.0, "queued apps waited");
        // Measurement + solo sim work both accounted, and together they
        // reproduce the outcome's total event count.
        assert_eq!(reg.counter("sched.measurement_runs"), 3);
        assert_eq!(
            reg.counter("sched.measurement_sim_events") + reg.counter("sched.solo_sim_events"),
            out.sim_events
        );
        assert_eq!(reg.counter("sched.evictions"), 0);
    }

    #[test]
    fn metrics_count_fault_evictions() {
        let stream = ArrivalStream::from_trace(vec![req(0.0, 4)]).unwrap();
        let factory = RngFactory::new(9);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let plan = FaultPlan::new().target_offline(0.5, TargetId(0)).unwrap();
        let mut reg = obs::metrics::MetricsRegistry::new();
        Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .faults(plan)
            .retry(RetryPolicy {
                deadline_s: 5.0,
                ..RetryPolicy::default()
            })
            .metrics(&mut reg)
            .serve(&stream, &factory)
            .unwrap();
        assert!(reg.counter("sched.evictions") >= 1);
        assert!(reg.counter("sched.measurement_runs") >= 2, "retry happened");
    }

    #[test]
    fn slowdown_quantiles_are_ordered() {
        let stream =
            ArrivalStream::from_trace(vec![req(0.0, 4), req(1.0, 4), req(2.0, 4)]).unwrap();
        let factory = RngFactory::new(11);
        let mut fs = deploy(ChooserKind::RoundRobin);
        let out = Scheduler::new(&mut fs, Box::new(LeastLoadedServer))
            .serve(&stream, &factory)
            .unwrap();
        let p50 = out.slowdown_quantile(0.5);
        let p99 = out.slowdown_quantile(0.99);
        assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
        assert!(out.mean_slowdown() >= 1.0);
        assert!(!out.decision_log_json().is_empty());
    }
}
