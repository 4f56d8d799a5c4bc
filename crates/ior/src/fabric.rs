//! The write path shared by the batch runner ([`Run`](crate::Run)) and
//! the online scheduler: input checks ([`check_fault_inputs`]), the
//! noisy fabric with pre-run target states ([`WriteFabric::build`]), the
//! one fault-timeline compiler ([`WriteFabric::compile_faults`]), and
//! the per-process stripe split ([`process_writes`]).
//!
//! A run fails with [`RunError::TargetUnavailable`] when a flow stalls on
//! a [`DeadTarget`]; an online session evicts each dead target at its
//! abandon instant instead.

use crate::config::{FileLayout, IorConfig};
use crate::error::RunError;
use crate::runner::RetryPolicy;
use beegfs_core::faults::FaultKind;
use beegfs_core::{BeeGfs, FaultPlan, FileHandle, TargetState};
use cluster::{Fabric, FabricNoise, FabricPaths, Platform, TargetId};
use simcore::flow::{FluidSim, SimArena};
use simcore::time::{ns, SimTime};
use storage::AccessMode;

/// Reject a retry policy outside its numeric ranges (a zero backoff never
/// lets a probe land) and a fault plan naming hardware the platform lacks.
pub fn check_fault_inputs(
    platform: &Platform,
    plan: &FaultPlan,
    policy: &RetryPolicy,
) -> Result<(), RunError> {
    policy.validate()?;
    for ev in plan.events() {
        match ev.kind {
            FaultKind::SetTargetState { target, .. }
            | FaultKind::SlowDrift { target, .. }
            | FaultKind::TransientStraggler { target, .. } => {
                if target.index() >= platform.total_targets() {
                    return Err(RunError::UnknownFaultTarget(target));
                }
            }
            FaultKind::DegradeServerLink { server, .. }
            | FaultKind::RestoreServerLink { server } => {
                if server as usize >= platform.server_count() {
                    return Err(RunError::UnknownFaultServer(server));
                }
            }
        }
    }
    Ok(())
}

/// A target whose stalled writes no retry probe survivably resumed: it
/// stays at zero capacity for the rest of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadTarget {
    /// The abandoned target.
    pub target: TargetId,
    /// Start of the outage that was never survivably resolved, seconds.
    pub outage_start_s: f64,
    /// The instant the client gives up: `outage_start_s` plus the retry
    /// policy's `deadline_s`.
    pub abandon_s: f64,
}

/// A platform fabric loaded into a fluid simulation, with the capacity
/// factors fault recovery restores.
pub struct WriteFabric<'r> {
    pub(crate) sim: FluidSim<'r>,
    paths: FabricPaths,
    /// Noise-only factor per target, recorded before pre-run target
    /// states compound in: a mid-run recovery restores these, not the
    /// state-scaled factors.
    base_ost: Vec<f64>,
    /// Noise-only factor per server link.
    base_link: Vec<f64>,
}

impl<'r> WriteFabric<'r> {
    /// Build the fabric for `nodes` compute nodes at `ppn` under one
    /// sampled `noise`, record its baselines, and compound the
    /// deployment's degraded/offline target states into it. With an
    /// `arena` the simulation reuses its buffers.
    pub fn build(
        fs: &BeeGfs,
        nodes: usize,
        ppn: u32,
        noise: &FabricNoise,
        mode: AccessMode,
        arena: Option<&mut SimArena>,
    ) -> Self {
        let platform = fs.platform();
        let (mut net, paths) = Fabric::build_for(platform, nodes, ppn, noise, mode).into_parts();
        let base_ost: Vec<f64> = platform
            .all_targets()
            .map(|t| net.factor(paths.ost_resource(t)))
            .collect();
        let base_link: Vec<f64> = (0..platform.server_count())
            .map(|s| net.factor(paths.server_link_resource(s)))
            .collect();
        for t in platform.all_targets() {
            let state_factor = fs.target_speed_factor(t);
            if state_factor != 1.0 {
                let r = paths.ost_resource(t);
                net.set_factor(r, net.factor(r) * state_factor);
            }
        }
        let sim = match arena {
            Some(a) => FluidSim::with_arena(net, a),
            None => FluidSim::new(net),
        };
        WriteFabric {
            sim,
            paths,
            base_ost,
            base_link,
        }
    }

    /// The simulation and its resource lookup, once faults are compiled.
    pub fn into_parts(self) -> (FluidSim<'r>, FabricPaths) {
        (self.sim, self.paths)
    }

    /// Compile `plan` into scheduled capacity changes; return the targets
    /// whose writes were abandoned, by abandon instant (ties by target).
    ///
    /// An outage zeroes the target's capacity. Clients observe it one
    /// management heartbeat later and probe with `policy`'s backoff; the
    /// baseline capacity returns at the first probe that finds the target
    /// serving (a later outage can swallow a probe). If none does within
    /// `policy.deadline_s` of the outage start, the target is dead for
    /// good. Degradations, drifts, stragglers and link faults are physical
    /// slowdowns at their event time.
    ///
    /// Link events are scheduled first, then targets in ascending index.
    /// A `recorder` receives the plan's timeline and the client's stall,
    /// probe, resume and abandon events, and `metrics` the matching
    /// `ior.*` counters; neither changes the compiled timeline.
    pub fn compile_faults(
        &mut self,
        fs: &BeeGfs,
        plan: &FaultPlan,
        policy: &RetryPolicy,
        mut recorder: Option<&mut (dyn obs::Recorder + '_)>,
        mut metrics: Option<&mut obs::metrics::MetricsRegistry>,
    ) -> Vec<DeadTarget> {
        if let Some(rec) = recorder.as_deref_mut() {
            plan.record_into(rec);
        }
        // Target-state events need the client's view (detection delay
        // plus retry probes), and whether a probe succeeds depends on the
        // target's *whole* timeline — a later outage can swallow a probe
        // — so they are expanded per target and compiled against that
        // merged timeline.
        let mut target_events: Vec<Vec<(f64, TargetState)>> = vec![Vec::new(); self.base_ost.len()];
        for t in plan.touched_targets() {
            target_events[t.index()] = plan.target_state_curve(t);
        }
        for ev in plan.events() {
            // A restore is the degrade with factor 1: `base * 1.0 == base`.
            let (server, factor) = match ev.kind {
                FaultKind::DegradeServerLink { server, factor } => (server as usize, factor),
                FaultKind::RestoreServerLink { server } => (server as usize, 1.0),
                _ => continue,
            };
            self.sim.schedule_factor_change(
                SimTime::from_secs_f64(ev.at_s),
                self.paths.server_link_resource(server),
                self.base_link[server] * factor,
            );
        }

        let mut dead = Vec::new();
        for (idx, evs) in target_events.iter().enumerate() {
            let target = TargetId(idx as u32);
            let r = self.paths.ost_resource(target);
            let base = self.base_ost[idx];
            // The target's physical state at `t`, once the plan has
            // touched it.
            let state_at = |t: f64| {
                evs.iter()
                    .take_while(|(at_s, _)| *at_s <= t)
                    .last()
                    .map(|&(_, state)| state)
            };
            let mut i = 0;
            while i < evs.len() {
                let (at_s, state) = evs[i];
                if !matches!(state, TargetState::Offline) {
                    self.sim.schedule_factor_change(
                        SimTime::from_secs_f64(at_s),
                        r,
                        base * state.speed_factor(),
                    );
                    i += 1;
                    continue;
                }
                // Outage: capacity drops to zero now; clients notice one
                // heartbeat later and probe with backoff. Each candidate
                // recovery is checked against the timeline at its probe
                // instant, because the target may be down again by then.
                self.sim
                    .schedule_factor_change(SimTime::from_secs_f64(at_s), r, 0.0);
                let observe = fs.mgmt().observation_time_s(at_s);
                let mut resume: Option<(f64, TargetState)> = None;
                for &(rec_s, _) in evs[i + 1..]
                    .iter()
                    .filter(|(_, s)| !matches!(s, TargetState::Offline))
                {
                    let probe = policy.resume_time_s(observe, rec_s);
                    match state_at(probe) {
                        Some(TargetState::Offline) | None => continue,
                        Some(found) => {
                            resume = Some((probe, found));
                            break;
                        }
                    }
                }
                match resume {
                    Some((probe_s, found)) if probe_s - at_s <= policy.deadline_s => {
                        self.sim.schedule_factor_change(
                            SimTime::from_secs_f64(probe_s),
                            r,
                            base * found.speed_factor(),
                        );
                        // A stall is only observed if recovery did not
                        // beat the heartbeat; every probe before the
                        // successful one failed.
                        if probe_s > observe && (recorder.is_some() || metrics.is_some()) {
                            let probes = policy.probe_times(observe, probe_s);
                            let failed = probes.len().saturating_sub(1);
                            if let Some(reg) = metrics.as_deref_mut() {
                                reg.inc("ior.stalls_observed");
                                reg.add("ior.retry_probes", failed as u64);
                                observe_backoff(reg, observe, &probes);
                            }
                            if let Some(rec) = recorder.as_deref_mut() {
                                record_probes(rec, target.0, observe, &probes[..failed]);
                                rec.record(obs::Event::RetryResumed {
                                    at: ns(probe_s),
                                    target: target.0,
                                    attempts: failed as u32,
                                });
                            }
                        }
                        // Everything up to the successful probe belonged
                        // to this one client-visible outage.
                        i += 1;
                        while i < evs.len() && evs[i].0 <= probe_s {
                            i += 1;
                        }
                    }
                    _ => {
                        // Never survivably resolved: the writes are
                        // abandoned at the deadline.
                        let abandon_s = at_s + policy.deadline_s;
                        if recorder.is_some() || metrics.is_some() {
                            let probes = policy.probe_times(observe, abandon_s);
                            if let Some(reg) = metrics.as_deref_mut() {
                                reg.inc("ior.stalls_observed");
                                reg.inc("ior.retries_abandoned");
                                reg.add("ior.retry_probes", probes.len() as u64);
                                observe_backoff(reg, observe, &probes);
                            }
                            if let Some(rec) = recorder.as_deref_mut() {
                                record_probes(rec, target.0, observe, &probes);
                                rec.record(obs::Event::RetryAbandoned {
                                    at: ns(abandon_s),
                                    target: target.0,
                                });
                            }
                        }
                        dead.push(DeadTarget {
                            target,
                            outage_start_s: at_s,
                            abandon_s,
                        });
                        break;
                    }
                }
            }
        }
        dead.sort_by(|a, b| a.abandon_s.total_cmp(&b.abandon_s));
        dead
    }
}

/// One `ior.backoff_wait_s` sample per probe: the wait since the
/// previous probe (or since the stall was observed).
fn observe_backoff(reg: &mut obs::metrics::MetricsRegistry, observe: f64, probes: &[f64]) {
    let mut prev = observe;
    for &p in probes {
        reg.observe("ior.backoff_wait_s", p - prev);
        prev = p;
    }
}

/// Trace an observed stall and its failed probes, numbered from 1.
fn record_probes(rec: &mut dyn obs::Recorder, target: u32, observe: f64, failed: &[f64]) {
    rec.record(obs::Event::StallObserved {
        at: ns(observe),
        target,
    });
    for (k, &p) in failed.iter().enumerate() {
        rec.record(obs::Event::RetryProbe {
            at: ns(p),
            target,
            attempt: (k + 1) as u32,
        });
    }
}

/// Every nonzero write of one application: `(process, file, target,
/// bytes)` in process order, then stripe order. A shared file is written
/// by process `p` at offset `p × block`; file-per-process layouts give
/// process `p` the whole of `files[p]`.
pub fn process_writes<'f>(
    cfg: &IorConfig,
    files: &'f [FileHandle],
) -> impl Iterator<Item = (usize, &'f FileHandle, TargetId, u64)> + 'f {
    let block = cfg.block_size();
    let layout = cfg.layout;
    (0..cfg.processes()).flat_map(move |p| {
        let (file, offset) = match layout {
            FileLayout::SharedFile => (&files[0], p as u64 * block),
            FileLayout::FilePerProcess => (&files[p], 0u64),
        };
        file.bytes_per_target(offset, block)
            .into_iter()
            .filter(|&(_, bytes)| bytes > 0)
            .map(move |(target, bytes)| (p, file, target, bytes))
    })
}
