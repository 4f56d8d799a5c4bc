//! The traced run's outside view of an online session.
//!
//! Two pass-through hooks wall-stamp every call the scheduler makes out
//! of its own code: [`StampRecorder`], an [`obs::Recorder`] passed via
//! `Scheduler::trace` that sees each lifecycle event, and
//! [`TimedPolicy`], a [`PlacementPolicy`] wrapper that sees each
//! placement and restripe evaluation. Neither changes what the program
//! computes: the recorder only reads, and the wrapper delegates every
//! method unchanged.
//!
//! The stamps cut the wall time of `Scheduler::serve` into consecutive
//! intervals. Each interval goes to exactly one layer, chosen by the
//! stamps at its two ends (see [`Tracer::stamp`]), so the layers
//! partition the traced wall time.

use beegfs_core::PolicyError;
use sched::{AppObservation, ClusterView, Placement, PlacementPolicy, RestripeDecision};
use simcore::rng::StreamRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The boundary a stamp marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// Just before `Scheduler::serve` is called.
    Entry,
    /// `serve` returned.
    Exit,
    Arrival,
    Queued,
    Admitted,
    Placed,
    Released,
    Restriped,
    PlaceStart,
    PlaceEnd,
    EvalStart,
    EvalEnd,
    WantsFeedback,
    AppDone,
}

/// Wall seconds per layer of one traced session.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `serve` entry to the first callback: live and shadow fabric
    /// build, fault-plan compilation.
    pub session_build: f64,
    /// Intervals ending at an arrival, release, queue, completion or
    /// evaluation boundary: `run_until` (solver, event heap),
    /// completion accounting, evaluations that did not restripe.
    pub advance: f64,
    /// Admission minus placement: file create, live inject, shadow
    /// ideal replay, decision bookkeeping.
    pub admit: f64,
    /// Inside `PlacementPolicy::place`.
    pub place: f64,
    /// Inside `PlacementPolicy::restripe`.
    pub restripe_eval: f64,
    /// Intervals ending at a committed restripe, minus evaluation.
    pub restripe_apply: f64,
    /// Last callback to `serve` returning: outcome assembly.
    pub finish: f64,
}

impl LayerTimes {
    pub fn total(&self) -> f64 {
        self.session_build
            + self.advance
            + self.admit
            + self.place
            + self.restripe_eval
            + self.restripe_apply
            + self.finish
    }
}

/// Streaming attribution of stamped intervals to layers.
#[derive(Debug)]
pub struct Tracer {
    prev: Option<(Stamp, Instant)>,
    pub layers: LayerTimes,
    pub place_calls: u64,
    pub restripe_calls: u64,
    /// Wall seconds of each `place` call.
    pub place_lat: Vec<f64>,
    /// Wall seconds of each admission (`SchedAdmitted` to
    /// `SchedPlaced`) minus its `place` time.
    pub admit_lat: Vec<f64>,
    admit_open: Option<(Instant, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            prev: None,
            layers: LayerTimes::default(),
            place_calls: 0,
            restripe_calls: 0,
            place_lat: Vec::new(),
            admit_lat: Vec::new(),
            admit_open: None,
        }
    }

    /// Close the interval since the previous stamp and charge it to a
    /// layer by the stamps at its two ends.
    pub fn stamp(&mut self, kind: Stamp) {
        let now = Instant::now();
        if let Some((prev, at)) = self.prev {
            let dt = now.duration_since(at).as_secs_f64();
            let l = &mut self.layers;
            match (prev, kind) {
                // Between sessions: the benchmark's own code.
                (Stamp::Exit, _) => {}
                (Stamp::Entry, _) => l.session_build += dt,
                (_, Stamp::Exit) => l.finish += dt,
                (Stamp::PlaceStart, _) => {
                    l.place += dt;
                    self.place_lat.push(dt);
                    if let Some((_, placed)) = self.admit_open.as_mut() {
                        *placed += dt;
                    }
                }
                (Stamp::EvalStart, _) => l.restripe_eval += dt,
                (_, Stamp::Restriped) => l.restripe_apply += dt,
                (_, Stamp::PlaceStart) | (Stamp::PlaceEnd, _) => l.admit += dt,
                (Stamp::Placed, Stamp::WantsFeedback) => l.admit += dt,
                _ => l.advance += dt,
            }
        }
        match kind {
            Stamp::PlaceStart => self.place_calls += 1,
            Stamp::EvalStart => self.restripe_calls += 1,
            Stamp::Admitted => self.admit_open = Some((now, 0.0)),
            Stamp::Placed => {
                if let Some((start, placed)) = self.admit_open.take() {
                    self.admit_lat
                        .push(now.duration_since(start).as_secs_f64() - placed);
                }
            }
            _ => {}
        }
        self.prev = Some((kind, now));
    }
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Wall-stamps each scheduler lifecycle event; reads nothing else.
pub struct StampRecorder(pub SharedTracer);

impl obs::Recorder for StampRecorder {
    fn record(&mut self, event: obs::Event) {
        let kind = match event {
            obs::Event::SchedArrival { .. } => Stamp::Arrival,
            obs::Event::SchedQueued { .. } => Stamp::Queued,
            obs::Event::SchedAdmitted { .. } => Stamp::Admitted,
            obs::Event::SchedPlaced { .. } => Stamp::Placed,
            obs::Event::SchedReleased { .. } => Stamp::Released,
            obs::Event::SchedRestriped { .. } => Stamp::Restriped,
            _ => return,
        };
        self.0.borrow_mut().stamp(kind);
    }
}

/// Pass-through policy wrapper that stamps `place` and `restripe`.
pub struct TimedPolicy {
    pub inner: Box<dyn PlacementPolicy>,
    pub tracer: SharedTracer,
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        view: &ClusterView<'_>,
        want: u32,
        bytes: u64,
        rng: &mut StreamRng,
    ) -> Result<Placement, PolicyError> {
        self.tracer.borrow_mut().stamp(Stamp::PlaceStart);
        let out = self.inner.place(view, want, bytes, rng);
        self.tracer.borrow_mut().stamp(Stamp::PlaceEnd);
        out
    }

    fn wants_feedback(&self) -> bool {
        self.tracer.borrow_mut().stamp(Stamp::WantsFeedback);
        self.inner.wants_feedback()
    }

    fn restripe(
        &mut self,
        view: &ClusterView<'_>,
        obs: &AppObservation<'_>,
    ) -> Option<RestripeDecision> {
        self.tracer.borrow_mut().stamp(Stamp::EvalStart);
        let out = self.inner.restripe(view, obs);
        self.tracer.borrow_mut().stamp(Stamp::EvalEnd);
        out
    }

    fn app_done(&mut self, app: usize) {
        self.tracer.borrow_mut().stamp(Stamp::AppDone);
        self.inner.app_done(app);
    }
}
