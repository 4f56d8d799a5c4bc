//! Scheduler placement throughput: how many placement decisions per
//! second each policy sustains on the scenario-1 platform (8 targets)
//! and on the 100x10 interference fleet (1000 targets), where a
//! placement's cost in the target count shows.
//!
//! It times the pure decision loop (no fluid simulation — the cluster
//! view is synthesized and perturbed between calls) over a fixed number
//! of arrivals per round, and writes
//! `target/bench/BENCH_sched_throughput.json` so CI can keep an eye on
//! placement staying microseconds-cheap.

use bench::{interleaved, write_measurement};
use cluster::{presets, Platform};
use experiments::fig_interference;
use sched::{
    ClusterView, LeastLoadedServer, PlacementPolicy, Random, RoundRobinServer, StragglerAware,
    UtilizationFeedback,
};
use simcore::rng::RngFactory;
use std::time::Instant;

/// Placement decisions per timed round on scenario 1.
const ARRIVALS: usize = 10_000;
/// Placement decisions per timed round on the fleet.
const FLEET_ARRIVALS: usize = 1_000;
/// Timed rounds per policy (interleaved; the median is reported).
const ROUNDS: usize = 5;

fn policies() -> Vec<Box<dyn PlacementPolicy>> {
    vec![
        Box::new(Random),
        Box::<RoundRobinServer>::default(),
        Box::new(LeastLoadedServer),
        Box::new(UtilizationFeedback),
        Box::new(StragglerAware),
    ]
}

/// The timed platforms: a result-key suffix, the platform, arrivals.
fn platforms() -> [(&'static str, Platform, usize); 2] {
    let fleet = fig_interference::fleet_spec()
        .build()
        .expect("the interference fleet is valid");
    [
        ("", presets::plafrim_ethernet(), ARRIVALS),
        ("_fleet", fleet, FLEET_ARRIVALS),
    ]
}

/// One timed round: `arrivals` decisions with the view perturbed
/// deterministically between calls, so load-sensitive policies cannot
/// shortcut on a constant input.
fn one_round(policy: &mut dyn PlacementPolicy, platform: &Platform, arrivals: usize) -> f64 {
    let online = vec![true; platform.total_targets()];
    let mut outstanding = vec![0.0f64; platform.server_count()];
    let mut busy = vec![0.0f64; platform.total_targets()];
    let mut suspected = vec![false; platform.total_targets()];
    let mut rng = RngFactory::new(7).stream("sched-throughput", 0);
    let mut picked = 0usize;
    let start = Instant::now();
    for i in 0..arrivals {
        let servers = outstanding.len();
        let targets = busy.len();
        outstanding[i % servers] = (i % 97) as f64 * 1e9;
        busy[i % targets] = (i % 89) as f64 / 89.0;
        suspected[i % targets] = i % 13 == 0;
        let view = ClusterView {
            platform,
            online: &online,
            outstanding_bytes: &outstanding,
            busy_fraction: &busy,
            suspected: &suspected,
        };
        let placement = policy
            .place(&view, 4, 4 << 30, &mut rng)
            .expect("placement on a healthy pool");
        picked += match placement {
            sched::Placement::Pinned(ts) => ts.len(),
            sched::Placement::Deferred => 1,
        };
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(picked >= arrivals, "decisions went missing");
    arrivals as f64 / secs
}

fn main() {
    let platforms = platforms();
    let names: Vec<&'static str> = policies().iter().map(|p| p.name()).collect();
    // One leg per (platform, policy), each round on a fresh policy
    // instance.
    let legs: Vec<(usize, usize)> = (0..platforms.len())
        .flat_map(|p| (0..names.len()).map(move |n| (p, n)))
        .collect();
    let mut run_leg = |leg: usize, _round: usize| {
        let (p, n) = legs[leg];
        let (_, platform, arrivals) = &platforms[p];
        one_round(policies()[n].as_mut(), platform, *arrivals)
    };
    // Warm-up round per leg before timing anything.
    interleaved(1, legs.len(), &mut run_leg);
    // Interleave rounds across legs so drift hits all of them.
    let medians = interleaved(ROUNDS, legs.len(), run_leg);
    let labels: Vec<String> = legs
        .iter()
        .map(|&(p, n)| format!("{}{}", names[n], platforms[p].0))
        .collect();
    let entries: Vec<String> = labels
        .iter()
        .zip(&medians)
        .map(|(label, m)| format!("  \"{label}_decisions_per_sec\": {m:.0}"))
        .collect();
    let json = format!(
        "{{\n  \"arrivals_per_round\": {ARRIVALS},\n  \"fleet_arrivals_per_round\": {FLEET_ARRIVALS},\n  \"rounds\": {ROUNDS},\n{}\n}}\n",
        entries.join(",\n")
    );
    let out = write_measurement("BENCH_sched_throughput.json", &json);
    for (label, m) in labels.iter().zip(&medians) {
        println!("{label}: {m:.0} decisions/sec (median of {ROUNDS})");
    }
    println!("wrote {}", out.display());
}
