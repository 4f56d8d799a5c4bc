//! Solver hot-path benchmark: many small flows through the fluid loop,
//! incremental allocation-free solver vs. the retained reference solver.
//!
//! It times [`bench::hotpath_rep`] in both modes, writes
//! `target/bench/BENCH_flow_hotpath.json`, and enforces two gates so CI
//! catches hot-path regressions:
//!
//! * the incremental solver must be at least 2x the reference solver's
//!   reps/sec on this workload (the speedup the rework claims);
//! * the incremental reps/sec must not drop below 70% of the committed
//!   `BENCH_flow_hotpath.json` baseline.
//!
//! The workload is solver-bound by design: every completion re-solves
//! while the *active* set stays small. The reference solver rescans
//! every registered flow and reallocates its work vectors per solve; the
//! incremental solver walks the active list with warm scratch buffers
//! and skips no-op solves outright.

use bench::{committed, fail, hotpath_rep, interleaved, write_measurement, HOTPATH_FLOWS};
use simcore::flow::SimArena;

const REPS: usize = 15;
const BASELINE: &str = "BENCH_flow_hotpath.json";

fn main() {
    let mut arena = SimArena::new();
    // Leg 0 is the incremental solver, leg 1 the reference solver.
    let mut run_leg = |leg: usize, _round: usize| {
        hotpath_rep(&mut arena, |sim| sim.set_reference_solver(leg == 1), |_| {})
    };
    // Warm caches, allocator, and the arena before timing anything.
    interleaved(1, 2, &mut run_leg);
    let medians = interleaved(REPS, 2, run_leg);

    let inc_rps = 1.0 / medians[0];
    let ref_rps = 1.0 / medians[1];
    let speedup = inc_rps / ref_rps;

    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"flows_per_rep\": {HOTPATH_FLOWS},\n  \
         \"incremental_reps_per_sec\": {inc_rps:.2},\n  \
         \"reference_reps_per_sec\": {ref_rps:.2},\n  \"speedup\": {speedup:.2}\n}}\n"
    );
    let out = write_measurement(BASELINE, &json);
    println!(
        "incremental {inc_rps:.1} reps/s, reference {ref_rps:.1} reps/s ({speedup:.2}x speedup)"
    );
    println!("wrote {}", out.display());

    if speedup < 2.0 {
        fail(format!(
            "incremental solver speedup {speedup:.2}x is below the required 2x"
        ));
    }
    match committed(BASELINE, "incremental_reps_per_sec") {
        Some(base) if inc_rps < 0.7 * base => fail(format!(
            "incremental reps/sec regressed: {inc_rps:.1} < 70% of committed baseline {base:.1}"
        )),
        Some(base) => {
            println!("baseline check passed ({inc_rps:.1} vs committed {base:.1} reps/s)")
        }
        None => println!("no committed {BASELINE} found; regression gate skipped"),
    }
}
