//! Metrics overhead check: the flow_hotpath workload with no registry
//! attached vs. with solver introspection enabled and harvested into a
//! [`obs::metrics::MetricsRegistry`] every rep.
//!
//! It times [`bench::hotpath_rep`] in both modes, writes
//! `target/bench/BENCH_metrics_overhead.json`, and enforces two gates so
//! the "zero cost when disabled" claim stays true in CI instead of
//! decaying the way the tracing overhead once did:
//!
//! * metrics-off reps/sec must stay at or above 95% of the committed
//!   `BENCH_flow_hotpath.json` incremental baseline — the workload is
//!   identical, so a gap here is instrumentation leaking into the
//!   disabled path (dirty-histogram upkeep, counter indirection);
//! * metrics-on overhead must stay under the `max_overhead_frac`
//!   threshold committed in `BENCH_metrics_overhead.json`.

use bench::{committed, fail, hotpath_rep, interleaved, write_measurement, HOTPATH_FLOWS};
use obs::metrics::MetricsRegistry;
use simcore::flow::SimArena;

const REPS: usize = 15;
const BASELINE: &str = "BENCH_metrics_overhead.json";

fn main() {
    let mut arena = SimArena::new();
    let mut registry = MetricsRegistry::new();
    // Leg 0 runs with no registry; leg 1 collects the sim's
    // introspection histograms and harvests them inside the timed region
    // (that harvest is part of what a campaign rep pays).
    let mut run_leg = |leg: usize, _round: usize| {
        let metered = leg == 1;
        hotpath_rep(
            &mut arena,
            |sim| {
                if metered {
                    sim.enable_metrics();
                }
            },
            |sim| {
                if metered {
                    sim.metrics_into(&mut registry);
                }
            },
        )
    };
    // Warm caches, allocator, and the arena before timing anything.
    interleaved(1, 2, &mut run_leg);
    let medians = interleaved(REPS, 2, run_leg);
    assert!(
        registry.counter("sim.events_processed") > 0
            && registry.histogram("sim.dirty_component_size").is_some(),
        "metered reps recorded nothing"
    );

    let off_rps = 1.0 / medians[0];
    let on_rps = 1.0 / medians[1];
    let overhead = off_rps / on_rps - 1.0;
    let max_overhead = committed(BASELINE, "max_overhead_frac").unwrap_or(0.10);

    let json = format!(
        "{{\n  \"reps\": {REPS},\n  \"flows_per_rep\": {HOTPATH_FLOWS},\n  \
         \"metrics_off_reps_per_sec\": {off_rps:.2},\n  \
         \"metrics_on_reps_per_sec\": {on_rps:.2},\n  \
         \"metrics_on_overhead_frac\": {overhead:.4},\n  \
         \"max_overhead_frac\": {max_overhead}\n}}\n"
    );
    let out = write_measurement(BASELINE, &json);
    println!(
        "metrics off {off_rps:.1} reps/s, on {on_rps:.1} reps/s ({:+.1}% with a registry harvested)",
        overhead * 100.0
    );
    println!("wrote {}", out.display());

    match committed("BENCH_flow_hotpath.json", "incremental_reps_per_sec") {
        Some(base) if off_rps < 0.95 * base => fail(format!(
            "metrics-off {off_rps:.1} reps/s is below 95% of the committed \
             flow_hotpath baseline {base:.1} — the disabled path is no longer free"
        )),
        Some(base) => {
            println!("zero-cost check passed ({off_rps:.1} vs committed hotpath {base:.1} reps/s)")
        }
        None => println!("no committed flow_hotpath baseline; skipping the zero-cost check"),
    }
    if overhead > max_overhead {
        fail(format!(
            "metrics-on overhead {:.1}% exceeds the committed {:.1}% threshold",
            overhead * 100.0,
            max_overhead * 100.0
        ));
    }
}
