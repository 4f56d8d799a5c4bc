//! Shared helpers for the Criterion benchmark targets.
//!
//! Each `benches/figXX_*.rs` target regenerates one paper table/figure at
//! a reduced repetition count and reports how long the regeneration
//! takes; the full-fidelity (100-repetition) regeneration lives in the
//! `experiments` crate's `repro` binary. `benches/engine_micro.rs` covers
//! the simulation kernel itself (max–min solver, fluid loop, choosers,
//! statistics).

use experiments::ExpCtx;

/// Repetitions used inside the figure bench targets (the paper uses 100;
/// benches use fewer so Criterion's own sampling stays tractable).
pub const BENCH_REPS: usize = 5;

/// The context every figure bench runs under.
pub fn bench_ctx() -> ExpCtx {
    ExpCtx::quick(BENCH_REPS)
}

/// The median of a non-empty sample (the upper median for even sizes),
/// the statistic every gated bench reports over its interleaved reps.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Pull `"key": <float>` out of a committed `BENCH_*.json` baseline
/// without a JSON dependency; `None` when the key is absent or its value
/// is not a number.
pub fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_f64_reads_numbers_at_any_position() {
        let json = "{\n  \"a\": 1.5,\n  \"b\": -2e3\n,\"c\":7}";
        assert_eq!(extract_f64(json, "a"), Some(1.5));
        assert_eq!(extract_f64(json, "b"), Some(-2000.0));
        assert_eq!(extract_f64(json, "c"), Some(7.0));
        assert_eq!(extract_f64(json, "d"), None);
        assert_eq!(extract_f64("{\"s\": \"x\"}", "s"), None);
    }

    #[test]
    fn every_gated_baseline_key_parses() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        for (file, key) in [
            ("BENCH_flow_hotpath.json", "incremental_reps_per_sec"),
            ("BENCH_flow_scale.json", "sharded_200000_events_per_sec"),
            ("BENCH_metrics_overhead.json", "max_overhead_frac"),
            ("BENCH_sched_scale.json", "online_aps_1e4"),
            ("BENCH_trace_overhead.json", "max_overhead_frac"),
        ] {
            let json = std::fs::read_to_string(format!("{root}{file}")).unwrap();
            let v = extract_f64(&json, key);
            assert!(v.is_some_and(f64::is_finite), "{file}: {key} -> {v:?}");
        }
    }

    #[test]
    fn bench_context_is_reduced_fidelity() {
        let ctx = bench_ctx();
        assert_eq!(ctx.reps, BENCH_REPS);
        assert_eq!(ctx.seed, ExpCtx::default().seed);
    }
}
