//! The repository benchmark: four seeded workloads, each run in its own
//! process, reporting end-to-end metrics (untraced) or per-layer
//! metrics (traced) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A run repeats the workload's pass —
//! set up, one timed call into the program, output checks — until
//! `--seconds` have passed, and reports medians over the passes. With
//! `--trace 1` it alternates untraced and traced passes; the traced
//! ones give the per-layer split (see `trace.rs` and `paper.rs`). Every
//! run also checks the digest of its workload's simulated outputs at the
//! seed `perfbench/pinned.json` pins. `BENCHMARK.json` names the
//! metrics; `perfbench/layers.json` records what each workload
//! exercises and what the outside view cannot split.

mod online;
mod paper;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use util::{median, quantile, rusage};

/// Set-ups per pass: a pass sets up this many times and keeps the last,
/// so set-up times are medians even of one pass.
pub const SETUPS: usize = 5;

/// One pass of a workload: set-up, the timed call, and its checks.
pub struct Iteration {
    /// Median deploy or fleet build (online), store and engine (batch).
    pub deploy_s: f64,
    /// Median arrival stream and fault plan generation (online), figure
    /// grid construction (batch).
    pub inputs_s: f64,
    /// Median of whole set-ups.
    pub setup_s: f64,
    /// Wall seconds of the timed call.
    pub wall_s: f64,
    /// Process CPU seconds of the timed call.
    pub cpu_s: f64,
    /// Units of work delivered: reps (batch) or admissions (online).
    pub work: u64,
    /// Units of work that failed or failed their output check.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub checks: Vec<String>,
    /// Digest of the pass's simulated outputs.
    pub digest: String,
    /// Per-app simulated bandwidths, MiB/s.
    pub app_mib_s: Vec<f64>,
    /// Per-app simulated slowdowns (online workloads only).
    pub slowdowns: Vec<f64>,
    /// Informational lines for the human-readable report.
    pub notes: Vec<String>,
    /// Per-layer metrics of a traced pass; names starting with `~` are
    /// printed in the report but are not benchmark metrics.
    pub layers: Vec<(&'static str, f64)>,
}

/// End-to-end metrics: name, unit, better.
const END_TO_END: [(&str, &str, &str); 3] = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics: name, unit, better. Every workload reports all
/// of them; a layer the workload never enters reads zero.
const PER_LAYER: [(&str, &str, &str); 43] = [
    ("setup.deploy_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("host.cpu_s", "s", "lower"),
    ("host.cores_used", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.accounted_frac", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("simcore.events_per_work", "count", "lower"),
    ("simcore.events_per_s", "1/s", "higher"),
    ("simcore.advance_frac", "ratio", "lower"),
    ("simcore.skip_ratio", "ratio", "higher"),
    ("simcore.flows_per_solve", "count", "lower"),
    ("simcore.component_size_p50", "count", "lower"),
    ("simcore.component_size_p99", "count", "lower"),
    ("simcore.components_per_solve_p50", "count", "lower"),
    ("simcore.heap_pushes_per_event", "ratio", "lower"),
    ("sched.session_build_frac", "ratio", "lower"),
    ("sched.admit_frac", "ratio", "lower"),
    ("sched.place_frac", "ratio", "lower"),
    ("sched.place_calls", "count", "lower"),
    ("sched.restripe_eval_frac", "ratio", "lower"),
    ("sched.restripe_eval_calls", "count", "lower"),
    ("sched.restripe_apply_frac", "ratio", "lower"),
    ("sched.restripe_fire_ratio", "ratio", "higher"),
    ("sched.widen_keep_ratio", "ratio", "higher"),
    ("sched.finish_frac", "ratio", "lower"),
    ("sched.queued", "count", "lower"),
    ("sched.live_apps_max", "count", "lower"),
    ("sched.live_flows_max", "count", "lower"),
    ("sched.wait_p99_sim_s", "sim_s", "lower"),
    ("campaign.wall_frac", "ratio", "lower"),
    ("campaign.parallel_eff", "ratio", "higher"),
    ("campaign.cache_hit_rate", "ratio", "higher"),
    ("campaign.reps_computed", "count", "lower"),
    ("campaign.store_warm_frac", "ratio", "lower"),
    ("experiments.repeat_frac", "ratio", "lower"),
    ("experiments.analysis_frac", "ratio", "lower"),
    ("ior.reps_per_cpu_s", "1/s", "higher"),
    ("ior.events_per_cpu_s", "1/s", "higher"),
    ("sim.mean_mib_s", "MiB/s", "higher"),
    ("sim.p1_mib_s", "MiB/s", "higher"),
    ("sim.mean_slowdown", "ratio", "lower"),
    ("sim.p99_slowdown", "ratio", "lower"),
];

/// Minimum passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The pinned seed and the digests of its simulated outputs, per
/// workload. Every run checks its workload at the pinned seed against it.
const PINNED: &str = "perfbench/pinned.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric names `BENCHMARK.json` lists must be exactly the ones
/// this program reports.
fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let v = util::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(|l| l.as_seq())
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_string))
            .collect()
    };
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<String> = table.iter().map(|m| m.0.to_string()).collect();
        if names(key) != want {
            return Err(format!(
                "BENCHMARK.json {key} does not match the benchmark's metrics"
            ));
        }
    }
    Ok(())
}

/// The pinned seed and the digest `perfbench/pinned.json` records for
/// `workload` at that seed (`None` if it records none).
fn pinned_digest(workload: &str) -> Result<(u64, Option<String>), String> {
    let text = std::fs::read_to_string(PINNED).map_err(|e| format!("{PINNED}: {e}"))?;
    let v = util::parse_json(&text).map_err(|e| format!("{PINNED}: {e}"))?;
    let digest = v
        .get("digests")
        .and_then(|d| d.get(workload))
        .and_then(|d| d.as_str())
        .map(str::to_string);
    Ok((util::json_u64(v.get("seed")), digest))
}

enum Workload {
    Paper(paper::Paper),
    Online(online::Online),
}

impl Workload {
    fn new(name: &str, seed: u64, tmp: &std::path::Path) -> Option<Self> {
        Some(match name {
            "paper_batch" => Workload::Paper(paper::Paper::new(seed, tmp.to_path_buf())),
            "online_steady" => Workload::Online(online::Online::new(online::ONLINE_STEADY, seed)),
            "online_adaptive" => {
                Workload::Online(online::Online::new(online::ONLINE_ADAPTIVE, seed))
            }
            "fleet_contended" => {
                Workload::Online(online::Online::new(online::FLEET_CONTENDED, seed))
            }
            _ => return None,
        })
    }

    fn iterate(&self, pass: usize, traced: bool, anchor: Instant) -> Iteration {
        match self {
            // The warm-store check runs on the first pass and on every
            // traced pass (which also times it).
            Workload::Paper(p) => p.iterate(pass, traced, pass == 0 || traced, anchor),
            Workload::Online(o) => o.iterate(traced, anchor),
        }
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let anchor = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_benchmark_json() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let (pinned_seed, pinned) = match pinned_digest(&args.workload) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program's own long-session allocator tuning, as `repro` applies.
    simcore::alloc_tuning::tune_for_long_sessions();
    let tmp = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    let Some(workload) = Workload::new(&args.workload, args.seed, &tmp) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut pass = 0;
    let mut first_pass_rss_mib = 0.0;
    loop {
        let t = args.trace && pass % 2 == 1;
        let it = workload.iterate(pass, t, anchor);
        let rss_mib = rusage(anchor).1 as f64 / 1024.0;
        if pass == 0 {
            first_pass_rss_mib = rss_mib;
        }
        println!(
            "pass {pass:>3}{}: timed {:.4} s, cpu {:.4} s, setup {:.5} s, {} units, \
             peak rss {rss_mib:.1} MiB, digest {}",
            if t { " traced" } else { "" },
            it.wall_s,
            it.cpu_s,
            it.setup_s,
            it.work,
            it.digest
        );
        pass += 1;
        if t {
            traced.push(it);
        } else {
            plain.push(it);
        }
        let enough = plain.len() >= MIN_PASSES && (!args.trace || !traced.is_empty());
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // Output checks over every pass: each pass's own checks, identical
    // digests across passes (traced and untraced), the pinned digest.
    let all: Vec<&Iteration> = plain.iter().chain(&traced).collect();
    let reference = &plain[0].digest;
    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for it in &all {
        attempted += it.work;
        let diverged = it.digest != *reference;
        failed += if diverged { it.work } else { it.failed };
        if diverged {
            problems.push(format!("digest {} differs from {reference}", it.digest));
        }
        problems.extend(it.checks.iter().cloned());
    }
    // The pinned seed's outputs, checked on every run whatever its seed:
    // reuse this run's passes when it ran the pinned seed, else run one
    // untimed pass at the pinned seed.
    let pinned_pass;
    let pinned_actual = if args.seed == pinned_seed {
        reference
    } else {
        let w = Workload::new(&args.workload, pinned_seed, &tmp).expect("known workload");
        pinned_pass = w.iterate(usize::MAX, false, anchor);
        problems.extend(pinned_pass.checks.iter().cloned());
        &pinned_pass.digest
    };
    match &pinned {
        Some(d) if d == pinned_actual => println!("pinned seed {pinned_seed}: digest matches"),
        Some(d) => problems.push(format!(
            "pinned seed {pinned_seed}: digest {pinned_actual} differs from {d}"
        )),
        None => problems.push(format!(
            "{PINNED} records no digest for {} (seed {pinned_seed} gives {pinned_actual})",
            args.workload
        )),
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    problems.sort();
    problems.dedup();
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let first = &plain[0];
    for n in &first.notes {
        println!("{n}");
    }
    println!(
        "sim per-app bandwidth: mean {:.2} MiB/s, p1 {:.2} MiB/s over {} apps",
        util::mean(&first.app_mib_s),
        quantile(&first.app_mib_s, 0.01),
        first.app_mib_s.len()
    );

    let med = |xs: &[&Iteration], f: &dyn Fn(&Iteration) -> f64| -> f64 {
        median(&xs.iter().map(|i| f(i)).collect::<Vec<_>>())
    };
    let plain_refs: Vec<&Iteration> = plain.iter().collect();
    let traced_refs: Vec<&Iteration> = traced.iter().collect();
    let metrics: Vec<(&str, &str, f64)> = if !args.trace {
        let values = [
            med(&all, &|i| i.setup_s),
            med(&plain_refs, &|i| i.work as f64 / i.wall_s),
            first_pass_rss_mib,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.0, m.1, v))
            .collect()
    } else {
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        let names: Vec<&str> = traced[0].layers.iter().map(|l| l.0).collect();
        for name in names {
            let vals: Vec<f64> = traced
                .iter()
                .filter_map(|t| t.layers.iter().find(|l| l.0 == name).map(|l| l.1))
                .collect();
            layer.insert(name, median(&vals));
        }
        let plain_wall = med(&plain_refs, &|i| i.wall_s);
        let traced_wall = med(&traced_refs, &|i| i.wall_s);
        layer.insert("setup.deploy_s", med(&all, &|i| i.deploy_s));
        layer.insert("setup.inputs_s", med(&all, &|i| i.inputs_s));
        layer.insert("host.cpu_s", med(&plain_refs, &|i| i.cpu_s));
        layer.insert("host.cores_used", med(&plain_refs, &|i| i.cpu_s / i.wall_s));
        layer.insert("trace.overhead_frac", traced_wall / plain_wall - 1.0);
        layer.insert("trace.wall_s", traced_wall);
        layer.insert("sim.mean_mib_s", util::mean(&first.app_mib_s));
        layer.insert("sim.p1_mib_s", quantile(&first.app_mib_s, 0.01));
        if !first.slowdowns.is_empty() {
            layer.insert("sim.mean_slowdown", util::mean(&first.slowdowns));
            layer.insert("sim.p99_slowdown", quantile(&first.slowdowns, 0.99));
        }
        for (name, v) in &layer {
            if let Some(table) = name.strip_prefix('~') {
                println!("layer (report only) {table}: {v:.6}");
            } else {
                println!("layer {name}: {v:.6}");
            }
        }
        PER_LAYER
            .iter()
            .map(|m| (m.0, m.1, layer.get(m.0).copied().unwrap_or(0.0)))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        problems.is_empty() && failed == 0,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
