//! The measurement harness every gated bench target shares.
//!
//! Each `benches/*.rs` target times a fixed workload, gates it against
//! numbers committed at the repository root in `BENCH_*.json`, writes
//! its own result to `target/bench/BENCH_<name>.json`, and exits non-zero
//! when a gate fails. The protocol lives here once:
//!
//! * [`interleaved`] runs every leg of a comparison once per round and
//!   reports per-leg medians, so host drift hits every leg alike and a
//!   single slow round cannot move the result;
//! * [`committed`] reads a baseline or threshold from a committed file;
//!   the benches never write one;
//! * [`write_measurement`] writes a result under `target/bench/`, with
//!   the process's peak RSS added as `peak_rss_mib`;
//! * [`cpu_seconds`] is process CPU time for benches that must not gate
//!   on wall time, [`peak_rss_mib`] the peak resident set so far;
//! * [`hotpath_rep`] is the solver hot-path workload that three gates
//!   time against one committed number;
//! * [`fail`] reports a failed gate and exits.
//!
//! # Updating a baseline
//!
//! A committed baseline changes only when someone updates it on purpose:
//! run the bench, copy `target/bench/BENCH_<name>.json` over the file at
//! the repository root, and say in the commit why the new number is the
//! right floor. A gate's `max_overhead_frac` threshold lives in the same
//! file; each result repeats the committed value, so the copy keeps it.

use simcore::flow::{CapacityModel, FlowNetwork, FluidSim, ResourceId, SimArena};
use simcore::SimTime;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The median of a non-empty sample (the upper median for even sizes),
/// the statistic every gated bench reports over its interleaved reps.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Run `reps` rounds of `legs` measurements and return each leg's
/// median. Round `r` calls `leg(0, r)`, `leg(1, r)`, … `leg(legs - 1, r)`
/// in that order, so environmental drift hits every leg equally.
pub fn interleaved(reps: usize, legs: usize, mut leg: impl FnMut(usize, usize) -> f64) -> Vec<f64> {
    let mut series = vec![Vec::with_capacity(reps); legs];
    for round in 0..reps {
        for (i, s) in series.iter_mut().enumerate() {
            s.push(leg(i, round));
        }
    }
    series.into_iter().map(median).collect()
}

/// Process CPU seconds (user + system) via `getrusage`, falling back to
/// wall time since the first call off Linux. For a deterministic
/// single-threaded workload CPU time is a stable quantity on shared
/// hosts where wall-clock throughput swings 2-3x with neighbour load.
pub fn cpu_seconds() -> f64 {
    if let Some(usage) = rusage() {
        return usage.cpu_s;
    }
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Peak resident set size of the process so far, in MiB (`getrusage`'s
/// `ru_maxrss`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    rusage().map(|usage| usage.peak_rss_mib)
}

/// The two `getrusage(RUSAGE_SELF)` readings the harness reports.
struct Usage {
    cpu_s: f64,
    peak_rss_mib: f64,
}

fn rusage() -> Option<Usage> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            /// KiB on Linux.
            maxrss: i64,
            // ru_ixrss .. ru_nivcsw: 13 more longs on Linux.
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        let mut r = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: RUSAGE_SELF (0) with a properly sized, writable struct.
        if unsafe { getrusage(0, &mut r) } == 0 {
            return Some(Usage {
                cpu_s: (r.utime.sec + r.stime.sec) as f64
                    + (r.utime.usec + r.stime.usec) as f64 * 1e-6,
                peak_rss_mib: r.maxrss as f64 / 1024.0,
            });
        }
    }
    None
}

/// The repository root, where the committed baselines live.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the bench crate sits two levels below the repository root")
}

/// Where [`write_measurement`] puts `file`: `target/bench/<file>` under
/// the repository root.
fn measurement_path(file: &str) -> PathBuf {
    repo_root().join("target").join("bench").join(file)
}

/// `key` from the baseline committed at the repository root as `file`;
/// `None` when the file or the key is missing.
pub fn committed(file: &str, key: &str) -> Option<f64> {
    let json = std::fs::read_to_string(repo_root().join(file)).ok()?;
    extract_f64(&json, key)
}

/// Write a bench result to `target/bench/<file>` and return the path.
/// `json` is one JSON object; the process's peak RSS so far is appended
/// to it as `peak_rss_mib` (where `getrusage` reports one). Never touches
/// the committed baseline of the same name.
pub fn write_measurement(file: &str, json: &str) -> PathBuf {
    let path = measurement_path(file);
    std::fs::create_dir_all(path.parent().expect("measurement path has a parent"))
        .expect("create target/bench");
    let json = match peak_rss_mib() {
        Some(rss) => with_field(json, "peak_rss_mib", &format!("{rss:.1}")),
        None => json.to_string(),
    };
    std::fs::write(&path, json).expect("write bench json");
    path
}

/// `json` (one object) with `"key": value` appended as its last field.
fn with_field(json: &str, key: &str, value: &str) -> String {
    let body = json.trim_end();
    let body = body
        .strip_suffix('}')
        .expect("a bench result is one JSON object")
        .trim_end();
    let sep = if body.ends_with('{') { "" } else { "," };
    format!("{body}{sep}\n  \"{key}\": {value}\n}}\n")
}

/// Report a failed gate on stderr and exit with status 1.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// Pull `"key": <float>` out of a committed `BENCH_*.json` baseline
/// without a JSON dependency; `None` when the key is absent or its value
/// is not a number.
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Flows per [`hotpath_rep`].
pub const HOTPATH_FLOWS: u64 = 2000;

/// One rep of the solver hot-path workload; returns elapsed wall seconds.
///
/// Small flows in staggered batches over two links and eight saturating
/// targets, with one target flapping mid-stream. Flows arrive slower
/// than they drain, so the *registered* flow count grows into the
/// thousands while the *active* set stays around batch size: every
/// completion re-solves a small active set.
///
/// `configure` runs on the fresh sim before any flow starts. The timed
/// region is the completion drain followed by `harvest` (a metrics
/// harvest is part of what a campaign rep pays); recycling the sim into
/// `arena` is not timed.
pub fn hotpath_rep(
    arena: &mut SimArena,
    configure: impl FnOnce(&mut FluidSim<'_>),
    harvest: impl FnOnce(&FluidSim<'_>),
) -> f64 {
    let mut net = FlowNetwork::new();
    net.add_resource("link0", CapacityModel::Fixed(4000.0));
    net.add_resource("link1", CapacityModel::Fixed(5000.0));
    for i in 0..8 {
        net.add_resource(
            format!("ost{i}"),
            CapacityModel::Saturating {
                peak: 900.0,
                q_half: 1.5,
            },
        );
    }
    let links: Vec<_> = (0..2).map(ResourceId::from_index).collect();
    let targets: Vec<_> = (2..10).map(ResourceId::from_index).collect();

    let mut sim = FluidSim::with_arena(net, arena);
    configure(&mut sim);
    for i in 0..HOTPATH_FLOWS {
        let path = vec![
            links[(i % 2) as usize],
            targets[(i % targets.len() as u64) as usize],
        ];
        let start = SimTime::from_secs_f64((i / 8) as f64 * 0.25);
        sim.start_flow_at(start, path, 10.0 + (i * 13 % 17) as f64, i);
    }
    let flap = targets[3];
    sim.schedule_factor_change(SimTime::from_secs_f64(0.4), flap, 0.2);
    sim.schedule_factor_change(SimTime::from_secs_f64(1.2), flap, 1.0);

    let t0 = Instant::now();
    let mut done = 0u64;
    while sim.next_completion().is_some() {
        done += 1;
    }
    harvest(&sim);
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(done, HOTPATH_FLOWS, "every flow must complete");
    sim.recycle_into(arena);
    elapsed
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
    fn interleaved_runs_legs_round_robin_and_reports_upper_medians() {
        let mut calls = Vec::new();
        let medians = interleaved(4, 3, |leg, round| {
            calls.push((leg, round));
            // Leg 0 sees 3, 2, 1, 0; leg 1 sees 10, 11, 12, 13; leg 2 is flat.
            match leg {
                0 => (3 - round) as f64,
                1 => 10.0 + round as f64,
                _ => 7.0,
            }
        });
        let expected: Vec<_> = (0..4).flat_map(|r| (0..3).map(move |l| (l, r))).collect();
        assert_eq!(calls, expected);
        // Four samples per leg: the upper median is the third smallest.
        assert_eq!(medians, vec![2.0, 12.0, 7.0]);
    }

    #[test]
    fn measurements_never_resolve_to_a_committed_baseline() {
        let root = repo_root();
        for file in ["BENCH_flow_hotpath.json", "BENCH_sched_scale.json"] {
            let path = measurement_path(file);
            assert_eq!(path, root.join("target/bench").join(file));
            assert_ne!(path, root.join(file));
        }

        let file = "BENCH_harness_selftest.json";
        let written = write_measurement(file, "{\n  \"x\": 1.25\n}\n");
        assert_eq!(written, measurement_path(file));
        let back = std::fs::read_to_string(&written).unwrap();
        std::fs::remove_file(&written).unwrap();
        assert_eq!(extract_f64(&back, "x"), Some(1.25));
        assert!(!root.join(file).exists());
    }

    #[test]
    fn committed_reads_repo_root_baselines() {
        let v = committed("BENCH_flow_hotpath.json", "incremental_reps_per_sec");
        assert!(v.is_some_and(|x| x > 0.0), "{v:?}");
        assert_eq!(committed("BENCH_flow_hotpath.json", "no_such_key"), None);
        assert_eq!(committed("BENCH_no_such_file.json", "reps"), None);
    }

    #[test]
    fn results_gain_a_last_field() {
        assert_eq!(
            with_field("{\n  \"a\": 1\n}\n", "peak_rss_mib", "3.5"),
            "{\n  \"a\": 1,\n  \"peak_rss_mib\": 3.5\n}\n"
        );
        assert_eq!(with_field("{}", "k", "1"), "{\n  \"k\": 1\n}\n");
        let written = write_measurement("BENCH_rss_selftest.json", "{\n  \"x\": 2\n}\n");
        let back = std::fs::read_to_string(&written).unwrap();
        std::fs::remove_file(&written).unwrap();
        assert_eq!(extract_f64(&back, "x"), Some(2.0));
        if cfg!(target_os = "linux") {
            let rss = extract_f64(&back, "peak_rss_mib");
            assert!(rss.is_some_and(|r| r > 0.0), "{back}");
        }
    }

    #[test]
    fn cpu_seconds_is_monotone() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= a);
    }
}
