//! Small measurement helpers: process resource usage, order statistics,
//! and the output digest.

use std::time::Instant;

/// Process CPU seconds (user + system) and peak resident set size in
/// KiB, from `getrusage(RUSAGE_SELF)`. Off Linux the CPU time falls back
/// to wall time since `anchor` and the peak RSS reads zero.
pub fn rusage(anchor: Instant) -> (f64, u64) {
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
            let cpu =
                (r.utime.sec + r.stime.sec) as f64 + (r.utime.usec + r.stime.usec) as f64 * 1e-6;
            return (cpu, r.maxrss.max(0) as u64);
        }
    }
    (anchor.elapsed().as_secs_f64(), 0)
}

/// Process CPU seconds so far (see [`rusage`]).
pub fn cpu_seconds(anchor: Instant) -> f64 {
    rusage(anchor).0
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of a sample; zero when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of a sample; zero when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or zero when the denominator is zero (a layer the
/// workload never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a over a byte stream: the digest of a run's simulated
/// outputs. Equal digests mean byte-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Any JSON document as a [`serde::Value`] tree.
struct Json(serde::Value);

impl serde::Deserialize for Json {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Json(v.clone()))
    }
}

/// Parse JSON text into a [`serde::Value`] tree.
pub fn parse_json(text: &str) -> Result<serde::Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// A JSON number as an unsigned integer; zero when absent or not one.
pub fn json_u64(v: Option<&serde::Value>) -> u64 {
    match v {
        Some(serde::Value::U64(n)) => *n,
        Some(serde::Value::I64(n)) => (*n).max(0) as u64,
        _ => 0,
    }
}
