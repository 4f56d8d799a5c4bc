//! Arrival streams: the workload an online scheduler serves.
//!
//! A stream is an ordered list of [`AppRequest`]s — each one application
//! that shows up at a point in simulated time asking for compute nodes
//! (`config.nodes`, `config.ppn`), data volume (`config.total_bytes`)
//! and a storage target demand (`stripe`). Streams are either generated
//! (Poisson arrivals over the deterministic [`simcore::rng`] streams) or
//! replayed from an explicit trace, so the same seed always produces
//! the same workload.

use ior::IorConfig;
use serde::{Deserialize, Serialize};
use simcore::dist::exponential;
use simcore::rng::StreamRng;

use crate::error::SchedError;

/// One application asking to be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppRequest {
    /// Simulated instant the request arrives, seconds.
    pub arrival_s: f64,
    /// The benchmark the application will run once admitted.
    pub config: IorConfig,
    /// How many storage targets the application wants (its stripe
    /// demand). Placement policies pin exactly this many targets; the
    /// `Random` baseline defers to the directory's configured pattern.
    pub stripe: u32,
}

/// A time-ordered stream of application requests.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArrivalStream {
    requests: Vec<AppRequest>,
}

// Deserialization routes through [`ArrivalStream::from_trace`] so a
// stream loaded from JSON passes the same arrival checks as one built in
// code: raw data cannot smuggle in an empty, unordered or non-finite
// trace.
impl Deserialize for ArrivalStream {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let requests = v
            .get("requests")
            .ok_or_else(|| serde::DeError::custom("missing field `requests`"))?;
        let requests = Vec::<AppRequest>::from_value(requests)?;
        ArrivalStream::from_trace(requests).map_err(serde::DeError::custom)
    }
}

impl ArrivalStream {
    /// A Poisson process: `count` arrivals with exponentially
    /// distributed inter-arrival gaps at `rate_per_s`, all sharing one
    /// benchmark `template` and target demand `stripe`. The first
    /// arrival sits one gap after `t = 0`.
    ///
    /// # Panics
    /// Panics if `rate_per_s` is not a positive finite number (the
    /// exponential sampler's own contract).
    pub fn poisson(
        rate_per_s: f64,
        count: usize,
        template: IorConfig,
        stripe: u32,
        rng: &mut StreamRng,
    ) -> Self {
        let mut t = 0.0;
        let requests = (0..count)
            .map(|_| {
                t += exponential(rate_per_s, rng);
                AppRequest {
                    arrival_s: t,
                    config: template,
                    stripe,
                }
            })
            .collect();
        ArrivalStream { requests }
    }

    /// A trace-driven stream: replay explicit requests.
    ///
    /// Fails with [`SchedError::EmptyStream`] on an empty trace and
    /// [`SchedError::InvalidArrival`] if any arrival time is
    /// non-finite, negative, or earlier than its predecessor.
    pub fn from_trace(requests: Vec<AppRequest>) -> Result<Self, SchedError> {
        if requests.is_empty() {
            return Err(SchedError::EmptyStream);
        }
        let mut prev = 0.0f64;
        for (app, r) in requests.iter().enumerate() {
            if !(r.arrival_s.is_finite() && r.arrival_s >= prev) {
                return Err(SchedError::InvalidArrival {
                    app,
                    arrival_s: r.arrival_s,
                });
            }
            prev = r.arrival_s;
        }
        Ok(ArrivalStream { requests })
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[AppRequest] {
        &self.requests
    }

    /// Number of requests in the stream.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the stream has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::rng::RngFactory;

    fn cfg() -> IorConfig {
        IorConfig::paper_default(4)
    }

    #[test]
    fn poisson_stream_is_ordered_and_deterministic() {
        let factory = RngFactory::new(11);
        let a = ArrivalStream::poisson(0.5, 50, cfg(), 4, &mut factory.stream("arr", 0));
        let b = ArrivalStream::poisson(0.5, 50, cfg(), 4, &mut factory.stream("arr", 0));
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let times: Vec<f64> = a.requests().iter().map(|r| r.arrival_s).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "out of order");
        assert!(times[0] > 0.0);
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let factory = RngFactory::new(12);
        let s = ArrivalStream::poisson(0.25, 4000, cfg(), 4, &mut factory.stream("arr", 1));
        let last = s.requests().last().unwrap().arrival_s;
        let mean_gap = last / 4000.0;
        assert!((mean_gap - 4.0).abs() < 0.25, "mean gap {mean_gap}");
    }

    #[test]
    fn trace_validation_rejects_bad_arrival_times() {
        assert!(matches!(
            ArrivalStream::from_trace(Vec::new()),
            Err(SchedError::EmptyStream)
        ));
        let bad = vec![
            AppRequest {
                arrival_s: 5.0,
                config: cfg(),
                stripe: 4,
            },
            AppRequest {
                arrival_s: 1.0,
                config: cfg(),
                stripe: 4,
            },
        ];
        assert!(matches!(
            ArrivalStream::from_trace(bad),
            Err(SchedError::InvalidArrival { app: 1, .. })
        ));
        let nan = vec![AppRequest {
            arrival_s: f64::NAN,
            config: cfg(),
            stripe: 4,
        }];
        assert!(matches!(
            ArrivalStream::from_trace(nan),
            Err(SchedError::InvalidArrival { app: 0, .. })
        ));
    }

    #[test]
    fn trace_round_trips_through_serde() {
        let s = ArrivalStream::from_trace(vec![AppRequest {
            arrival_s: 2.5,
            config: cfg(),
            stripe: 4,
        }])
        .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: ArrivalStream = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn deserialized_traces_are_validated_like_built_ones() {
        // A stream loaded from JSON must pass the same arrival checks as
        // one built with `from_trace`: out-of-order, non-finite and empty
        // traces are rejected, not served.
        let req = |arrival_s: f64| AppRequest {
            arrival_s,
            config: cfg(),
            stripe: 4,
        };
        let json = |reqs: Vec<AppRequest>| {
            format!(
                r#"{{"requests":{}}}"#,
                serde_json::to_string(&reqs).unwrap()
            )
        };
        let load = |text: &str| serde_json::from_str::<ArrivalStream>(text);
        assert!(load(&json(vec![req(50.0), req(1.0)])).is_err());
        assert!(load(&json(vec![req(-1.0)])).is_err());
        assert!(load(&json(Vec::new())).is_err());
        assert!(load("{}").is_err());
        let ok = load(&json(vec![req(1.0), req(50.0)])).unwrap();
        assert_eq!(ok.requests()[1].arrival_s, 50.0);
    }
}
