//! Stripe-count auto-tuning — the paper's §VI "future work on storage
//! target allocation and stripe count tuning", built on the analytic
//! capacity model.
//!
//! Given a platform and an expected workload shape (nodes, processes per
//! node), [`recommend`] evaluates every stripe count under the *worst*
//! allocation the deployment's chooser can produce, and returns the
//! count with the best worst-case — which is how an administrator should
//! pick a default they cannot adapt per job (BeeGFS striping is
//! per-directory and admin-only, §I).
//!
//! For PlaFRIM-shaped systems the recommendation reproduces the paper's
//! conclusion: use **all** targets, because the maximum stripe count is
//! the only one whose allocation is balanced by construction.

use crate::analytic::predict_bandwidth;
use cluster::{Platform, ServerId, TargetId};
use serde::{Deserialize, Serialize};
use simcore::units::Bandwidth;

/// One evaluated stripe count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StripeEvaluation {
    /// The stripe count.
    pub stripe_count: u32,
    /// Predicted bandwidth of the *best* possible allocation.
    pub best_case: Bandwidth,
    /// Predicted bandwidth of the *worst* possible allocation.
    pub worst_case: Bandwidth,
}

impl StripeEvaluation {
    /// Spread between best and worst case relative to the worst; 0 means
    /// the allocation cannot matter at this count.
    pub fn allocation_risk(&self) -> f64 {
        let w = self.worst_case.bytes_per_sec();
        if w == 0.0 {
            0.0
        } else {
            self.best_case.bytes_per_sec() / w - 1.0
        }
    }
}

/// The tuner's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recommendation {
    /// Recommended default stripe count.
    pub stripe_count: u32,
    /// The evaluation backing the recommendation.
    pub chosen: StripeEvaluation,
    /// All evaluations, by stripe count.
    pub evaluations: Vec<StripeEvaluation>,
}

/// Enumerate the most and least balanced allocations of `count` targets.
fn extreme_allocations(platform: &Platform, count: usize) -> (Vec<TargetId>, Vec<TargetId>) {
    let m = platform.server_count();
    // Most balanced: round-robin across servers.
    let mut balanced = Vec::with_capacity(count);
    let per = count / m;
    let extra = count % m;
    for s in 0..m {
        let want = per + usize::from(s < extra);
        balanced.extend(platform.targets_of(ServerId(s as u32)).take(want));
    }
    // Least balanced: fill servers one at a time.
    let mut skewed = Vec::with_capacity(count);
    'outer: for s in 0..m {
        for t in platform.targets_of(ServerId(s as u32)) {
            skewed.push(t);
            if skewed.len() == count {
                break 'outer;
            }
        }
    }
    (balanced, skewed)
}

/// Evaluate one stripe count: best and worst allocation.
pub fn evaluate(
    platform: &Platform,
    nodes: usize,
    ppn: u32,
    stripe_count: u32,
) -> StripeEvaluation {
    let (balanced, skewed) = extreme_allocations(platform, stripe_count as usize);
    let best = predict_bandwidth(platform, nodes, ppn, &balanced);
    let worst = predict_bandwidth(platform, nodes, ppn, &skewed);
    // The "balanced" enumeration is the best case for every platform
    // where servers are homogeneous (all presets).
    StripeEvaluation {
        stripe_count,
        best_case: best.max(worst),
        worst_case: best.min(worst),
    }
}

/// Recommend a default stripe count for the platform and workload shape:
/// the count with the highest worst-case bandwidth (ties broken toward
/// higher counts, which also minimizes allocation risk).
///
/// ```
/// use beegfs_core::tuning::recommend;
/// use cluster::presets;
///
/// // The paper's conclusion, derived: stripe over all 8 targets.
/// let rec = recommend(&presets::plafrim_ethernet(), 16, 8);
/// assert_eq!(rec.stripe_count, 8);
/// ```
///
/// # Panics
/// Panics if the platform has no targets or `nodes`/`ppn` is zero.
pub fn recommend(platform: &Platform, nodes: usize, ppn: u32) -> Recommendation {
    let max = platform.total_targets() as u32;
    assert!(max > 0, "platform has no storage targets");
    let evaluations: Vec<StripeEvaluation> = (1..=max)
        .map(|s| evaluate(platform, nodes, ppn, s))
        .collect();
    let chosen = evaluations
        .iter()
        .max_by(|a, b| {
            a.worst_case
                .bytes_per_sec()
                .partial_cmp(&b.worst_case.bytes_per_sec())
                .expect("finite bandwidths")
                .then(a.stripe_count.cmp(&b.stripe_count))
        })
        .expect("at least one stripe count")
        .clone();
    Recommendation {
        stripe_count: chosen.stripe_count,
        chosen,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::presets;

    #[test]
    fn plafrim_recommendation_is_all_targets_in_both_scenarios() {
        // The paper's headline conclusion.
        for platform in [presets::plafrim_ethernet(), presets::plafrim_omnipath()] {
            let rec = recommend(&platform, 16, 8);
            assert_eq!(rec.stripe_count, 8, "{}", platform.name);
            assert_eq!(rec.chosen.allocation_risk(), 0.0);
        }
    }

    #[test]
    fn maximum_count_has_zero_allocation_risk() {
        let platform = presets::plafrim_ethernet();
        let eval = evaluate(&platform, 8, 8, 8);
        assert_eq!(
            eval.best_case.bytes_per_sec(),
            eval.worst_case.bytes_per_sec()
        );
    }

    #[test]
    fn intermediate_counts_carry_allocation_risk_in_scenario1() {
        let platform = presets::plafrim_ethernet();
        // Stripe 4: (2,2) best vs (0,4) worst — factor 2 on the links.
        let eval = evaluate(&platform, 8, 8, 4);
        assert!(
            eval.allocation_risk() > 0.5,
            "risk {}",
            eval.allocation_risk()
        );
    }

    #[test]
    fn worst_case_is_monotone_enough_to_justify_the_max() {
        // No intermediate count's worst case beats the maximum's.
        let platform = presets::plafrim_omnipath();
        let rec = recommend(&platform, 32, 8);
        let max_worst = rec.chosen.worst_case.bytes_per_sec();
        for e in &rec.evaluations {
            assert!(e.worst_case.bytes_per_sec() <= max_worst + 1e-6);
        }
    }

    #[test]
    fn extreme_allocations_have_extreme_balance() {
        let platform = presets::plafrim_ethernet();
        let (balanced, skewed) = extreme_allocations(&platform, 4);
        let ab = crate::alloc::Allocation::classify(&platform, &balanced);
        let as_ = crate::alloc::Allocation::classify(&platform, &skewed);
        assert_eq!(ab.label(), "(2,2)");
        assert_eq!(as_.label(), "(0,4)");
    }

    #[test]
    fn catalyst_recommendation_also_max() {
        let platform = presets::catalyst_like();
        let rec = recommend(&platform, 64, 8);
        assert_eq!(rec.stripe_count, 24);
    }
}
