//! The Chowdhury contrast — why ICPP'19 saw no stripe-count effect.
//!
//! Chowdhury et al. evaluated BeeGFS striping on a Catalyst-class system
//! (12 servers x 2 OSTs) **with a single compute node** and concluded
//! that increasing the stripe count has limited benefit, recommending 4.
//! The paper argues (lesson 1) that one node's injection capacity hides
//! the storage-side effect. This experiment reproduces both sides on the
//! Catalyst-like preset: a single-node sweep (flat) and a many-node
//! sweep (strongly increasing).

use crate::context::{repeat, single_run, ExpCtx};
use beegfs_core::{BeeGfs, ChooserKind, DirConfig, StripePattern};
use cluster::presets;
use ior::IorConfig;
use iostats::Summary;
use serde::{Deserialize, Serialize};

/// Stripe counts swept (Catalyst has 24 targets).
pub const STRIPES: [u32; 6] = [1, 2, 4, 8, 16, 24];

/// One sweep at a fixed node count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StripeSweep {
    /// Compute nodes used.
    pub nodes: usize,
    /// Processes per node.
    pub ppn: u32,
    /// (stripe count, bandwidth samples MiB/s) pairs.
    pub points: Vec<(u32, Vec<f64>)>,
}

impl StripeSweep {
    /// Mean at a stripe count.
    ///
    /// # Panics
    /// Panics if the stripe count was not swept.
    pub fn mean(&self, stripe: u32) -> f64 {
        let (_, samples) = self
            .points
            .iter()
            .find(|(s, _)| *s == stripe)
            .unwrap_or_else(|| panic!("stripe {stripe} not swept"));
        Summary::from_sample(samples).mean
    }

    /// Relative spread of the means across stripe counts:
    /// `(max - min) / min`.
    pub fn relative_spread(&self) -> f64 {
        let means: Vec<f64> = self.points.iter().map(|(s, _)| self.mean(*s)).collect();
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        (max - min) / min
    }
}

/// Both sides of the contrast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Chowdhury {
    /// The single-node evaluation (as ICPP'19 ran it).
    pub single_node: StripeSweep,
    /// The same sweep with enough compute nodes.
    pub many_nodes: StripeSweep,
}

fn catalyst_fs(stripe: u32) -> BeeGfs {
    let platform = presets::catalyst_like();
    let order = platform.all_targets().collect();
    BeeGfs::new(
        platform,
        DirConfig {
            pattern: StripePattern::new(stripe, StripePattern::PLAFRIM_DEFAULT.chunk_size),
            chooser: ChooserKind::RoundRobin,
        },
        order,
    )
}

fn sweep(ctx: &ExpCtx, nodes: usize, ppn: u32) -> StripeSweep {
    let factory = ctx.rng_factory("chowdhury");
    let points = STRIPES
        .iter()
        .map(|&stripe| {
            let cfg = IorConfig::paper_default(nodes).with_ppn(ppn);
            let label = format!("n{nodes}-p{ppn}-s{stripe}");
            let samples = repeat(&factory, &label, ctx.reps, |rng, _| {
                let mut fs = catalyst_fs(stripe);
                single_run(&mut fs, &cfg, rng).bandwidth.mib_per_sec()
            });
            (stripe, samples)
        })
        .collect();
    StripeSweep { nodes, ppn, points }
}

/// Run the contrast experiment.
pub fn run(ctx: &ExpCtx) -> Chowdhury {
    Chowdhury {
        single_node: sweep(ctx, 1, 16),
        many_nodes: sweep(ctx, 32, 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_hides_the_effect_many_nodes_reveal() {
        let c = run(&ExpCtx::quick(8));
        // ICPP'19's view: basically flat (within ~20%).
        assert!(
            c.single_node.relative_spread() < 0.25,
            "single-node spread {}",
            c.single_node.relative_spread()
        );
        // The paper's view: the effect is large once nodes are plentiful.
        assert!(
            c.many_nodes.relative_spread() > 1.0,
            "many-node spread {}",
            c.many_nodes.relative_spread()
        );
        // And the many-node sweep grows with the stripe count.
        assert!(c.many_nodes.mean(24) > 2.0 * c.many_nodes.mean(2));
    }
}
