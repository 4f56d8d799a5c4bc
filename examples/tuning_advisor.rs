//! A stripe-count tuning advisor — the tool a BeeGFS administrator would
//! actually run before choosing a directory's default striping.
//!
//! For a platform and an expected workload shape, it sweeps every stripe
//! count with both the fast analytic capacity model and the full
//! discrete-event simulation, prints the comparison, and recommends a
//! default — reproducing in miniature the study the paper performed for
//! PlaFRIM's administrators ("our conclusions led the system
//! administrators ... to change its default BeeGFS parameters").
//!
//! ```text
//! cargo run --release --example tuning_advisor [-- <nodes> <ppn>]
//! ```

use beegfs_repro::cluster::presets;
use beegfs_repro::core::analytic::predict_bandwidth;
use beegfs_repro::core::{
    plafrim_registration_order, BeeGfs, ChooserKind, DirConfig, StripePattern,
};
use beegfs_repro::ior::{IorConfig, Run};
use beegfs_repro::simcore::rng::RngFactory;
use beegfs_repro::stats::Summary;

const REPS: usize = 40;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let ppn: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let factory = RngFactory::new(7);
    for platform in [presets::plafrim_ethernet(), presets::plafrim_omnipath()] {
        println!("\n## {}  ({} nodes x {} ppn)\n", platform.name, nodes, ppn);
        println!(
            "{:>6}  {:>16}  {:>22}  {:>10}",
            "stripe", "analytic (MiB/s)", "simulated mean±sd", "worst case"
        );

        let max = platform.total_targets() as u32;
        let mut best = (0u32, 0.0f64);
        for stripe in 1..=max {
            // Analytic: balanced allocation of `stripe` targets.
            let balanced: Vec<_> = {
                let per_server = stripe as usize / platform.server_count();
                let extra = stripe as usize % platform.server_count();
                let mut sel = Vec::new();
                for s in 0..platform.server_count() {
                    let want = per_server + usize::from(s < extra);
                    sel.extend(
                        platform
                            .targets_of(beegfs_repro::cluster::ServerId(s as u32))
                            .take(want),
                    );
                }
                sel
            };
            let analytic = predict_bandwidth(&platform, nodes, ppn, &balanced).mib_per_sec();

            // Simulated: the deployment's round-robin chooser, REPS runs.
            let samples: Vec<f64> = (0..REPS)
                .map(|rep| {
                    let mut fs = BeeGfs::new(
                        platform.clone(),
                        DirConfig {
                            pattern: StripePattern::new(stripe, 512 * 1024),
                            chooser: ChooserKind::RoundRobin,
                        },
                        plafrim_registration_order(),
                    );
                    let mut rng =
                        factory.stream(&format!("advisor-{}-{stripe}", platform.name), rep as u64);
                    let (out, _) = Run::new(&mut fs)
                        .app(IorConfig::paper_default(nodes).with_ppn(ppn))
                        .execute(&mut rng)
                        .unwrap();
                    out.try_single().unwrap().bandwidth.mib_per_sec()
                })
                .collect();
            let s = Summary::from_sample(&samples);
            println!(
                "{:>6}  {:>16.0}  {:>14.0} ± {:<5.0}  {:>10.0}",
                stripe, analytic, s.mean, s.sd, s.min
            );
            if s.mean > best.1 {
                best = (stripe, s.mean);
            }
        }
        println!(
            "\n-> recommended default stripe count: {} ({:.0} MiB/s mean; the paper's answer: use all {} targets)",
            best.0, best.1, max
        );
    }
}
