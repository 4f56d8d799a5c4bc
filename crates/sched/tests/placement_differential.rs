//! Placement policies against the per-pick algorithms they replaced.
//!
//! The reference implementations below are the earlier forms of the
//! placement code: every candidate's server found by walking the server
//! list, per-server online target lists rebuilt on every pick, and the
//! "is any online target still unused" question rescanned on every pick.
//! The policies now answer those questions from the platform's
//! target↔server index and running counters. On seeded random views of
//! scenario 1, scenario 2 and the 100x10 fleet — with targets offline,
//! tied busy fractions, suspected targets and demands beyond the online
//! pool, so the wrap-around reuse path runs — both must return the same
//! `Placement`, target for target.

use cluster::{presets, FleetSpec, Platform, SwitchPolicy, TargetId};
use sched::policy::{BALANCE_WEIGHT, SUSPECT_PENALTY};
use sched::{
    AdaptiveStriping, ClusterView, LeastLoadedServer, Placement, PlacementPolicy, RoundRobinServer,
    StragglerAware, UtilizationFeedback,
};
use simcore::rng::{RngFactory, StreamRng};
use simcore::units::Bandwidth;

/// splitmix64: the seeded source of the random views.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// The server owning flat target `t`, by walking the server list.
fn walk_server_of(p: &Platform, t: TargetId) -> usize {
    let mut idx = t.index();
    for (s, server) in p.servers.iter().enumerate() {
        if idx < server.osts.len() {
            return s;
        }
        idx -= server.osts.len();
    }
    panic!("target {t} out of range");
}

/// Online targets of server `s`, rebuilt by walking the server list.
fn walk_online_targets_of(p: &Platform, online: &[bool], s: usize) -> Vec<TargetId> {
    let base: usize = p.servers[..s].iter().map(|x| x.osts.len()).sum();
    (base..base + p.servers[s].osts.len())
        .map(|i| TargetId(i as u32))
        .filter(|t| online[t.index()])
        .collect()
}

/// The busy-balanced greedy pick, one full candidate scan per pick.
fn reference_busy_balanced(
    v: &ClusterView<'_>,
    want: u32,
    extra: &dyn Fn(usize) -> f64,
) -> Vec<TargetId> {
    let servers = v.platform.server_count();
    let mut server_picks = vec![0u32; servers];
    let mut used = vec![false; v.online.len()];
    let mut chosen = Vec::with_capacity(want as usize);
    for _ in 0..want {
        let unused_left = v.online.iter().enumerate().any(|(i, &o)| o && !used[i]);
        let best = v
            .online
            .iter()
            .enumerate()
            .filter(|&(i, &o)| o && (!unused_left || !used[i]))
            .map(|(i, _)| {
                let t = TargetId(i as u32);
                let s = walk_server_of(v.platform, t);
                let score =
                    v.busy_fraction[i] + BALANCE_WEIGHT * f64::from(server_picks[s]) + extra(i);
                (score, t)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("an online target");
        let (_, t) = best;
        used[t.index()] = true;
        server_picks[walk_server_of(v.platform, t)] += 1;
        chosen.push(t);
    }
    chosen
}

/// Least outstanding bytes per server, per-server lists per pick.
fn reference_least_loaded(v: &ClusterView<'_>, want: u32, bytes: u64) -> Vec<TargetId> {
    let servers = v.platform.server_count();
    let share = bytes as f64 / f64::from(want.max(1));
    let mut tentative = vec![0.0f64; servers];
    let mut used = vec![false; v.online.len()];
    let mut chosen = Vec::with_capacity(want as usize);
    for _ in 0..want {
        let unused_somewhere = (0..servers).any(|s| {
            walk_online_targets_of(v.platform, v.online, s)
                .iter()
                .any(|t| !used[t.index()])
        });
        let mut best: Option<(f64, usize, TargetId)> = None;
        for (s, tent) in tentative.iter().enumerate() {
            let candidates = walk_online_targets_of(v.platform, v.online, s);
            let pick = candidates
                .iter()
                .find(|t| !unused_somewhere || !used[t.index()])
                .copied();
            let Some(t) = pick else { continue };
            let load = v.outstanding_bytes[s] + tent;
            if best.is_none_or(|(l, bs, _)| load < l || (load == l && s < bs)) {
                best = Some((load, s, t));
            }
        }
        let (_, s, t) = best.expect("an online target");
        used[t.index()] = true;
        tentative[s] += share;
        chosen.push(t);
    }
    chosen
}

/// Server round robin over per-server online lists built per call.
#[derive(Default)]
struct ReferenceRoundRobin {
    server_cursor: usize,
    slot_cursors: Vec<usize>,
}

impl ReferenceRoundRobin {
    fn place(&mut self, v: &ClusterView<'_>, want: u32) -> Vec<TargetId> {
        let servers = v.platform.server_count();
        self.slot_cursors.resize(servers, 0);
        let per_server: Vec<Vec<TargetId>> = (0..servers)
            .map(|s| walk_online_targets_of(v.platform, v.online, s))
            .collect();
        let mut chosen = Vec::with_capacity(want as usize);
        for _ in 0..want {
            while per_server[self.server_cursor % servers].is_empty() {
                self.server_cursor += 1;
            }
            let s = self.server_cursor % servers;
            let list = &per_server[s];
            let t = list[self.slot_cursors[s] % list.len()];
            self.slot_cursors[s] += 1;
            self.server_cursor += 1;
            chosen.push(t);
        }
        chosen
    }
}

/// One random cluster state.
struct Inputs {
    online: Vec<bool>,
    outstanding: Vec<f64>,
    busy: Vec<f64>,
    suspected: Vec<bool>,
}

impl Inputs {
    /// A random view: per-case offline and suspect densities, busy
    /// fractions on a coarse grid (so score ties happen), at least one
    /// target online.
    fn random(p: &Platform, mix: &mut Mix) -> Self {
        let n = p.total_targets();
        let offline_p = [0.0, 0.1, 0.5, 0.97][mix.below(4) as usize];
        let mut online: Vec<bool> = (0..n).map(|_| !mix.chance(offline_p)).collect();
        if !online.contains(&true) {
            online[mix.below(n as u64) as usize] = true;
        }
        let suspect_p = [0.0, 0.2][mix.below(2) as usize];
        Inputs {
            online,
            outstanding: (0..p.server_count())
                .map(|_| (mix.below(5) as f64) * 1e9)
                .collect(),
            busy: (0..n).map(|_| mix.below(9) as f64 / 8.0).collect(),
            suspected: (0..n).map(|_| mix.chance(suspect_p)).collect(),
        }
    }

    fn view<'a>(&'a self, platform: &'a Platform) -> ClusterView<'a> {
        ClusterView {
            platform,
            online: &self.online,
            outstanding_bytes: &self.outstanding,
            busy_fraction: &self.busy,
            suspected: &self.suspected,
        }
    }
}

fn pinned(p: Placement) -> Vec<TargetId> {
    match p {
        Placement::Pinned(ts) => ts,
        Placement::Deferred => panic!("expected a pinned placement"),
    }
}

fn rng() -> StreamRng {
    RngFactory::new(5).stream("placement-differential", 0)
}

fn fleet_100x10() -> Platform {
    FleetSpec::new("datacenter-100x10")
        .servers(100)
        .targets_per_server(10)
        .racks(10)
        .server_link(Bandwidth::from_mib_per_sec(2400.0))
        .backend(Bandwidth::from_mib_per_sec(4700.0))
        .target_bw(Bandwidth::from_mib_per_sec(1700.0))
        .switch_policy(SwitchPolicy::NonBlocking)
        .build()
        .expect("the 100x10 fleet is valid")
}

/// Run `cases` random views through every policy and its reference;
/// `max_want` bounds the demand (it exceeds the online pool whenever
/// enough targets are offline).
fn differential(platform: &Platform, seed: u64, cases: usize, max_want: u64) {
    let mut mix = Mix(seed);
    // Round robin keeps cursors across calls: one instance per side for
    // the whole sequence.
    let mut rr = RoundRobinServer::default();
    let mut rr_ref = ReferenceRoundRobin::default();
    let mut wrapped = 0usize;
    for case in 0..cases {
        let inputs = Inputs::random(platform, &mut mix);
        let v = inputs.view(platform);
        let want = 1 + mix.below(max_want) as u32;
        let bytes = (1 + mix.below(64)) << 28;
        let online = inputs.online.iter().filter(|&&o| o).count();
        wrapped += usize::from(want as usize > online);
        let ctx = format!("{} case {case} want {want} online {online}", platform.name);

        let suspected = &inputs.suspected;
        let suspect_cost = |i: usize| if suspected[i] { SUSPECT_PENALTY } else { 0.0 };
        let balanced = reference_busy_balanced(&v, want, &|_| 0.0);
        let expected: [(&mut dyn PlacementPolicy, Vec<TargetId>); 5] = [
            (&mut rr, rr_ref.place(&v, want)),
            (
                &mut LeastLoadedServer,
                reference_least_loaded(&v, want, bytes),
            ),
            (&mut UtilizationFeedback, balanced.clone()),
            (
                &mut StragglerAware,
                reference_busy_balanced(&v, want, &suspect_cost),
            ),
            (&mut AdaptiveStriping::default(), balanced),
        ];
        for (policy, want_targets) in expected {
            let got = pinned(policy.place(&v, want, bytes, &mut rng()).unwrap());
            assert_eq!(got, want_targets, "{} on {ctx}", policy.name());
        }
    }
    assert!(wrapped > 0, "no case exercised the wrap-around path");
}

#[test]
fn scenario_1_placements_match_the_reference() {
    differential(&presets::plafrim_ethernet(), 1, 400, 12);
}

#[test]
fn scenario_2_placements_match_the_reference() {
    differential(&presets::plafrim_omnipath(), 2, 400, 12);
}

#[test]
fn fleet_placements_match_the_reference() {
    differential(&fleet_100x10(), 3, 60, 40);
}
