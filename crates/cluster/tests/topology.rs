//! The platform's target↔server index against a naive server walk.
//!
//! `Platform::server_of`, `slot_of`, `targets_of`, `ost_profile`,
//! `total_targets` and `all_targets` answer from an index built once per
//! platform. The reference here walks the server list the way the
//! lookups did before the index existed. Every bundled preset, the
//! 100x10 fleet shape, seeded random `FleetSpec`s and deserialized
//! platforms with unequal (even zero) OST counts per server must agree
//! with it, and the index must never reach the serialized form.

use cluster::{presets, FleetSpec, Platform, ServerId, SwitchPolicy, TargetId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use simcore::units::Bandwidth;
use storage::OstProfile;

/// `(server, slot)` of a flat target id by walking the servers.
fn naive_locate(p: &Platform, t: TargetId) -> Option<(ServerId, u32)> {
    let mut idx = t.index();
    for (s, server) in p.servers.iter().enumerate() {
        if idx < server.osts.len() {
            return Some((ServerId(s as u32), idx as u32));
        }
        idx -= server.osts.len();
    }
    None
}

/// The flat target ids of one server by walking the servers.
fn naive_targets_of(p: &Platform, s: ServerId) -> Vec<TargetId> {
    let base: usize = p.servers[..s.index()].iter().map(|x| x.osts.len()).sum();
    (0..p.servers[s.index()].osts.len())
        .map(|j| TargetId((base + j) as u32))
        .collect()
}

/// Every indexed lookup of `p` agrees with the naive walk.
fn check_against_walk(p: &Platform) {
    let total: usize = p.servers.iter().map(|s| s.osts.len()).sum();
    assert_eq!(p.total_targets(), total);
    let all: Vec<TargetId> = p.all_targets().collect();
    assert_eq!(all, (0..total as u32).map(TargetId).collect::<Vec<_>>());
    assert_eq!(p.all_targets().len(), total);
    for &t in &all {
        let (s, slot) = naive_locate(p, t).expect("in-range target");
        assert_eq!(p.server_of(t), s, "server of {t}");
        assert_eq!(p.slot_of(t), slot, "slot of {t}");
        let want: *const OstProfile = &p.servers[s.index()].osts[slot as usize];
        assert!(std::ptr::eq(p.ost_profile(t), want), "profile of {t}");
    }
    assert_eq!(naive_locate(p, TargetId(total as u32)), None);
    for s in 0..p.server_count() {
        let s = ServerId(s as u32);
        let indexed: Vec<TargetId> = p.targets_of(s).collect();
        assert_eq!(indexed, naive_targets_of(p, s), "targets of {s}");
        assert_eq!(p.targets_of(s).len(), indexed.len());
        assert_eq!(
            p.targets_of(s).rev().collect::<Vec<_>>().len(),
            indexed.len()
        );
    }
}

/// A copy of `p`, deserialized from its serde value, whose server `i` holds
/// `counts[i]` OSTs, cycling through the source servers' profiles.
fn reshaped(p: &Platform, counts: &[usize]) -> Platform {
    let source = p.to_value();
    let Value::Map(mut fields) = source else {
        panic!("a platform serializes to a map")
    };
    let template = p.servers[0].to_value();
    let servers = counts
        .iter()
        .map(|&n| {
            let Value::Map(mut server) = template.clone() else {
                panic!("a server serializes to a map")
            };
            let osts = (0..n)
                .map(|j| p.servers[j % p.server_count()].osts[0].to_value())
                .collect();
            for (k, v) in &mut server {
                if k == "osts" {
                    *v = Value::Seq(osts);
                    break;
                }
            }
            Value::Map(server)
        })
        .collect();
    for (k, v) in &mut fields {
        if k == "servers" {
            *v = Value::Seq(servers);
            break;
        }
    }
    Platform::from_value(&Value::Map(fields)).expect("reshaped platform deserializes")
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

#[test]
fn presets_and_the_fleet_match_the_walk() {
    for p in [
        presets::plafrim_ethernet(),
        presets::plafrim_omnipath(),
        presets::catalyst_like(),
        fleet_100x10(),
    ] {
        p.validate();
        check_against_walk(&p);
    }
}

#[test]
fn unequal_server_sizes_match_the_walk() {
    let base = presets::plafrim_ethernet();
    let p = reshaped(&base, &[3, 1, 7, 4]);
    p.validate();
    check_against_walk(&p);
    assert_eq!(p.server_of(TargetId(3)), ServerId(1));
    assert_eq!(p.slot_of(TargetId(10)), 6);
    assert_eq!(p.targets_of(ServerId(3)).next(), Some(TargetId(11)));
    // An empty server owns no ids; its neighbours stay contiguous.
    let gap = reshaped(&base, &[2, 0, 2]);
    check_against_walk(&gap);
    assert_eq!(gap.targets_of(ServerId(1)).len(), 0);
    assert_eq!(gap.server_of(TargetId(2)), ServerId(2));
}

#[test]
fn serialized_platforms_are_the_committed_bytes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for (name, preset) in [
        ("plafrim_ethernet", presets::plafrim_ethernet()),
        ("plafrim_omnipath", presets::plafrim_omnipath()),
        ("catalyst_like", presets::catalyst_like()),
    ] {
        let golden = std::fs::read_to_string(format!("{dir}/{name}.json")).unwrap();
        let back: Platform = serde_json::from_str(&golden).unwrap();
        assert_eq!(back, preset, "{name}: deserialized index or fields differ");
        assert_eq!(
            serde_json::to_string_pretty(&back).unwrap(),
            golden,
            "{name}"
        );
    }
    let odd = reshaped(&presets::catalyst_like(), &[5, 2, 9]);
    let json = serde_json::to_string(&odd).unwrap();
    assert!(!json.contains("topology"), "the index leaked into {json}");
    let again: Platform = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&again).unwrap(), json);
}

#[test]
#[should_panic(expected = "target index is stale")]
fn validate_catches_an_ost_count_changed_after_construction() {
    let mut p = presets::plafrim_ethernet();
    p.servers[1].osts.pop();
    p.validate();
}

#[test]
fn deserialization_reports_missing_fields() {
    let mut v = presets::plafrim_ethernet().to_value();
    if let Value::Map(fields) = &mut v {
        fields.retain(|(k, _)| k != "servers");
    }
    let err = Platform::from_value(&v).unwrap_err();
    assert!(
        err.to_string()
            .contains("missing field `servers` in Platform"),
        "{err}"
    );
}

#[test]
fn fleets_past_u32_target_ids_are_rejected_before_allocating() {
    let err = FleetSpec::new("too-big")
        .servers(1 << 16)
        .targets_per_server(1 << 16)
        .server_link(Bandwidth::from_mib_per_sec(1.0))
        .backend(Bandwidth::from_mib_per_sec(1.0))
        .target_bw(Bandwidth::from_mib_per_sec(1.0))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("overflow"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_fleets_match_the_walk(
        racks in 1u32..=4,
        servers_per_rack in 1u32..=12,
        per_server in 1u32..=16,
    ) {
        let p = FleetSpec::new("random")
            .servers(racks * servers_per_rack)
            .targets_per_server(per_server)
            .racks(racks)
            .server_link(Bandwidth::from_mib_per_sec(1000.0))
            .backend(Bandwidth::from_mib_per_sec(2000.0))
            .target_bw(Bandwidth::from_mib_per_sec(500.0))
            .switch_policy(SwitchPolicy::NonBlocking)
            .build()
            .expect("valid random fleet");
        p.validate();
        check_against_walk(&p);
    }

    #[test]
    fn random_unequal_servers_match_the_walk(
        counts in proptest::collection::vec(0usize..=9, 1..=24),
    ) {
        let p = reshaped(&presets::plafrim_omnipath(), &counts);
        check_against_walk(&p);
    }
}
