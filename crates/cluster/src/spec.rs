//! Platform description types.

use crate::ids::{ServerId, TargetId};
use serde::{Deserialize, Serialize};
use simcore::units::Bandwidth;
use storage::{OssBackendProfile, OstProfile, VariabilityModel};

/// The compute (client) side of the platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeSpec {
    /// Nodes available in the partition.
    pub max_nodes: usize,
    /// Raw NIC speed of each node.
    pub nic: Bandwidth,
    /// Effective client-stack injection ceiling per node at the baseline
    /// process count (TCP/IP or psm2 overheads keep this below `nic`).
    pub node_injection_cap: Bandwidth,
    /// Process count at which `node_injection_cap` was calibrated.
    pub baseline_ppn: u32,
    /// Fractional cap reduction per `baseline_ppn` extra processes —
    /// intra-node contention (paper §IV-B: 16 ppn shows a *slight*
    /// degradation vs 8 ppn). `cap_eff = cap / (1 + penalty * excess)`
    /// where `excess = max(0, ppn - baseline) / baseline`.
    pub intra_node_penalty: f64,
    /// Outstanding write-back transfers the BeeGFS client keeps in flight
    /// *per node* (dirty-page/write-behind window). This is divided among
    /// the node's processes and their stripe targets, and drives the
    /// queue depth seen by each storage device — the mechanism behind
    /// "more OSTs require more compute nodes" (paper lesson 6).
    pub node_window: f64,
}

impl ComputeSpec {
    /// Effective injection cap at `ppn` processes per node.
    ///
    /// # Panics
    /// Panics if `ppn == 0`.
    pub fn injection_cap(&self, ppn: u32) -> Bandwidth {
        assert!(ppn > 0, "ppn must be positive");
        let excess =
            f64::from(ppn.saturating_sub(self.baseline_ppn)) / f64::from(self.baseline_ppn);
        self.node_injection_cap * (1.0 / (1.0 + self.intra_node_penalty * excess))
    }

    /// Queue-depth weight contributed by one (process, target) flow when
    /// the node runs `ppn` processes striping over `stripe_count` targets:
    /// the node window is split evenly.
    ///
    /// # Panics
    /// Panics if `ppn == 0` or `stripe_count == 0`.
    pub fn flow_depth_weight(&self, ppn: u32, stripe_count: u32) -> f64 {
        assert!(
            ppn > 0 && stripe_count > 0,
            "ppn and stripe_count must be positive"
        );
        self.node_window / (f64::from(ppn) * f64::from(stripe_count))
    }
}

/// How the switch fabric participates in the flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SwitchPolicy {
    /// The switch is a shared resource every write crosses. The default,
    /// and the historical behaviour: pathological configurations can
    /// expose an undersized fabric.
    #[default]
    Constraining,
    /// The switch is provably never the bottleneck (validated by
    /// [`crate::FleetSpec::build`]: fabric capacity covers every server
    /// link at full tilt with headroom), so it is omitted from write
    /// paths. Flows against disjoint server groups then share *no*
    /// resource, which is what lets the solver's connected-component
    /// sharding keep datacenter-scale fleets cheap — and it is exact,
    /// not an approximation, precisely because the omitted resource
    /// could never have constrained a rate.
    NonBlocking,
}

/// The network between nodes and storage servers.
///
/// Serialization is hand-written: `switch_policy` is omitted when it is
/// the default, so platforms predating the field (committed golden
/// fixtures, cache keys, stored campaign results) keep byte-identical
/// JSON and old payloads still deserialize.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Aggregate switch fabric capacity (non-blocking in both PlaFRIM
    /// setups, so presets use a generous value; it still participates so
    /// pathological configurations can expose it).
    pub switch_capacity: Bandwidth,
    /// Effective capacity of the link between the switch and each storage
    /// server (protocol efficiency already applied).
    pub server_link: Bandwidth,
    /// Run-to-run variability of the server links (system + per-link).
    pub link_variability: VariabilityModel,
    /// Whether the switch constrains flows or is provably out of the way.
    pub switch_policy: SwitchPolicy,
}

impl Serialize for NetworkSpec {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            (
                "switch_capacity".to_string(),
                self.switch_capacity.to_value(),
            ),
            ("server_link".to_string(), self.server_link.to_value()),
            (
                "link_variability".to_string(),
                self.link_variability.to_value(),
            ),
        ];
        if self.switch_policy != SwitchPolicy::Constraining {
            entries.push(("switch_policy".to_string(), self.switch_policy.to_value()));
        }
        serde::Value::Map(entries)
    }
}

impl Deserialize for NetworkSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let need = |k: &str| {
            v.get(k)
                .ok_or_else(|| serde::DeError::custom(format!("NetworkSpec missing field `{k}`")))
        };
        Ok(NetworkSpec {
            switch_capacity: Deserialize::from_value(need("switch_capacity")?)?,
            server_link: Deserialize::from_value(need("server_link")?)?,
            link_variability: Deserialize::from_value(need("link_variability")?)?,
            switch_policy: match v.get("switch_policy") {
                Some(p) => Deserialize::from_value(p)?,
                None => SwitchPolicy::Constraining,
            },
        })
    }
}

/// One storage server: an OSS host with its backend and targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageServerSpec {
    /// Shared backend (controller/PCIe/kernel) ceiling.
    pub backend: OssBackendProfile,
    /// The OSTs hosted by this server, in slot order.
    pub osts: Vec<OstProfile>,
}

/// A complete platform description.
///
/// Marked `#[non_exhaustive]`: code outside this crate cannot build one
/// field-by-field. Construction routes through [`crate::FleetSpec`]
/// (parameterized fleets and all bundled presets) or deserialization,
/// both of which validate what a struct literal would not.
///
/// Both also build the platform's target↔server index, which makes
/// [`server_of`](Self::server_of), [`slot_of`](Self::slot_of),
/// [`ost_profile`](Self::ost_profile) and
/// [`targets_of`](Self::targets_of) O(1). The index is derived data:
/// serialization is hand-written to leave it out, so platform JSON
/// (golden fixtures, campaign cache keys) is the same as the derived
/// form's.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Platform {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Client side.
    pub compute: ComputeSpec,
    /// Network side.
    pub network: NetworkSpec,
    /// Storage servers in id order. Profiles may be edited in place, but
    /// the number of OSTs per server is fixed at construction: the
    /// target↔server index is built from it ([`Platform::validate`]
    /// checks that it still matches).
    pub servers: Vec<StorageServerSpec>,
    /// Run-to-run variability of the storage devices (system + per-OST).
    pub storage_variability: VariabilityModel,
    /// Mean fixed per-run overhead (file create, open RPCs, barrier,
    /// close/flush), in seconds. Dominates small-transfer runs — the
    /// data-size effect of paper Fig. 2.
    pub run_overhead_mean_s: f64,
    /// Lognormal sigma of the run overhead.
    pub run_overhead_sigma: f64,
    /// Flat target id ↔ (server, slot), derived from `servers`.
    pub(crate) topology: Topology,
}

/// The target↔server index of a platform: flat target ids are
/// server-major, so server `s` owns the ids `first[s]..first[s + 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Topology {
    /// Flat id of each server's first target, then the target count.
    first: Vec<u32>,
    /// Owning server of each flat target id.
    pub(crate) server: Vec<u32>,
}

impl Topology {
    /// Index a server list; `None` if the target count overflows a
    /// `u32` target id.
    pub(crate) fn new(servers: &[StorageServerSpec]) -> Option<Self> {
        let total = servers.iter().try_fold(0u32, |sum, spec| {
            sum.checked_add(u32::try_from(spec.osts.len()).ok()?)
        })?;
        if u32::try_from(servers.len()).is_err() {
            return None;
        }
        let mut first = Vec::with_capacity(servers.len() + 1);
        let mut server = Vec::with_capacity(total as usize);
        for (s, spec) in servers.iter().enumerate() {
            first.push(server.len() as u32);
            server.resize(server.len() + spec.osts.len(), s as u32);
        }
        first.push(total);
        Some(Topology { first, server })
    }

    /// Whether the index still describes `servers`: same server count,
    /// same OST count per server.
    fn matches(&self, servers: &[StorageServerSpec]) -> bool {
        self.first.len() == servers.len() + 1
            && servers
                .iter()
                .zip(self.first.windows(2))
                .all(|(spec, ids)| (ids[1] - ids[0]) as usize == spec.osts.len())
    }
}

impl Serialize for Platform {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("name".to_string(), self.name.to_value()),
            ("compute".to_string(), self.compute.to_value()),
            ("network".to_string(), self.network.to_value()),
            ("servers".to_string(), self.servers.to_value()),
            (
                "storage_variability".to_string(),
                self.storage_variability.to_value(),
            ),
            (
                "run_overhead_mean_s".to_string(),
                self.run_overhead_mean_s.to_value(),
            ),
            (
                "run_overhead_sigma".to_string(),
                self.run_overhead_sigma.to_value(),
            ),
        ])
    }
}

impl Deserialize for Platform {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        fn need<T: Deserialize>(v: &serde::Value, k: &str) -> Result<T, serde::DeError> {
            let field = v.get(k).ok_or_else(|| {
                serde::DeError::custom(format!("missing field `{k}` in Platform"))
            })?;
            Deserialize::from_value(field)
        }
        let name = need(v, "name")?;
        let compute = need(v, "compute")?;
        let network = need(v, "network")?;
        let servers: Vec<StorageServerSpec> = need(v, "servers")?;
        let storage_variability = need(v, "storage_variability")?;
        let run_overhead_mean_s = need(v, "run_overhead_mean_s")?;
        let run_overhead_sigma = need(v, "run_overhead_sigma")?;
        let topology = Topology::new(&servers)
            .ok_or_else(|| serde::DeError::custom("Platform has more targets than u32 ids"))?;
        Ok(Platform {
            name,
            compute,
            network,
            servers,
            storage_variability,
            run_overhead_mean_s,
            run_overhead_sigma,
            topology,
        })
    }
}

impl Platform {
    /// Total number of OSTs across all servers.
    pub fn total_targets(&self) -> usize {
        self.topology.server.len()
    }

    /// Number of storage servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The server owning a (flat) target id.
    ///
    /// # Panics
    /// Panics if the target id is out of range.
    pub fn server_of(&self, t: TargetId) -> ServerId {
        match self.topology.server.get(t.index()) {
            Some(&s) => ServerId(s),
            None => panic!("target {t} out of range for platform {}", self.name),
        }
    }

    /// The within-server slot of a (flat) target id.
    ///
    /// # Panics
    /// Panics if the target id is out of range.
    pub fn slot_of(&self, t: TargetId) -> u32 {
        t.0 - self.topology.first[self.server_of(t).index()]
    }

    /// All target ids of one server, ascending.
    ///
    /// # Panics
    /// Panics if the server id is out of range.
    pub fn targets_of(
        &self,
        s: ServerId,
    ) -> impl DoubleEndedIterator<Item = TargetId> + ExactSizeIterator + Clone {
        assert!(
            s.index() < self.server_count(),
            "server {s} out of range for platform {}",
            self.name
        );
        let first = &self.topology.first;
        (first[s.index()]..first[s.index() + 1]).map(TargetId)
    }

    /// All target ids, flat order (server-major).
    pub fn all_targets(
        &self,
    ) -> impl DoubleEndedIterator<Item = TargetId> + ExactSizeIterator + Clone {
        (0..self.total_targets() as u32).map(TargetId)
    }

    /// The OST profile behind a target id.
    ///
    /// # Panics
    /// Panics if the target id is out of range.
    pub fn ost_profile(&self, t: TargetId) -> &OstProfile {
        let s = self.server_of(t).index();
        &self.servers[s].osts[(t.0 - self.topology.first[s]) as usize]
    }

    /// Count targets per server for a selection — the paper's
    /// `(|S_1|, ..., |S_m|)` vector (before min/max reduction).
    pub fn per_server_counts(&self, selection: &[TargetId]) -> Vec<usize> {
        let mut counts = vec![0usize; self.server_count()];
        for &t in selection {
            counts[self.server_of(t).index()] += 1;
        }
        counts
    }

    /// Basic structural validation (non-empty servers, target presence,
    /// a target index that matches the servers).
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) {
        assert!(self.compute.max_nodes > 0, "platform has no compute nodes");
        assert!(!self.servers.is_empty(), "platform has no storage servers");
        for (i, s) in self.servers.iter().enumerate() {
            assert!(!s.osts.is_empty(), "server {i} has no OSTs");
        }
        assert!(
            self.topology.matches(&self.servers),
            "target index is stale: a server's OST count changed after construction"
        );
        assert!(
            self.run_overhead_mean_s >= 0.0 && self.run_overhead_mean_s.is_finite(),
            "invalid run overhead"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn injection_cap_constant_up_to_baseline() {
        let p = presets::plafrim_ethernet();
        let c8 = p.compute.injection_cap(8);
        let c4 = p.compute.injection_cap(4);
        assert_eq!(c8.bytes_per_sec(), c4.bytes_per_sec());
    }

    #[test]
    fn injection_cap_degrades_slightly_beyond_baseline() {
        let p = presets::plafrim_omnipath();
        let c8 = p.compute.injection_cap(8);
        let c16 = p.compute.injection_cap(16);
        assert!(c16.bytes_per_sec() < c8.bytes_per_sec());
        // "slight" degradation: less than 15%.
        assert!(c16.bytes_per_sec() > 0.85 * c8.bytes_per_sec());
    }

    #[test]
    fn flow_depth_weight_is_node_window_split() {
        let p = presets::plafrim_ethernet();
        let w = p.compute.flow_depth_weight(8, 4);
        assert!((w - p.compute.node_window / 32.0).abs() < 1e-12);
        // ppn does not change the per-node total weight over all flows:
        // ppn * stripe * weight == node_window.
        for ppn in [1u32, 8, 16, 36] {
            for s in [1u32, 4, 8] {
                let total = f64::from(ppn) * f64::from(s) * p.compute.flow_depth_weight(ppn, s);
                assert!((total - p.compute.node_window).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn server_target_mapping_roundtrips() {
        let p = presets::plafrim_ethernet();
        assert_eq!(p.total_targets(), 8);
        assert_eq!(p.server_count(), 2);
        for t in p.all_targets() {
            let s = p.server_of(t);
            let slot = p.slot_of(t);
            assert!(p.targets_of(s).any(|x| x == t));
            assert!(slot < 4);
        }
        assert_eq!(p.server_of(TargetId(0)), ServerId(0));
        assert_eq!(p.server_of(TargetId(3)), ServerId(0));
        assert_eq!(p.server_of(TargetId(4)), ServerId(1));
        assert_eq!(p.server_of(TargetId(7)), ServerId(1));
    }

    #[test]
    fn per_server_counts_classify_selections() {
        let p = presets::plafrim_ethernet();
        let sel = vec![TargetId(0), TargetId(4), TargetId(5), TargetId(6)];
        assert_eq!(p.per_server_counts(&sel), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let p = presets::plafrim_ethernet();
        let _ = p.server_of(TargetId(99));
    }

    #[test]
    fn presets_validate() {
        presets::plafrim_ethernet().validate();
        presets::plafrim_omnipath().validate();
        presets::catalyst_like().validate();
    }
}
