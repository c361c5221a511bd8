//! Network substrate: libfabric provider capability matrix (Table 3) and the intra-node
//! bandwidth model of Section 6.5.
//!
//! The paper's observation is that a portable libfabric API does not yield portable
//! performance: providers differ in feature support (Table 3), and containerized MPI that
//! reaches the high-speed network through a libfabric replacement loses the shared-memory
//! path for co-located ranks (23.5 GB/s instead of 64 GB/s on Clariden) unless an
//! aggregating provider such as LinkX is used.

use std::collections::BTreeMap;
use std::fmt;

/// libfabric providers considered in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provider {
    /// TCP sockets provider.
    Tcp,
    /// InfiniBand verbs.
    Verbs,
    /// HPE Slingshot (cxi).
    Cxi,
    /// AWS Elastic Fabric Adapter.
    Efa,
    /// Intel Omni-Path (opx).
    Opx,
    /// Shared-memory provider (intra-node).
    Shm,
    /// LinkX: aggregates a remote provider with shm for intra-node traffic.
    LinkX,
}

impl Provider {
    /// The libfabric provider name string.
    pub fn as_str(&self) -> &'static str {
        match self {
            Provider::Tcp => "tcp",
            Provider::Verbs => "verbs",
            Provider::Cxi => "cxi",
            Provider::Efa => "efa",
            Provider::Opx => "opx",
            Provider::Shm => "shm",
            Provider::LinkX => "lnx",
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Feature rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Feature {
    /// FI_MSG.
    Message,
    /// Reliable datagram endpoint type.
    ReliableDatagram,
    /// Unreliable datagram endpoint type.
    Datagram,
    /// FI_TAGGED.
    TaggedMessage,
    /// FI_DIRECTED_RECV.
    DirectedReceive,
    /// FI_MULTI_RECV.
    MultiReceive,
    /// FI_ATOMIC.
    AtomicOperations,
    /// Memory registration mode.
    MemoryRegistration,
    /// Manual progress model.
    ManualProgress,
    /// Automatic progress model.
    AutoProgress,
    /// Wait objects.
    WaitObjects,
    /// Completion events.
    CompletionEvents,
    /// Resource management.
    ResourceManagement,
    /// Scalable endpoints.
    ScalableEndpoints,
    /// Triggered operations.
    TriggerOperations,
}

impl Feature {
    /// All features in the order Table 3 lists them.
    pub fn all() -> &'static [Feature] {
        &[
            Feature::Message,
            Feature::ReliableDatagram,
            Feature::Datagram,
            Feature::TaggedMessage,
            Feature::DirectedReceive,
            Feature::MultiReceive,
            Feature::AtomicOperations,
            Feature::MemoryRegistration,
            Feature::ManualProgress,
            Feature::AutoProgress,
            Feature::WaitObjects,
            Feature::CompletionEvents,
            Feature::ResourceManagement,
            Feature::ScalableEndpoints,
            Feature::TriggerOperations,
        ]
    }

    /// Human-readable label matching Table 3.
    pub fn label(&self) -> &'static str {
        match self {
            Feature::Message => "Message",
            Feature::ReliableDatagram => "Reliable Datagram",
            Feature::Datagram => "Datagram",
            Feature::TaggedMessage => "Tagged Message",
            Feature::DirectedReceive => "Directed Receive",
            Feature::MultiReceive => "Multi Receive",
            Feature::AtomicOperations => "Atomic Operations",
            Feature::MemoryRegistration => "Memory Registration",
            Feature::ManualProgress => "Manual Progress",
            Feature::AutoProgress => "Auto Progress",
            Feature::WaitObjects => "Wait Objects",
            Feature::CompletionEvents => "Completion Events",
            Feature::ResourceManagement => "Resource Management",
            Feature::ScalableEndpoints => "Scalable Endpoints",
            Feature::TriggerOperations => "Trigger Operations",
        }
    }
}

/// Support level in the capability matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Support {
    /// Fully supported (✔).
    Full,
    /// Partially supported (P).
    Partial,
    /// Not supported (✘).
    None,
    /// Not applicable (N/A).
    NotApplicable,
    /// Unknown (?).
    Unknown,
    /// String-valued cells of the Memory Registration row.
    Mode(&'static str),
}

impl Support {
    /// Symbol used when rendering the table.
    pub fn symbol(&self) -> String {
        match self {
            Support::Full => "Y".to_string(),
            Support::Partial => "P".to_string(),
            Support::None => "N".to_string(),
            Support::NotApplicable => "N/A".to_string(),
            Support::Unknown => "?".to_string(),
            Support::Mode(m) => (*m).to_string(),
        }
    }

    /// Whether the feature can be used at all.
    pub fn usable(&self) -> bool {
        matches!(self, Support::Full | Support::Partial | Support::Mode(_))
    }
}

/// The libfabric 2.0 capability matrix of Table 3.
pub fn capability_matrix() -> BTreeMap<Provider, BTreeMap<Feature, Support>> {
    use Feature as F;
    use Support as S;
    let rows: &[(F, [S; 5])] = &[
        // (feature, [tcp, verbs, cxi, efa, opx])
        (F::Message, [S::Full, S::Full, S::None, S::None, S::None]),
        (
            F::ReliableDatagram,
            [S::Full, S::Partial, S::Full, S::Full, S::Full],
        ),
        (
            F::Datagram,
            [S::None, S::Full, S::None, S::Partial, S::None],
        ),
        (
            F::TaggedMessage,
            [S::Full, S::Partial, S::Full, S::Full, S::Full],
        ),
        (
            F::DirectedReceive,
            [S::Full, S::None, S::Full, S::Full, S::Full],
        ),
        (
            F::MultiReceive,
            [S::Full, S::None, S::Full, S::Full, S::Full],
        ),
        (
            F::AtomicOperations,
            [S::None, S::Partial, S::Full, S::Partial, S::Full],
        ),
        (
            F::MemoryRegistration,
            [
                S::NotApplicable,
                S::Mode("Basic"),
                S::Mode("Scalable"),
                S::Mode("Local"),
                S::Mode("Scalable"),
            ],
        ),
        (
            F::ManualProgress,
            [S::None, S::None, S::Full, S::Full, S::Full],
        ),
        (
            F::AutoProgress,
            [S::Full, S::Full, S::None, S::None, S::Partial],
        ),
        (
            F::WaitObjects,
            [S::Full, S::Partial, S::Full, S::None, S::Unknown],
        ),
        (
            F::CompletionEvents,
            [S::Full, S::None, S::Full, S::None, S::None],
        ),
        (
            F::ResourceManagement,
            [S::Full, S::Partial, S::Full, S::Partial, S::Full],
        ),
        (
            F::ScalableEndpoints,
            [S::None, S::None, S::None, S::None, S::Full],
        ),
        (
            F::TriggerOperations,
            [S::None, S::None, S::Full, S::None, S::None],
        ),
    ];
    let providers = [
        Provider::Tcp,
        Provider::Verbs,
        Provider::Cxi,
        Provider::Efa,
        Provider::Opx,
    ];
    let mut matrix: BTreeMap<Provider, BTreeMap<Feature, Support>> = BTreeMap::new();
    for (pi, provider) in providers.iter().enumerate() {
        let mut row = BTreeMap::new();
        for (feature, values) in rows {
            row.insert(*feature, values[pi]);
        }
        matrix.insert(*provider, row);
    }
    matrix
}

/// Count how many features two providers disagree on — the quantitative form of the
/// paper's claim that "implementations must still specialize to the hardware".
#[cfg(test)]
pub(crate) fn feature_divergence(a: Provider, b: Provider) -> usize {
    let matrix = capability_matrix();
    let (Some(ra), Some(rb)) = (matrix.get(&a), matrix.get(&b)) else {
        return 0;
    };
    Feature::all()
        .iter()
        .filter(|f| ra.get(f).map(Support::usable) != rb.get(f).map(Support::usable))
        .count()
}

/// MPI implementations considered by the bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiFlavor {
    /// Vendor MPI on bare metal (Cray MPICH).
    CrayMpich,
    /// MPICH built inside the container.
    ContainerMpich,
    /// Open MPI built inside the container.
    ContainerOpenMpi,
}

/// Paths intra-node traffic can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IntraNodePath {
    /// Shared-memory transport (xpmem/CMA): the bare-metal fast path.
    SharedMemory,
    /// NIC loopback through the cxi provider: what containerized MPI falls back to.
    NicLoopback,
    /// LinkX provider combining shm + cxi.
    LinkX,
}

/// Intra-node bandwidth configuration on a Clariden-like GH200 node (Section 6.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Peak shared-memory bandwidth in GB/s (same socket).
    pub shm_peak_gbs: f64,
    /// Peak NIC-loopback bandwidth in GB/s.
    pub nic_loopback_peak_gbs: f64,
    /// Latency floor in microseconds for small messages via shm.
    pub shm_latency_us: f64,
    /// Latency floor in microseconds via the NIC.
    pub nic_latency_us: f64,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        // Calibrated against Section 6.5: bare-metal Cray-MPICH reaches ~64 GB/s on the
        // same socket; co-located containers via cxi reach ~23.5 GB/s; LinkX restores
        // 64 (MPICH) to 70 (OpenMPI) GB/s.
        Self {
            shm_peak_gbs: 64.0,
            nic_loopback_peak_gbs: 23.5,
            shm_latency_us: 0.35,
            nic_latency_us: 1.8,
        }
    }
}

impl BandwidthModel {
    /// The transport path used for intra-node, co-located ranks.
    pub(crate) fn intra_node_path(
        flavor: MpiFlavor,
        containerized: bool,
        linkx_enabled: bool,
    ) -> IntraNodePath {
        if !containerized {
            return IntraNodePath::SharedMemory;
        }
        if linkx_enabled {
            IntraNodePath::LinkX
        } else {
            // Containerized MPI accesses Slingshot via the cxi libfabric replacement, but the
            // shared-memory path is implemented separately and is not available (Sec. 6.5).
            let _ = flavor;
            IntraNodePath::NicLoopback
        }
    }

    /// Peak intra-node bandwidth for a configuration, in GB/s.
    pub fn peak_bandwidth(
        &self,
        flavor: MpiFlavor,
        containerized: bool,
        linkx_enabled: bool,
    ) -> f64 {
        match Self::intra_node_path(flavor, containerized, linkx_enabled) {
            IntraNodePath::SharedMemory => self.shm_peak_gbs,
            IntraNodePath::NicLoopback => self.nic_loopback_peak_gbs,
            IntraNodePath::LinkX => match flavor {
                // LinkX is slightly more efficient under Open MPI in the paper's measurement.
                MpiFlavor::ContainerOpenMpi => self.shm_peak_gbs * 1.09,
                _ => self.shm_peak_gbs,
            },
        }
    }

    /// Achievable bandwidth (GB/s) for a given message size, using a latency-bandwidth
    /// (Hockney) model: T = latency + bytes / peak.
    pub fn bandwidth_at(
        &self,
        flavor: MpiFlavor,
        containerized: bool,
        linkx: bool,
        message_bytes: u64,
    ) -> f64 {
        let peak = self.peak_bandwidth(flavor, containerized, linkx);
        let latency_s = match Self::intra_node_path(flavor, containerized, linkx) {
            IntraNodePath::SharedMemory | IntraNodePath::LinkX => self.shm_latency_us * 1e-6,
            IntraNodePath::NicLoopback => self.nic_latency_us * 1e-6,
        };
        let bytes = message_bytes as f64;
        let time = latency_s + bytes / (peak * 1e9);
        bytes / time / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_all_providers_and_features() {
        let matrix = capability_matrix();
        assert_eq!(matrix.len(), 5);
        for row in matrix.values() {
            assert_eq!(row.len(), Feature::all().len());
        }
    }

    #[test]
    fn table3_spot_checks() {
        let matrix = capability_matrix();
        // cxi does not support plain FI_MSG but supports tagged messages and triggered ops.
        assert_eq!(matrix[&Provider::Cxi][&Feature::Message], Support::None);
        assert_eq!(
            matrix[&Provider::Cxi][&Feature::TaggedMessage],
            Support::Full
        );
        assert_eq!(
            matrix[&Provider::Cxi][&Feature::TriggerOperations],
            Support::Full
        );
        // Only opx exposes scalable endpoints.
        let scalable: Vec<_> = matrix
            .iter()
            .filter(|(_, row)| row[&Feature::ScalableEndpoints] == Support::Full)
            .map(|(p, _)| *p)
            .collect();
        assert_eq!(scalable, vec![Provider::Opx]);
        // tcp uses auto progress, cxi manual progress.
        assert_eq!(
            matrix[&Provider::Tcp][&Feature::AutoProgress],
            Support::Full
        );
        assert_eq!(
            matrix[&Provider::Cxi][&Feature::ManualProgress],
            Support::Full
        );
        // Memory registration cells carry modes.
        assert_eq!(
            matrix[&Provider::Cxi][&Feature::MemoryRegistration],
            Support::Mode("Scalable")
        );
    }

    #[test]
    fn providers_genuinely_diverge() {
        // The paper's point: despite a portable API the providers differ substantially.
        assert!(feature_divergence(Provider::Tcp, Provider::Cxi) >= 5);
        assert!(feature_divergence(Provider::Verbs, Provider::Opx) >= 4);
        assert_eq!(feature_divergence(Provider::Cxi, Provider::Cxi), 0);
    }

    #[test]
    fn bare_metal_uses_shared_memory_containers_fall_back_to_nic() {
        assert_eq!(
            BandwidthModel::intra_node_path(MpiFlavor::CrayMpich, false, false),
            IntraNodePath::SharedMemory
        );
        assert_eq!(
            BandwidthModel::intra_node_path(MpiFlavor::ContainerOpenMpi, true, false),
            IntraNodePath::NicLoopback
        );
        assert_eq!(
            BandwidthModel::intra_node_path(MpiFlavor::ContainerMpich, true, true),
            IntraNodePath::LinkX
        );
    }

    #[test]
    fn section_6_5_bandwidth_relationships_hold() {
        let model = BandwidthModel::default();
        let bare = model.peak_bandwidth(MpiFlavor::CrayMpich, false, false);
        let container = model.peak_bandwidth(MpiFlavor::ContainerOpenMpi, true, false);
        let linkx_mpich = model.peak_bandwidth(MpiFlavor::ContainerMpich, true, true);
        let linkx_ompi = model.peak_bandwidth(MpiFlavor::ContainerOpenMpi, true, true);
        assert!((bare - 64.0).abs() < 1e-9);
        assert!((container - 23.5).abs() < 1e-9);
        assert!(
            bare / container > 2.5,
            "containers lose >2.5x intra-node bandwidth"
        );
        assert!(
            linkx_mpich >= 63.0 && linkx_ompi >= 68.0,
            "LinkX restores bandwidth"
        );
    }

    #[test]
    fn bandwidth_curve_is_monotonic_in_message_size_and_below_peak() {
        let model = BandwidthModel::default();
        let sizes = [1u64 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30];
        let mut last = 0.0;
        for &size in &sizes {
            let bw = model.bandwidth_at(MpiFlavor::CrayMpich, false, false, size);
            assert!(bw >= last, "bandwidth should grow with message size");
            assert!(bw <= model.shm_peak_gbs + 1e-9);
            last = bw;
        }
        // Large messages approach peak.
        assert!(last > 0.95 * model.shm_peak_gbs);
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let model = BandwidthModel::default();
        let shm = model.bandwidth_at(MpiFlavor::CrayMpich, false, false, 256);
        let nic = model.bandwidth_at(MpiFlavor::ContainerMpich, true, false, 256);
        assert!(shm < 2.0, "256-byte messages are nowhere near peak: {shm}");
        assert!(nic < shm, "NIC path has higher latency than shm");
    }
}
