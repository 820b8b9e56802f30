//! The four remote-access paths of Figure 12, with latency breakdowns.
//!
//! * **ISP-F** — in-store processor reads remote flash over the
//!   integrated network. No host software anywhere on the path.
//! * **H-F** — host software reads remote flash over the integrated
//!   network: adds the local software overhead and the PCIe crossing.
//! * **H-RH-F** — host software asks the *remote host* to read its
//!   flash: pays software overhead on both ends ("the request is
//!   processed by the remote server, instead of the remote in-store
//!   processor").
//! * **H-D** — host software reads the remote node's DRAM buffer: the
//!   50 µs flash access is replaced by a DRAM access.
//!
//! The storage, transfer and network terms come out of the DES; the host
//! software overhead is the calibrated [`crate::config::HostModel`]
//! constant, applied per traversal of a host software stack (the paper
//! measured it as the "Software" bar of Figure 12).

use bluedbm_net::topology::NodeId;
use bluedbm_sim::time::SimTime;

use crate::cluster::{Cluster, ClusterError, GlobalPageAddr, PageOp};
use crate::node::Consume;

/// Which Figure 12 experiment to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessPath {
    /// In-store processor to remote flash.
    IspF,
    /// Host to remote flash (integrated network).
    HF,
    /// Host to remote host to flash.
    HRhF,
    /// Host to remote DRAM.
    HD,
}

impl AccessPath {
    /// All four paths in the paper's presentation order.
    pub const ALL: [AccessPath; 4] = [
        AccessPath::IspF,
        AccessPath::HF,
        AccessPath::HRhF,
        AccessPath::HD,
    ];

    /// The paper's label for this path.
    pub fn label(self) -> &'static str {
        match self {
            AccessPath::IspF => "ISP-F",
            AccessPath::HF => "H-F",
            AccessPath::HRhF => "H-RH-F",
            AccessPath::HD => "H-D",
        }
    }

    /// Host software stacks traversed.
    fn software_layers(self) -> u64 {
        match self {
            AccessPath::IspF => 0,
            AccessPath::HF | AccessPath::HD => 1,
            AccessPath::HRhF => 2,
        }
    }
}

/// The four stacked components of Figure 12.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Host software overhead (driver, syscalls, request handling).
    pub software: SimTime,
    /// Storage access: command accept to first byte out of the medium.
    pub storage: SimTime,
    /// Data transfer: medium to destination buffer (bus, wire serialization,
    /// PCIe).
    pub transfer: SimTime,
    /// Network propagation (hop latency both ways).
    pub network: SimTime,
}

impl LatencyBreakdown {
    /// End-to-end latency.
    pub fn total(&self) -> SimTime {
        self.software + self.storage + self.transfer + self.network
    }
}

/// Run one Figure 12 measurement: `reader` fetches `addr` (which should
/// live on a *different* node for the remote paths) via `path`. For
/// [`AccessPath::HD`], the page must also have been staged with
/// [`Cluster::load_dram`] on `addr.node` under `dram_key`.
///
/// # Errors
///
/// Flash/DRAM failures from the underlying operations.
pub fn measure_path(
    cluster: &mut Cluster,
    reader: NodeId,
    addr: GlobalPageAddr,
    dram_key: u64,
    path: AccessPath,
) -> Result<LatencyBreakdown, ClusterError> {
    let config = *cluster.config();
    let consume = match path {
        AccessPath::IspF => Consume::Isp,
        _ => Consume::Host,
    };
    let op = match path {
        AccessPath::HD => PageOp::ReadDram { home: addr.node, key: dram_key, consume },
        _ => PageOp::Read { addr, consume },
    };
    let measured = cluster.run_one(reader, op)?;

    // Decompose the DES total using the model's own constants: the
    // request hop + response hop network propagation, and the storage
    // access time, are known; everything else the DES added is transfer
    // (bus serialization, wire time, queueing, PCIe).
    let hops = u64::from(cluster.hops(reader, addr.node)?);
    let network = config.net.hop_latency * (2 * hops);
    let storage = match path {
        AccessPath::HD => config.host.dram_latency,
        _ => config.flash.timing.read_cell + config.flash.timing.command_overhead,
    };
    let transfer = (measured.end - measured.start)
        .saturating_sub(network)
        .saturating_sub(storage);
    let software = config.host.sw_overhead * path.software_layers();
    Ok(LatencyBreakdown {
        software,
        storage,
        transfer,
        network,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn world() -> (Cluster, GlobalPageAddr) {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(4, &config).unwrap();
        let page = vec![0x5Au8; config.flash.geometry.page_bytes];
        let addr = cluster.preload_page(NodeId(1), &page).unwrap();
        cluster.load_dram(NodeId(1), 7, &page).unwrap();
        (cluster, addr)
    }

    #[test]
    fn figure12_ordering_holds() {
        let (mut cluster, addr) = world();
        let mut totals = Vec::new();
        for path in AccessPath::ALL {
            let b = measure_path(&mut cluster, NodeId(0), addr, 7, path).unwrap();
            totals.push((path, b.total()));
        }
        let get = |p: AccessPath| totals.iter().find(|(q, _)| *q == p).unwrap().1;
        // ISP-F is the fastest; H-RH-F the slowest flash path; H-D beats
        // H-F because DRAM replaces the 50us flash read.
        assert!(get(AccessPath::IspF) < get(AccessPath::HF));
        assert!(get(AccessPath::HF) < get(AccessPath::HRhF));
        assert!(get(AccessPath::HD) < get(AccessPath::HF));
        // And the network component is insignificant everywhere (paper:
        // "in all 4 cases, the network latency is insignificant").
        for path in AccessPath::ALL {
            let b = measure_path(&mut cluster, NodeId(0), addr, 7, path).unwrap();
            assert!(
                b.network.as_ps() * 10 < b.total().as_ps(),
                "{}: network {} of {}",
                path.label(),
                b.network,
                b.total()
            );
        }
    }

    #[test]
    fn isp_f_has_no_software_term() {
        let (mut cluster, addr) = world();
        let b = measure_path(&mut cluster, NodeId(0), addr, 7, AccessPath::IspF).unwrap();
        assert_eq!(b.software, SimTime::ZERO);
        assert!(b.storage >= SimTime::us(50));
    }

    #[test]
    fn hrhf_pays_double_software() {
        let (mut cluster, addr) = world();
        let hf = measure_path(&mut cluster, NodeId(0), addr, 7, AccessPath::HF).unwrap();
        let hrhf = measure_path(&mut cluster, NodeId(0), addr, 7, AccessPath::HRhF).unwrap();
        assert_eq!(hrhf.software, hf.software * 2);
    }

    #[test]
    fn labels_are_the_papers() {
        let labels: Vec<&str> = AccessPath::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["ISP-F", "H-F", "H-RH-F", "H-D"]);
    }
}
