//! Figure 13: storage read bandwidth under four access scenarios.
//!
//! Paper results: Host-Local 1.6 GB/s (PCIe-capped), ISP-Local 2.4 GB/s
//! (both cards busy), ISP-2Nodes 3.4 GB/s (remote half limited by the
//! single serial link), ISP-3Nodes 6.5 GB/s (two remotes behind two
//! lanes each).

use bluedbm_core::node::Consume;
use bluedbm_core::{Cluster, GlobalPageAddr, NodeId, PageOp, SystemConfig};
use bluedbm_net::topology::Topology;
use serde::Serialize;

/// One bar of the figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig13Row {
    /// Scenario label (paper's x axis).
    pub scenario: &'static str,
    /// Aggregate sustained read bandwidth (GB/s): the sum of each
    /// stream's steady-state rate, as the paper measures continuous
    /// streams.
    pub bandwidth_gb: f64,
    /// Per-source-node steady-state rates (GB/s).
    pub(crate) per_class_gb: Vec<f64>,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig13 {
    /// One row per scenario, in the paper's order.
    pub rows: Vec<Fig13Row>,
}

/// Pages per participating node. Large enough for steady state, small
/// enough to run in seconds of wall clock.
const PAGES_PER_NODE: usize = 900;

fn preload(cluster: &mut Cluster, node: NodeId, count: usize) -> Vec<GlobalPageAddr> {
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    (0..count)
        .map(|i| {
            let data = vec![i as u8; page_bytes];
            cluster.preload_page(node, &data).expect("preload fits")
        })
        .collect()
}

/// Interleave several address lists round-robin (the paper's mixed
/// random request stream).
fn interleave(lists: Vec<Vec<GlobalPageAddr>>) -> Vec<GlobalPageAddr> {
    let mut out = Vec::new();
    let len = lists.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..len {
        for l in &lists {
            if let Some(&a) = l.get(i) {
                out.push(a);
            }
        }
    }
    out
}

fn measure(cluster: &mut Cluster, addrs: &[GlobalPageAddr], consume: Consume) -> Vec<f64> {
    let page_bytes = cluster.config().flash.geometry.page_bytes as u64;
    for &addr in addrs {
        cluster.submit(NodeId(0), PageOp::Read { addr, consume });
    }
    let done = cluster.drive();
    assert_eq!(done.len(), addrs.len(), "every read must complete");
    // Steady-state rate per source node: bytes / last completion time.
    let mut per_node: std::collections::BTreeMap<u16, (u64, f64)> = Default::default();
    for c in &done {
        let node = c.addr.expect("reads carry addresses").node.0;
        let e = per_node.entry(node).or_insert((0, 0.0));
        e.0 += page_bytes;
        e.1 = e.1.max(c.end.as_secs_f64());
    }
    per_node
        .values()
        .map(|&(bytes, last)| bytes as f64 / last)
        .collect()
}

/// Run all four scenarios.
pub fn run() -> Fig13 {
    let config = SystemConfig::paper();
    let mut rows = Vec::new();

    // Host-Local: all local, consumed by host software over PCIe.
    {
        let mut cluster = Cluster::line(2, 1, &config).expect("cluster");
        let addrs = preload(&mut cluster, NodeId(0), 2 * PAGES_PER_NODE);
        let rates = measure(&mut cluster, &addrs, Consume::Host);
        rows.push(Fig13Row {
            scenario: "Host-Local",
            bandwidth_gb: rates.iter().sum::<f64>() / 1e9,
            per_class_gb: rates.iter().map(|r| r / 1e9).collect(),
        });
    }

    // ISP-Local: all local, consumed at the in-store processor.
    {
        let mut cluster = Cluster::line(2, 1, &config).expect("cluster");
        let addrs = preload(&mut cluster, NodeId(0), 2 * PAGES_PER_NODE);
        let rates = measure(&mut cluster, &addrs, Consume::Isp);
        rows.push(Fig13Row {
            scenario: "ISP-Local",
            bandwidth_gb: rates.iter().sum::<f64>() / 1e9,
            per_class_gb: rates.iter().map(|r| r / 1e9).collect(),
        });
    }

    // ISP-2Nodes: 50% local, 50% over ONE serial link.
    {
        let mut cluster = Cluster::line(2, 1, &config).expect("cluster");
        let local = preload(&mut cluster, NodeId(0), PAGES_PER_NODE);
        let remote = preload(&mut cluster, NodeId(1), PAGES_PER_NODE);
        let addrs = interleave(vec![local, remote]);
        let rates = measure(&mut cluster, &addrs, Consume::Isp);
        rows.push(Fig13Row {
            scenario: "ISP-2Nodes",
            bandwidth_gb: rates.iter().sum::<f64>() / 1e9,
            per_class_gb: rates.iter().map(|r| r / 1e9).collect(),
        });
    }

    // ISP-3Nodes: 1/3 local, 1/3 each to two remotes with TWO lanes each.
    {
        let topo = Topology::from_edges(3, &[(0, 1, 2), (0, 2, 2)]);
        let mut cluster = Cluster::new(topo, &config).expect("cluster");
        let local = preload(&mut cluster, NodeId(0), PAGES_PER_NODE);
        let r1 = preload(&mut cluster, NodeId(1), PAGES_PER_NODE);
        let r2 = preload(&mut cluster, NodeId(2), PAGES_PER_NODE);
        let addrs = interleave(vec![local, r1, r2]);
        let rates = measure(&mut cluster, &addrs, Consume::Isp);
        rows.push(Fig13Row {
            scenario: "ISP-3Nodes",
            bandwidth_gb: rates.iter().sum::<f64>() / 1e9,
            per_class_gb: rates.iter().map(|r| r / 1e9).collect(),
        });
    }

    Fig13 { rows }
}

impl Fig13 {
    /// Render the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.to_string(),
                    format!("{:.2}", r.bandwidth_gb),
                    r.per_class_gb
                        .iter()
                        .map(|g| format!("{g:.2}"))
                        .collect::<Vec<_>>()
                        .join(" + "),
                ]
            })
            .collect();
        crate::report::render_table(
            &["access type", "throughput (GB/s)", "per-source (GB/s)"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure13_shape() {
        let fig = run();
        let get = |name: &str| {
            fig.rows
                .iter()
                .find(|r| r.scenario == name)
                .expect("scenario exists")
                .bandwidth_gb
        };
        let host_local = get("Host-Local");
        let isp_local = get("ISP-Local");
        let two = get("ISP-2Nodes");
        let three = get("ISP-3Nodes");

        // Paper values: 1.6 / 2.4 / 3.4 / 6.5 GB/s.
        assert!((host_local - 1.6).abs() < 0.12, "Host-Local {host_local}");
        assert!((isp_local - 2.4).abs() < 0.15, "ISP-Local {isp_local}");
        assert!((two - 3.4).abs() < 0.25, "ISP-2Nodes {two}");
        assert!((three - 6.5).abs() < 0.45, "ISP-3Nodes {three}");

        // Orderings the paper calls out.
        assert!(isp_local > host_local, "PCIe caps the host path");
        assert!(two > isp_local, "remote flash adds bandwidth");
        assert!(three > two, "more remotes, more lanes, more bandwidth");
    }

    #[test]
    fn renders_all_scenarios() {
        let s = run().render();
        for sc in ["Host-Local", "ISP-Local", "ISP-2Nodes", "ISP-3Nodes"] {
            assert!(s.contains(sc));
        }
    }
}
