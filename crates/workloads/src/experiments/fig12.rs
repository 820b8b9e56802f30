//! Figure 12: remote storage access latency, broken down into software,
//! storage, data transfer and network components, for the four access
//! paths (ISP-F, H-F, H-RH-F, H-D).
//!
//! Paper observations to reproduce: network latency is insignificant in
//! all four cases; transfer latency is similar everywhere but slightly
//! lower from DRAM; ISP-F avoids the PCIe + host-software overhead
//! entirely, and comparing ISP-F to H-RH-F shows the integrated network
//! overlapping storage and network access.

use bluedbm_core::paths::{measure_path, AccessPath, LatencyBreakdown};
use bluedbm_core::{Cluster, NodeId, SystemConfig};
use serde::Serialize;

/// One bar of the figure.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub(crate) struct Fig12Row {
    /// Paper label of the access path.
    pub(crate) path: &'static str,
    /// Host software component (µs).
    pub(crate) software_us: f64,
    /// Storage access component (µs).
    pub(crate) storage_us: f64,
    /// Data transfer component (µs).
    pub(crate) transfer_us: f64,
    /// Network propagation component (µs).
    pub(crate) network_us: f64,
    /// End-to-end (µs).
    pub(crate) total_us: f64,
}

impl Fig12Row {
    fn from(path: AccessPath, b: LatencyBreakdown) -> Self {
        Fig12Row {
            path: path.label(),
            software_us: b.software.as_us_f64(),
            storage_us: b.storage.as_us_f64(),
            transfer_us: b.transfer.as_us_f64(),
            network_us: b.network.as_us_f64(),
            total_us: b.total().as_us_f64(),
        }
    }
}

/// The full figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig12 {
    /// One row per access path, in the paper's order.
    pub(crate) rows: Vec<Fig12Row>,
}

/// Run the experiment: an 8 KiB page on node 1, read from node 0 (one
/// network hop) over each path.
pub fn run() -> Fig12 {
    let config = SystemConfig::paper();
    let mut cluster = Cluster::ring(4, &config).expect("cluster builds");
    let page = vec![0xA5u8; config.flash.geometry.page_bytes];
    let addr = cluster
        .preload_page(NodeId(1), &page)
        .expect("preload fits");
    cluster.load_dram(NodeId(1), 1, &page);

    let rows = AccessPath::ALL
        .iter()
        .map(|&path| {
            let b = measure_path(&mut cluster, NodeId(0), addr, 1, path).expect("path runs");
            Fig12Row::from(path, b)
        })
        .collect();
    Fig12 { rows }
}

impl Fig12 {
    /// Render the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.path.to_string(),
                    format!("{:.1}", r.software_us),
                    format!("{:.1}", r.storage_us),
                    format!("{:.1}", r.transfer_us),
                    format!("{:.2}", r.network_us),
                    format!("{:.1}", r.total_us),
                ]
            })
            .collect();
        crate::report::render_table(
            &[
                "access type",
                "software (us)",
                "storage (us)",
                "transfer (us)",
                "network (us)",
                "total (us)",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(fig: &'a Fig12, path: &str) -> &'a Fig12Row {
        fig.rows.iter().find(|r| r.path == path).expect("row exists")
    }

    #[test]
    fn figure12_shape() {
        let fig = run();
        let ispf = row(&fig, "ISP-F");
        let hf = row(&fig, "H-F");
        let hrhf = row(&fig, "H-RH-F");
        let hd = row(&fig, "H-D");

        // Ordering: ISP-F < H-D < H-F < H-RH-F (Figure 12's bar heights;
        // this figure measures *last-byte* latency of a full 8 KiB page,
        // so the flash paths carry a ~55us NAND bus serialization the
        // DRAM path does not).
        assert!(ispf.total_us < hd.total_us + 1.0);
        assert!(hd.total_us < hf.total_us);
        assert!(hf.total_us < hrhf.total_us);

        // ISP-F has no software cost; H-RH-F pays it twice.
        assert_eq!(ispf.software_us, 0.0);
        assert!((hrhf.software_us - 2.0 * hf.software_us).abs() < 1e-9);

        // Network is insignificant everywhere (paper's first remark).
        for r in &fig.rows {
            assert!(r.network_us * 10.0 < r.total_us, "{}: network", r.path);
        }

        // Transfer is similar across paths, slightly lower for DRAM.
        assert!(hd.transfer_us <= hf.transfer_us);

        // Storage is the 50us flash read except H-D (DRAM).
        assert!(ispf.storage_us >= 50.0);
        assert!(hd.storage_us < 1.0);

        // ISP-F total ~ tR (50us) + 8 KiB NAND bus transfer (~55us) +
        // wire time + hops: low-100s of us.
        assert!(ispf.total_us > 100.0 && ispf.total_us < 135.0, "{}", ispf.total_us);
        // H-RH-F lands in the paper's few-hundred-us regime (its chart
        // tops out at 350us).
        assert!(hrhf.total_us > 250.0 && hrhf.total_us < 350.0, "{}", hrhf.total_us);
    }

    #[test]
    fn renders_all_paths() {
        let s = run().render();
        for p in ["ISP-F", "H-F", "H-RH-F", "H-D"] {
            assert!(s.contains(p), "{p} missing from:\n{s}");
        }
    }
}
