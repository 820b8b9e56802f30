//! Figure 21: string search bandwidth and host-CPU utilization.
//!
//! Paper: in-store Morris-Pratt engines process 1.1 GB/s (92% of one
//! flash board's sequential bandwidth) with almost no host CPU, because
//! only match locations (~0.01% of the file) return to the server.
//! Software grep is I/O-bound: ~600 MB/s at 65% CPU on the SSD, and
//! 7.5x slower than the in-store search at 13% CPU on disk.

use bluedbm_core::baselines::{
    isp_scan_cpu_utilization, scan_cpu_utilization, sw_scan_bandwidth, Secondary,
};
use bluedbm_core::node::Consume;
use bluedbm_core::{Cluster, NodeId, SystemConfig};
use bluedbm_isp::mp::MpMatcher;
use bluedbm_isp::Accelerator;
use serde::Serialize;

/// One bar pair of the figure.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub(crate) struct Fig21Row {
    /// Search method label.
    pub(crate) method: &'static str,
    /// Search bandwidth (MB/s).
    pub(crate) bandwidth_mb: f64,
    /// Host CPU utilization (%).
    pub(crate) cpu_percent: f64,
}

/// The full figure, plus the functional search that grounded it.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig21 {
    /// One row per search method, in the paper's order.
    pub(crate) rows: Vec<Fig21Row>,
    /// Needles planted in the generated corpus.
    pub planted: usize,
    /// Matches the in-store MP engines actually found.
    pub found: usize,
    /// Result bytes returned to the host, as a fraction of bytes scanned.
    pub(crate) result_fraction: f64,
}

/// Run the experiment.
pub fn run() -> Fig21 {
    let config = SystemConfig::paper();

    // Functional grounding: build a corpus on flash pages, stream it
    // through the MP engine, verify every planted needle is found.
    let page_bytes = config.flash.geometry.page_bytes;
    let corpus = crate::datagen::corpus_with_needles(512 * page_bytes, b"BlueDBM-needle", 40, 5);
    let mut engine = MpMatcher::new(&corpus.needle).expect("non-empty needle");
    for (i, chunk) in corpus.text.chunks(page_bytes).enumerate() {
        engine.consume(i as u64, chunk);
    }
    let found = engine.matches().len();
    let result_fraction = engine.result_bytes() as f64 / corpus.text.len() as f64;

    // DES bandwidth of one flash board streaming into the ISP.
    let mut cluster = Cluster::line(2, 1, &config).expect("cluster");
    let mut card0 = Vec::new();
    for i in 0..1200usize {
        let data = vec![i as u8; page_bytes];
        let addr = cluster.preload_page(NodeId(0), &data).expect("preload");
        if addr.card == 0 {
            card0.push(addr); // the paper's search runs on one board
        }
    }
    let done = cluster.stream_reads(NodeId(0), &card0, Consume::Isp);
    let last = done
        .iter()
        .map(|c| c.end)
        .max()
        .expect("completions exist");
    let isp_bw = (card0.len() * page_bytes) as f64 / last.as_secs_f64();

    let ssd_bw = sw_scan_bandwidth(&config, Secondary::Ssd);
    let hdd_bw = sw_scan_bandwidth(&config, Secondary::Disk);
    let rows = vec![
        Fig21Row {
            method: "Flash/ISP",
            bandwidth_mb: isp_bw / 1e6,
            cpu_percent: isp_scan_cpu_utilization(&config, isp_bw),
        },
        Fig21Row {
            method: "Flash/SW Grep",
            bandwidth_mb: ssd_bw / 1e6,
            cpu_percent: scan_cpu_utilization(&config, ssd_bw),
        },
        Fig21Row {
            method: "HDD/SW Grep",
            bandwidth_mb: hdd_bw / 1e6,
            cpu_percent: scan_cpu_utilization(&config, hdd_bw),
        },
    ];
    Fig21 {
        rows,
        planted: corpus.planted.len(),
        found,
        result_fraction,
    }
}

impl Fig21 {
    /// Render the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.method.to_string(),
                    format!("{:.0}", r.bandwidth_mb),
                    format!("{:.1}", r.cpu_percent),
                ]
            })
            .collect();
        let mut out = crate::report::render_table(
            &["search method", "bandwidth (MB/s)", "CPU utilization (%)"],
            &rows,
        );
        out.push_str(&format!(
            "\nMP verification: {}/{} planted needles found; result traffic {:.5}% of scanned bytes\n",
            self.found,
            self.planted,
            self.result_fraction * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(fig: &'a Fig21, m: &str) -> &'a Fig21Row {
        fig.rows.iter().find(|r| r.method == m).expect("row")
    }

    #[test]
    fn figure21_shape() {
        let fig = run();
        let isp = row(&fig, "Flash/ISP");
        let ssd = row(&fig, "Flash/SW Grep");
        let hdd = row(&fig, "HDD/SW Grep");

        // In-store search runs at one board's bandwidth (paper: 1.1 GB/s;
        // our lossless model gives the full 1.2).
        assert!(
            isp.bandwidth_mb > 1_050.0 && isp.bandwidth_mb < 1_250.0,
            "{}",
            isp.bandwidth_mb
        );
        // Near-zero host CPU for the in-store path.
        assert!(isp.cpu_percent < 2.0);

        // Software arms: the paper's two calibration points.
        assert!((ssd.bandwidth_mb - 600.0).abs() < 1.0);
        assert!((ssd.cpu_percent - 65.0).abs() < 1.5);
        assert!((hdd.cpu_percent - 13.0).abs() < 1.5);

        // 7.5x over disk grep.
        let factor = isp.bandwidth_mb / hdd.bandwidth_mb;
        assert!(factor > 7.0 && factor < 8.6, "{factor}");
    }

    #[test]
    fn mp_engines_found_every_needle_with_tiny_result_traffic() {
        let fig = run();
        assert_eq!(fig.found, fig.planted);
        assert!(fig.result_fraction < 0.0002, "{}", fig.result_fraction);
    }
}
