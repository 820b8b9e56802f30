//! Figure 18: nearest neighbor on an off-the-shelf SSD vs throttled
//! BlueDBM.
//!
//! Paper: random accesses on the commodity SSD "performance is poor as
//! compared to even throttled BlueDBM. However, when we artificially
//! arranged the data accesses to be sequential, the performance improved
//! dramatically, sometimes matching throttled BlueDBM" — i.e. the
//! off-the-shelf device is optimized for sequential access, while
//! BlueDBM's raw parallel interface does not care.

use bluedbm_core::baselines::{
    isp_nn_rate_throttled, ssd_random_nn_rate, ssd_sequential_nn_rate,
};
use bluedbm_core::SystemConfig;
use serde::Serialize;

/// One x-position of the figure.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub(crate) struct Fig18Row {
    /// Host threads.
    pub(crate) threads: usize,
    /// Throttled BlueDBM in-store (the fairness baseline).
    pub(crate) isp: f64,
    /// Off-the-shelf SSD, accesses arranged sequential.
    pub(crate) seq_flash: f64,
    /// Off-the-shelf SSD, natural random accesses.
    pub(crate) full_flash: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig18 {
    /// One row per thread count 1..=8.
    pub(crate) rows: Vec<Fig18Row>,
}

/// Run the experiment.
pub fn run() -> Fig18 {
    let config = SystemConfig::paper();
    let isp = isp_nn_rate_throttled(&config, super::fig16::THROTTLE);
    let rows = (1..=8)
        .map(|threads| Fig18Row {
            threads,
            isp,
            seq_flash: ssd_sequential_nn_rate(&config, threads),
            full_flash: ssd_random_nn_rate(&config, threads),
        })
        .collect();
    Fig18 { rows }
}

impl Fig18 {
    /// Render the paper-style table (rates in K comparisons/s).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    crate::report::kilo(r.isp),
                    crate::report::kilo(r.seq_flash),
                    crate::report::kilo(r.full_flash),
                ]
            })
            .collect();
        crate::report::render_table(
            &["threads", "ISP (K/s)", "Seq Flash (K/s)", "Full Flash (K/s)"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure18_shape() {
        let fig = run();
        for r in &fig.rows {
            // Random SSD is poor compared to even throttled BlueDBM.
            assert!(
                r.full_flash < r.isp / 3.0,
                "threads {}: random {} vs isp {}",
                r.threads,
                r.full_flash,
                r.isp
            );
            // Sequential recovers toward the device limit.
            assert!(r.seq_flash > r.full_flash * 2.0, "threads {}", r.threads);
        }
        // At enough threads, sequential matches throttled BlueDBM.
        let r8 = fig.rows.iter().find(|r| r.threads == 8).unwrap();
        assert!(
            r8.seq_flash / r8.isp > 0.9 && r8.seq_flash / r8.isp <= 1.02,
            "seq {} vs isp {}",
            r8.seq_flash,
            r8.isp
        );
    }

    #[test]
    fn random_rate_scales_with_threads_until_device_cap() {
        let fig = run();
        let r1 = fig.rows.iter().find(|r| r.threads == 1).unwrap();
        let r8 = fig.rows.iter().find(|r| r.threads == 8).unwrap();
        let ratio = r8.full_flash / r1.full_flash;
        assert!(ratio > 6.0, "QD scaling: {ratio}");
    }
}
