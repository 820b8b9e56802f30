//! Figure 19: in-store processing vs host software on the same
//! (throttled) BlueDBM device.
//!
//! Paper: "the accelerator advantage is at least 20%. Had we not
//! throttled BlueDBM, the advantage would have been 30% or more. This is
//! because while the in-store processor can process data at full flash
//! bandwidth, the software will be bottlenecked by the PCIe bandwidth at
//! 1.6 GB/s."

use bluedbm_core::baselines::{host_sw_scan_rate, isp_nn_rate_throttled};
use bluedbm_core::SystemConfig;
use serde::Serialize;

/// One x-position of the figure.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub(crate) struct Fig19Row {
    /// Host threads.
    pub(crate) threads: usize,
    /// Throttled in-store processor (flat).
    pub(crate) isp: f64,
    /// Host software scanning the same throttled device over PCIe.
    pub(crate) bluedbm_sw: f64,
}

/// The full figure, plus the unthrottled summary comparison.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig19 {
    /// One row per thread count 1..=8.
    pub(crate) rows: Vec<Fig19Row>,
    /// Unthrottled in-store rate (full 2.4 GB/s).
    pub(crate) unthrottled_isp: f64,
    /// Unthrottled host-software rate (PCIe-capped).
    pub(crate) unthrottled_sw: f64,
}

/// Run the experiment.
pub fn run() -> Fig19 {
    let config = SystemConfig::paper();
    let throttle = super::fig16::THROTTLE;
    let isp = isp_nn_rate_throttled(&config, throttle);
    let rows = (1..=8)
        .map(|threads| Fig19Row {
            threads,
            isp,
            bluedbm_sw: host_sw_scan_rate(&config, throttle, threads),
        })
        .collect();
    Fig19 {
        rows,
        unthrottled_isp: config.isp_nn_rate(),
        unthrottled_sw: host_sw_scan_rate(&config, 1.0, 8),
    }
}

impl Fig19 {
    /// Render the paper-style table (rates in K comparisons/s).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    crate::report::kilo(r.isp),
                    crate::report::kilo(r.bluedbm_sw),
                ]
            })
            .collect();
        let mut out = crate::report::render_table(
            &["threads", "ISP (K/s)", "BlueDBM+SW (K/s)"],
            &rows,
        );
        out.push_str(&format!(
            "\nunthrottled: ISP {} K/s vs software {} K/s (+{:.0}%)\n",
            crate::report::kilo(self.unthrottled_isp),
            crate::report::kilo(self.unthrottled_sw),
            (self.unthrottled_isp / self.unthrottled_sw - 1.0) * 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure19_advantages() {
        let fig = run();
        // Throttled: at least 20% in-store advantage at every x. With
        // one thread the software arm is additionally compute-bound, so
        // the gap is larger; from 2 threads on it is the pure I/O-path
        // overhead the paper quantifies (~20-30%).
        for r in &fig.rows {
            let adv = r.isp / r.bluedbm_sw;
            assert!(adv >= 1.18, "threads {}: advantage {adv}", r.threads);
            if r.threads >= 2 {
                assert!(adv < 1.5, "threads {}: advantage too large {adv}", r.threads);
            }
        }
        // Unthrottled: 30% or more.
        let adv = fig.unthrottled_isp / fig.unthrottled_sw;
        assert!(adv >= 1.3, "unthrottled advantage {adv}");
    }
}
