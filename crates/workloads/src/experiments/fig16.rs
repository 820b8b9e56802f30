//! Figure 16: nearest-neighbor throughput vs host threads — BlueDBM
//! in-store baseline vs throttled BlueDBM vs host software over DRAM.
//!
//! Paper observations: the in-store baseline is flat (~320 K hamming
//! comparisons/s at full flash bandwidth, ~293 K with our 8 KiB item
//! framing); host-over-DRAM scales with threads and overtakes the device
//! once enough cores are thrown at it; throttling flash to 1/4 drops the
//! in-store rate proportionally ("native flash speed matters").

use bluedbm_core::baselines::{host_dram_nn_rate, isp_nn_rate_throttled};
use bluedbm_core::SystemConfig;
use serde::Serialize;

/// One x-position of the figure.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub(crate) struct Fig16Row {
    /// Host threads.
    pub(crate) threads: usize,
    /// Host software over DRAM-resident data (comparisons/s).
    pub(crate) dram: f64,
    /// BlueDBM in-store baseline (flat).
    pub(crate) baseline: f64,
    /// BlueDBM throttled to 600 MB/s (flat).
    pub(crate) throttled: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig16 {
    /// One row per thread count.
    pub(crate) rows: Vec<Fig16Row>,
}

/// Thread counts swept (paper: 2..16).
pub(crate) const THREADS: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// Fraction the paper throttles to: 600 MB/s of 2.4 GB/s.
pub(crate) const THROTTLE: f64 = 0.25;

/// Run the experiment.
pub fn run() -> Fig16 {
    let config = SystemConfig::paper();
    let baseline = config.isp_nn_rate();
    let throttled = isp_nn_rate_throttled(&config, THROTTLE);
    let rows = THREADS
        .iter()
        .map(|&threads| Fig16Row {
            threads,
            dram: host_dram_nn_rate(&config, threads),
            baseline,
            throttled,
        })
        .collect();
    Fig16 { rows }
}

impl Fig16 {
    /// Render the paper-style table (rates in K comparisons/s).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    crate::report::kilo(r.dram),
                    crate::report::kilo(r.baseline),
                    crate::report::kilo(r.throttled),
                ]
            })
            .collect();
        crate::report::render_table(
            &["threads", "DRAM (K/s)", "1 Node (K/s)", "Throttled (K/s)"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure16_shape() {
        let fig = run();
        let first = fig.rows.first().unwrap();
        let last = fig.rows.last().unwrap();

        // Flat device arms.
        assert!(fig.rows.iter().all(|r| r.baseline == first.baseline));
        assert!((first.baseline / first.throttled - 4.0).abs() < 1e-9);

        // DRAM scales linearly with threads and crosses the baseline.
        assert!(first.dram < first.baseline, "few threads: device wins");
        assert!(last.dram > last.baseline, "many threads: DRAM wins");
        let ratio = last.dram / first.dram;
        assert!((ratio - 8.0).abs() < 0.01, "linear in threads: {ratio}");

        // Paper scale: baseline ~300K, DRAM at 16 threads ~700K.
        assert!(first.baseline > 280_000.0 && first.baseline < 330_000.0);
        assert!(last.dram > 650_000.0 && last.dram < 750_000.0);
    }

    #[test]
    fn crossover_is_mid_chart() {
        let fig = run();
        let crossover = fig
            .rows
            .iter()
            .find(|r| r.dram > r.baseline)
            .expect("must cross")
            .threads;
        assert!((6..=10).contains(&crossover), "crossover at {crossover}");
    }
}
