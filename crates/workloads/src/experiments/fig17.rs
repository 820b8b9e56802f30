//! Figure 17: the RAM-cloud cliff — nearest neighbor with mostly-DRAM
//! storage vs BlueDBM.
//!
//! Paper: "the performance of ram cloud (H-DRAM) falls off very sharply
//! if even a small fraction of data does not reside in DRAM. Assuming 8
//! threads, the performance drops from 350K Hamming Comparisons per
//! second to < 80K and < 10K ... for DRAM + 10% Flash and DRAM + 5%
//! Disk, respectively." BlueDBM's in-store arm does not suffer the
//! cliff because all its data already lives in flash.

use bluedbm_core::baselines::{host_dram_nn_rate, ramcloud_nn_rate, Secondary};
use bluedbm_core::SystemConfig;
use serde::Serialize;

/// One x-position of the figure.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub(crate) struct Fig17Row {
    /// Host threads.
    pub(crate) threads: usize,
    /// Pure DRAM host software.
    pub(crate) dram: f64,
    /// BlueDBM in-store (flat; immune to the cliff).
    pub(crate) isp: f64,
    /// DRAM with 10% of accesses spilling to an SSD.
    pub(crate) flash10: f64,
    /// DRAM with 5% of accesses spilling to disk.
    pub(crate) disk5: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig17 {
    /// One row per thread count 1..=8.
    pub(crate) rows: Vec<Fig17Row>,
}

/// Run the experiment.
pub fn run() -> Fig17 {
    let config = SystemConfig::paper();
    let rows = (1..=8)
        .map(|threads| Fig17Row {
            threads,
            dram: host_dram_nn_rate(&config, threads),
            isp: config.isp_nn_rate(),
            flash10: ramcloud_nn_rate(&config, threads, 0.10, Secondary::Ssd),
            disk5: ramcloud_nn_rate(&config, threads, 0.05, Secondary::Disk),
        })
        .collect();
    Fig17 { rows }
}

impl Fig17 {
    /// Render the paper-style table (rates in K comparisons/s).
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    crate::report::kilo(r.dram),
                    crate::report::kilo(r.isp),
                    crate::report::kilo(r.flash10),
                    crate::report::kilo(r.disk5),
                ]
            })
            .collect();
        crate::report::render_table(
            &[
                "threads",
                "DRAM (K/s)",
                "ISP (K/s)",
                "10% Flash (K/s)",
                "5% Disk (K/s)",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure17_cliff_at_8_threads() {
        let fig = run();
        let r8 = fig.rows.iter().find(|r| r.threads == 8).unwrap();
        // The paper's three headline numbers.
        assert!((r8.dram - 350_000.0).abs() / 350_000.0 < 0.02, "{}", r8.dram);
        assert!(r8.flash10 < 80_000.0, "{}", r8.flash10);
        assert!(r8.disk5 < 11_000.0, "{}", r8.disk5);
        // Cliff ordering at every thread count.
        for r in &fig.rows {
            assert!(r.dram > r.flash10);
            assert!(r.flash10 > r.disk5);
        }
    }

    #[test]
    fn bluedbm_is_immune_to_the_cliff() {
        let fig = run();
        for r in &fig.rows {
            // The in-store arm beats both spill arms at every point.
            assert!(r.isp > r.flash10, "threads {}", r.threads);
            assert!(r.isp > r.disk5, "threads {}", r.threads);
        }
        // An order of magnitude against 5% disk (abstract's claim family).
        let r8 = fig.rows.iter().find(|r| r.threads == 8).unwrap();
        assert!(r8.isp / r8.disk5 > 10.0);
    }
}
