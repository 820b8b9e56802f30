//! The Table 3 power model and the RAM-cloud cost comparison.
//!
//! Paper Table 3: VC707 30 W, two flash boards 10 W, Xeon server 200 W —
//! 240 W per node; "BlueDBM adds less than 20% of power consumption to
//! the system". The abstract's larger claim — a rack-size BlueDBM is "an
//! order of magnitude cheaper and less power hungry than a cloud based
//! system with enough DRAM to accommodate 10TB–20TB of data" — is
//! reproduced by [`PowerModel::ramcloud_watts`].

/// Component wattages (datasheet values, per the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Xilinx VC707 development board.
    pub vc707_watts: f64,
    /// One custom flash board.
    pub flash_board_watts: f64,
    /// Flash boards per node.
    pub flash_boards: usize,
    /// Host Xeon server (24 cores, 50 GB DRAM).
    pub server_watts: f64,
    /// A RAM-cloud server: a denser box (e.g. 256 GB DRAM) drawing more
    /// power per node.
    pub(crate) ramcloud_server_watts: f64,
    /// DRAM per RAM-cloud server, bytes.
    pub(crate) ramcloud_dram_bytes: u64,
    /// Flash per BlueDBM node, bytes (two 512 GB cards).
    pub(crate) node_flash_bytes: u64,
}

impl PowerModel {
    /// Paper Table 3 values.
    pub fn paper() -> Self {
        PowerModel {
            vc707_watts: 30.0,
            flash_board_watts: 5.0,
            flash_boards: 2,
            server_watts: 200.0,
            ramcloud_server_watts: 300.0,
            ramcloud_dram_bytes: 256 << 30,
            node_flash_bytes: 1 << 40,
        }
    }

    /// Watts added by the BlueDBM storage device (FPGA + flash boards).
    pub(crate) fn device_watts(&self) -> f64 {
        self.vc707_watts + self.flash_board_watts * self.flash_boards as f64
    }

    /// Watts per full node (Table 3's 240 W row).
    pub fn node_watts(&self) -> f64 {
        self.device_watts() + self.server_watts
    }

    /// Fraction of node power added by the storage device (paper: "less
    /// than 20%").
    pub fn device_overhead_fraction(&self) -> f64 {
        self.device_watts() / self.node_watts()
    }

    /// Watts for a BlueDBM cluster holding `dataset_bytes`.
    pub fn bluedbm_watts(&self, dataset_bytes: u64) -> f64 {
        let nodes = dataset_bytes.div_ceil(self.node_flash_bytes);
        nodes as f64 * self.node_watts()
    }

    /// Watts for a RAM-cloud cluster holding `dataset_bytes` in DRAM.
    pub fn ramcloud_watts(&self, dataset_bytes: u64) -> f64 {
        let servers = dataset_bytes.div_ceil(self.ramcloud_dram_bytes);
        servers as f64 * self.ramcloud_server_watts
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_node_total() {
        let p = PowerModel::paper();
        assert_eq!(p.device_watts(), 40.0);
        assert_eq!(p.node_watts(), 240.0);
    }

    #[test]
    fn device_overhead_under_20_percent() {
        let p = PowerModel::paper();
        assert!(p.device_overhead_fraction() < 0.20);
    }

    #[test]
    fn twenty_tb_comparison_favors_bluedbm() {
        let p = PowerModel::paper();
        let dataset = 20u64 << 40; // 20 TB
        let blue = p.bluedbm_watts(dataset);
        let ram = p.ramcloud_watts(dataset);
        // 20 nodes x 240 W = 4.8 kW vs 80 servers x 300 W = 24 kW: 5x.
        assert_eq!(blue, 4_800.0);
        assert_eq!(ram, 24_000.0);
        assert!(ram / blue >= 5.0);
    }

    #[test]
    fn rounding_up_partial_nodes() {
        let p = PowerModel::paper();
        assert_eq!(p.bluedbm_watts(1), p.node_watts());
        assert_eq!(p.bluedbm_watts((1 << 40) + 1), 2.0 * p.node_watts());
    }
}
