//! Tables 1–3.
//!
//! Tables 1 and 2 report FPGA LUT/register/BRAM utilization — numbers
//! that have no software equivalent. The substitution (documented in
//! DESIGN.md) reports the *model inventory*: which modules the simulated
//! controller and node instantiate, with their queue depths and buffer
//! sizes (the quantities FPGA resources proxy for), side by side with
//! the paper's original figures for reference. Table 3 (power) is a
//! direct model.

use bluedbm_core::node::node_inventory;
use bluedbm_core::{PowerModel, SystemConfig};
use bluedbm_flash::controller::FlashController;
use bluedbm_flash::{FlashArray, FlashTiming};
use serde::Serialize;

/// One module row of Table 1 (flash controller on the Artix-7).
#[derive(Clone, Debug, Serialize, PartialEq)]
pub(crate) struct Table1Row {
    /// Module name.
    pub(crate) module: String,
    /// Instances in the model.
    pub(crate) instances: usize,
    /// Command/scoreboard queue depth.
    pub(crate) queue_depth: usize,
    /// Dedicated buffer bytes (BRAM analogue).
    pub(crate) buffer_bytes: usize,
    /// The paper's LUT count for the closest module (reference only).
    pub(crate) paper_luts: Option<u32>,
}

/// The Table 1 substitute.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Table1 {
    /// One row per controller module.
    pub(crate) rows: Vec<Table1Row>,
}

/// Build Table 1 from the paper-shape controller.
pub fn table1() -> Table1 {
    let config = SystemConfig::paper();
    let ctrl = FlashController::new(
        FlashArray::new(config.flash.geometry, 0),
        FlashTiming::paper(),
    );
    let paper_luts = |name: &str| match name {
        "bus controller" => Some(7131u32),
        "ecc decoder" => Some(1790),
        "ecc encoder" => Some(565),
        "scoreboard" => Some(1149),
        "phy" => Some(1635),
        "serdes" => Some(3061),
        _ => None,
    };
    let rows = ctrl
        .inventory()
        .into_iter()
        .map(|m| Table1Row {
            module: m.name.to_string(),
            instances: m.instances,
            queue_depth: m.queue_depth,
            buffer_bytes: m.buffer_bytes,
            paper_luts: paper_luts(m.name),
        })
        .collect();
    Table1 { rows }
}

impl Table1 {
    /// Render the table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.module.clone(),
                    r.instances.to_string(),
                    r.queue_depth.to_string(),
                    r.buffer_bytes.to_string(),
                    r.paper_luts.map(|l| l.to_string()).unwrap_or_default(),
                ]
            })
            .collect();
        crate::report::render_table(
            &["module", "instances", "queue depth", "buffer bytes", "paper LUTs"],
            &rows,
        )
    }
}

/// One module row of Table 2 (host Virtex-7).
#[derive(Clone, Debug, Serialize, PartialEq)]
pub(crate) struct Table2Row {
    /// Module name.
    pub(crate) module: String,
    /// Instances in the model.
    pub(crate) instances: usize,
    /// The paper's LUT count (reference only).
    pub(crate) paper_luts: Option<u32>,
}

/// The Table 2 substitute.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Table2 {
    /// One row per node-level module.
    pub(crate) rows: Vec<Table2Row>,
}

/// Build Table 2 from the node inventory.
pub fn table2() -> Table2 {
    let config = SystemConfig::paper();
    let paper_luts = |name: &str| match name {
        "flash interface" => Some(1389u32),
        "network interface" => Some(29591),
        "dram interface" => Some(11045),
        "host interface" => Some(88376),
        _ => None,
    };
    let rows = node_inventory(&config)
        .into_iter()
        .map(|(name, instances)| Table2Row {
            module: name.to_string(),
            instances,
            paper_luts: paper_luts(name),
        })
        .collect();
    Table2 { rows }
}

impl Table2 {
    /// Render the table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.module.clone(),
                    r.instances.to_string(),
                    r.paper_luts.map(|l| l.to_string()).unwrap_or_default(),
                ]
            })
            .collect();
        crate::report::render_table(&["module", "instances", "paper LUTs"], &rows)
    }
}

/// Table 3: power.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Table3 {
    /// (component, watts) rows.
    pub(crate) rows: Vec<(String, f64)>,
    /// Device overhead fraction of node power.
    pub(crate) device_overhead: f64,
    /// Cluster watts for a 20 TB dataset on BlueDBM.
    pub(crate) bluedbm_20tb_watts: f64,
    /// Cluster watts for the same dataset in a RAM cloud.
    pub(crate) ramcloud_20tb_watts: f64,
}

/// Build Table 3 from the power model.
pub fn table3() -> Table3 {
    let p = PowerModel::paper();
    let rows = vec![
        ("VC707".to_string(), p.vc707_watts),
        (
            format!("Flash Board x{}", p.flash_boards),
            p.flash_board_watts * p.flash_boards as f64,
        ),
        ("Xeon Server".to_string(), p.server_watts),
        ("Node Total".to_string(), p.node_watts()),
    ];
    Table3 {
        rows,
        device_overhead: p.device_overhead_fraction(),
        bluedbm_20tb_watts: p.bluedbm_watts(20 << 40),
        ramcloud_20tb_watts: p.ramcloud_watts(20 << 40),
    }
}

impl Table3 {
    /// Render the table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(c, w)| vec![c.clone(), format!("{w:.0}")])
            .collect();
        let mut out = crate::report::render_table(&["component", "power (Watts)"], &rows);
        out.push_str(&format!(
            "\ndevice overhead: {:.1}% of node power\n20 TB cluster: BlueDBM {:.1} kW vs RAM cloud {:.1} kW ({:.1}x)\n",
            self.device_overhead * 100.0,
            self.bluedbm_20tb_watts / 1e3,
            self.ramcloud_20tb_watts / 1e3,
            self.ramcloud_20tb_watts / self.bluedbm_20tb_watts
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_paper_modules() {
        let t = table1();
        let names: Vec<&str> = t.rows.iter().map(|r| r.module.as_str()).collect();
        for m in ["bus controller", "ecc decoder", "ecc encoder", "scoreboard", "phy", "serdes"] {
            assert!(names.contains(&m), "missing {m}");
        }
        let bus = t.rows.iter().find(|r| r.module == "bus controller").unwrap();
        assert_eq!(bus.instances, 8);
        assert_eq!(bus.paper_luts, Some(7131));
    }

    #[test]
    fn table2_has_paper_modules() {
        let t = table2();
        let host = t.rows.iter().find(|r| r.module == "host interface").unwrap();
        assert_eq!(host.paper_luts, Some(88376));
    }

    #[test]
    fn table3_matches_paper() {
        let t = table3();
        let total = t.rows.iter().find(|(c, _)| c == "Node Total").unwrap().1;
        assert_eq!(total, 240.0);
        assert!(t.device_overhead < 0.2);
        assert!(t.ramcloud_20tb_watts / t.bluedbm_20tb_watts >= 5.0);
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(table1().render().contains("scoreboard"));
        assert!(table2().render().contains("network interface"));
        assert!(table3().render().contains("Node Total"));
    }
}
