//! Regenerates the paper's evaluation exhibits: each name runs the
//! matching driver in [`bluedbm_workloads::experiments`] through the
//! whole simulator stack and prints its table under a banner quoting the
//! paper's result.
//!
//! `cargo run -p bluedbm-workloads --release --bin exhibit -- <name>`,
//! where `<name>` is one row of the table below, `all` (every table and
//! figure, in paper order), `ablations` (every ablation sweep) or `list`.

use bluedbm_workloads::experiments::{self as ex, ablations};

/// `(name, banner title, the paper's result, driver)`.
type Exhibit = (&'static str, &'static str, &'static str, fn() -> String);

/// Every exhibit, in paper order; the ablation sweeps follow the figures.
#[rustfmt::skip]
const EXHIBITS: &[Exhibit] = &[
    ("table1", "Table 1: flash controller on Artix-7 (model inventory substitute)",
     "bus controller 7131 LUTs x8, ECC dec/enc, scoreboard, PHY, SerDes; 56% of the chip",
     || ex::tables::table1().render()),
    ("table2", "Table 2: host Virtex-7 modules (model inventory substitute)",
     "flash/network/DRAM/host interfaces; 45% LUTs used, room left for accelerators",
     || ex::tables::table2().render()),
    ("table3", "Table 3: BlueDBM estimated power consumption",
     "VC707 30W + 2 flash boards 10W + Xeon 200W = 240W/node; <20% overhead",
     || ex::tables::table3().render()),
    ("fig11", "Figure 11: BlueDBM integrated network performance",
     "8.2 Gb/s/lane sustained across 1-5 hops; 0.48 us per hop",
     || ex::fig11::run().render()),
    ("fig12", "Figure 12: latency of remote data access",
     "network insignificant everywhere; ISP-F avoids PCIe+software; H-RH-F pays software twice",
     || ex::fig12::run().render()),
    ("fig13", "Figure 13: bandwidth of data access",
     "Host-Local 1.6 (PCIe cap), ISP-Local 2.4, ISP-2Nodes 3.4 (one lane), ISP-3Nodes 6.5 GB/s",
     || ex::fig13::run().render()),
    ("fig16", "Figure 16: nearest neighbor with BlueDBM up to two nodes",
     "in-store baseline ~320K cmp/s flat; DRAM scales with threads and crosses mid-chart",
     || ex::fig16::run().render()),
    ("fig17", "Figure 17: nearest neighbor with mostly DRAM",
     "at 8 threads: DRAM 350K; +10% flash <80K; +5% disk <10K cmp/s",
     || ex::fig17::run().render()),
    ("fig18", "Figure 18: nearest neighbor with off-the-shelf SSD",
     "random SSD poor vs throttled BlueDBM; sequential arrangement recovers to parity",
     || ex::fig18::run().render()),
    ("fig19", "Figure 19: nearest neighbor with in-store processing",
     ">=20% in-store advantage throttled; >=30% unthrottled (PCIe caps software)",
     || ex::fig19::run().render()),
    ("fig20", "Figure 20: graph traversal performance",
     "ISP-F ~3x the generic distributed path; beats 50%-DRAM software comfortably",
     || ex::fig20::run().render()),
    ("fig21", "Figure 21: string search bandwidth and CPU utilization",
     "Flash/ISP ~1.1 GB/s at ~0% CPU; SW grep 600 MB/s at 65% (SSD), 7.5x slower at 13% (HDD)",
     || ex::fig21::run().render()),
    ("ablation-tags", "Ablation: controller tag parallelism",
     "multiple commands must be in flight to saturate flash (Section 3.1.1)",
     || ablations::tag_parallelism().render()),
    ("ablation-credits", "Ablation: link-layer credit depth",
     "token flow control (Section 3.2.2)",
     || ablations::credit_depth().render()),
    ("ablation-overprovisioning", "Ablation: FTL over-provisioning vs write amplification",
     "driver-side FTL (Section 4)",
     || ablations::over_provisioning().render()),
    ("ablation-network", "Ablation: integrated network advantage vs hop count",
     "ISP-F overlaps storage and network access (Section 6.4)",
     || ablations::network_integration().render()),
];

/// The name that selects a row together with the others of its kind.
fn group(name: &str) -> &'static str {
    if name.starts_with("ablation-") {
        "ablations"
    } else {
        "all"
    }
}

/// The rows `arg` names: one by its own name, several by their group's.
fn select(arg: &str) -> impl Iterator<Item = &'static Exhibit> + '_ {
    EXHIBITS
        .iter()
        .filter(move |(name, ..)| *name == arg || group(name) == arg)
}

/// Everything `list` prints: each row, then the groups.
fn names() -> impl Iterator<Item = &'static str> {
    EXHIBITS
        .iter()
        .map(|(name, ..)| *name)
        .chain(["ablations", "all"])
}

/// What `exhibit <arg>` prints for a selection: each row's banner, the
/// paper's result, a blank line and the driver's table.
fn render(arg: &str) -> String {
    select(arg)
        .map(|(_, title, paper, render)| format!("== {title} ==\npaper: {paper}\n\n{}\n", render()))
        .collect()
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "list" {
        names().for_each(|n| println!("{n}"));
        return;
    }
    if select(&arg).next().is_none() {
        eprintln!("usage: exhibit <name>|list, where <name> is one of:");
        names().for_each(|n| eprintln!("  {n}"));
        std::process::exit(2);
    }
    print!("{}", render(&arg));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(arg: &str) -> Vec<&'static str> {
        select(arg).map(|(name, ..)| *name).collect()
    }

    #[test]
    fn names_are_unique_and_every_listed_name_dispatches() {
        let listed: Vec<_> = names().collect();
        for (i, n) in listed.iter().enumerate() {
            assert!(!listed[..i].contains(n), "{n} listed twice");
            assert!(!selected(n).is_empty(), "{n} selects nothing");
        }
        assert!(
            !listed.contains(&"list"),
            "`list` is the command, not a row"
        );
        assert!(selected("fig14").is_empty() && selected("").is_empty());
    }

    #[test]
    fn all_is_the_twelve_tables_and_figures_in_paper_order() {
        let paper_order = [
            "table1", "table2", "table3", "fig11", "fig12", "fig13", "fig16", "fig17", "fig18",
            "fig19", "fig20", "fig21",
        ];
        assert_eq!(selected("all"), paper_order);
        let sweeps = selected("ablations");
        assert_eq!(sweeps.len(), 4);
        assert!(sweeps.iter().all(|n| !paper_order.contains(n)));
        for n in paper_order {
            assert_eq!(selected(n), [n]);
        }
    }

    /// The lines where `new` departs from `old`: everything between
    /// their common head and common tail, old lines as `-`, new as `+`.
    fn line_diff(old: &str, new: &str) -> String {
        let old: Vec<_> = old.lines().collect();
        let new: Vec<_> = new.lines().collect();
        let head = old.iter().zip(&new).take_while(|(a, b)| a == b).count();
        let tail = old[head..]
            .iter()
            .rev()
            .zip(new[head..].iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let mut out = format!("from line {}:\n", head + 1);
        for line in &old[head..old.len() - tail] {
            out += &format!("- {line}\n");
        }
        for line in &new[head..new.len() - tail] {
            out += &format!("+ {line}\n");
        }
        out
    }

    #[test]
    fn all_and_ablations_print_the_pinned_bytes() {
        // Every driver fixes its seeds, so the printed tables are a pure
        // function of the model: a change that moves any simulated value
        // in any exhibit moves these pins. Re-pin (write the new output
        // over the file) only for an intended behaviour change, and say
        // which values moved.
        let mut moved = String::new();
        for (arg, pinned) in [
            ("all", include_str!("../../expected/all.txt")),
            ("ablations", include_str!("../../expected/ablations.txt")),
        ] {
            let out = render(arg);
            if out != pinned {
                moved += &format!(
                    "exhibit {arg} differs from crates/workloads/expected/{arg}.txt {}",
                    line_diff(pinned, &out)
                );
            }
        }
        assert!(moved.is_empty(), "{moved}");
    }
}
