//! Every calibration constant of the reproduction, in one place.
//!
//! Each default is annotated with the paper statement it reproduces.
//! Values marked *calibrated* are not printed in the paper directly but
//! are solved from the paper's reported results (the solving is written
//! out in EXPERIMENTS.md).

use bluedbm_flash::{FlashGeometry, FlashTiming};
use bluedbm_host::PcieParams;
use bluedbm_net::NetParams;
use bluedbm_sim::shard::ExecMode;
use bluedbm_sim::time::{Bandwidth, SimTime};
use bluedbm_sim::TraceConfig;

use crate::power::PowerModel;

/// Flash subsystem configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashConfig {
    /// Geometry of one flash card.
    pub geometry: FlashGeometry,
    /// Timing of one flash card.
    pub timing: FlashTiming,
    /// Cards per node. Paper Section 5: "Each VC707 board hosts two
    /// custom-built flash boards", 1.2 GB/s each -> 2.4 GB/s per node.
    pub cards_per_node: usize,
}

/// The host server model: a 24-core Xeon with 50 GB of DRAM (paper
/// Section 5), reduced to the aggregate rates the experiments depend on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostModel {
    /// Software latency added per storage access that traverses the host
    /// (driver, syscall, request scheduling, interrupt). *Calibrated*:
    /// Figure 12 shows H-F exceeding ISP-F by roughly this much plus the
    /// PCIe time, and Figure 20's H-RH-F pays it twice.
    pub sw_overhead: SimTime,
    /// Per-page host I/O overhead when software streams pages over PCIe
    /// (DMA descriptor + completion handling, amortized). *Calibrated*
    /// from Figure 19's >= 20% in-store advantage at throttled bandwidth.
    pub io_page_overhead: SimTime,
    /// Time for one host thread to hamming-compare one 8 KiB item that is
    /// already in DRAM. *Calibrated*: Figure 17's H-DRAM arm reaches
    /// ~350 K comparisons/s at 8 threads -> ~22.9 µs per item per thread.
    pub nn_compare_time: SimTime,
    /// Host DRAM random access latency (remote H-D storage-access term).
    pub dram_latency: SimTime,
    /// Host-interface read page buffers per node: "the host interface
    /// provides the software with 128 page buffers, each for reads and
    /// writes" (Section 3.3). Device-to-host pages wait for a free
    /// buffer before crossing PCIe.
    pub read_buffers: usize,
    /// Host threads available (24 cores in the paper's Xeons).
    pub max_threads: usize,
}

impl HostModel {
    /// Paper-calibrated host model.
    pub fn paper() -> Self {
        HostModel {
            sw_overhead: SimTime::us(100),
            // detlint::allow(float-sim-time): paper-calibrated constant
            io_page_overhead: SimTime::from_us_f64(2.7),
            // detlint::allow(float-sim-time): paper-calibrated constant
            nn_compare_time: SimTime::from_us_f64(22.9),
            dram_latency: SimTime::ns(200),
            read_buffers: 128,
            max_threads: 24,
        }
    }
}

/// Comparison-device envelopes (Figures 16–21).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineDevices {
    /// Off-the-shelf M.2 mPCIe SSD sequential/ideal bandwidth: "whose
    /// performance, for 8 KB accesses, was limited to 600 MB/s"
    /// (Section 7.1).
    pub ssd_bandwidth: Bandwidth,
    /// Random 8 KiB read latency through the full software stack at
    /// queue depth 1. *Calibrated* from Figure 17: DRAM + 10% flash drops
    /// below 80 K comparisons/s at 8 threads.
    pub ssd_random_latency: SimTime,
    /// HDD sequential bandwidth. *Calibrated* from Figure 21: Grep on
    /// disk is 7.5x slower than the 1.1 GB/s in-store search -> ~147 MB/s.
    pub hdd_bandwidth: Bandwidth,
    /// HDD random 8 KiB latency (seek + rotate + queueing); Figure 17's
    /// DRAM + 5% disk arm falls under 10 K comparisons/s.
    pub hdd_random_latency: SimTime,
    /// Grep-style scan CPU model: utilization% = a * MB/s + b, fitted to
    /// Figure 21's two software points (65% at 600 MB/s, 13% at
    /// 147 MB/s).
    pub scan_cpu_slope: f64,
    /// Intercept of the scan CPU fit (clamped at zero).
    pub scan_cpu_intercept: f64,
}

impl BaselineDevices {
    /// Paper-calibrated baseline devices.
    pub fn paper() -> Self {
        BaselineDevices {
            ssd_bandwidth: Bandwidth::mb(600.0),
            ssd_random_latency: SimTime::us(775),
            hdd_bandwidth: Bandwidth::mb(147.0),
            hdd_random_latency: SimTime::ms(15),
            scan_cpu_slope: 0.1148,
            scan_cpu_intercept: -3.87,
        }
    }
}

/// The shared in-store accelerator units of one node (paper Section 4).
///
/// "Multiple instances of a user application may compete for the same
/// hardware acceleration units. For efficient sharing of hardware
/// resources, BlueDBM runs a scheduler that assigns available
/// hardware-acceleration units to competing user-applications. In our
/// implementation, a simple FIFO-based policy is used." Each node's
/// [`crate::scheduler::AccelSched`] component arbitrates these units;
/// reads consumed with [`crate::node::Consume::Accel`] claim one for the
/// time it takes to stream the page through at `bandwidth`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccelConfig {
    /// Identical acceleration units per node (Table 2 provisions four
    /// in-store processor slots per Virtex-7).
    pub units: usize,
    /// Processing bandwidth of one unit. Matched to the node's aggregate
    /// flash bandwidth so a single tenant is never accelerator-bound —
    /// contention only appears when tenants compete, which is the
    /// scheduling behaviour Section 4 describes.
    pub bandwidth: Bandwidth,
}

impl AccelConfig {
    /// Paper-shaped accelerator provisioning.
    pub fn paper() -> Self {
        AccelConfig {
            units: 4,
            bandwidth: Bandwidth::gb(2.4),
        }
    }
}

/// Flash lifecycle management: per-card mirror FTLs drive garbage
/// collection, wear leveling and write-amplification accounting inside
/// the event-driven simulation (paper Section 4 — BlueDBM's raw flash
/// pushes the FTL into the driver).
///
/// When enabled, the cluster's driver-visible page addresses become
/// *logical*: each card keeps a [`bluedbm_ftl::Ftl`] mirror that maps
/// them to physical pages, and a per-node [`crate::gc::GcAgent`]
/// executes the mirror's GC rounds (valid-page migration reads/programs
/// and block erases) as ordinary simulated commands on the same buses
/// and controllers as foreground traffic. Disabled, the cluster falls
/// back to the historical physical bump allocator with magic TRIM —
/// useful for pinning what GC costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcConfig {
    /// Run the DES flash lifecycle (mirror FTLs + GC agents).
    pub enabled: bool,
    /// Over-provisioned fraction withheld from the exported space.
    pub over_provision: f64,
    /// Per-plane free-block watermark that triggers collection.
    pub gc_watermark: usize,
    /// Erase-count spread beyond which wear leveling picks victims.
    pub wear_threshold: u64,
    /// Record each card's logical op log and executed GC rounds so the
    /// conformance suite can replay them into an offline twin. Memory
    /// grows with the op count — leave off outside tests.
    pub log: bool,
}

impl GcConfig {
    /// The lifecycle knobs as an offline-[`bluedbm_ftl::Ftl`] config.
    pub fn ftl(&self) -> bluedbm_ftl::FtlConfig {
        bluedbm_ftl::FtlConfig {
            over_provision: self.over_provision,
            gc_watermark: self.gc_watermark,
            wear_threshold: self.wear_threshold,
        }
    }
}

impl Default for GcConfig {
    fn default() -> Self {
        let ftl = bluedbm_ftl::FtlConfig::default();
        GcConfig {
            enabled: true,
            over_provision: ftl.over_provision,
            gc_watermark: ftl.gc_watermark,
            wear_threshold: ftl.wear_threshold,
            log: false,
        }
    }
}

/// How the simulation itself executes (not a property of the modelled
/// hardware — changing it must never change observable results).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Worker shards for parallel conservative simulation. `1` (the
    /// default) runs the sequential engine; `n > 1` partitions the
    /// cluster's nodes across `n` scoped worker threads with the
    /// cross-shard lookahead derived from the minimum inter-node link
    /// latency. Sharded runs are deterministic and observably identical
    /// to sequential runs — see `bluedbm_sim::shard`.
    pub shards: usize,
    /// How the sharded engine's workers execute (ignored when
    /// `shards == 1`): worker threads, cooperative rounds on the calling
    /// thread, or (`Auto`) threads only when the host has a core per
    /// shard. See `bluedbm_sim::shard::ExecMode`.
    pub exec: ExecMode,
    /// Deterministic event tracing (off by default — every trace entry
    /// point then costs one predictable branch). When enabled, every
    /// engine sink captures per-shard records harvested through
    /// `Cluster::take_trace` / `KvStore::take_trace`. Capturing never
    /// perturbs simulated results: the merged trace and all observables
    /// are identical with tracing on or off.
    pub trace: TraceConfig,
}

impl SimConfig {
    /// The sequential engine.
    pub fn sequential() -> Self {
        SimConfig {
            shards: 1,
            exec: ExecMode::Auto,
            trace: TraceConfig::off(),
        }
    }

    /// `n` worker shards.
    pub fn sharded(n: usize) -> Self {
        SimConfig {
            shards: n.max(1),
            exec: ExecMode::Auto,
            trace: TraceConfig::off(),
        }
    }

    /// The same engine with event tracing per `trace`.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

/// The complete system configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Flash cards.
    pub flash: FlashConfig,
    /// Integrated storage network.
    pub net: NetParams,
    /// PCIe host link.
    pub pcie: PcieParams,
    /// Host server model.
    pub host: HostModel,
    /// Comparison devices.
    pub baseline: BaselineDevices,
    /// Power model (Table 3).
    pub power: PowerModel,
    /// Shared accelerator units per node (Section 4 scheduling).
    pub accel: AccelConfig,
    /// Flash lifecycle (GC / wear leveling) knobs.
    pub gc: GcConfig,
    /// Simulation-engine execution knobs.
    pub sim: SimConfig,
}

impl SystemConfig {
    /// The full paper-scale configuration: two 8-bus cards per node,
    /// paper timing, 10 Gbps/0.48 µs network, Gen-1 PCIe caps.
    pub fn paper() -> Self {
        SystemConfig {
            flash: FlashConfig {
                geometry: FlashGeometry::paper_card(),
                timing: FlashTiming::paper(),
                cards_per_node: 2,
            },
            net: NetParams::paper(),
            pcie: PcieParams::paper(),
            host: HostModel::paper(),
            baseline: BaselineDevices::paper(),
            power: PowerModel::paper(),
            accel: AccelConfig::paper(),
            gc: GcConfig::default(),
            sim: SimConfig::sequential(),
        }
    }

    /// Identical rates and latencies to [`SystemConfig::paper`], but a
    /// tiny flash geometry so unit tests, doctests and examples run in
    /// milliseconds of wall clock. Bandwidth-shape experiments must use
    /// `paper()`; latency-shape results are identical under both.
    pub fn scaled_down() -> Self {
        SystemConfig {
            flash: FlashConfig {
                geometry: FlashGeometry::small(),
                timing: FlashTiming::paper(),
                cards_per_node: 2,
            },
            ..Self::paper()
        }
    }

    /// Node-aggregate flash bandwidth (all cards).
    pub fn node_flash_bandwidth(&self) -> Bandwidth {
        let per_card =
            self.flash.timing.bus_bandwidth.as_bytes_per_sec() * self.flash.geometry.buses as f64;
        Bandwidth::bytes_per_sec(per_card * self.flash.cards_per_node as f64)
    }

    /// In-store nearest-neighbor comparison rate (items/s) at full flash
    /// bandwidth — the Figure 16 "Baseline" plateau.
    pub fn isp_nn_rate(&self) -> f64 {
        self.node_flash_bandwidth().as_bytes_per_sec() / self.flash.geometry.page_bytes as f64
    }

    /// Host software nearest-neighbor rate (items/s) for `threads`
    /// threads over DRAM-resident data.
    pub fn host_nn_rate(&self, threads: usize) -> f64 {
        let threads = threads.min(self.host.max_threads) as f64;
        threads / self.host.nn_compare_time.as_secs_f64()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_aggregates_match_reported_numbers() {
        let c = SystemConfig::paper();
        // 2 cards x 1.2 GB/s = 2.4 GB/s (Figure 13 ISP-Local).
        assert!((c.node_flash_bandwidth().as_gb() - 2.4).abs() < 1e-9);
        // ISP NN rate ~ 293 K items/s (paper reports 320 K with its item
        // framing; within 10%).
        let rate = c.isp_nn_rate();
        assert!(rate > 280_000.0 && rate < 330_000.0, "{rate}");
        // Host at 8 threads ~ 350 K/s (Figure 17 text).
        let host8 = c.host_nn_rate(8);
        assert!((host8 - 350_000.0).abs() / 350_000.0 < 0.02, "{host8}");
    }

    #[test]
    fn host_threads_clamped_to_cores() {
        let c = SystemConfig::paper();
        assert_eq!(c.host_nn_rate(100), c.host_nn_rate(24));
    }

    #[test]
    fn scaled_down_keeps_rates() {
        let paper = SystemConfig::paper();
        let small = SystemConfig::scaled_down();
        assert_eq!(paper.flash.timing, small.flash.timing);
        assert_eq!(paper.net, small.net);
        assert!(small.flash.geometry.total_pages() < paper.flash.geometry.total_pages());
    }

    #[test]
    fn scan_cpu_fit_reproduces_figure_21_points() {
        let b = BaselineDevices::paper();
        let util = |mbps: f64| (b.scan_cpu_slope * mbps + b.scan_cpu_intercept).max(0.0);
        assert!((util(600.0) - 65.0).abs() < 1.0);
        assert!((util(147.0) - 13.0).abs() < 1.0);
    }
}
