//! The comparison arms of the evaluation (Figures 16–21): host-software
//! nearest neighbor, RAM-cloud with spill, off-the-shelf SSD, HDD, and
//! the grep-style CPU utilization model.
//!
//! All arms are analytic rate models over the calibrated constants in
//! [`crate::config`]. So are the BlueDBM arms of the nearest-neighbour
//! figures: closed forms ([`SystemConfig::isp_nn_rate`] and
//! [`isp_nn_rate_throttled`]), not DES measurements. Measuring them on
//! the simulated cluster is ROADMAP item J.

use crate::config::SystemConfig;

/// Where spilled accesses land in the RAM-cloud experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Secondary {
    /// Off-the-shelf SSD (Figure 17's "DRAM + 10% Flash").
    Ssd,
    /// Hard disk (Figure 17's "DRAM + 5% Disk").
    Disk,
}

/// Host-software nearest-neighbor throughput (comparisons/s) over
/// DRAM-resident data with `threads` threads — Figure 16's "DRAM" arm.
pub fn host_dram_nn_rate(config: &SystemConfig, threads: usize) -> f64 {
    config.host_nn_rate(threads)
}

/// RAM-cloud nearest-neighbor throughput when a fraction
/// `spill_fraction` of accesses miss DRAM and hit `secondary` — the
/// Figure 17 cliff.
///
/// Each thread's per-item time grows from the pure compare time by the
/// expected secondary-device wait; queue depth is one per thread, as in
/// the paper's multithreaded software.
pub fn ramcloud_nn_rate(
    config: &SystemConfig,
    threads: usize,
    spill_fraction: f64,
    secondary: Secondary,
) -> f64 {
    assert!((0.0..=1.0).contains(&spill_fraction), "bad fraction");
    let threads = threads.min(config.host.max_threads) as f64;
    let miss = match secondary {
        Secondary::Ssd => config.baseline.ssd_random_latency,
        Secondary::Disk => config.baseline.hdd_random_latency,
    };
    let per_item =
        config.host.nn_compare_time.as_secs_f64() + spill_fraction * miss.as_secs_f64();
    threads / per_item
}

/// Off-the-shelf SSD nearest-neighbor throughput with fully random
/// accesses (Figure 18's "Full Flash"): each thread waits out the random
/// read latency per item, capped by the device's bandwidth.
pub fn ssd_random_nn_rate(config: &SystemConfig, threads: usize) -> f64 {
    let threads = threads.min(config.host.max_threads) as f64;
    let per_item = config.baseline.ssd_random_latency.as_secs_f64()
        + config.host.nn_compare_time.as_secs_f64();
    let device_cap = config.baseline.ssd_bandwidth.as_bytes_per_sec()
        / config.flash.geometry.page_bytes as f64;
    (threads / per_item).min(device_cap)
}

/// Off-the-shelf SSD nearest-neighbor throughput when accesses are
/// "artificially arranged to be sequential" (Figure 18's "Seq Flash"):
/// the device streams at full bandwidth, compute permitting.
pub fn ssd_sequential_nn_rate(config: &SystemConfig, threads: usize) -> f64 {
    let device = config.baseline.ssd_bandwidth.as_bytes_per_sec()
        / config.flash.geometry.page_bytes as f64;
    device.min(config.host_nn_rate(threads))
}

/// In-store NN throughput on a device throttled to `fraction` of its
/// flash bandwidth (Figure 16/19's "Throttled" arms; the paper throttles
/// to 600 MB/s = 0.25).
pub fn isp_nn_rate_throttled(config: &SystemConfig, fraction: f64) -> f64 {
    assert!(fraction > 0.0 && fraction <= 1.0);
    config.isp_nn_rate() * fraction
}

/// Host software scanning the (possibly throttled) BlueDBM device over
/// PCIe (Figure 19's "BlueDBM+SW" arm): per-page software overhead
/// stretches the device's page service time, and the PCIe cap applies.
pub fn host_sw_scan_rate(config: &SystemConfig, device_fraction: f64, threads: usize) -> f64 {
    let device_rate = config.isp_nn_rate() * device_fraction;
    let page_time = 1.0 / device_rate;
    let stretched = page_time + config.host.io_page_overhead.as_secs_f64();
    let pcie_cap = config.pcie.d2h.as_bytes_per_sec() / config.flash.geometry.page_bytes as f64;
    (1.0 / stretched)
        .min(pcie_cap)
        .min(config.host_nn_rate(threads))
}

/// Sequential-scan throughput (bytes/s) of grep-style software on a
/// device — Figure 21's software arms are I/O-bound at the device's
/// sequential bandwidth.
pub fn sw_scan_bandwidth(config: &SystemConfig, secondary: Secondary) -> f64 {
    match secondary {
        Secondary::Ssd => config.baseline.ssd_bandwidth.as_bytes_per_sec(),
        Secondary::Disk => config.baseline.hdd_bandwidth.as_bytes_per_sec(),
    }
}

/// CPU utilization (%) of grep-style software scanning at `bytes_per_sec`
/// (Figure 21's right axis), from the two-point fit in the config.
pub fn scan_cpu_utilization(config: &SystemConfig, bytes_per_sec: f64) -> f64 {
    let mbps = bytes_per_sec / 1e6;
    (config.baseline.scan_cpu_slope * mbps + config.baseline.scan_cpu_intercept).max(0.0)
}

/// CPU utilization of the in-store search path: only match locations
/// (0.01% of the data) return to the host.
pub fn isp_scan_cpu_utilization(config: &SystemConfig, bytes_per_sec: f64) -> f64 {
    scan_cpu_utilization(config, bytes_per_sec * 0.0001)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::paper()
    }

    #[test]
    fn figure16_shape_dram_crosses_isp() {
        let c = config();
        let isp = c.isp_nn_rate();
        // Few threads: ISP wins. Many threads: DRAM wins.
        assert!(host_dram_nn_rate(&c, 2) < isp);
        assert!(host_dram_nn_rate(&c, 16) > isp);
        // Throttled ISP is 4x slower.
        let throttled = isp_nn_rate_throttled(&c, 0.25);
        assert!((isp / throttled - 4.0).abs() < 1e-9);
    }

    #[test]
    fn figure17_cliff_ordering() {
        let c = config();
        let dram = host_dram_nn_rate(&c, 8);
        let flash10 = ramcloud_nn_rate(&c, 8, 0.10, Secondary::Ssd);
        let disk5 = ramcloud_nn_rate(&c, 8, 0.05, Secondary::Disk);
        // Paper text: 350K -> <80K -> <10K at 8 threads.
        assert!((dram - 350_000.0).abs() / 350_000.0 < 0.02, "{dram}");
        assert!(flash10 < 80_000.0, "{flash10}");
        assert!(flash10 > 30_000.0, "{flash10} should not collapse to zero");
        assert!(disk5 < 11_000.0, "{disk5}");
        assert!(dram > flash10 && flash10 > disk5);
    }

    #[test]
    fn figure18_random_ssd_is_poor_sequential_recovers() {
        let c = config();
        let throttled_isp = isp_nn_rate_throttled(&c, 0.25);
        let random = ssd_random_nn_rate(&c, 8);
        let seq = ssd_sequential_nn_rate(&c, 8);
        assert!(
            random < throttled_isp / 3.0,
            "random {random} vs throttled {throttled_isp}"
        );
        // "when we artificially arranged the data accesses to be
        // sequential, the performance improved dramatically, sometimes
        // matching throttled BlueDBM".
        assert!(seq / throttled_isp > 0.9, "seq {seq} vs {throttled_isp}");
    }

    #[test]
    fn figure19_isp_beats_host_software_by_20_percent() {
        let c = config();
        let isp_t = isp_nn_rate_throttled(&c, 0.25);
        let sw_t = host_sw_scan_rate(&c, 0.25, 8);
        let advantage = isp_t / sw_t;
        assert!(
            (1.18..1.4).contains(&advantage),
            "throttled advantage {advantage}"
        );
        // Unthrottled: PCIe (1.6 GB/s) caps software while the ISP runs
        // at 2.4 GB/s: >= 30%.
        let isp = c.isp_nn_rate();
        let sw = host_sw_scan_rate(&c, 1.0, 8);
        assert!(isp / sw >= 1.3, "unthrottled advantage {}", isp / sw);
    }

    #[test]
    fn figure21_bandwidths_and_cpu() {
        let c = config();
        let ssd = sw_scan_bandwidth(&c, Secondary::Ssd);
        let hdd = sw_scan_bandwidth(&c, Secondary::Disk);
        assert_eq!(ssd, 600e6);
        // In-store search runs at 1.1 GB/s (92% of one card); 7.5x HDD.
        let isp_search = 1.1e9;
        assert!((isp_search / hdd - 7.5).abs() < 0.1);
        assert!((scan_cpu_utilization(&c, ssd) - 65.0).abs() < 1.0);
        assert!((scan_cpu_utilization(&c, hdd) - 13.0).abs() < 1.0);
        assert!(isp_scan_cpu_utilization(&c, isp_search) < 2.0);
    }

    #[test]
    #[should_panic(expected = "bad fraction")]
    fn ramcloud_validates_fraction() {
        ramcloud_nn_rate(&config(), 8, 1.5, Secondary::Ssd);
    }
}
