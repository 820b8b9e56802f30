//! The PCIe/DMA model of the device-to-host direction.
//!
//! A transfer occupies (1) one of the link's DMA engines for its setup
//! time, then (2) the link capacity for its serialization time, then (3)
//! pays the completion-notification latency (interrupt or poll). The link
//! is the shared bottleneck; the engines exist so that setup latency of
//! back-to-back transfers overlaps — with one engine the paper's
//! 1.6 GB/s would not be reachable at 8 KiB pages.
//!
//! The paper's Connectal endpoint "caps our performance at 1.6 GB/s
//! reads and 1 GB/s writes" (Section 5). Writes do not cross the
//! modelled link — a cluster injects them at the node — so only the
//! device-to-host direction and its 1.6 GB/s cap are modelled.

use bluedbm_sim::resource::{MultiResource, SerialResource};
use bluedbm_sim::time::{Bandwidth, SimTime};

/// PCIe link constants.
///
/// # Examples
///
/// ```rust
/// use bluedbm_host::pcie::PcieParams;
///
/// let p = PcieParams::paper();
/// assert!((p.d2h.as_gb() - 1.6).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcieParams {
    /// Device-to-host bandwidth cap.
    pub d2h: Bandwidth,
    /// DMA descriptor setup time per transfer.
    pub dma_setup: SimTime,
    /// Completion notification (interrupt delivery / poll observation).
    pub completion_latency: SimTime,
    /// Device-to-host DMA engines (paper: four).
    pub(crate) engines: usize,
}

impl PcieParams {
    /// Paper-calibrated Connectal PCIe Gen 1 parameters.
    pub fn paper() -> Self {
        PcieParams {
            d2h: Bandwidth::gb(1.6),
            dma_setup: SimTime::us(1),
            completion_latency: SimTime::us(2),
            engines: 4,
        }
    }
}

impl Default for PcieParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// One node's PCIe link. Its one client, the node's agent, books each
/// transfer when it issues it and learns the instant its completion
/// lands, so the link exchanges no messages.
pub struct PcieLink {
    params: PcieParams,
    engines: MultiResource,
    link: SerialResource,
}

impl PcieLink {
    /// A link with the given parameters.
    pub fn new(params: PcieParams) -> Self {
        PcieLink {
            params,
            engines: MultiResource::new(params.engines),
            link: SerialResource::new(),
        }
    }

    /// Book a device-to-host transfer of `bytes` issued at `now`: the
    /// instant its completion notification lands. Transfers must be
    /// booked in non-decreasing `now`.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        // An engine owns its transfer end to end: descriptor setup plus
        // the wire time. The link is the shared serializer.
        let wire_time = self.params.d2h.time_for(bytes);
        let engine = self.engines.acquire(now, self.params.dma_setup + wire_time);
        let wire = self.link.acquire(engine.start + self.params.dma_setup, wire_time);
        wire.end + self.params.completion_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Book `n` 8 KiB pages at time zero over a link with `params`: each
    /// completion instant (its latency), and the link's rate in bytes/s.
    fn stream(params: PcieParams, n: u64) -> (Vec<SimTime>, f64) {
        let mut link = PcieLink::new(params);
        let done: Vec<SimTime> = (0..n).map(|_| link.transfer(SimTime::ZERO, 8192)).collect();
        let last = done.iter().copied().max().unwrap_or(SimTime::ZERO);
        (done, (n * 8192) as f64 / last.as_secs_f64())
    }

    #[test]
    fn single_page_latency() {
        let (done, _) = stream(PcieParams::paper(), 1);
        // setup 1us + 8KiB/1.6GB/s (~5.1us) + completion 2us ~ 8.1us.
        let lat = done[0];
        assert!(lat > SimTime::us(7) && lat < SimTime::us(9), "{lat}");
    }

    #[test]
    fn d2h_saturates_at_paper_cap() {
        let (_, rate) = stream(PcieParams::paper(), 400);
        assert!(rate > 1.55e9 && rate <= 1.6e9, "rate {rate:.3e}");
    }

    #[test]
    fn engine_count_hides_setup_latency() {
        let run = |engines: usize| stream(PcieParams { engines, ..PcieParams::paper() }, 200).1;
        // With one engine, 1us setup serializes with each ~5.1us transfer;
        // with four (the paper's choice) the setups overlap and the link
        // runs at capacity.
        let one = run(1);
        let four = run(4);
        assert!(four > 1.15 * one, "one {one:.3e}, four {four:.3e}");
    }

    #[test]
    fn completions_land_in_issue_order() {
        let (done, _) = stream(PcieParams::paper(), 3);
        assert!(done.windows(2).all(|w| w[0] < w[1]), "{done:?}");
    }
}
