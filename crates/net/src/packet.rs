//! Packets and link-layer parameters.

use bluedbm_sim::time::{Bandwidth, SimTime};

use crate::topology::NodeId;

/// Link-layer constants, with paper defaults.
///
/// # Examples
///
/// ```rust
/// use bluedbm_net::packet::NetParams;
///
/// let p = NetParams::paper();
/// // 8 KiB payload: goodput within a few percent of the measured 8.2 Gbps.
/// let gbps = 8192.0 * 8.0 / p.packet_time(8192).as_secs_f64() / 1e9;
/// assert!(gbps > 8.0 && gbps < 8.3, "{gbps}");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetParams {
    /// Raw lane rate (paper: 10 Gbps GTX/GTP transceivers).
    pub lane_bandwidth: Bandwidth,
    /// Fraction of the raw rate available to packet bytes after framing,
    /// 8b/10b-style coding and flow-control traffic. The paper measures
    /// 8.2 Gbps of goodput on a 10 Gbps lane: 0.82.
    pub efficiency: f64,
    /// Per-packet header bytes (route, endpoint, sequence, CRC).
    pub header_bytes: u32,
    /// Propagation + switch traversal per hop (paper: 0.48 µs).
    pub hop_latency: SimTime,
    /// Link-layer credits per lane: how many packets the receiver's
    /// ingress buffer holds. Senders stall at zero credits — the paper's
    /// token flow control.
    pub credits_per_lane: u32,
}

impl NetParams {
    /// Paper-calibrated parameters (Sections 5.2, 6.3).
    pub fn paper() -> Self {
        NetParams {
            lane_bandwidth: Bandwidth::gbits(10.0),
            efficiency: 0.82,
            header_bytes: 8,
            hop_latency: SimTime::ns(480),
            credits_per_lane: 16,
        }
    }

    /// Effective payload bandwidth of one lane.
    pub(crate) fn goodput(&self) -> Bandwidth {
        self.lane_bandwidth.scale(self.efficiency)
    }

    /// Time one packet of `payload_bytes` occupies a lane.
    pub fn packet_time(&self, payload_bytes: u32) -> SimTime {
        self.goodput()
            .time_for(u64::from(payload_bytes) + u64::from(self.header_bytes))
    }
}

impl Default for NetParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// One packet on the storage network, generic over the body type.
///
/// `payload_bytes` drives the timing model; `body` carries the actual
/// message object (a remote read request, a page of data, ...) for the
/// functional layer. The two are decoupled so control messages can be
/// "small" on the wire while still carrying rich Rust types — and the
/// body travels inline, not boxed.
#[derive(Clone, Debug)]
pub(crate) struct Packet<B> {
    /// Originating node.
    pub(crate) src: NodeId,
    /// Destination node.
    pub(crate) dst: NodeId,
    /// Logical endpoint (virtual channel) index.
    pub(crate) endpoint: u16,
    /// Size on the wire, excluding the header.
    pub(crate) payload_bytes: u32,
    /// Per-(endpoint, src) sequence number, for order checking.
    pub(crate) seq: u64,
    /// The message object delivered to the receiving endpoint.
    pub(crate) body: B,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_matches_paper() {
        let p = NetParams::paper();
        assert!((p.goodput().as_gbits() - 8.2).abs() < 1e-9);
    }

    #[test]
    fn packet_time_includes_header() {
        let p = NetParams::paper();
        let with = p.packet_time(1000);
        let without = p.goodput().time_for(1000);
        assert!(with > without);
    }

    #[test]
    fn small_packets_pay_proportionally_more_overhead() {
        let p = NetParams::paper();
        let small_rate = 16.0 / p.packet_time(16).as_secs_f64();
        let large_rate = 8192.0 / p.packet_time(8192).as_secs_f64();
        assert!(large_rate > small_rate);
    }
}
