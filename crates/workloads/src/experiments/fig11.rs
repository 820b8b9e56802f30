//! Figure 11: integrated network bandwidth and latency vs hop count.
//!
//! Paper: a single stream of 128-bit packets sustains **8.2 Gbps per
//! lane** regardless of hop count (1–5 hops), with **0.48 µs latency per
//! hop** (protocol overhead under 18% of the 10 Gbps line rate).

use bluedbm_net::msg::NetMsg;
use bluedbm_net::packet::NetParams;
use bluedbm_net::router::{build_network, NetSend, Router};
use bluedbm_net::topology::{NodeId, Topology};
use bluedbm_sim::engine::{Component, ComponentId, Ctx, Simulator};
use bluedbm_sim::time::SimTime;
use serde::Serialize;

/// One row of the figure: a hop count with its measured numbers.
#[derive(Clone, Copy, Debug, Serialize, PartialEq)]
pub struct Fig11Row {
    /// Network distance of the stream.
    pub(crate) hops: u32,
    /// Sustained goodput of a saturating stream (Gbps).
    pub bandwidth_gbps: f64,
    /// Per-hop latency of an unloaded small packet (µs).
    pub latency_per_hop_us: f64,
}

/// The full figure.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Fig11 {
    /// One row per hop count, 1..=5.
    pub rows: Vec<Fig11Row>,
}

/// Sink that counts delivered payload bytes and records latencies.
struct Sink {
    bytes: u64,
    last_latency: SimTime,
    count: u64,
}

impl Component<NetMsg<()>> for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_, NetMsg<()>>, msg: NetMsg<()>) {
        let NetMsg::Recv(r) = msg else {
            panic!("NetRecv expected")
        };
        self.bytes += u64::from(r.payload_bytes);
        self.last_latency = r.latency;
        self.count += 1;
    }
}

fn sink_on(sim: &mut Simulator<NetMsg<()>>, router: ComponentId, ep: u16) -> ComponentId {
    let sink = sim.add_component(Sink {
        bytes: 0,
        last_latency: SimTime::ZERO,
        count: 0,
    });
    sim.component_mut::<Router<()>>(router)
        .unwrap()
        .register_endpoint(ep, sink);
    sink
}

/// Run the experiment: a 6-node chain; for each hop count measure (a)
/// one small packet's latency and (b) a saturating large-packet stream.
pub fn run() -> Fig11 {
    let params = NetParams::paper();
    let mut rows = Vec::new();
    for hops in 1..=5u32 {
        // (a) Unloaded latency of a single 16-byte (128-bit) packet.
        let mut sim = Simulator::new();
        let topo = Topology::line(6, 1);
        let routers = build_network(&mut sim, &topo, params);
        let sink = sink_on(&mut sim, routers[hops as usize], 0);
        sim.schedule(
            SimTime::ZERO,
            routers[0],
            NetSend::new(NodeId::from(hops as usize), 0, 16, ()),
        );
        sim.run();
        let latency = sim.component::<Sink>(sink).unwrap().last_latency;

        // (b) Saturating stream of 8 KiB packets across the same hops.
        let mut sim = Simulator::new();
        let routers = build_network(&mut sim, &topo, params);
        let sink = sink_on(&mut sim, routers[hops as usize], 0);
        const PACKETS: usize = 300;
        for _ in 0..PACKETS {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId::from(hops as usize), 0, 8192, ()),
            );
        }
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        debug_assert_eq!(s.count as usize, PACKETS);
        let gbps = s.bytes as f64 * 8.0 / sim.now().as_secs_f64() / 1e9;

        rows.push(Fig11Row {
            hops,
            bandwidth_gbps: gbps,
            latency_per_hop_us: latency.as_us_f64() / f64::from(hops),
        });
    }
    Fig11 { rows }
}

impl Fig11 {
    /// Render the paper-style table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.hops.to_string(),
                    format!("{:.2}", r.bandwidth_gbps),
                    format!("{:.3}", r.latency_per_hop_us),
                ]
            })
            .collect();
        crate::report::render_table(&["hops", "bandwidth (Gb/s/lane)", "latency/hop (us)"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_flat_latency_linear() {
        let fig = run();
        assert_eq!(fig.rows.len(), 5);
        for r in &fig.rows {
            // Paper: 8.2 Gbps sustained at every hop count.
            assert!(
                r.bandwidth_gbps > 7.8 && r.bandwidth_gbps <= 8.25,
                "hop {}: {}",
                r.hops,
                r.bandwidth_gbps
            );
            // Paper: 0.48 us per hop.
            assert!(
                (r.latency_per_hop_us - 0.48).abs() < 0.06,
                "hop {}: {}",
                r.hops,
                r.latency_per_hop_us
            );
        }
        // Flatness: first and last hop bandwidths within 3%.
        let spread =
            (fig.rows[0].bandwidth_gbps - fig.rows[4].bandwidth_gbps).abs() / fig.rows[0].bandwidth_gbps;
        assert!(spread < 0.03, "bandwidth must not decay with hops: {spread}");
    }

    #[test]
    fn render_contains_all_hops() {
        let s = run().render();
        for h in 1..=5 {
            assert!(s.lines().any(|l| l.starts_with(&h.to_string())));
        }
    }
}
