//! Ablation studies for the design choices the paper calls out.
//!
//! * **Tag parallelism** — "to saturate the bandwidth of the flash
//!   device, multiple commands must be in-flight at the same time"
//!   (Section 3.1.1): controller throughput vs tag budget.
//! * **Credit depth** — the token flow control of Section 3.2.2: link
//!   goodput vs credits per lane.
//! * **Over-provisioning** — the driver-side FTL of Section 4: write
//!   amplification vs reserved capacity.
//! * **Integrated network vs host-mediated hops** — Section 6.4's
//!   argument for overlapping storage and network access.

use bluedbm_core::paths::{measure_path, AccessPath};
use bluedbm_core::{Cluster, NodeId, SystemConfig};
use bluedbm_flash::controller::{CtrlCmd, FlashController, Tag};
use bluedbm_flash::msg::FlashMsg;
use bluedbm_flash::{FlashArray, FlashGeometry, FlashTiming, Ppa};
use bluedbm_ftl::ftl::{Ftl, FtlConfig};
use bluedbm_net::msg::NetMsg;
use bluedbm_net::packet::NetParams;
use bluedbm_net::router::{build_network, NetSend, Router};
use bluedbm_net::topology::Topology;
use bluedbm_sim::engine::{Component, Ctx, Simulator};
use bluedbm_sim::rng::Rng;
use bluedbm_sim::time::SimTime;
use serde::Serialize;

/// A generic (x, y) sweep result.
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct Sweep {
    /// What was swept.
    pub(crate) parameter: &'static str,
    /// What was measured.
    pub(crate) metric: &'static str,
    /// The (x, y) points.
    pub(crate) points: Vec<(f64, f64)>,
}

impl Sweep {
    /// Render as a two-column table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(x, y)| vec![format!("{x}"), format!("{y:.3}")])
            .collect();
        crate::report::render_table(&[self.parameter, self.metric], &rows)
    }
}

/// Counts read completions (helper client).
struct Collector {
    done: u64,
    last: SimTime,
}

impl Component<FlashMsg> for Collector {
    fn handle(&mut self, ctx: &mut Ctx<'_, FlashMsg>, msg: FlashMsg) {
        if matches!(msg, FlashMsg::Resp(_)) {
            self.done += 1;
            self.last = ctx.now();
        }
    }
}

/// Controller read bandwidth (GB/s) as a function of the tag budget.
pub fn tag_parallelism() -> Sweep {
    let geom = FlashGeometry::paper_card();
    let points = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|tags| {
            let mut sim = Simulator::new();
            let mut array = FlashArray::new(geom, 1);
            // One page on every chip, several rounds.
            const ROUNDS: u32 = 4;
            let data = vec![0u8; geom.page_bytes];
            // Issue order striped across buses/chips, so a small tag
            // window still reaches every bus.
            let mut addrs = Vec::new();
            for p in 0..ROUNDS {
                for chip in 0..geom.chips_per_bus as u16 {
                    for bus in 0..geom.buses as u16 {
                        let ppa = Ppa::new(bus, chip, 0, p);
                        array.program(ppa, &data).unwrap();
                        addrs.push(ppa);
                    }
                }
            }
            let ctrl = sim.add_component(FlashController::with_tags(
                array,
                FlashTiming::paper(),
                tags,
            ));
            let client = sim.add_component(Collector {
                done: 0,
                last: SimTime::ZERO,
            });
            for (i, ppa) in addrs.iter().enumerate() {
                sim.schedule(
                    SimTime::ZERO,
                    ctrl,
                    CtrlCmd::Read {
                        tag: Tag(i as u16),
                        ppa: *ppa,
                        reply_to: client,
                    },
                );
            }
            sim.run();
            let c = sim.component::<Collector>(client).unwrap();
            let bytes = c.done * geom.page_bytes as u64;
            (tags as f64, bytes as f64 / c.last.as_secs_f64() / 1e9)
        })
        .collect();
    Sweep {
        parameter: "tags",
        metric: "read bandwidth (GB/s)",
        points,
    }
}

/// Endpoint sink counting bytes (helper for the credit sweep).
struct ByteSink {
    bytes: u64,
}

impl Component<NetMsg<()>> for ByteSink {
    fn handle(&mut self, _ctx: &mut Ctx<'_, NetMsg<()>>, msg: NetMsg<()>) {
        let NetMsg::Recv(r) = msg else {
            panic!("NetRecv expected")
        };
        self.bytes += u64::from(r.payload_bytes);
    }
}

/// Link goodput (Gbps) as a function of credits per lane, for small
/// packets where the credit round trip bites hardest.
pub fn credit_depth() -> Sweep {
    let points = [1u32, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|credits| {
            let mut sim = Simulator::new();
            let params = NetParams {
                credits_per_lane: credits,
                ..NetParams::paper()
            };
            let topo = Topology::line(2, 1);
            let routers = build_network(&mut sim, &topo, params);
            let sink = sim.add_component(ByteSink { bytes: 0 });
            sim.component_mut::<Router<()>>(routers[1])
                .unwrap()
                .register_endpoint(0, sink);
            for _ in 0..400 {
                sim.schedule(
                    SimTime::ZERO,
                    routers[0],
                    NetSend::new(bluedbm_net::NodeId(1), 0, 512, ()),
                );
            }
            sim.run();
            let bytes = sim.component::<ByteSink>(sink).unwrap().bytes;
            (
                f64::from(credits),
                bytes as f64 * 8.0 / sim.now().as_secs_f64() / 1e9,
            )
        })
        .collect();
    Sweep {
        parameter: "credits/lane",
        metric: "goodput (Gbit/s)",
        points,
    }
}

/// FTL write amplification as a function of over-provisioning, under a
/// uniform random overwrite workload.
pub fn over_provisioning() -> Sweep {
    let points = [0.06, 0.12, 0.20, 0.30, 0.40]
        .into_iter()
        .map(|op| {
            let config = FtlConfig {
                over_provision: op,
                ..FtlConfig::default()
            };
            let mut ftl =
                Ftl::new(FlashArray::new(FlashGeometry::small(), 3), config).unwrap();
            let cap = ftl.capacity_pages();
            let mut rng = Rng::new(17);
            for lba in 0..cap {
                ftl.step_write(lba).unwrap();
            }
            for _ in 0..cap * 3 {
                ftl.step_write(rng.below(cap)).unwrap();
            }
            (op, ftl.stats().waf())
        })
        .collect();
    Sweep {
        parameter: "over-provisioning",
        metric: "write amplification",
        points,
    }
}

/// ISP-F vs H-RH-F latency as the hop count grows — the integrated
/// network's advantage compounds with distance because the host-mediated
/// path pays its software tax regardless.
pub fn network_integration() -> Sweep {
    let config = SystemConfig::paper();
    let mut cluster = Cluster::line(5, 1, &config).expect("cluster");
    let page = vec![0u8; config.flash.geometry.page_bytes];
    let points = (1..=4usize)
        .map(|hops| {
            let target = NodeId::from(hops);
            let addr = cluster.preload_page(target, &page).expect("preload");
            let ispf = measure_path(&mut cluster, NodeId(0), addr, 0, AccessPath::IspF)
                .expect("ISP-F")
                .total();
            let hrhf = measure_path(&mut cluster, NodeId(0), addr, 0, AccessPath::HRhF)
                .expect("H-RH-F")
                .total();
            (hops as f64, hrhf.as_secs_f64() / ispf.as_secs_f64())
        })
        .collect();
    Sweep {
        parameter: "hops",
        metric: "H-RH-F / ISP-F latency ratio",
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_tags_more_bandwidth_until_saturation() {
        let s = tag_parallelism();
        let one = s.points.first().unwrap().1;
        let max = s.points.last().unwrap().1;
        // One outstanding command leaves the card mostly idle.
        assert!(max / one > 5.0, "one {one}, max {max}");
        // With 128 tags the card reaches its 1.2 GB/s envelope.
        assert!(max > 1.0 && max <= 1.25, "max {max}");
        // Monotone non-decreasing.
        for w in s.points.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "{:?}", s.points);
        }
    }

    #[test]
    fn starved_credits_hurt_small_packet_goodput() {
        let s = credit_depth();
        let one = s.points.first().unwrap().1;
        let max = s.points.last().unwrap().1;
        assert!(max > 2.0 * one, "one credit {one}, deep {max}");
    }

    #[test]
    fn over_provisioning_monotonically_improves_waf() {
        let s = over_provisioning();
        for w in s.points.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 0.05,
                "WAF should fall with OP: {:?}",
                s.points
            );
        }
        assert!(s.points.first().unwrap().1 > s.points.last().unwrap().1);
    }

    #[test]
    fn integration_advantage_holds_at_every_distance() {
        let s = network_integration();
        for (hops, ratio) in &s.points {
            assert!(*ratio > 2.0, "at {hops} hops the ratio fell to {ratio}");
        }
    }

    #[test]
    fn sweeps_render() {
        assert!(tag_parallelism().render().contains("tags"));
    }
}
