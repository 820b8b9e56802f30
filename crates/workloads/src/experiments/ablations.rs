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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bluedbm_core::paths::{measure_path, AccessPath};
use bluedbm_core::{Cluster, NodeId, SystemConfig};
use bluedbm_flash::controller::{CtrlCmd, CtrlResp, FlashController, Tag};
use bluedbm_flash::{FlashArray, FlashGeometry, FlashTiming, Ppa};
use bluedbm_ftl::ftl::{Ftl, FtlConfig};
use bluedbm_net::msg::NetMsg;
use bluedbm_net::packet::NetParams;
use bluedbm_net::router::{build_network, NetSend, Router};
use bluedbm_net::topology::Topology;
use bluedbm_sim::engine::{Component, Ctx, Simulator};
use bluedbm_sim::rng::Rng;
use bluedbm_sim::PageStore;
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

/// Read `reads` in order through `ctl`, keeping at most `tags` of them
/// booked: the first `tags` at time zero, then each next one at the
/// earliest completion (same-instant completions in booking order),
/// freeing every page read. Returns each read's index and finish
/// instant, in completion order.
fn tag_window_reads(ctl: &mut FlashController, reads: &[Ppa], tags: usize) -> Vec<(usize, SimTime)> {
    let mut pages = PageStore::new();
    let mut booked = BinaryHeap::new();
    let mut done = Vec::with_capacity(reads.len());
    let mut now = SimTime::ZERO;
    let mut next = reads.iter().enumerate();
    loop {
        while booked.len() < tags {
            let Some((i, &ppa)) = next.next() else { break };
            let (end, resp) = ctl.book(now, &mut pages, CtrlCmd::Read { tag: Tag(i as u16), ppa });
            if let CtrlResp::ReadDone { result: Ok(read), .. } = resp {
                pages.free(read.page);
            }
            booked.push(Reverse((end, i)));
        }
        let Some(Reverse((end, i))) = booked.pop() else {
            return done;
        };
        ctl.complete();
        now = end;
        done.push((i, end));
    }
}

/// Controller read bandwidth (GB/s) as a function of the tag budget.
pub fn tag_parallelism() -> Sweep {
    let geom = FlashGeometry::paper_card();
    let points = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|tags| {
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
            let mut ctl = FlashController::new(array, FlashTiming::paper());
            let done = tag_window_reads(&mut ctl, &addrs, tags);
            let last = done.last().map_or(SimTime::ZERO, |&(_, end)| end);
            let bytes = done.len() as u64 * geom.page_bytes as u64;
            (tags as f64, bytes as f64 / last.as_secs_f64() / 1e9)
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
    fn a_tag_window_books_successors_at_completions_in_booking_order() {
        // Reads 0 and 1 sit on different buses and finish at one
        // instant; 2..6 queue behind them on one chip.
        let geom = FlashGeometry::tiny();
        let mut array = FlashArray::new(geom, 1);
        let data = vec![0u8; geom.page_bytes];
        let mut reads = vec![Ppa::new(0, 0, 0, 0), Ppa::new(1, 1, 0, 0)];
        reads.extend((1..5).map(|p| Ppa::new(0, 1, 0, p)));
        for &ppa in &reads {
            array.program(ppa, &data).unwrap();
        }
        let mut ctl = FlashController::new(array, FlashTiming::paper());
        let done = tag_window_reads(&mut ctl, &reads, 2);
        assert_eq!(ctl.stats().peak_in_flight, 2, "at most 2 booked at once");
        let order: Vec<usize> = done.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5], "all 6 complete, in booking order");
        assert_eq!(done[0].1, done[1].1, "reads 0 and 1 finish at one instant");
        // Read 2 was booked at that instant, by read 0's completion, so
        // it holds the chip first and read 3 waits a cell read behind it.
        let t = FlashTiming::paper();
        let read_time = t.command_overhead + t.read_cell + t.transfer_time(geom.page_bytes);
        assert_eq!(done[2].1, done[0].1 + read_time);
        assert_eq!(done[3].1, done[2].1 + t.read_cell);
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
