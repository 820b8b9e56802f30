//! Sub-second micro-probes: one layer driven alone through its public
//! API, so a layer's own cost can be told apart from the cost of the
//! workload around it. Run only in the layers pass, each beside the
//! workload whose end-to-end metric it is predicted to move.

use std::hint::black_box;

use bluedbm_flash::{FlashArray, FlashGeometry};
use bluedbm_ftl::{Ftl, FtlConfig};
use bluedbm_isp::{Accelerator, FilterEngine, HammingEngine, MpMatcher};
use bluedbm_net::msg::NetMsg;
use bluedbm_net::packet::NetParams;
use bluedbm_net::router::{build_network, NetSend, Router};
use bluedbm_net::topology::{NodeId, Topology};
use bluedbm_sim::engine::{Component, Ctx, Simulator};
use bluedbm_sim::time::SimTime;
use bluedbm_sim::Rng;

use crate::layers::Layers;
use crate::spans::now;

/// Re-sends itself `remaining` more times, `delay` apart.
struct Chain {
    delay: SimTime,
}

struct Tick(u64);

impl Component<Tick> for Chain {
    fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, msg: Tick) {
        if msg.0 > 0 {
            ctx.send_self(self.delay, Tick(msg.0 - 1));
        }
    }
}

/// ns per event of a bare `Simulator` running one self-send chain.
fn chain_ns_per_event(delay: SimTime) -> f64 {
    const EVENTS: u64 = 2_000_000;
    let mut sim = Simulator::new();
    let id = sim.add_component(Chain { delay });
    sim.schedule(SimTime::ZERO, id, Tick(EVENTS - 1));
    let start = now();
    sim.run();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sim.events_delivered(), EVENTS);
    secs * 1e9 / EVENTS as f64
}

/// The event kernel alone: a zero-delay chain stays on the same-instant
/// fast queue, a 10 ns chain goes through the heap.
pub fn kernel(out: &mut Layers) {
    out.push((
        "sim.kernel.fastq_ns_per_event",
        chain_ns_per_event(SimTime::ZERO),
    ));
    out.push((
        "sim.kernel.heap_ns_per_event",
        chain_ns_per_event(SimTime::ns(10)),
    ));
}

/// Counts deliveries.
struct Sink(u64);

impl Component<NetMsg<()>> for Sink {
    fn handle(&mut self, _ctx: &mut Ctx<'_, NetMsg<()>>, msg: NetMsg<()>) {
        if matches!(msg, NetMsg::Recv(_)) {
            self.0 += 1;
        }
    }
}

/// The router alone: a packet stream across all five hops of a 6-node
/// line, ns of host time per delivered packet.
pub fn router(out: &mut Layers) {
    const PACKETS: u64 = 50_000;
    let mut sim = Simulator::new();
    let routers = build_network(&mut sim, &Topology::line(6, 1), NetParams::paper());
    let sink = sim.add_component(Sink(0));
    sim.component_mut::<Router<()>>(routers[5])
        .expect("router")
        .register_endpoint(0, sink);
    for _ in 0..PACKETS {
        sim.schedule(
            SimTime::ZERO,
            routers[0],
            NetSend::new(NodeId::from(5usize), 0, 512, ()),
        );
    }
    let start = now();
    sim.run();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(sim.component::<Sink>(sink).expect("sink").0, PACKETS);
    out.push((
        "net.router.probe_ns_per_packet",
        secs * 1e9 / PACKETS as f64,
    ));
}

/// The FTL policy alone: offline `step_write` churn at 4x capacity on a
/// full device, so allocation, victim selection and relocation
/// bookkeeping all run.
pub fn ftl_step_write(out: &mut Layers) {
    let mut ftl = Ftl::new(
        FlashArray::new(FlashGeometry::small(), 1),
        FtlConfig::default(),
    )
    .expect("ftl");
    let capacity = ftl.capacity_pages();
    for lba in 0..capacity {
        ftl.step_write(lba).expect("fill");
    }
    let mut rng = Rng::new(0xF71);
    let writes = capacity * 4;
    let start = now();
    for _ in 0..writes {
        black_box(ftl.step_write(rng.below(capacity)).expect("churn"));
    }
    out.push((
        "ftl.step_write_ns",
        start.elapsed().as_secs_f64() * 1e9 / writes as f64,
    ));
}

/// GB/s of host time `engine` sustains over `pages`.
fn engine_gbps(engine: &mut dyn Accelerator, pages: &[Vec<u8>]) -> f64 {
    const PASSES: u64 = 8;
    let start = now();
    let mut seq = 0;
    for _ in 0..PASSES {
        for page in pages {
            engine.consume(seq, black_box(page));
            seq += 1;
        }
    }
    black_box(engine.result_bytes());
    let bytes = PASSES * pages.iter().map(Vec::len).sum::<usize>() as u64;
    bytes as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// The ISP engines alone, over 4 MiB of random 8 KiB pages.
pub fn isp(out: &mut Layers) {
    let mut rng = Rng::new(0x15B);
    let pages: Vec<Vec<u8>> = (0..512)
        .map(|_| {
            let mut page = vec![0u8; 8192];
            rng.fill_bytes(&mut page);
            page
        })
        .collect();
    let mut mp = MpMatcher::new(b"BlueDBM-needle").expect("non-empty needle");
    out.push(("isp.mp_gbps", engine_gbps(&mut mp, &pages)));
    let mut hamming = HammingEngine::new(pages[0].clone());
    out.push(("isp.hamming_gbps", engine_gbps(&mut hamming, &pages)));
    // Keys are uniform 64-bit, so a 1-in-2^20 range keeps matches sparse.
    let mut filter = FilterEngine::new(16, 0, 0..(1 << 44));
    out.push(("isp.filter_gbps", engine_gbps(&mut filter, &pages)));
}
