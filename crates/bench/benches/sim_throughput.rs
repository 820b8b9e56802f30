//! End-to-end event-kernel throughput: simulated events per second of
//! wall-clock, for the typed slab/index-heap kernel that now powers every
//! exhibit — measured head-to-head against the seed's `Box<dyn Any>` +
//! `BinaryHeap` kernel (kept below as an in-tree baseline) on identical
//! workloads, plus a fig13-sized cluster read stream through the full
//! node/network/flash stack.
//!
//! The acceptance bar for the typed-kernel refactor is >=2x events/sec
//! over the boxed baseline on the same-instant fast-path chains (the
//! dominant pattern in the command-forwarding hot path); heap-bound and
//! scatter workloads win by smaller margins.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use bluedbm_core::node::Consume;
use bluedbm_core::{Cluster, NodeId, SystemConfig};
use bluedbm_net::topology::Topology as NetTopology;
use bluedbm_sim::engine::{Batch, Component, ComponentId, Ctx, Simulator};
use bluedbm_sim::pagestore::{PageRef, PageStore};
use bluedbm_sim::time::SimTime;

const CHAIN_EVENTS: u64 = 100_000;
const SCATTER_EVENTS: u64 = 20_000;
/// Same-component event-train shape: every round fires one burst of
/// same-instant commands at a single sink — the command-forwarding train
/// the batched dispatcher drains in one component borrow.
const TRAIN_ROUNDS: u64 = 400;
const TRAIN_LEN: u64 = 256;
const TRAIN_EVENTS: u64 = TRAIN_ROUNDS * (TRAIN_LEN + 1);
/// Page size of the page-carrying train shape (the paper's 8 KiB page).
const PAGE_BYTES: usize = 8192;

// ---------------------------------------------------------------------------
// The pre-refactor kernel, preserved verbatim in miniature: one heap-boxed
// `dyn Any` message per event, downcast on delivery, `BinaryHeap` ordered
// by an inverted (time, seq) key. This is what the seed's `engine.rs` did.
// ---------------------------------------------------------------------------
mod boxed {
    use bluedbm_sim::time::SimTime;
    use std::any::Any;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy)]
    pub struct ComponentId(pub usize);

    pub trait Component: Any {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Box<dyn Any>);
    }

    struct Scheduled {
        at: SimTime,
        seq: u64,
        to: ComponentId,
        msg: Box<dyn Any>,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Scheduled {}
    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    pub struct Ctx<'a> {
        now: SimTime,
        self_id: ComponentId,
        outbox: &'a mut Vec<(SimTime, ComponentId, Box<dyn Any>)>,
    }

    impl Ctx<'_> {
        pub fn send_self<M: Any>(&mut self, delay: SimTime, msg: M) {
            self.outbox
                .push((self.now + delay, self.self_id, Box::new(msg)));
        }

        pub fn send<M: Any>(&mut self, to: ComponentId, delay: SimTime, msg: M) {
            self.outbox.push((self.now + delay, to, Box::new(msg)));
        }
    }

    pub struct Simulator {
        now: SimTime,
        seq: u64,
        delivered: u64,
        heap: BinaryHeap<Scheduled>,
        components: Vec<Option<Box<dyn Component>>>,
        outbox: Vec<(SimTime, ComponentId, Box<dyn Any>)>,
    }

    impl Simulator {
        pub fn new() -> Self {
            Simulator {
                now: SimTime::ZERO,
                seq: 0,
                delivered: 0,
                heap: BinaryHeap::new(),
                components: Vec::new(),
                outbox: Vec::new(),
            }
        }

        pub fn events_delivered(&self) -> u64 {
            self.delivered
        }

        pub fn add_component<C: Component>(&mut self, component: C) -> ComponentId {
            let id = ComponentId(self.components.len());
            self.components.push(Some(Box::new(component)));
            id
        }

        pub fn schedule<M: Any>(&mut self, delay: SimTime, to: ComponentId, msg: M) {
            self.heap.push(Scheduled {
                at: self.now + delay,
                seq: self.seq,
                to,
                msg: Box::new(msg),
            });
            self.seq += 1;
        }

        pub fn run(&mut self) {
            while let Some(ev) = self.heap.pop() {
                self.now = ev.at;
                self.delivered += 1;
                let mut component = self.components[ev.to.0].take().expect("installed");
                {
                    let mut ctx = Ctx {
                        now: self.now,
                        self_id: ev.to,
                        outbox: &mut self.outbox,
                    };
                    component.handle(&mut ctx, ev.msg);
                }
                self.components[ev.to.0] = Some(component);
                for (at, to, msg) in self.outbox.drain(..) {
                    self.heap.push(Scheduled {
                        at,
                        seq: self.seq,
                        to,
                        msg,
                    });
                    self.seq += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Identical workloads on both kernels.
// ---------------------------------------------------------------------------

/// Zero-payload message: isolates pure event-delivery overhead (queue
/// mechanics, dispatch, clock) with no payload-transport cost on either
/// kernel.
struct Tick;

/// Payload in the size class of the real protocol messages (a `CtrlCmd`
/// or `CtrlResp` is several machine words, and every hot-path event in
/// the full system carries one): the boxed kernel pays one allocation +
/// pointer chase per event for it, the typed kernel moves it inline.
struct Cmd([u64; 8]);

struct TypedTickBouncer {
    remaining: u64,
    delay: SimTime,
}

impl Component<Tick> for TypedTickBouncer {
    fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, _msg: Tick) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(self.delay, Tick);
        }
    }
}

struct BoxedTickBouncer {
    remaining: u64,
    delay: SimTime,
}

impl boxed::Component for BoxedTickBouncer {
    fn handle(&mut self, ctx: &mut boxed::Ctx<'_>, _msg: Box<dyn std::any::Any>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(self.delay, Tick);
        }
    }
}

struct TypedBouncer {
    remaining: u64,
    delay: SimTime,
}

impl Component<Cmd> for TypedBouncer {
    fn handle(&mut self, ctx: &mut Ctx<'_, Cmd>, msg: Cmd) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(self.delay, Cmd([msg.0[0] + 1; 8]));
        }
    }
}

struct BoxedBouncer {
    remaining: u64,
    delay: SimTime,
}

impl boxed::Component for BoxedBouncer {
    fn handle(&mut self, ctx: &mut boxed::Ctx<'_>, msg: Box<dyn std::any::Any>) {
        let cmd = msg.downcast::<Cmd>().expect("Cmd");
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send_self(self.delay, Cmd([cmd.0[0] + 1; 8]));
        }
    }
}

/// Sink that consumes scattered commands (heap scaling under load).
struct TypedSink {
    seen: u64,
}

impl Component<Cmd> for TypedSink {
    fn handle(&mut self, _ctx: &mut Ctx<'_, Cmd>, msg: Cmd) {
        self.seen += msg.0[0];
    }
}

struct BoxedSink {
    seen: u64,
}

impl boxed::Component for BoxedSink {
    fn handle(&mut self, _ctx: &mut boxed::Ctx<'_>, msg: Box<dyn std::any::Any>) {
        let cmd = msg.downcast::<Cmd>().expect("Cmd");
        self.seen += cmd.0[0];
    }
}

/// Message shape of a train bench: `Tick` (zero-sized) isolates pure
/// dispatch overhead, `Cmd` adds the realistic control-payload cost,
/// `BoxedPage` is the seed's inline page payload (a fresh 8 KiB heap
/// `Vec` per message). Static methods so handler bodies fully inline in
/// both kernels.
trait TrainShape: Sized + 'static {
    fn make(i: u64) -> Self;
    fn weigh(&self) -> u64;
}

impl TrainShape for Tick {
    fn make(_: u64) -> Tick {
        Tick
    }
    fn weigh(&self) -> u64 {
        1
    }
}

impl TrainShape for Cmd {
    fn make(i: u64) -> Cmd {
        Cmd([i; 8])
    }
    fn weigh(&self) -> u64 {
        self.0[0]
    }
}

/// What a page message was before the handle refactor: the page bytes
/// inline in the message, freshly heap-allocated per event. Boxed-kernel
/// baseline of the `page` train shape.
struct BoxedPage(Vec<u8>);

impl TrainShape for BoxedPage {
    fn make(i: u64) -> BoxedPage {
        let mut page = vec![0u8; PAGE_BYTES];
        page[0] = i as u8;
        BoxedPage(page)
    }
    fn weigh(&self) -> u64 {
        self.0.len() as u64 + u64::from(self.0[0])
    }
}

/// Train shape for the typed kernel, which owns a [`PageStore`]: message
/// construction and consumption go through the store, so the `page`
/// shape can model handle-based payloads (alloc at the producer, free at
/// the consumer, 16-byte message on the wire). Store-free shapes get a
/// blanket impl.
trait StoreShape: Sized + 'static {
    fn make(i: u64, pages: &mut PageStore) -> Self;
    /// Consume the message at the sink (freeing any carried page).
    fn consume(self, pages: &mut PageStore) -> u64;
}

impl<T: TrainShape> StoreShape for T {
    fn make(i: u64, _pages: &mut PageStore) -> T {
        T::make(i)
    }
    fn consume(self, _pages: &mut PageStore) -> u64 {
        self.weigh()
    }
}

/// The post-refactor page message: a token plus an 8-byte handle into
/// the simulator's page store — what `CtrlCmd::Write` / `NetBody::Resp`
/// / `PcieXfer` now carry instead of an inline `Vec`.
struct PageCmd {
    token: u64,
    page: PageRef,
}

impl StoreShape for PageCmd {
    fn make(i: u64, pages: &mut PageStore) -> PageCmd {
        // `alloc` (not `alloc_zeroed`): steady-state slots recycle their
        // buffers, so the producer's fill cost — the actual data, paid
        // once in real flows — stays out of the transport measurement.
        PageCmd {
            token: i,
            page: pages.alloc(PAGE_BYTES),
        }
    }
    fn consume(self, pages: &mut PageStore) -> u64 {
        let weight = pages.len(self.page) as u64 + self.token;
        pages.free(self.page);
        weight
    }
}

/// Emits one train of `TRAIN_LEN` same-instant messages at the sink per
/// round, re-arming itself 10ns later — the command-forwarding pattern
/// (splitter fan-out, credit bursts) the batched dispatcher targets.
struct TypedTrainSource<T> {
    sink: ComponentId,
    rounds_left: u64,
    _shape: std::marker::PhantomData<fn() -> T>,
}

impl<T: StoreShape> Component<T> for TypedTrainSource<T> {
    fn handle(&mut self, ctx: &mut Ctx<'_, T>, msg: T) {
        msg.consume(ctx.pages());
        for i in 0..TRAIN_LEN {
            let m = T::make(i, ctx.pages());
            ctx.send(self.sink, SimTime::ZERO, m);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let m = T::make(0, ctx.pages());
            ctx.send_self(SimTime::ns(10), m);
        }
    }
}

/// Sink opting into [`Component::handle_batch`]: a whole train is
/// consumed with one component fetch and one virtual call.
struct TypedBatchSink<T> {
    seen: u64,
    _shape: std::marker::PhantomData<fn() -> T>,
}

impl<T: StoreShape> Component<T> for TypedBatchSink<T> {
    fn handle(&mut self, ctx: &mut Ctx<'_, T>, msg: T) {
        self.seen += msg.consume(ctx.pages());
    }

    fn handle_batch(&mut self, ctx: &mut Ctx<'_, T>, batch: &mut Batch<T>) {
        while let Some(msg) = batch.next(ctx) {
            self.seen += msg.consume(ctx.pages());
        }
    }
}

struct BoxedTrainSink<T> {
    seen: u64,
    _shape: std::marker::PhantomData<T>,
}

impl<T: TrainShape> boxed::Component for BoxedTrainSink<T> {
    fn handle(&mut self, _ctx: &mut boxed::Ctx<'_>, msg: Box<dyn std::any::Any>) {
        let m = msg.downcast::<T>().expect("train message");
        self.seen += m.weigh();
    }
}

struct BoxedTrainSource<T> {
    sink: boxed::ComponentId,
    rounds_left: u64,
    _shape: std::marker::PhantomData<T>,
}

impl<T: TrainShape> boxed::Component for BoxedTrainSource<T> {
    fn handle(&mut self, ctx: &mut boxed::Ctx<'_>, _msg: Box<dyn std::any::Any>) {
        for i in 0..TRAIN_LEN {
            ctx.send(self.sink, SimTime::ZERO, T::make(i));
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.send_self(SimTime::ns(10), T::make(0));
        }
    }
}

fn typed_train_setup<T: StoreShape>() -> Simulator<T> {
    let mut sim = Simulator::with_capacity(TRAIN_LEN as usize + 8);
    let sink = sim.reserve();
    let source = sim.add_component(TypedTrainSource::<T> {
        sink,
        rounds_left: TRAIN_ROUNDS - 1,
        _shape: std::marker::PhantomData,
    });
    sim.install(
        sink,
        TypedBatchSink::<T> {
            seen: 0,
            _shape: std::marker::PhantomData,
        },
    );
    let kick = T::make(0, sim.page_store_mut());
    sim.schedule(SimTime::ZERO, source, kick);
    sim
}

fn pseudo_delays(n: u64) -> impl Iterator<Item = SimTime> {
    let mut x = 0x9e3779b97f4a7c15u64;
    (0..n).map(move |_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        SimTime::ns(x % 100_000)
    })
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_kernel");
    g.throughput(Throughput::Elements(CHAIN_EVENTS));

    // Pure delivery overhead: zero-sized messages.
    for (name, delay) in [
        ("tick_chain_10ns", SimTime::ns(10)),
        ("tick_chain_zero_delay", SimTime::ZERO),
    ] {
        g.bench_function(&format!("typed/{name}"), |b| {
            b.iter_batched(
                || {
                    let mut sim = Simulator::new();
                    let id = sim.add_component(TypedTickBouncer {
                        remaining: CHAIN_EVENTS,
                        delay,
                    });
                    sim.schedule(SimTime::ZERO, id, Tick);
                    sim
                },
                |mut sim| {
                    sim.run();
                    black_box(sim.events_delivered())
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(&format!("boxed/{name}"), |b| {
            b.iter_batched(
                || {
                    let mut sim = boxed::Simulator::new();
                    let id = sim.add_component(BoxedTickBouncer {
                        remaining: CHAIN_EVENTS,
                        delay,
                    });
                    sim.schedule(SimTime::ZERO, id, Tick);
                    sim
                },
                |mut sim| {
                    sim.run();
                    black_box(sim.events_delivered())
                },
                BatchSize::SmallInput,
            )
        });
    }

    // Payload transport: command-sized messages.
    for (name, delay) in [
        ("cmd_chain_10ns", SimTime::ns(10)),
        ("cmd_chain_zero_delay", SimTime::ZERO),
    ] {
        g.bench_function(&format!("typed/{name}"), |b| {
            b.iter_batched(
                || {
                    let mut sim = Simulator::new();
                    let id = sim.add_component(TypedBouncer {
                        remaining: CHAIN_EVENTS,
                        delay,
                    });
                    sim.schedule(SimTime::ZERO, id, Cmd([0; 8]));
                    sim
                },
                |mut sim| {
                    sim.run();
                    black_box(sim.events_delivered())
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_function(&format!("boxed/{name}"), |b| {
            b.iter_batched(
                || {
                    let mut sim = boxed::Simulator::new();
                    let id = sim.add_component(BoxedBouncer {
                        remaining: CHAIN_EVENTS,
                        delay,
                    });
                    sim.schedule(SimTime::ZERO, id, Cmd([0; 8]));
                    sim
                },
                |mut sim| {
                    sim.run();
                    black_box(sim.events_delivered())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();

    let mut g = c.benchmark_group("des_kernel_scatter");
    g.throughput(Throughput::Elements(SCATTER_EVENTS));
    g.bench_function("typed/scatter_20k", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulator::with_capacity(SCATTER_EVENTS as usize);
                let id = sim.add_component(TypedSink { seen: 0 });
                for (i, d) in pseudo_delays(SCATTER_EVENTS).enumerate() {
                    sim.schedule(d, id, Cmd([i as u64; 8]));
                }
                sim
            },
            |mut sim| {
                sim.run();
                black_box(sim.events_delivered())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("boxed/scatter_20k", |b| {
        b.iter_batched(
            || {
                let mut sim = boxed::Simulator::new();
                let id = sim.add_component(BoxedSink { seen: 0 });
                for (i, d) in pseudo_delays(SCATTER_EVENTS).enumerate() {
                    sim.schedule(d, id, Cmd([i as u64; 8]));
                }
                sim
            },
            |mut sim| {
                sim.run();
                black_box(sim.events_delivered())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Same-component event trains: the batched dispatcher (`run()`) vs the
/// per-event dispatcher (`step()`, the PR-1 typed kernel's only mode) vs
/// the boxed seed kernel, on one identical burst workload per message
/// shape.
///
/// `typed_per_event` is the baseline the batched path must beat by the
/// acceptance bar (>=1.2x events/sec on the dispatch-bound tick shape):
/// same queues, same arena — the only difference is one component fetch +
/// virtual call per train instead of per event. The cmd shape shows the
/// payload-transport-bound margin alongside.
fn bench_trains(c: &mut Criterion) {
    let mut g = c.benchmark_group("des_kernel_train");
    g.throughput(Throughput::Elements(TRAIN_EVENTS));
    bench_typed_trains::<Tick>(&mut g, "tick");
    bench_boxed_trains::<Tick>(&mut g, "tick");
    bench_typed_trains::<Cmd>(&mut g, "cmd");
    bench_boxed_trains::<Cmd>(&mut g, "cmd");
    // The page shape pairs the typed kernel's handle-based payloads
    // (16-byte message + slab bookkeeping) against the seed's inline
    // `Vec` pages (a fresh 8 KiB heap allocation per event).
    bench_typed_trains::<PageCmd>(&mut g, "page");
    bench_boxed_trains::<BoxedPage>(&mut g, "page");
    g.finish();
}

fn bench_typed_trains<T: StoreShape>(g: &mut criterion::BenchmarkGroup<'_>, shape: &str) {
    let name = format!("{shape}_burst_{TRAIN_LEN}x{TRAIN_ROUNDS}");
    g.bench_function(&format!("typed_batched/{name}"), |b| {
        b.iter_batched(
            typed_train_setup::<T>,
            |mut sim| {
                sim.run();
                black_box(sim.events_delivered())
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function(&format!("typed_per_event/{name}"), |b| {
        b.iter_batched(
            typed_train_setup::<T>,
            |mut sim| {
                while sim.step() {}
                black_box(sim.events_delivered())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_boxed_trains<T: TrainShape>(g: &mut criterion::BenchmarkGroup<'_>, shape: &str) {
    let name = format!("{shape}_burst_{TRAIN_LEN}x{TRAIN_ROUNDS}");
    g.bench_function(&format!("boxed/{name}"), |b| {
        b.iter_batched(
            || {
                let mut sim = boxed::Simulator::new();
                let sink = sim.add_component(BoxedTrainSink::<T> {
                    seen: 0,
                    _shape: std::marker::PhantomData,
                });
                let source = sim.add_component(BoxedTrainSource::<T> {
                    sink,
                    rounds_left: TRAIN_ROUNDS - 1,
                    _shape: std::marker::PhantomData,
                });
                sim.schedule(SimTime::ZERO, source, T::make(0));
                sim
            },
            |mut sim| {
                sim.run();
                black_box(sim.events_delivered())
            },
            BatchSize::SmallInput,
        )
    });
}

/// The fig13 shape: a stream of remote ISP reads between two paper-config
/// nodes over one lane — the whole flash + splitter + agent + router +
/// PCIe message plumbing, reported as simulated events per second.
fn bench_cluster_events(c: &mut Criterion) {
    const READS: usize = 300;
    // Count the events one run generates so throughput is in events, not
    // reads.
    let events_per_run = {
        let (mut cluster, addrs) = fig13_setup(READS);
        let before = cluster.events_delivered();
        cluster.stream_reads(NodeId(0), &addrs, Consume::Isp);
        cluster.events_delivered() - before
    };
    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(events_per_run));
    g.bench_function("fig13_remote_stream_events", |b| {
        b.iter_batched(
            || fig13_setup(READS),
            |(mut cluster, addrs)| {
                let done = cluster.stream_reads(NodeId(0), &addrs, Consume::Isp);
                black_box(done.len())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn fig13_setup(reads: usize) -> (Cluster, Vec<bluedbm_core::GlobalPageAddr>) {
    let config = SystemConfig::paper();
    let mut cluster = Cluster::line(2, 1, &config).unwrap();
    let page = vec![0u8; config.flash.geometry.page_bytes];
    let addrs: Vec<_> = (0..reads)
        .map(|_| cluster.preload_page(NodeId(1), &page).unwrap())
        .collect();
    (cluster, addrs)
}

/// Bigger-than-paper scale: an 8x8 mesh — 64 nodes against the paper's
/// 20-node rack — with node 0 streaming remote reads scattered across
/// every other node, so traffic crosses the whole fabric. Run twice:
/// ISP-consumed (network-bound) and host-consumed (every page
/// additionally claims a read buffer and crosses node 0's PCIe link —
/// the full handle-based payload path end to end).
fn bench_mesh_scale(c: &mut Criterion) {
    for (name, consume) in [
        ("mesh8x8_scatter_stream_events", Consume::Isp),
        ("mesh8x8_scatter_stream_host_events", Consume::Host),
    ] {
        let events_per_run = {
            let (mut cluster, addrs) = mesh8x8_setup();
            let before = cluster.events_delivered();
            cluster.stream_reads(NodeId(0), &addrs, consume);
            cluster.events_delivered() - before
        };
        let mut g = c.benchmark_group("sim_throughput");
        g.throughput(Throughput::Elements(events_per_run));
        g.bench_function(name, |b| {
            b.iter_batched(
                mesh8x8_setup,
                |(mut cluster, addrs)| {
                    let done = cluster.stream_reads(NodeId(0), &addrs, consume);
                    black_box(done.len())
                },
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }
}

fn mesh8x8_setup() -> (Cluster, Vec<bluedbm_core::GlobalPageAddr>) {
    const READS_PER_NODE: usize = 3;
    let config = SystemConfig::scaled_down();
    let mut cluster = Cluster::new(NetTopology::mesh2d(8, 8), &config).unwrap();
    let page = vec![0u8; config.flash.geometry.page_bytes];
    let mut addrs = Vec::new();
    for node in 1..cluster.node_count() {
        for _ in 0..READS_PER_NODE {
            addrs.push(cluster.preload_page(NodeId::from(node), &page).unwrap());
        }
    }
    (cluster, addrs)
}

/// The sharded-engine scaling scenarios: an **all-to-all** scatter
/// (every node streams remote reads at one instant, so the whole fabric
/// — not just one reader — is busy) on the same topology across 1, 2
/// and 4 worker shards, plus the upper rungs of the topology ladder — a
/// 256-node `mesh16x16` and a 1024-node `mesh32x32`, 12.8× and 51.2×
/// the paper's rack. The `sharded1` row is the sequential engine on the
/// identical workload: the scaling curve in `BENCH_engine.json` is the
/// events/sec ratio against it. Shard counts beyond the host's
/// available cores measure protocol overhead, not parallelism — read
/// the curve next to the recorded `meta/host_cpus` row.
fn bench_sharded_scale(c: &mut Criterion) {
    let scenarios: [(&str, usize, usize, usize, usize); 5] = [
        ("mesh8x8_scatter_sharded1", 8, 8, 1, 10),
        ("mesh8x8_scatter_sharded2", 8, 8, 2, 10),
        ("mesh8x8_scatter_sharded4", 8, 8, 4, 10),
        ("mesh16x16_scatter_stream", 16, 16, 4, 4),
        ("mesh32x32_scatter_stream", 32, 32, 4, 1),
    ];
    for (name, rows, cols, shards, reads_per_node) in scenarios {
        let setup = || scatter_setup(rows, cols, shards, reads_per_node);
        let run = |(mut cluster, reads): (Cluster, Vec<(NodeId, bluedbm_core::GlobalPageAddr)>)| {
            for &(reader, addr) in &reads {
                cluster.inject_read(reader, addr, Consume::Isp);
            }
            cluster.run_to_quiescence();
            black_box(cluster.events_delivered())
        };
        let events_per_run = {
            let (cluster, reads) = setup();
            let before = cluster.events_delivered();
            run((cluster, reads)) - before
        };
        let mut g = c.benchmark_group("sim_throughput");
        g.throughput(Throughput::Elements(events_per_run));
        g.bench_function(name, |b| {
            b.iter_batched(setup, run, BatchSize::SmallInput)
        });
        g.finish();
    }
}

/// Build a `rows x cols` mesh on `shards` worker shards with every node
/// holding preloaded pages, and the all-to-all read list (each node
/// reads `reads_per_node` pages scattered over the other nodes).
fn scatter_setup(
    rows: usize,
    cols: usize,
    shards: usize,
    reads_per_node: usize,
) -> (Cluster, Vec<(NodeId, bluedbm_core::GlobalPageAddr)>) {
    const PAGES_PER_NODE: usize = 4;
    let mut config = SystemConfig::scaled_down();
    config.sim.shards = shards;
    let mut cluster = Cluster::new(NetTopology::mesh2d(rows, cols), &config).unwrap();
    let n = cluster.node_count();
    let page = vec![0u8; config.flash.geometry.page_bytes];
    let mut addrs = Vec::with_capacity(n);
    for node in 0..n {
        let node_addrs: Vec<_> = (0..PAGES_PER_NODE)
            .map(|_| cluster.preload_page(NodeId::from(node), &page).unwrap())
            .collect();
        addrs.push(node_addrs);
    }
    let mut reads = Vec::with_capacity(n * reads_per_node);
    for reader in 0..n {
        for r in 0..reads_per_node {
            let mut target = (reader + 1 + r * 5) % n;
            if target == reader {
                target = (target + 1) % n;
            }
            reads.push((NodeId::from(reader), addrs[target][r % PAGES_PER_NODE]));
        }
    }
    (cluster, reads)
}

/// The ROADMAP's million-key scale point: a 10⁶-key, 8-tenant KV
/// workload (load phase + zipfian 70/20/10 get/overwrite/delete churn)
/// through the async `KvStore` engine — every put/get through the full
/// flash/network/accelerator-scheduler stack — on a 4-node ring, run on
/// the sequential engine and on 2 and 4 worker shards. Small-page
/// `kv_flash_geometry` keeps host RAM modest; events/sec is the metric,
/// with the `sharded*` rows against `seq` forming the scaling curve
/// (read next to `meta/host_cpus`, as for `mesh8x8_scatter_sharded*`).
fn bench_kv_million(c: &mut Criterion) {
    use bluedbm_core::KvStore;
    use bluedbm_workloads::kvgen::{kv_flash_geometry, run_requests, KvWorkloadSpec};

    const NODES: usize = 4;
    const BATCH: usize = 8192;
    let spec = KvWorkloadSpec::million(NODES);
    let setup = |shards: usize| {
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = kv_flash_geometry();
        config.sim.shards = shards;
        KvStore::new(Cluster::ring(NODES, &config).unwrap())
    };
    let run = |spec: &KvWorkloadSpec, mut store: KvStore| {
        let summary = run_requests(&mut store, spec.load().chain(spec.churn()), BATCH);
        assert_eq!(summary.ops, spec.total_keys() + spec.churn_ops);
        assert_eq!(summary.errors, 0, "a sized workload must not fail");
        store.assert_no_stranded_pages();
        store.cluster().assert_quiescent();
        (summary.digest, store.cluster().events_delivered())
    };
    // Event counts (and the result digest) are engine-independent per
    // the PR 4 determinism contract, so one counting run serves every
    // scenario's throughput denominator.
    let (digest, events_per_run) = run(&spec, setup(1));
    for (name, shards) in [
        ("kv_million_seq", 1),
        ("kv_million_sharded2", 2),
        ("kv_million_sharded4", 4),
    ] {
        let mut g = c.benchmark_group("sim_throughput");
        g.throughput(Throughput::Elements(events_per_run));
        g.bench_function(name, |b| {
            b.iter_batched(
                || setup(shards),
                |store| {
                    let (d, events) = run(&spec, store);
                    assert_eq!(d, digest, "cross-engine digest diverged");
                    assert_eq!(events, events_per_run, "event count diverged");
                    black_box(d)
                },
                BatchSize::LargeInput,
            )
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    // Short sampling: these are smoke-level performance numbers, and the
    // full suite must run in CI time.
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_kernels, bench_trains, bench_cluster_events, bench_mesh_scale, bench_sharded_scale, bench_kv_million
}
criterion_main!(benches);
