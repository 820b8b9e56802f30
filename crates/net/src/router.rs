//! The per-node network router: internal + external switch, link-layer
//! credit flow control, and endpoint delivery (paper Figure 4).
//!
//! One [`Router`] component models everything network-related inside one
//! BlueDBM storage device:
//!
//! * the **external switch** — forwards packets port-to-port along the
//!   deterministic route, one [`SerialResource`] lane per egress port;
//! * the **internal switch** — delivers packets addressed to this node to
//!   the registered logical endpoint consumers;
//! * **token flow control** — each egress port holds
//!   [`NetParams::credits_per_lane`] credits; transmission consumes one,
//!   and the downstream router returns it when the packet leaves its
//!   buffer. At zero credits the egress queue backs up instead of
//!   dropping — the paper's guarantee that "packets will not drop if the
//!   data rate is higher than what the network can manage".
//!
//! The router is generic over the packet body type `B` and speaks the
//! typed [`NetMsg<B>`] protocol — see [`crate::msg`].

use std::collections::VecDeque;

use bluedbm_sim::fxhash::FxHashMap;
use std::sync::Arc;

use bluedbm_sim::engine::{Batch, Component, ComponentId, Ctx, Simulator};
use bluedbm_sim::pool::PoolRef;
use bluedbm_sim::resource::{Grant, SerialResource};
use bluedbm_sim::stats::Histogram;
use bluedbm_sim::time::SimTime;

use crate::msg::{NetMsg, NetProtocol};
use crate::packet::{NetParams, Packet};
use crate::routing::RoutingTable;
use crate::topology::{NodeId, PortId, Topology};

/// Ask the local router to send `body` to `(dst, endpoint)`.
///
/// Senders address this to their node's [`Router`]; the router stamps the
/// per-flow sequence number and routes it.
#[derive(Clone, Debug)]
pub struct NetSend<B> {
    /// Destination node.
    pub dst: NodeId,
    /// Logical endpoint (virtual channel).
    pub endpoint: u16,
    /// Wire size of the payload.
    pub payload_bytes: u32,
    /// Message object delivered at the far end.
    pub body: B,
}

impl<B> NetSend<B> {
    /// Convenience constructor.
    pub fn new(dst: NodeId, endpoint: u16, payload_bytes: u32, body: B) -> Self {
        NetSend {
            dst,
            endpoint,
            payload_bytes,
            body,
        }
    }
}

/// A packet delivered to an endpoint consumer.
#[derive(Clone, Debug)]
pub struct NetRecv<B> {
    /// Originating node.
    pub src: NodeId,
    /// Endpoint it arrived on.
    pub endpoint: u16,
    /// Per-(src, endpoint) sequence number — strictly increasing at the
    /// consumer thanks to deterministic routing.
    pub seq: u64,
    /// Wire size of the payload.
    pub payload_bytes: u32,
    /// End-to-end network latency (send accepted -> tail delivered).
    pub latency: SimTime,
    /// The message object.
    pub body: B,
}

/// Router-to-router transfer (head arrival of a packet). Public only
/// because it rides the [`NetMsg`] enum (as an interned [`WireRef`]) and
/// crosses shard boundaries; nothing outside the router constructs one.
#[derive(Clone, Debug)]
pub struct Wire<B> {
    packet: Packet<B>,
    /// Time between head and tail at this position (serialization time of
    /// the slowest traversed lane — uniform lanes make this the common
    /// packet time).
    tail_lag: SimTime,
    sent_at: SimTime,
    /// Upstream (router, its egress port) owed a credit, if any.
    via: Option<(ComponentId, PortId)>,
    /// The sending endpoint asked for an end-to-end acknowledgement.
    wants_ack: bool,
}

impl<B> Wire<B> {
    /// The functional body riding this packet. Exposed for cross-shard
    /// payload relocation: the sharded runtime takes a wire out of one
    /// shard's pool, relocates any store-backed payloads inside the
    /// body, and re-interns it at the destination shard.
    pub fn body_mut(&mut self) -> &mut B {
        &mut self.packet.body
    }
}

/// Handle to a [`Wire`] interned in the simulator-owned control-block
/// pool ([`bluedbm_sim::PoolStore`]). The wire record is interned once
/// at injection, the 8-byte handle moves hop to hop, and the delivering
/// router takes the record back out — steady-state packet traffic
/// allocates nothing (the old `Box<Wire>` cost one heap allocation per
/// packet).
pub type WireRef<B> = PoolRef<Wire<B>>;

/// Token returned by the downstream router when a packet leaves its
/// buffer. Public only because it rides the [`NetMsg`] enum.
#[derive(Clone, Debug)]
pub struct CreditReturn {
    port: PortId,
}

/// End-to-end acknowledgement: the destination endpoint consumed one
/// packet of this flow. Modelled as a minimal control packet travelling
/// back over the same number of hops. Public only because it rides the
/// [`NetMsg`] enum.
#[derive(Clone, Debug)]
pub struct E2eAck {
    endpoint: u16,
    dst: NodeId,
}

struct Egress<B> {
    peer: ComponentId,
    credits: u32,
    lane: SerialResource,
    queue: VecDeque<WireRef<B>>,
}

/// What one [`Egress::launch`] decided: where the head goes and when,
/// and which upstream port is owed its credit back.
struct Hop {
    peer: ComponentId,
    grant: Grant,
    upstream: Option<(ComponentId, PortId)>,
}

impl<B> Egress<B> {
    /// Put `w` on this cable at `now`: spend a credit (the caller has
    /// checked there is one), reserve the lane for the packet's
    /// serialization time and re-stamp the record's hop fields with
    /// `via`, this router's (id, egress port).
    fn launch(
        &mut self,
        params: &NetParams,
        w: &mut Wire<B>,
        now: SimTime,
        via: (ComponentId, PortId),
    ) -> Hop {
        self.credits -= 1;
        let ptime = params.packet_time(w.packet.payload_bytes);
        w.tail_lag = ptime;
        Hop {
            peer: self.peer,
            grant: self.lane.acquire(now, ptime),
            upstream: w.via.replace(via),
        }
    }
}

/// Cumulative router statistics. `PartialEq` so the cross-engine
/// determinism suite can assert sharded and sequential runs observe the
/// exact same router behaviour.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Packets injected by local senders.
    pub injected: u64,
    /// Packets forwarded toward another node.
    pub forwarded: u64,
    /// Packets delivered to local endpoints.
    pub delivered: u64,
    /// Payload bytes delivered to local endpoints.
    pub delivered_bytes: u64,
    /// Transmissions that had to wait for a credit.
    pub credit_stalls: u64,
    /// End-to-end latency of packets delivered here.
    pub latency: Histogram,
    /// Per-flow FIFO violations observed at delivery (must stay 0).
    pub order_violations: u64,
}

/// Counter deltas accumulated across one dispatch train and applied to
/// [`RouterStats`] once per train (instead of once per message) — the
/// batched dispatcher's hoist of the router's hot-path bookkeeping.
/// Distribution samples (the latency histogram) still record per packet;
/// only the additive counters batch.
#[derive(Default)]
struct TrainCounters {
    injected: u64,
    forwarded: u64,
    delivered: u64,
    delivered_bytes: u64,
    credit_stalls: u64,
}

impl RouterStats {
    fn apply(&mut self, tc: TrainCounters) {
        self.injected += tc.injected;
        self.forwarded += tc.forwarded;
        self.delivered += tc.delivered;
        self.delivered_bytes += tc.delivered_bytes;
        self.credit_stalls += tc.credit_stalls;
    }

    /// Write the counters and latency percentiles into a metrics
    /// subtree (for the unified `bluedbm_trace::MetricsRegistry`).
    pub fn fill_metrics(&self, node: &mut bluedbm_trace::MetricsNode) {
        node.set("injected", self.injected);
        node.set("forwarded", self.forwarded);
        node.set("delivered", self.delivered);
        node.set("delivered_bytes", self.delivered_bytes);
        node.set("credit_stalls", self.credit_stalls);
        node.set("order_violations", self.order_violations);
        node.histogram("latency", &self.latency.summary());
    }
}

/// The per-node network component, generic over the packet body type.
/// Build a full network with [`build_network`].
pub struct Router<B> {
    node: NodeId,
    params: NetParams,
    routing: Arc<RoutingTable>,
    ports: [Option<Egress<B>>; Topology::MAX_PORTS],
    endpoints: FxHashMap<u16, ComponentId>,
    next_seq: FxHashMap<(u16, NodeId), u64>,
    expect_seq: FxHashMap<(u16, NodeId), u64>,
    /// All routers in the network, indexed by node (for end-to-end
    /// flow-control acknowledgements).
    peers: Arc<Vec<ComponentId>>,
    /// Optional end-to-end credit budget per endpoint (paper
    /// Section 3.2.3: an endpoint "can be configured to only send data
    /// when there is space on the destination endpoint").
    e2e_credits: FxHashMap<u16, u32>,
    /// Outstanding unacknowledged packets per (endpoint, destination).
    e2e_outstanding: FxHashMap<(u16, NodeId), u32>,
    /// Sends waiting for an end-to-end credit.
    e2e_waiting: FxHashMap<(u16, NodeId), VecDeque<NetSend<B>>>,
    stats: RouterStats,
}

impl<B: Send + 'static> Router<B> {
    /// Register the consumer component for a logical endpoint. Packets
    /// arriving for `endpoint` are delivered to it as [`NetRecv`]s.
    pub fn register_endpoint(&mut self, endpoint: u16, consumer: ComponentId) {
        self.endpoints.insert(endpoint, consumer);
    }

    /// Enable end-to-end flow control for `endpoint` on this (sending)
    /// router: at most `credits` packets per destination may be
    /// unacknowledged. The paper leaves this per-endpoint choice to the
    /// developer — safety for receivers that may stall, at the cost of
    /// latency and flow-control traffic (Section 3.2.3).
    ///
    /// # Panics
    ///
    /// Panics if `credits == 0`.
    pub fn set_e2e_credits(&mut self, endpoint: u16, credits: u32) {
        assert!(credits > 0, "end-to-end flow control needs at least one credit");
        self.e2e_credits.insert(endpoint, credits);
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Number of wire flows this router has opened as a sender (distinct
    /// `(endpoint, destination)` pairs it has stamped sequence numbers
    /// for). Loopback sends never open a flow; exposed for diagnostics
    /// and the regression tests guarding that.
    pub fn send_flows(&self) -> usize {
        self.next_seq.len()
    }

    /// This router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Second half of a hop, once [`Egress::launch`] has let go of the
    /// pooled record: pay the upstream credit back when the tail leaves
    /// this router, then schedule the head's arrival at the peer.
    fn send_hop<M>(&self, ctx: &mut Ctx<'_, M>, wire: WireRef<B>, hop: Hop)
    where
        M: NetProtocol<Body = B>,
    {
        if let Some((up, up_port)) = hop.upstream {
            ctx.send(
                up,
                hop.grant.end + self.params.hop_latency - ctx.now(),
                NetMsg::Credit(CreditReturn { port: up_port }),
            );
        }
        let delay = hop.grant.start + self.params.hop_latency - ctx.now();
        ctx.send(hop.peer, delay, NetMsg::Wire(wire));
    }

    fn route_or_deliver<M>(&mut self, ctx: &mut Ctx<'_, M>, wire: WireRef<B>, tc: &mut TrainCounters)
    where
        M: NetProtocol<Body = B>,
    {
        let (now, me) = (ctx.now(), ctx.self_id());
        // The hop's one trip to the pool: route, and re-stamp in place.
        let pool = ctx.pools().of::<Wire<B>>();
        let w = pool.get_mut(wire);
        let dst = w.packet.dst;
        if dst == self.node {
            let wire = pool.take(wire);
            self.deliver(ctx, wire, tc);
            return;
        }
        let port = self
            .routing
            .next_port(self.node, dst, w.packet.endpoint)
            .unwrap_or_else(|| panic!("no route from {} to {}", self.node, dst));
        if w.via.is_some() {
            tc.forwarded += 1;
        }
        let egress = self.ports[port.0 as usize]
            .as_mut()
            .expect("route points at a cabled port");
        if egress.credits == 0 {
            tc.credit_stalls += 1;
            egress.queue.push_back(wire);
            return;
        }
        let hop = egress.launch(&self.params, w, now, (me, port));
        self.send_hop(ctx, wire, hop);
    }

    /// Terminal hop: the packet's journey ends here, so the caller takes
    /// the wire record back out of the pool.
    fn deliver<M>(&mut self, ctx: &mut Ctx<'_, M>, wire: Wire<B>, tc: &mut TrainCounters)
    where
        M: NetProtocol<Body = B>,
    {
        let tail_at = wire.tail_lag; // relative to now (head arrival)
        if let Some((up, up_port)) = wire.via {
            // Buffer slot frees once the tail has fully arrived.
            ctx.send(
                up,
                tail_at + self.params.hop_latency,
                NetMsg::Credit(CreditReturn { port: up_port }),
            );
        }
        let pkt = wire.packet;
        let key = (pkt.endpoint, pkt.src);
        let expect = self.expect_seq.entry(key).or_insert(0);
        if pkt.seq != *expect {
            self.stats.order_violations += 1;
        }
        *expect = pkt.seq + 1;

        let latency = ctx.now() + tail_at - wire.sent_at;
        tc.delivered += 1;
        tc.delivered_bytes += u64::from(pkt.payload_bytes);
        self.stats.latency.record(latency);

        if wire.wants_ack {
            // The flow-control packet travels back over the same number
            // of hops (modelled as a direct delayed message so control
            // traffic does not recursively consume credits).
            let hops = self
                .routing
                .hops(self.node, pkt.src)
                .expect("source is reachable: the packet just arrived");
            let ack_delay = tail_at
                + self.params.hop_latency * u64::from(hops)
                + self.params.packet_time(8);
            ctx.send(
                self.peers[pkt.src.index()],
                ack_delay,
                NetMsg::Ack(E2eAck {
                    endpoint: pkt.endpoint,
                    dst: self.node,
                }),
            );
        }
        if let Some(&consumer) = self.endpoints.get(&pkt.endpoint) {
            ctx.send(
                consumer,
                tail_at,
                NetMsg::Recv(NetRecv {
                    src: pkt.src,
                    endpoint: pkt.endpoint,
                    seq: pkt.seq,
                    payload_bytes: pkt.payload_bytes,
                    latency,
                    body: pkt.body,
                }),
            );
        }
    }

    /// Stamp and route one accepted send (past the end-to-end gate).
    fn inject<M>(&mut self, ctx: &mut Ctx<'_, M>, send: NetSend<B>, tc: &mut TrainCounters)
    where
        M: NetProtocol<Body = B>,
    {
        if send.dst == self.node {
            // Loopback through the internal switch: no wire time, and no
            // flow state — loopback is not part of any wire flow, so it
            // must not grow a `next_seq` counter it never uses.
            if let Some(&consumer) = self.endpoints.get(&send.endpoint) {
                ctx.send(
                    consumer,
                    SimTime::ZERO,
                    NetMsg::Recv(NetRecv {
                        src: self.node,
                        endpoint: send.endpoint,
                        seq: 0,
                        payload_bytes: send.payload_bytes,
                        latency: SimTime::ZERO,
                        body: send.body,
                    }),
                );
            }
            return;
        }
        let seq_key = (send.endpoint, send.dst);
        let seq = self.next_seq.entry(seq_key).or_insert(0);
        let packet = Packet {
            src: self.node,
            dst: send.dst,
            endpoint: send.endpoint,
            payload_bytes: send.payload_bytes,
            seq: *seq,
            body: send.body,
        };
        *seq += 1;
        let wants_ack = self.e2e_credits.contains_key(&packet.endpoint);
        // Interned once for the packet's whole life: the pool slot is
        // recycled when `deliver` takes it, so steady-state injection
        // allocates nothing (the old `Box` was one allocation per
        // packet).
        let sent_at = ctx.now();
        let wire = ctx.pools().intern(Wire {
            packet,
            tail_lag: SimTime::ZERO,
            sent_at,
            via: None,
            wants_ack,
        });
        self.route_or_deliver(ctx, wire, tc);
    }
}

impl<B: Send + 'static> Router<B> {
    /// Per-message logic shared by [`Component::handle`] and the batch
    /// hook. Additive statistics go through `tc`, which the dispatch
    /// entry points flush once per train.
    fn handle_net<M>(&mut self, ctx: &mut Ctx<'_, M>, msg: NetMsg<B>, tc: &mut TrainCounters)
    where
        M: NetProtocol<Body = B>,
    {
        match msg {
            NetMsg::Send(send) => {
                tc.injected += 1;
                if send.dst != self.node {
                    if let Some(&cap) = self.e2e_credits.get(&send.endpoint) {
                        let key = (send.endpoint, send.dst);
                        let outstanding = self.e2e_outstanding.entry(key).or_insert(0);
                        if *outstanding >= cap {
                            self.e2e_waiting.entry(key).or_default().push_back(send);
                            return;
                        }
                        *outstanding += 1;
                    }
                }
                self.inject(ctx, send, tc);
            }
            NetMsg::Ack(ack) => {
                let key = (ack.endpoint, ack.dst);
                let outstanding = self
                    .e2e_outstanding
                    .get_mut(&key)
                    .expect("ack for a flow this router opened");
                *outstanding -= 1;
                if let Some(next) = self
                    .e2e_waiting
                    .get_mut(&key)
                    .and_then(VecDeque::pop_front)
                {
                    *self.e2e_outstanding.get_mut(&key).expect("present") += 1;
                    self.inject(ctx, next, tc);
                }
            }
            NetMsg::Wire(wire) => self.route_or_deliver(ctx, wire, tc),
            NetMsg::Credit(credit) => {
                let egress = self.ports[credit.port.0 as usize]
                    .as_mut()
                    .expect("credit for a cabled port");
                egress.credits += 1;
                if let Some(wire) = egress.queue.pop_front() {
                    let (now, me) = (ctx.now(), ctx.self_id());
                    let w = ctx.pools().get_mut(wire);
                    let hop = egress.launch(&self.params, w, now, (me, credit.port));
                    self.send_hop(ctx, wire, hop);
                }
            }
            other => panic!("router got an unexpected message: {}", other.kind()),
        }
    }
}

impl<M: NetProtocol> Component<M> for Router<M::Body> {
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        let mut tc = TrainCounters::default();
        self.handle_net(ctx, msg.into_net(), &mut tc);
        self.stats.apply(tc);
    }

    /// Batched dispatch with the per-train hoist: bursts of same-instant
    /// injections and the credit/wire trains of a saturated lane drain in
    /// one borrow, and the additive statistics (injected / forwarded /
    /// delivered / bytes / stalls) hit the stats struct once per train
    /// instead of once per message.
    fn handle_batch(&mut self, ctx: &mut Ctx<'_, M>, batch: &mut Batch<M>) {
        let mut tc = TrainCounters::default();
        while let Some(msg) = batch.next(ctx) {
            self.handle_net(ctx, msg.into_net(), &mut tc);
        }
        self.stats.apply(tc);
    }
}

/// Instantiate one [`Router`] per node of `topo`, fully wired, and return
/// their component ids indexed by node.
///
/// # Examples
///
/// ```rust
/// use bluedbm_net::msg::NetMsg;
/// use bluedbm_net::packet::NetParams;
/// use bluedbm_net::router::build_network;
/// use bluedbm_net::topology::Topology;
/// use bluedbm_sim::engine::Simulator;
///
/// let mut sim = Simulator::<NetMsg<()>>::new();
/// let topo = Topology::ring(4, 1);
/// let routers = build_network(&mut sim, &topo, NetParams::paper());
/// assert_eq!(routers.len(), 4);
/// ```
pub fn build_network<M: NetProtocol>(
    sim: &mut Simulator<M>,
    topo: &Topology,
    params: NetParams,
) -> Vec<ComponentId> {
    build_network_routed(sim, topo, params, Arc::new(RoutingTable::compute(topo)))
}

/// [`build_network`] over an already computed table for `topo`, for
/// callers that keep a handle on the routes the routers share.
pub fn build_network_routed<M: NetProtocol>(
    sim: &mut Simulator<M>,
    topo: &Topology,
    params: NetParams,
    routing: Arc<RoutingTable>,
) -> Vec<ComponentId> {
    let ids: Vec<ComponentId> = (0..topo.node_count()).map(|_| sim.reserve()).collect();
    let peers = Arc::new(ids.clone());
    for n in 0..topo.node_count() {
        let node = NodeId::from(n);
        let ports = std::array::from_fn(|p| {
            topo.peer(node, PortId(p as u8)).map(|(m, _)| Egress {
                peer: ids[m.index()],
                credits: params.credits_per_lane,
                lane: SerialResource::new(),
                queue: VecDeque::new(),
            })
        });
        sim.install::<Router<M::Body>>(
            ids[n],
            Router {
                node,
                params,
                routing: Arc::clone(&routing),
                ports,
                endpoints: FxHashMap::default(),
                next_seq: FxHashMap::default(),
                expect_seq: FxHashMap::default(),
                peers: Arc::clone(&peers),
                e2e_credits: FxHashMap::default(),
                e2e_outstanding: FxHashMap::default(),
                e2e_waiting: FxHashMap::default(),
                stats: RouterStats::default(),
            },
        );
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestMsg = NetMsg<()>;

    /// Endpoint consumer that records arrivals.
    struct Sink {
        got: Vec<(NodeId, u64, SimTime)>,
        bytes: u64,
    }

    impl Sink {
        fn new() -> Self {
            Sink {
                got: vec![],
                bytes: 0,
            }
        }
    }

    impl Component<TestMsg> for Sink {
        fn handle(&mut self, _ctx: &mut Ctx<'_, TestMsg>, msg: TestMsg) {
            let NetMsg::Recv(r) = msg else {
                panic!("NetRecv expected")
            };
            self.got.push((r.src, r.seq, r.latency));
            self.bytes += u64::from(r.payload_bytes);
        }
    }

    fn sink_on(
        sim: &mut Simulator<TestMsg>,
        routers: &[ComponentId],
        node: usize,
        ep: u16,
    ) -> ComponentId {
        let sink = sim.add_component(Sink::new());
        sim.component_mut::<Router<()>>(routers[node])
            .unwrap()
            .register_endpoint(ep, sink);
        sink
    }

    #[test]
    fn single_hop_latency_matches_paper() {
        let mut sim = Simulator::new();
        let topo = Topology::line(2, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let sink = sink_on(&mut sim, &routers, 1, 0);
        sim.schedule(
            SimTime::ZERO,
            routers[0],
            NetSend::new(NodeId(1), 0, 16, ()),
        );
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        assert_eq!(s.got.len(), 1);
        let lat = s.got[0].2;
        // 0.48us hop + 24B serialization (~23ns at 8.2Gbps).
        assert!(lat >= SimTime::ns(480), "{lat}");
        assert!(lat < SimTime::ns(520), "{lat}");
    }

    #[test]
    fn latency_scales_linearly_with_hops() {
        let mut sim = Simulator::new();
        let topo = Topology::line(6, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let mut sinks = vec![];
        for hops in 1..=5usize {
            sinks.push(sink_on(&mut sim, &routers, hops, 7));
        }
        for hops in 1..=5usize {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId::from(hops), 7, 16, ()),
            );
        }
        sim.run();
        let mut latencies = vec![];
        for (i, sink) in sinks.iter().enumerate() {
            let s = sim.component::<Sink>(*sink).unwrap();
            assert_eq!(s.got.len(), 1, "sink {i}");
            latencies.push(s.got[0].2);
        }
        for (i, lat) in latencies.iter().enumerate() {
            let hops = (i + 1) as u64;
            let per_hop = SimTime::ps(lat.as_ps() / hops);
            assert!(
                per_hop >= SimTime::ns(480) && per_hop < SimTime::ns(540),
                "hop {hops}: per-hop {per_hop}"
            );
        }
    }

    #[test]
    fn sustained_stream_approaches_goodput() {
        // Saturate one lane with back-to-back 8 KiB packets for 2 ms.
        let mut sim = Simulator::new();
        let topo = Topology::line(2, 1);
        let params = NetParams::paper();
        let routers = build_network(&mut sim, &topo, params);
        let sink = sink_on(&mut sim, &routers, 1, 0);
        const N: u32 = 250;
        for _ in 0..N {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId(1), 0, 8192, ()),
            );
        }
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        assert_eq!(s.got.len(), N as usize);
        let gbps = s.bytes as f64 * 8.0 / sim.now().as_secs_f64() / 1e9;
        assert!(gbps > 7.9 && gbps <= 8.2, "goodput {gbps} Gbps");
    }

    #[test]
    fn per_flow_fifo_order_holds_across_mesh() {
        let mut sim = Simulator::new();
        let topo = Topology::mesh2d(3, 3);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let sink = sink_on(&mut sim, &routers, 8, 2);
        // Interleave with traffic on other endpoints to shake the network.
        for e in 0..4u16 {
            sink_on(&mut sim, &routers, 8, 4 + e);
            for _ in 0..20 {
                sim.schedule(
                    SimTime::ZERO,
                    routers[0],
                    NetSend::new(NodeId(8), 4 + e, 4096, ()),
                );
            }
        }
        for _ in 0..50 {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId(8), 2, 1024, ()),
            );
        }
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        let seqs: Vec<u64> = s.got.iter().map(|&(_, q, _)| q).collect();
        assert_eq!(seqs, (0..50).collect::<Vec<_>>(), "FIFO per endpoint");
        for r in &routers {
            assert_eq!(
                sim.component::<Router<()>>(*r).unwrap().stats().order_violations,
                0
            );
        }
    }

    #[test]
    fn credits_throttle_but_never_drop() {
        let mut sim = Simulator::new();
        let topo = Topology::line(3, 1);
        let params = NetParams {
            credits_per_lane: 1, // brutal: one packet in flight per lane
            ..NetParams::paper()
        };
        let routers = build_network(&mut sim, &topo, params);
        let sink = sink_on(&mut sim, &routers, 2, 0);
        const N: usize = 40;
        for _ in 0..N {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId(2), 0, 8192, ()),
            );
        }
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        assert_eq!(s.got.len(), N, "no packet may be dropped");
        let r0 = sim.component::<Router<()>>(routers[0]).unwrap();
        assert!(r0.stats().credit_stalls > 0, "starved credits must stall");
    }

    #[test]
    fn credit_starvation_reduces_throughput() {
        let run = |credits: u32| -> f64 {
            let mut sim = Simulator::new();
            let topo = Topology::line(2, 1);
            let params = NetParams {
                credits_per_lane: credits,
                ..NetParams::paper()
            };
            let routers = build_network(&mut sim, &topo, params);
            let sink = sink_on(&mut sim, &routers, 1, 0);
            for _ in 0..100 {
                sim.schedule(
                    SimTime::ZERO,
                    routers[0],
                    NetSend::new(NodeId(1), 0, 512, ()),
                );
            }
            sim.run();
            let s = sim.component::<Sink>(sink).unwrap();
            s.bytes as f64 / sim.now().as_secs_f64()
        };
        // With one credit per 512B packet and a 0.48us hop, the
        // round-trip credit loop dominates; ample credits restore rate.
        assert!(run(16) > 1.5 * run(1));
    }

    #[test]
    fn loopback_is_immediate() {
        let mut sim = Simulator::new();
        let topo = Topology::line(2, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let sink = sink_on(&mut sim, &routers, 0, 0);
        sim.schedule(
            SimTime::ZERO,
            routers[0],
            NetSend::new(NodeId(0), 0, 8192, ()),
        );
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        assert_eq!(s.got.len(), 1);
        assert_eq!(s.got[0].2, SimTime::ZERO);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn loopback_burst_allocates_no_flow_state() {
        // A burst of loopback sends must not grow per-flow sequence
        // counters (the old inject stamped `(endpoint, self)` flow state
        // and then discarded the stamp), and a wire flow to the same
        // endpoint opened afterwards must still start at seq 0.
        let mut sim = Simulator::new();
        let topo = Topology::line(2, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let local = sink_on(&mut sim, &routers, 0, 5);
        let remote = sink_on(&mut sim, &routers, 1, 5);
        for _ in 0..10 {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId(0), 5, 256, ()),
            );
        }
        sim.run();
        let r0 = sim.component::<Router<()>>(routers[0]).unwrap();
        assert_eq!(r0.send_flows(), 0, "loopback must not open a wire flow");
        let s = sim.component::<Sink>(local).unwrap();
        assert_eq!(s.got.len(), 10);
        assert!(s.got.iter().all(|&(_, seq, _)| seq == 0));

        sim.schedule(
            SimTime::ZERO,
            routers[0],
            NetSend::new(NodeId(1), 5, 256, ()),
        );
        sim.run();
        let s = sim.component::<Sink>(remote).unwrap();
        assert_eq!(s.got.len(), 1);
        assert_eq!(s.got[0].1, 0, "first wire packet of the flow is seq 0");
        let r0 = sim.component::<Router<()>>(routers[0]).unwrap();
        assert_eq!(r0.send_flows(), 1, "exactly the one remote flow");
        let r1 = sim.component::<Router<()>>(routers[1]).unwrap();
        assert_eq!(r1.stats().order_violations, 0);
    }

    #[test]
    fn parallel_lanes_double_aggregate_bandwidth() {
        let run = |lanes: usize| -> f64 {
            let mut sim = Simulator::new();
            let topo = Topology::line(2, lanes);
            let routers = build_network(&mut sim, &topo, NetParams::paper());
            // Two endpoints: deterministic routing spreads them.
            let s0 = sink_on(&mut sim, &routers, 1, 0);
            let s1 = sink_on(&mut sim, &routers, 1, 1);
            for _ in 0..120 {
                for e in 0..2u16 {
                    sim.schedule(
                        SimTime::ZERO,
                        routers[0],
                        NetSend::new(NodeId(1), e, 8192, ()),
                    );
                }
            }
            sim.run();
            let bytes = sim.component::<Sink>(s0).unwrap().bytes
                + sim.component::<Sink>(s1).unwrap().bytes;
            bytes as f64 / sim.now().as_secs_f64()
        };
        let one = run(1);
        let two = run(2);
        assert!(two > 1.8 * one, "1 lane {one:.3e} vs 2 lanes {two:.3e}");
    }

    #[test]
    fn e2e_flow_control_throttles_but_loses_nothing() {
        let run = |e2e: Option<u32>| -> (usize, SimTime) {
            let mut sim = Simulator::new();
            let topo = Topology::line(3, 1);
            let routers = build_network(&mut sim, &topo, NetParams::paper());
            let sink = sink_on(&mut sim, &routers, 2, 0);
            if let Some(credits) = e2e {
                sim.component_mut::<Router<()>>(routers[0])
                    .unwrap()
                    .set_e2e_credits(0, credits);
            }
            // Small packets: the e2e round trip dominates serialization,
            // making the latency cost of the safe mode visible.
            const N: usize = 30;
            for _ in 0..N {
                sim.schedule(
                    SimTime::ZERO,
                    routers[0],
                    NetSend::new(NodeId(2), 0, 512, ()),
                );
            }
            sim.run();
            let s = sim.component::<Sink>(sink).unwrap();
            (s.got.len(), sim.now())
        };
        let (n_off, t_off) = run(None);
        let (n_one, t_one) = run(Some(1));
        let (n_deep, t_deep) = run(Some(64));
        // Safety: nothing is dropped in any configuration.
        assert_eq!(n_off, 30);
        assert_eq!(n_one, 30);
        assert_eq!(n_deep, 30);
        // One credit serializes a full round trip per packet: much slower.
        assert!(
            t_one > t_off * 2,
            "e2e(1) {t_one} should be much slower than off {t_off}"
        );
        // Ample e2e credits cost only the ack traffic, not the rate.
        assert!(
            t_deep < t_off + (t_off / 2),
            "e2e(64) {t_deep} vs off {t_off}"
        );
    }

    #[test]
    fn e2e_ordering_preserved_under_throttling() {
        let mut sim = Simulator::new();
        let topo = Topology::line(2, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let sink = sink_on(&mut sim, &routers, 1, 3);
        sim.component_mut::<Router<()>>(routers[0])
            .unwrap()
            .set_e2e_credits(3, 2);
        for _ in 0..20 {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId(1), 3, 2048, ()),
            );
        }
        sim.run();
        let s = sim.component::<Sink>(sink).unwrap();
        let seqs: Vec<u64> = s.got.iter().map(|&(_, q, _)| q).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        let r1 = sim.component::<Router<()>>(routers[1]).unwrap();
        assert_eq!(r1.stats().order_violations, 0);
    }

    #[test]
    #[should_panic(expected = "at least one credit")]
    fn e2e_zero_credits_rejected() {
        let mut sim = Simulator::<TestMsg>::new();
        let topo = Topology::line(2, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        sim.component_mut::<Router<()>>(routers[0])
            .unwrap()
            .set_e2e_credits(0, 0);
    }

    #[test]
    fn delivered_latency_histogram_populates() {
        let mut sim = Simulator::new();
        let topo = Topology::ring(4, 1);
        let routers = build_network(&mut sim, &topo, NetParams::paper());
        let _sink = sink_on(&mut sim, &routers, 2, 0);
        for _ in 0..10 {
            sim.schedule(
                SimTime::ZERO,
                routers[0],
                NetSend::new(NodeId(2), 0, 128, ()),
            );
        }
        sim.run();
        let r2 = sim.component::<Router<()>>(routers[2]).unwrap();
        assert_eq!(r2.stats().delivered, 10);
        assert!(r2.stats().latency.mean() >= SimTime::ns(900), "2 hops");
    }
}
