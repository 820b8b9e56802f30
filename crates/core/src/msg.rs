//! The workspace-wide concrete message type.
//!
//! [`Msg`] composes every subsystem protocol a full BlueDBM node speaks —
//! flash commands, network packets (whose bodies are the remote-operation
//! types in [`NetBody`]), PCIe transfers, and the node-agent operations —
//! into one enum that instantiates the typed [`bluedbm_sim::Simulator`].
//!
//! ## Handle-based payloads
//!
//! Control fields travel inline; **bulk page payloads travel by
//! handle**: page contents live in the simulator-owned
//! [`bluedbm_sim::PageStore`] and messages carry an 8-byte [`PageRef`].
//! A page read off a simulated flash chip moves through the controller,
//! the splitter, the network and the PCIe link as one handle copy per
//! hop; the bytes are written once by the producer (the flash array) and
//! copied out once by the consumer. Ownership rule: every [`PageRef`]
//! inside a message has exactly one consumer, which must `free` (or
//! `take`) the page — simulations audit this with
//! `PageStore::assert_quiescent` after a run.
//!
//! ## The 64-byte budget
//!
//! `size_of::<Msg>() <= 64` is asserted at compile time: one message
//! fits a cache line, so fast-queue entries stay compact and train
//! dispatch is never payload-transport-bound. Three layout decisions
//! keep it true:
//!
//! * [`Msg`] is **flat** — one discriminant level. Each nested enum
//!   wrapper costs 8 bytes of tag + padding, so the subsystem enums
//!   (`FlashMsg`, `NetMsg`) are split into their variants here and
//!   reassembled (a plain move) in the protocol-trait impls below;
//! * bulk payloads ride the page store as [`PageRef`]s (above);
//! * the two verbose network objects are **interned in the
//!   simulator-owned control-block pool** where they are born:
//!   `NetMsg::Wire` (per-hop routing metadata; interned at injection,
//!   the 8-byte [`WireRef`] moves hop to hop, the delivering router
//!   takes it out) and [`NetBody::Req`] (interned by the requesting
//!   agent, taken by the owning node's agent). Pool slots recycle, so
//!   the remote-request control plane allocates nothing in steady state
//!   — the per-page data plane, [`NetBody::Resp`], stays inline.
//!
//! ## Crossing shard boundaries
//!
//! Under the sharded runtime ([`bluedbm_sim::ShardedSimulator`]) pages
//! and pooled control blocks live in per-shard store segments, so a
//! message leaving its shard must carry its payloads along: the
//! [`ShardMessage`] impl below detaches them into a [`Luggage`] crate on
//! the way out and re-installs them (rewriting the handles in place) on
//! the way in. Only the controller-internal `FlashFinish` and the PCIe
//! link's internal `Finish` cannot cross — they are self-sends by
//! contract, and the impl panics loudly if a partition ever splits them
//! from their component.
//!
//! To add a new message kind, see the "Adding a new message variant"
//! checklist in the `bluedbm_sim` crate docs.

use bluedbm_flash::controller::{CtrlCmd, CtrlResp, Finish};
use bluedbm_flash::msg::{FlashMsg, FlashProtocol};
use bluedbm_flash::server::{ServerReq, ServerResp};
use bluedbm_host::msg::{HostMsg, HostProtocol};
use bluedbm_host::pcie::PcieXfer;
use bluedbm_net::msg::{NetMsg, NetProtocol};
use bluedbm_net::router::{CreditReturn, E2eAck, NetRecv, NetSend, Wire, WireRef};
use bluedbm_sim::pool::PoolRef;
use bluedbm_sim::shard::ShardMessage;
use bluedbm_sim::{PageRef, PageStore, PoolStore};

use crate::gc::GcKick;
use crate::node::{AgentOp, DramServed, RemoteReq, RemoteResp};
use crate::scheduler::{SchedDone, SchedFree, SchedSubmit};

/// Functional payload of a storage-network packet in the full system.
#[derive(Debug)]
pub enum NetBody {
    /// A remote flash/DRAM request travelling to the owning node, by
    /// pool handle (interned by the requester, taken by the owner — the
    /// control plane allocates nothing in steady state).
    Req(PoolRef<RemoteReq>),
    /// The response travelling back to the requesting node — page data
    /// by handle, inline.
    Resp(RemoteResp),
}

/// The concrete message type of full-system simulations. Flat on
/// purpose — see the module docs for the layout rules.
#[derive(Debug)]
pub enum Msg {
    /// Raw flash-controller command.
    FlashCmd(CtrlCmd),
    /// Flash-controller completion.
    FlashResp(CtrlResp),
    /// Controller-internal delayed completion (self-send only).
    FlashFinish(Finish),
    /// Flash Server request.
    ServerReq(ServerReq),
    /// Flash Server in-order response.
    ServerResp(ServerResp),
    /// Local sender asks its router to inject a packet.
    NetSend(NetSend<NetBody>),
    /// Router delivers a packet to an endpoint consumer.
    NetRecv(NetRecv<NetBody>),
    /// Router-to-router transfer, by pool handle.
    NetWire(WireRef<NetBody>),
    /// Link-layer credit return.
    NetCredit(CreditReturn),
    /// End-to-end flow-control acknowledgement.
    NetAck(E2eAck),
    /// PCIe/DMA traffic carrying page handles.
    Host(HostMsg<PageRef>),
    /// Driver operation addressed to a node agent.
    Op(AgentOp),
    /// Node-agent internal: delayed DRAM-buffer reply.
    Dram(DramServed),
    /// Job submission to a node's accelerator scheduler (Section 4).
    SchedSubmit(SchedSubmit),
    /// Scheduler-internal delayed unit release (self-send only).
    SchedFree(SchedFree),
    /// Accelerator job completion (scheduler → requester).
    SchedDone(SchedDone),
    /// Wake a node's GC agent: a mirror FTL queued lifecycle rounds.
    GcKick(GcKick),
}

/// The fast-path size budget: one [`Msg`] must fit a 64-byte cache
/// line. Adding a variant (or growing one) past the budget fails the
/// build here — carry bulk payloads by [`PageRef`] instead.
const _: () = assert!(
    std::mem::size_of::<Msg>() <= 64,
    "Msg exceeds the 64-byte fast-path budget; carry bulk payloads by PageRef"
);

impl From<FlashMsg> for Msg {
    #[inline]
    fn from(m: FlashMsg) -> Self {
        match m {
            FlashMsg::Cmd(c) => Msg::FlashCmd(c),
            FlashMsg::Resp(r) => Msg::FlashResp(r),
            FlashMsg::Finish(f) => Msg::FlashFinish(f),
            FlashMsg::ServerReq(r) => Msg::ServerReq(r),
            FlashMsg::ServerResp(r) => Msg::ServerResp(r),
        }
    }
}

impl From<NetMsg<NetBody>> for Msg {
    #[inline]
    fn from(m: NetMsg<NetBody>) -> Self {
        match m {
            NetMsg::Send(s) => Msg::NetSend(s),
            NetMsg::Recv(r) => Msg::NetRecv(r),
            NetMsg::Wire(w) => Msg::NetWire(w),
            NetMsg::Credit(c) => Msg::NetCredit(c),
            NetMsg::Ack(a) => Msg::NetAck(a),
        }
    }
}

impl From<HostMsg<PageRef>> for Msg {
    #[inline]
    fn from(m: HostMsg<PageRef>) -> Self {
        Msg::Host(m)
    }
}

impl From<AgentOp> for Msg {
    #[inline]
    fn from(m: AgentOp) -> Self {
        Msg::Op(m)
    }
}

impl From<DramServed> for Msg {
    #[inline]
    fn from(m: DramServed) -> Self {
        Msg::Dram(m)
    }
}

impl From<SchedSubmit> for Msg {
    #[inline]
    fn from(m: SchedSubmit) -> Self {
        Msg::SchedSubmit(m)
    }
}

impl From<SchedFree> for Msg {
    #[inline]
    fn from(m: SchedFree) -> Self {
        Msg::SchedFree(m)
    }
}

impl From<SchedDone> for Msg {
    #[inline]
    fn from(m: SchedDone) -> Self {
        Msg::SchedDone(m)
    }
}

impl From<GcKick> for Msg {
    #[inline]
    fn from(m: GcKick) -> Self {
        Msg::GcKick(m)
    }
}

impl From<CtrlCmd> for Msg {
    #[inline]
    fn from(m: CtrlCmd) -> Self {
        Msg::FlashCmd(m)
    }
}

impl From<NetSend<NetBody>> for Msg {
    #[inline]
    fn from(m: NetSend<NetBody>) -> Self {
        Msg::NetSend(m)
    }
}

impl From<PcieXfer<PageRef>> for Msg {
    #[inline]
    fn from(m: PcieXfer<PageRef>) -> Self {
        Msg::Host(HostMsg::Xfer(m))
    }
}

impl FlashProtocol for Msg {
    #[inline]
    fn into_flash(self) -> FlashMsg {
        match self {
            Msg::FlashCmd(c) => FlashMsg::Cmd(c),
            Msg::FlashResp(r) => FlashMsg::Resp(r),
            Msg::FlashFinish(f) => FlashMsg::Finish(f),
            Msg::ServerReq(r) => FlashMsg::ServerReq(r),
            Msg::ServerResp(r) => FlashMsg::ServerResp(r),
            other => panic!("flash component received a non-flash message: {other:?}"),
        }
    }
}

impl NetProtocol for Msg {
    type Body = NetBody;

    #[inline]
    fn into_net(self) -> NetMsg<NetBody> {
        match self {
            Msg::NetSend(s) => NetMsg::Send(s),
            Msg::NetRecv(r) => NetMsg::Recv(r),
            Msg::NetWire(w) => NetMsg::Wire(w),
            Msg::NetCredit(c) => NetMsg::Credit(c),
            Msg::NetAck(a) => NetMsg::Ack(a),
            other => panic!("network component received a non-network message: {other:?}"),
        }
    }
}

impl HostProtocol for Msg {
    type Body = PageRef;

    #[inline]
    fn into_host(self) -> HostMsg<PageRef> {
        match self {
            Msg::Host(m) => m,
            other => panic!("host component received a non-host message: {other:?}"),
        }
    }
}

/// Owned form of a [`Msg`]'s store-backed payloads while the message is
/// in transit between shards (see the module docs). Built by
/// [`ShardMessage::detach`], consumed by [`ShardMessage::attach`].
#[derive(Debug)]
pub enum Luggage {
    /// No store-backed payload.
    None,
    /// One page's bytes (the copy the real network link would perform).
    Page(Vec<u8>),
    /// A remote request taken out of the sending shard's pool.
    Req(Box<RemoteReq>),
    /// A wire record taken out of the sending shard's pool, plus the
    /// luggage of the packet body riding inside it.
    Wire(Box<Wire<NetBody>>, Box<Luggage>),
}

/// Detach the store-backed payloads of one network body.
fn detach_body(body: &mut NetBody, pages: &mut PageStore, pools: &mut PoolStore) -> Luggage {
    match body {
        NetBody::Req(req) => Luggage::Req(Box::new(pools.take(*req))),
        NetBody::Resp(resp) => match &resp.data {
            Ok(page) => Luggage::Page(pages.take(*page)),
            Err(_) => Luggage::None,
        },
    }
}

/// Re-install a network body's payloads into the receiving shard's
/// stores, rewriting the handles in place.
fn attach_body(body: &mut NetBody, luggage: Luggage, pages: &mut PageStore, pools: &mut PoolStore) {
    match (body, luggage) {
        (NetBody::Req(req), Luggage::Req(carried)) => *req = pools.intern(*carried),
        (NetBody::Resp(resp), Luggage::Page(bytes)) => {
            resp.data = Ok(pages.alloc_from(&bytes));
        }
        (NetBody::Resp(resp), Luggage::None) => {
            debug_assert!(resp.data.is_err(), "a successful response carries a page");
        }
        (body, luggage) => panic!("luggage {luggage:?} does not fit body {body:?}"),
    }
}

impl ShardMessage for Msg {
    type Detached = Luggage;

    fn detach(&mut self, pages: &mut PageStore, pools: &mut PoolStore) -> Luggage {
        match self {
            // The inter-node traffic that actually crosses shards under
            // the cluster partition (router/links are node-pinned).
            Msg::NetWire(wire) => {
                let mut wire = Box::new(pools.take(*wire));
                let inner = detach_body(wire.body_mut(), pages, pools);
                Luggage::Wire(wire, Box::new(inner))
            }
            Msg::NetCredit(_) | Msg::NetAck(_) => Luggage::None,
            // Node-internal in the cluster wiring, but supported so
            // arbitrary partitions stay correct.
            Msg::NetSend(send) => detach_body(&mut send.body, pages, pools),
            Msg::NetRecv(recv) => detach_body(&mut recv.body, pages, pools),
            Msg::FlashCmd(CtrlCmd::Write { data, .. }) => Luggage::Page(pages.take(*data)),
            Msg::FlashCmd(_) => Luggage::None,
            Msg::FlashResp(CtrlResp::ReadDone { result: Ok(read), .. }) => {
                Luggage::Page(pages.take(read.page))
            }
            Msg::FlashResp(_) => Luggage::None,
            Msg::ServerReq(_) => Luggage::None,
            Msg::ServerResp(resp) => match &resp.result {
                Ok(page) => Luggage::Page(pages.take(*page)),
                Err(_) => Luggage::None,
            },
            Msg::Host(HostMsg::Xfer(xfer)) => Luggage::Page(pages.take(xfer.body)),
            Msg::Host(HostMsg::Done(done)) => Luggage::Page(pages.take(done.body)),
            Msg::Op(AgentOp::WriteFlash { data, .. }) => Luggage::Page(pages.take(*data)),
            Msg::Op(_) => Luggage::None,
            Msg::Dram(served) => match &served.data {
                Ok(page) => Luggage::Page(pages.take(*page)),
                Err(_) => Luggage::None,
            },
            // Scheduler traffic is handle-free (and node-internal under
            // the cluster partition, but arbitrary partitions stay
            // correct).
            Msg::SchedSubmit(_) | Msg::SchedDone(_) => Luggage::None,
            // Driver → node-pinned GC agent; carries no payload.
            Msg::GcKick(_) => Luggage::None,
            // Self-sends by contract: a partition can never split a
            // component from itself, so these crossing a shard boundary
            // is a wiring bug.
            Msg::SchedFree(_) => {
                panic!("scheduler-internal SchedFree cannot cross shards")
            }
            Msg::FlashFinish(_) => {
                panic!("controller-internal Finish cannot cross shards")
            }
            Msg::Host(HostMsg::Finish(_)) => {
                panic!("PCIe-link-internal Finish cannot cross shards")
            }
        }
    }

    fn attach(&mut self, luggage: Luggage, pages: &mut PageStore, pools: &mut PoolStore) {
        match (self, luggage) {
            (Msg::NetWire(wire), Luggage::Wire(mut carried, inner)) => {
                attach_body(carried.body_mut(), *inner, pages, pools);
                *wire = pools.intern(*carried);
            }
            (Msg::NetSend(send), luggage) => attach_body(&mut send.body, luggage, pages, pools),
            (Msg::NetRecv(recv), luggage) => attach_body(&mut recv.body, luggage, pages, pools),
            (Msg::FlashCmd(CtrlCmd::Write { data, .. }), Luggage::Page(bytes)) => {
                *data = pages.alloc_from(&bytes);
            }
            (Msg::FlashResp(CtrlResp::ReadDone { result: Ok(read), .. }), Luggage::Page(bytes)) => {
                read.page = pages.alloc_from(&bytes);
            }
            (Msg::ServerResp(resp), Luggage::Page(bytes)) => {
                resp.result = Ok(pages.alloc_from(&bytes));
            }
            (Msg::Host(HostMsg::Xfer(xfer)), Luggage::Page(bytes)) => {
                xfer.body = pages.alloc_from(&bytes);
            }
            (Msg::Host(HostMsg::Done(done)), Luggage::Page(bytes)) => {
                done.body = pages.alloc_from(&bytes);
            }
            (Msg::Op(AgentOp::WriteFlash { data, .. }), Luggage::Page(bytes)) => {
                *data = pages.alloc_from(&bytes);
            }
            (Msg::Dram(served), Luggage::Page(bytes)) => {
                served.data = Ok(pages.alloc_from(&bytes));
            }
            (_, Luggage::None) => {}
            (msg, luggage) => panic!("luggage {luggage:?} does not fit message {msg:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trips_preserve_variants() {
        let cmd = CtrlCmd::Erase {
            tag: bluedbm_flash::Tag(3),
            ppa: bluedbm_flash::Ppa::new(0, 0, 0, 0),
            reply_to: {
                let mut sim = bluedbm_sim::Simulator::<Msg>::new();
                sim.reserve()
            },
        };
        let msg: Msg = FlashMsg::Cmd(cmd).into();
        assert!(matches!(msg, Msg::FlashCmd(_)));
        let back = msg.into_flash();
        assert!(matches!(back, FlashMsg::Cmd(CtrlCmd::Erase { .. })));
    }

    /// The per-event layout budget README cites: what one queued `Msg`
    /// costs in each kernel queue, and the handle bulk payloads ride as.
    #[test]
    fn hot_path_layout_sizes_are_pinned() {
        use bluedbm_sim::Simulator;
        assert_eq!(Simulator::<Msg>::fast_queue_entry_bytes(), 80);
        assert_eq!(Simulator::<Msg>::heap_entry_bytes(), 24);
        assert_eq!(std::mem::size_of::<PageRef>(), 8);
    }
}
