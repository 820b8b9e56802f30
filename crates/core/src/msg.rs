//! The workspace-wide concrete message type.
//!
//! `Msg` composes every subsystem protocol a full BlueDBM node speaks —
//! flash commands, network packets (whose bodies are the remote-operation
//! types in `NetBody`), and the node-agent operations and self-sends —
//! into one enum that instantiates the typed [`bluedbm_sim::Simulator`].
//! The PCIe link and the accelerator units exchange no messages: the
//! agent books them directly and sends itself each completion.
//!
//! ## Handle-based payloads
//!
//! Control fields travel inline; **bulk page payloads travel by
//! handle**: page contents live in the simulator-owned
//! [`bluedbm_sim::PageStore`] and messages carry an 8-byte [`PageRef`].
//! A page read off a simulated flash chip moves through the card's
//! controller and splitter hops, the network and the agent's completion
//! self-sends as one handle copy per hop; the bytes are written once by the producer
//! (the flash array) and copied out once by the consumer. Ownership
//! rule: every [`PageRef`] inside a message has exactly one consumer,
//! which must `free` (or `take`) the page — simulations audit this with
//! `PageStore::assert_quiescent` after a run.
//!
//! ## The 64-byte budget
//!
//! `size_of::<Msg>() <= 64` is asserted at compile time: one message
//! fits a cache line, so the kernel's payload-arena slots stay compact
//! and dispatch is never payload-transport-bound. Three layout decisions
//! keep it true:
//!
//! * `Msg` is **flat** — one discriminant level. Each nested enum
//!   wrapper costs 8 bytes of tag + padding, so the network's `NetMsg`
//!   is split into its variants here and reassembled (a plain move) in
//!   the protocol-trait impl below;
//! * bulk payloads ride the page store as [`PageRef`]s (above);
//! * the two verbose network objects are **interned in the
//!   simulator-owned control-block pool** where they are born:
//!   `NetMsg::Wire` (per-hop routing metadata; interned at injection,
//!   the 8-byte [`WireRef`] moves hop to hop, the delivering router
//!   takes it out) and `NetBody::Req` (interned by the requesting
//!   agent, taken by the owning node's agent). Pool slots recycle, so
//!   the remote-request control plane allocates nothing in steady state
//!   — the per-page data plane, `NetBody::Resp`, stays inline.
//!
//! ## Crossing shard boundaries
//!
//! Under the sharded runtime ([`bluedbm_sim::ShardedSimulator`]) pages
//! and pooled control blocks live in per-shard store segments, so a
//! message leaving its shard must carry its payloads along: the
//! [`ShardMessage`] impl below detaches them into a `Luggage` crate on
//! the way out and re-installs them (rewriting the handles in place) on
//! the way in. `Cluster::with_partition` pins every component of a node
//! to that node's shard, so only router-to-router traffic (`NetWire` and
//! `NetCredit`) ever crosses; any other variant crossing is a
//! wiring bug, and the impl panics naming it.
//!
//! To add a new message kind, see the "Adding a new message variant"
//! checklist in the `bluedbm_sim` crate docs.
//!
//! [`PageRef`]: bluedbm_sim::PageRef

use bluedbm_flash::controller::{CtrlCmd, CtrlResp};
use bluedbm_net::msg::{NetMsg, NetProtocol};
use bluedbm_net::router::{CreditReturn, NetRecv, NetSend, Wire, WireRef};
use bluedbm_sim::pool::PoolRef;
use bluedbm_sim::shard::ShardMessage;
use bluedbm_sim::{PageStore, PoolStore};

use crate::node::{AgentOp, DramServed, ReadDone, RemoteReq, RemoteResp};

/// Functional payload of a storage-network packet in the full system.
#[derive(Debug)]
pub(crate) enum NetBody {
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
pub(crate) enum Msg {
    /// Raw flash-controller command, from a card's agent through its
    /// splitter to its controller (`crate::card`).
    FlashCmd(CtrlCmd),
    /// Flash-controller completion, from a card's controller through its
    /// splitter to its agent.
    FlashResp(CtrlResp),
    /// Card-controller internal: a booked command's finish instant, with
    /// its response (self-send only).
    FlashFinish(CtrlResp),
    /// Local sender asks its router to inject a packet.
    NetSend(NetSend<NetBody>),
    /// Router delivers a packet to an endpoint consumer.
    NetRecv(NetRecv<NetBody>),
    /// Router-to-router transfer, by pool handle.
    NetWire(WireRef<NetBody>),
    /// Link-layer credit return.
    NetCredit(CreditReturn),
    /// Driver operation addressed to a node agent.
    Op(AgentOp),
    /// Node-agent internal: delayed DRAM-buffer reply.
    Dram(DramServed),
    /// Node-agent internal: a host-bound page's booked PCIe transfer
    /// has landed in host memory.
    PcieDone(ReadDone),
    /// Node-agent internal: accelerator job `.1` (Section 4) finished
    /// its booked unit time.
    AccelDone(ReadDone, u64),
}

/// The fast-path size budget: one [`Msg`] must fit a 64-byte cache
/// line. Adding a variant (or growing one) past the budget fails the
/// build here — carry bulk payloads by [`PageRef`] instead.
///
/// [`PageRef`]: bluedbm_sim::PageRef
const _: () = assert!(
    std::mem::size_of::<Msg>() <= 64,
    "Msg exceeds the 64-byte fast-path budget; carry bulk payloads by PageRef"
);

impl From<NetMsg<NetBody>> for Msg {
    #[inline]
    fn from(m: NetMsg<NetBody>) -> Self {
        match m {
            NetMsg::Send(s) => Msg::NetSend(s),
            NetMsg::Recv(r) => Msg::NetRecv(r),
            NetMsg::Wire(w) => Msg::NetWire(w),
            NetMsg::Credit(c) => Msg::NetCredit(c),
        }
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

impl NetProtocol for Msg {
    type Body = NetBody;

    #[inline]
    fn into_net(self) -> NetMsg<NetBody> {
        match self {
            Msg::NetSend(s) => NetMsg::Send(s),
            Msg::NetRecv(r) => NetMsg::Recv(r),
            Msg::NetWire(w) => NetMsg::Wire(w),
            Msg::NetCredit(c) => NetMsg::Credit(c),
            other => panic!("network component received a non-network message: {other:?}"),
        }
    }
}

/// Owned form of a [`Msg`]'s store-backed payloads while the message is
/// in transit between shards: a wire record and its body's payload (see
/// the module docs). Built by [`ShardMessage::detach`], consumed by
/// [`ShardMessage::attach`].
#[derive(Debug)]
pub(crate) enum Luggage {
    /// No store-backed payload (a credit return or a failed response's
    /// body).
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
            Msg::NetWire(wire) => {
                let mut wire = Box::new(pools.take(*wire));
                let inner = detach_body(wire.body_mut(), pages, pools);
                Luggage::Wire(wire, Box::new(inner))
            }
            Msg::NetCredit(_) => Luggage::None,
            other => panic!(
                "{other:?} crossed shards: every component of a node lives on the node's \
                 shard, so only router-to-router traffic may cross"
            ),
        }
    }

    fn attach(&mut self, luggage: Luggage, pages: &mut PageStore, pools: &mut PoolStore) {
        match (self, luggage) {
            (Msg::NetWire(wire), Luggage::Wire(mut carried, inner)) => {
                attach_body(carried.body_mut(), *inner, pages, pools);
                *wire = pools.intern(*carried);
            }
            (Msg::NetCredit(_), Luggage::None) => {}
            (msg, luggage) => panic!("luggage {luggage:?} does not fit message {msg:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "crossed shards")]
    fn only_router_traffic_crosses_shards() {
        let mut pages = PageStore::new();
        let mut msg = Msg::FlashCmd(CtrlCmd::Write {
            tag: bluedbm_flash::Tag(1),
            ppa: bluedbm_flash::Ppa::new(0, 0, 0, 0),
            data: pages.alloc_from(&[7; 8]),
        });
        msg.detach(&mut pages, &mut PoolStore::default());
    }

    /// The per-event layout budget README cites: what one pending `Msg`
    /// costs in the kernel (a queue entry plus an arena slot), and the
    /// handle bulk payloads ride as.
    #[test]
    fn hot_path_layout_sizes_are_pinned() {
        use bluedbm_sim::Simulator;
        assert_eq!(Simulator::<Msg>::queue_entry_bytes(), 16);
        assert_eq!(Simulator::<Msg>::arena_slot_bytes(), 64);
        assert_eq!(std::mem::size_of::<bluedbm_sim::PageRef>(), 8);
    }
}
