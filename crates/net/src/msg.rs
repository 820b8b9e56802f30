//! The network subsystem's typed message protocol.
//!
//! [`NetMsg<B>`] is generic over the **packet body** type `B`: the payload
//! object the functional layer attaches to each packet (a remote read
//! request, a page of data, `()` for pure timing experiments). A network
//! simulation picks one body type; the workspace composition uses
//! `bluedbm_core::NetBody`.

use bluedbm_sim::Message;

use crate::router::{CreditReturn, E2eAck, NetRecv, NetSend, WireRef};

/// Union of every message a network component sends or receives.
///
/// `Wire` rides as an interned handle: the per-hop routing record
/// (timing, credit provenance) stacked on top of the packet would
/// otherwise dominate the size of every composed message enum. The
/// record is interned into the simulator-owned control-block pool once
/// at injection, the 8-byte [`WireRef`] moves hop to hop, and the
/// delivering router takes it back out — so steady-state forwarding
/// *and injection* allocate nothing (the previous `Box` cost one heap
/// allocation per packet).
#[derive(Debug)]
pub enum NetMsg<B> {
    /// Local sender asks its router to inject a packet.
    Send(NetSend<B>),
    /// Router delivers a packet to an endpoint consumer.
    Recv(NetRecv<B>),
    /// Router-to-router transfer (head arrival), by pool handle.
    Wire(WireRef<B>),
    /// Link-layer credit returned by the downstream router.
    Credit(CreditReturn),
    /// End-to-end flow-control acknowledgement.
    Ack(E2eAck),
}

impl<B> NetMsg<B> {
    /// Variant name, for wiring-bug panics without a `Debug` bound on `B`.
    pub fn kind(&self) -> &'static str {
        match self {
            NetMsg::Send(_) => "NetSend",
            NetMsg::Recv(_) => "NetRecv",
            NetMsg::Wire(_) => "Wire",
            NetMsg::Credit(_) => "CreditReturn",
            NetMsg::Ack(_) => "E2eAck",
        }
    }
}

impl<B> From<NetSend<B>> for NetMsg<B> {
    #[inline]
    fn from(m: NetSend<B>) -> Self {
        NetMsg::Send(m)
    }
}

impl<B> From<NetRecv<B>> for NetMsg<B> {
    #[inline]
    fn from(m: NetRecv<B>) -> Self {
        NetMsg::Recv(m)
    }
}

/// Implemented by any simulation message type that embeds the network
/// protocol for one body type. Routers are generic over this trait, so
/// they run unchanged in a network-only simulation (`M = NetMsg<B>`) or
/// the full workspace composition.
pub trait NetProtocol: Message + From<NetMsg<Self::Body>> {
    /// The packet body type carried by this simulation's network.
    /// `Send` because wire records (and the packets inside them) are
    /// interned in the simulator-owned pool, whose entries must be able
    /// to migrate with a shard onto a worker thread.
    type Body: Send + 'static;

    /// Extract the network view of this message.
    ///
    /// # Panics
    ///
    /// Implementations panic when the message is not a network message —
    /// delivery of a foreign protocol to a router is a wiring bug.
    fn into_net(self) -> NetMsg<Self::Body>;
}

impl<B: Send + 'static> NetProtocol for NetMsg<B> {
    type Body = B;

    #[inline]
    fn into_net(self) -> NetMsg<B> {
        self
    }
}
