//! The host subsystem's typed message protocol.
//!
//! [`HostMsg<B>`] is generic over the **transfer body** type `B`: the
//! functional payload a DMA transfer carries (a page of data in the full
//! system, `()` in timing-only benches).

use bluedbm_sim::Message;

use crate::pcie::{Finish, PcieDone, PcieXfer};

/// Union of every message a host-interface component sends or receives.
#[derive(Debug)]
pub enum HostMsg<B> {
    /// A DMA transfer request ([`crate::pcie::PcieLink`] ingress).
    Xfer(PcieXfer<B>),
    /// Transfer completion (egress to whoever `notify` names).
    Done(PcieDone<B>),
    /// Link-internal delayed completion (self-send only).
    Finish(Finish<B>),
}

impl<B> HostMsg<B> {
    /// Variant name, for wiring-bug panics without a `Debug` bound on `B`.
    pub fn kind(&self) -> &'static str {
        match self {
            HostMsg::Xfer(_) => "PcieXfer",
            HostMsg::Done(_) => "PcieDone",
            HostMsg::Finish(_) => "Finish",
        }
    }
}

impl<B> From<PcieXfer<B>> for HostMsg<B> {
    #[inline]
    fn from(m: PcieXfer<B>) -> Self {
        HostMsg::Xfer(m)
    }
}

impl<B> From<PcieDone<B>> for HostMsg<B> {
    #[inline]
    fn from(m: PcieDone<B>) -> Self {
        HostMsg::Done(m)
    }
}

/// Implemented by any simulation message type that embeds the host
/// protocol for one body type; the PCIe link component is generic over
/// this trait.
pub trait HostProtocol: Message + From<HostMsg<Self::Body>> {
    /// The transfer body type carried by this simulation's PCIe link.
    type Body: 'static;

    /// Extract the host view of this message.
    ///
    /// # Panics
    ///
    /// Implementations panic when the message is not a host message —
    /// delivery of a foreign protocol to a host component is a wiring
    /// bug.
    fn into_host(self) -> HostMsg<Self::Body>;
}

impl<B: 'static> HostProtocol for HostMsg<B> {
    type Body = B;

    #[inline]
    fn into_host(self) -> HostMsg<B> {
        self
    }
}
