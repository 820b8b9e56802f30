//! The flash subsystem's typed message protocol.
//!
//! Every component in this crate speaks [`FlashMsg`]; simulations that
//! compose flash with other subsystems implement [`FlashProtocol`] on
//! their own message enum (see the core crate's `Msg`), which lets the
//! components here stay generic without boxing a single payload.

use bluedbm_sim::Message;

use crate::controller::{CtrlCmd, CtrlResp, Finish};
use crate::server::{ServerReq, ServerResp};

/// Union of every message a flash-stack component sends or receives.
#[derive(Debug)]
pub enum FlashMsg {
    /// Raw controller command ([`crate::FlashController`] /
    /// [`crate::FlashSplitter`] ingress).
    Cmd(CtrlCmd),
    /// Controller completion (egress to whoever `reply_to` names).
    Resp(CtrlResp),
    /// Controller-internal delayed completion (self-send only).
    Finish(Finish),
    /// Flash Server request ([`crate::FlashServer`] ingress).
    ServerReq(ServerReq),
    /// Flash Server in-order response (egress to the requesting client).
    ServerResp(ServerResp),
}

impl From<CtrlCmd> for FlashMsg {
    #[inline]
    fn from(m: CtrlCmd) -> Self {
        FlashMsg::Cmd(m)
    }
}

impl From<CtrlResp> for FlashMsg {
    #[inline]
    fn from(m: CtrlResp) -> Self {
        FlashMsg::Resp(m)
    }
}

impl From<Finish> for FlashMsg {
    #[inline]
    fn from(m: Finish) -> Self {
        FlashMsg::Finish(m)
    }
}

impl From<ServerReq> for FlashMsg {
    #[inline]
    fn from(m: ServerReq) -> Self {
        FlashMsg::ServerReq(m)
    }
}

impl From<ServerResp> for FlashMsg {
    #[inline]
    fn from(m: ServerResp) -> Self {
        FlashMsg::ServerResp(m)
    }
}

/// Implemented by any simulation message type that embeds the flash
/// protocol. The flash components are generic over this trait, so they
/// run unchanged inside a flash-only simulation (`M = FlashMsg`) or the
/// full workspace composition.
pub trait FlashProtocol: Message + From<FlashMsg> {
    /// Extract the flash view of this message.
    ///
    /// # Panics
    ///
    /// Implementations panic when the message is not a flash message —
    /// delivery of a foreign protocol to a flash component is a wiring
    /// bug.
    fn into_flash(self) -> FlashMsg;
}

impl FlashProtocol for FlashMsg {
    #[inline]
    fn into_flash(self) -> FlashMsg {
        self
    }
}
