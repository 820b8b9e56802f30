//! The flash subsystem's typed message protocol.
//!
//! Every component in this crate speaks [`FlashMsg`]; simulations that
//! compose flash with other subsystems implement [`FlashProtocol`] on
//! their own message enum (see the core crate's `Msg`), which lets the
//! components here stay generic without boxing a single payload.

use bluedbm_sim::Message;

use crate::controller::{CtrlCmd, CtrlResp, Finish};

/// Union of every message a flash-stack component sends or receives.
#[derive(Debug)]
pub enum FlashMsg {
    /// A tagged command, sent to a [`crate::FlashController`] or to a
    /// [`crate::FlashSplitter`], which forwards it unchanged.
    Cmd(CtrlCmd),
    /// A command's completion, sent to whoever its `reply_to` names: a
    /// splitter passes it on, unchanged, to its client.
    Resp(CtrlResp),
    /// Controller-internal delayed completion (self-send only).
    Finish(Finish),
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
