//! The Flash Interface Splitter (paper Section 3.1.2, Figure 3).
//!
//! Several hardware endpoints need shared access to one flash controller:
//! the local in-store processor, host software over PCIe DMA, and remote
//! in-store processors arriving over the integrated network. The splitter
//! multiplexes them by **tag renaming**: each client keeps its private tag
//! space; the splitter maps (client, client-tag) onto a free controller
//! tag on the way down and restores the client's tag on the way back up.

use std::collections::VecDeque;

use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::SimTime;

use crate::controller::{CtrlCmd, CtrlResp, Tag};
use crate::msg::{FlashMsg, FlashProtocol};

/// Per-rename bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Rename {
    client: ComponentId,
    client_tag: Tag,
}

/// Cumulative splitter statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SplitterStats {
    /// Commands forwarded to the controller.
    pub(crate) forwarded: u64,
    /// Completions returned to clients.
    pub(crate) returned: u64,
    /// Commands that had to wait for a free rename tag.
    pub(crate) rename_stalls: u64,
}

/// Tag-renaming multiplexer in front of a [`crate::FlashController`].
///
/// Clients address their [`CtrlCmd`]s to the splitter exactly as they
/// would address the controller; `reply_to` should name the *client*, and
/// the splitter substitutes itself before forwarding.
pub struct FlashSplitter {
    controller: ComponentId,
    free_tags: Vec<u16>,
    renames: Vec<Option<Rename>>,
    waiting: VecDeque<CtrlCmd>,
    stats: SplitterStats,
}

impl FlashSplitter {
    /// Create a splitter feeding `controller`, with `tag_count` rename
    /// slots (the controller's own tag budget is the natural choice).
    ///
    /// # Panics
    ///
    /// Panics if `tag_count` is zero or exceeds `u16::MAX`.
    pub fn new(controller: ComponentId, tag_count: usize) -> Self {
        assert!(tag_count > 0 && tag_count <= u16::MAX as usize);
        FlashSplitter {
            controller,
            free_tags: (0..tag_count as u16).rev().collect(),
            renames: vec![None; tag_count],
            waiting: VecDeque::new(),
            stats: SplitterStats::default(),
        }
    }

    fn forward<M: FlashProtocol>(&mut self, ctx: &mut Ctx<'_, M>, cmd: CtrlCmd) {
        let Some(renamed) = self.free_tags.pop() else {
            self.stats.rename_stalls += 1;
            self.waiting.push_back(cmd);
            return;
        };
        self.renames[renamed as usize] = Some(Rename {
            client: cmd.reply_to(),
            client_tag: cmd.tag(),
        });
        let me = ctx.self_id();
        let out = match cmd {
            CtrlCmd::Read { ppa, .. } => CtrlCmd::Read {
                tag: Tag(renamed),
                ppa,
                reply_to: me,
            },
            CtrlCmd::Write { ppa, data, .. } => CtrlCmd::Write {
                tag: Tag(renamed),
                ppa,
                data,
                reply_to: me,
            },
            CtrlCmd::Erase { ppa, .. } => CtrlCmd::Erase {
                tag: Tag(renamed),
                ppa,
                reply_to: me,
            },
        };
        self.stats.forwarded += 1;
        ctx.send(self.controller, SimTime::ZERO, FlashMsg::Cmd(out));
    }

    fn unrename<M: FlashProtocol>(&mut self, ctx: &mut Ctx<'_, M>, resp: CtrlResp) {
        let renamed = resp.tag().0;
        let rename = self.renames[renamed as usize]
            .take()
            .expect("completion for a tag the splitter never issued");
        self.free_tags.push(renamed);
        let restored = match resp {
            CtrlResp::ReadDone {
                result, issued_at, ..
            } => CtrlResp::ReadDone {
                tag: rename.client_tag,
                result,
                issued_at,
            },
            CtrlResp::WriteDone { result, .. } => CtrlResp::WriteDone {
                tag: rename.client_tag,
                result,
            },
            CtrlResp::EraseDone { result, .. } => CtrlResp::EraseDone {
                tag: rename.client_tag,
                result,
            },
        };
        self.stats.returned += 1;
        ctx.send(rename.client, SimTime::ZERO, FlashMsg::Resp(restored));
        if let Some(queued) = self.waiting.pop_front() {
            self.forward(ctx, queued);
        }
    }
}

impl<M: FlashProtocol> Component<M> for FlashSplitter {
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
        match msg.into_flash() {
            FlashMsg::Cmd(cmd) => self.forward(ctx, cmd),
            FlashMsg::Resp(resp) => self.unrename(ctx, resp),
            other => panic!("flash splitter got an unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::FlashArray;
    use crate::controller::FlashController;
    use crate::geometry::{FlashGeometry, Ppa};
    use crate::timing::FlashTiming;
    use bluedbm_sim::engine::Simulator;

    /// Records read completions with their tags.
    struct Client {
        done: Vec<Tag>,
    }

    impl Component<FlashMsg> for Client {
        fn handle(&mut self, _ctx: &mut Ctx<'_, FlashMsg>, msg: FlashMsg) {
            let FlashMsg::Resp(resp) = msg else {
                panic!("CtrlResp expected")
            };
            self.done.push(resp.tag());
        }
    }

    fn world(
        tag_count: usize,
    ) -> (Simulator<FlashMsg>, ComponentId, ComponentId, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let mut array = FlashArray::new(FlashGeometry::tiny(), 3);
        let data = vec![6u8; FlashGeometry::tiny().page_bytes];
        for p in 0..8 {
            array.program(Ppa::new(0, 0, 0, p), &data).unwrap();
        }
        let ctrl = sim.add_component(FlashController::new(array, FlashTiming::test_fast()));
        let split = sim.add_component(FlashSplitter::new(ctrl, tag_count));
        let c1 = sim.add_component(Client { done: vec![] });
        let c2 = sim.add_component(Client { done: vec![] });
        (sim, ctrl, split, c1, c2)
    }

    #[test]
    fn two_clients_share_one_controller_with_overlapping_tags() {
        let (mut sim, _ctrl, split, c1, c2) = world(16);
        // Both clients use tag 0 — the splitter must keep them apart.
        sim.schedule(
            SimTime::ZERO,
            split,
            CtrlCmd::Read {
                tag: Tag(0),
                ppa: Ppa::new(0, 0, 0, 0),
                reply_to: c1,
            },
        );
        sim.schedule(
            SimTime::ZERO,
            split,
            CtrlCmd::Read {
                tag: Tag(0),
                ppa: Ppa::new(0, 0, 0, 1),
                reply_to: c2,
            },
        );
        sim.run();
        assert_eq!(sim.component::<Client>(c1).unwrap().done, vec![Tag(0)]);
        assert_eq!(sim.component::<Client>(c2).unwrap().done, vec![Tag(0)]);
        let s = sim.component::<FlashSplitter>(split).unwrap();
        assert_eq!(s.stats.forwarded, 2);
        assert_eq!(s.stats.returned, 2);
        assert!(s.renames.iter().all(Option::is_none));
    }

    #[test]
    fn rename_exhaustion_queues_and_drains() {
        let (mut sim, _ctrl, split, c1, _c2) = world(2);
        for p in 0..8u32 {
            sim.schedule(
                SimTime::ZERO,
                split,
                CtrlCmd::Read {
                    tag: Tag(p as u16),
                    ppa: Ppa::new(0, 0, 0, p),
                    reply_to: c1,
                },
            );
        }
        sim.run();
        let c = sim.component::<Client>(c1).unwrap();
        assert_eq!(c.done.len(), 8);
        let s = sim.component::<FlashSplitter>(split).unwrap();
        assert!(s.stats.rename_stalls >= 6);
        assert!(s.renames.iter().all(Option::is_none));
    }

    #[test]
    fn preserves_client_tags_across_kinds() {
        let (mut sim, _ctrl, split, c1, _c2) = world(8);
        sim.schedule(
            SimTime::ZERO,
            split,
            CtrlCmd::Erase {
                tag: Tag(42),
                ppa: Ppa::new(0, 0, 1, 0),
                reply_to: c1,
            },
        );
        let buffer = sim
            .page_store_mut()
            .alloc_from(&vec![1u8; FlashGeometry::tiny().page_bytes]);
        sim.schedule(
            SimTime::ZERO,
            split,
            CtrlCmd::Write {
                tag: Tag(43),
                ppa: Ppa::new(0, 0, 1, 0),
                data: buffer,
                reply_to: c1,
            },
        );
        sim.run();
        let mut tags = sim.component::<Client>(c1).unwrap().done.clone();
        tags.sort();
        assert_eq!(tags, vec![Tag(42), Tag(43)]);
    }
}
