//! The per-node garbage-collection agent: flash lifecycle as simulated
//! traffic.
//!
//! BlueDBM's flash is raw, so GC lives in the driver (paper Section 4).
//! In the event-driven simulation that driver policy is the per-card
//! mirror [`bluedbm_ftl::Ftl`] owned by [`crate::cluster::Cluster`]: on
//! every host write it replays the allocation/GC/wear-leveling decision
//! via [`bluedbm_ftl::Ftl::step_write`] and, when a plane fell to its
//! free-block watermark, hands the resulting [`GcRound`]s to this
//! component. The `GcAgent` then executes them as **ordinary
//! simulated commands** — a [`CtrlCmd::Read`] and [`CtrlCmd::Write`]
//! per valid-page relocation, a [`CtrlCmd::Erase`] per victim block —
//! through the same tag-renaming splitter foreground traffic uses, so
//! migration and erase time occupy the card's buses and chips and GC
//! pressure lands on tenant tail latency.
//!
//! Rounds execute strictly in policy order, one command in flight at a
//! time (relocation must read a page before it can program the copy,
//! and the erase must wait for every relocation), which also makes the
//! [`TraceCat::Gc`] records it emits arbitration-independent: victim
//! choice, move order and erase order are pure functions of the logical
//! op sequence, so the category participates in the stable cross-engine
//! trace digest.

use std::collections::VecDeque;

use bluedbm_flash::controller::{CtrlCmd, CtrlResp, Tag};
use bluedbm_flash::geometry::{FlashGeometry, Ppa};
use bluedbm_ftl::GcRound;
use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::SimTime;
use bluedbm_sim::{MetricsNode, TraceCat, TraceName};

use crate::msg::Msg;

/// Wake-up message for a node's [`GcAgent`]: the cluster queued at
/// least one `GcJob` and wants it executed now.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GcKick;

/// One logical-space lifecycle operation, as recorded by the cluster's
/// conformance log (`config.gc.log`). Replaying the per-card log
/// op-for-op against a fresh offline [`bluedbm_ftl::Ftl`] must
/// reproduce the mirror's mapping table, victim sequence, erase counts
/// and write amplification exactly — that replay is the GC conformance
/// suite's oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleOp {
    /// A host write of logical page `lba`.
    Write(u64),
    /// A host trim (free) of logical page `lba`.
    Trim(u64),
}

/// One watermark-triggered collection: the rounds one mirror-FTL write
/// reported, to run against one card.
#[derive(Clone, Debug)]
pub(crate) struct GcJob {
    /// Card index within the node.
    pub(crate) card: u8,
    /// The rounds, in policy order.
    pub(crate) rounds: Vec<GcRound>,
}

/// Cluster-wide flash lifecycle accounting, aggregated over every
/// card's mirror FTL by [`crate::cluster::Cluster::gc_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcStats {
    /// Pages written by hosts (foreground programs).
    pub host_writes: u64,
    /// Pages programmed by GC relocation (background programs).
    pub gc_writes: u64,
    /// Victim blocks erased.
    pub erases: u64,
    /// Valid pages relocated.
    pub relocated: u64,
    /// Largest erase-count spread of any card ([`bluedbm_ftl::Ftl::wear_spread`]).
    pub wear_spread: u64,
}

impl GcStats {
    /// Write amplification: flash programs per host program (1.0 before
    /// any host write).
    pub fn wa(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_writes) as f64 / self.host_writes as f64
        }
    }

    /// Write every counter (and the derived WA ratio) into a metrics
    /// `node` (see [`bluedbm_sim::MetricsRegistry`]).
    pub(crate) fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("host_writes", self.host_writes);
        node.set("gc_writes", self.gc_writes);
        node.set("erases", self.erases);
        node.set("relocated", self.relocated);
        node.set("wear_spread", self.wear_spread);
        node.set("wa", self.wa());
    }
}

/// Cumulative per-node GC agent statistics: what this node's agent has
/// executed as simulated traffic (functional preload-time rounds are
/// not counted here — see the mirror's own stats for policy totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcAgentStats {
    /// Jobs (watermark triggers) executed.
    pub(crate) jobs: u64,
    /// Collection rounds completed.
    pub(crate) rounds: u64,
    /// Valid-page relocations performed (read + program pairs).
    pub moves: u64,
    /// Block erases issued.
    pub erases: u64,
}

impl GcAgentStats {
    /// Write every counter into a metrics `node`.
    pub(crate) fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("jobs", self.jobs);
        node.set("rounds", self.rounds);
        node.set("moves", self.moves);
        node.set("erases", self.erases);
    }
}

/// The in-progress job: a cursor over its rounds and moves. At most one
/// flash command is outstanding at a time; which completion arrives
/// next is implied by the cursor (move `mv` pending read → pending
/// write → next move, then the round's erase).
#[derive(Debug)]
struct Running {
    card: u8,
    rounds: Vec<GcRound>,
    round: usize,
    mv: usize,
    /// Rounds whose `victim` trace instant has been emitted.
    announced: usize,
}

/// Per-node DES component executing mirror-FTL GC rounds on the node's
/// flash cards. See the [module docs](self).
pub(crate) struct GcAgent {
    node: u32,
    geometry: FlashGeometry,
    /// Per-card flash splitter (shared with foreground traffic).
    cards: Vec<ComponentId>,
    jobs: VecDeque<GcJob>,
    run: Option<Running>,
    next_tag: u16,
    stats: GcAgentStats,
}

impl GcAgent {
    /// An agent for node `node` driving one splitter per card.
    pub(crate) fn new(node: u32, cards: Vec<ComponentId>, geometry: FlashGeometry) -> Self {
        GcAgent {
            node,
            geometry,
            cards,
            jobs: VecDeque::new(),
            run: None,
            next_tag: 0,
            stats: GcAgentStats::default(),
        }
    }

    /// Queue a job; the driver follows up with a [`GcKick`] to start it.
    pub(crate) fn push_job(&mut self, card: u8, rounds: Vec<GcRound>) {
        assert!((card as usize) < self.cards.len(), "job for a card this node lacks");
        self.jobs.push_back(GcJob { card, rounds });
    }

    /// Statistics gathered so far.
    pub(crate) fn stats(&self) -> &GcAgentStats {
        &self.stats
    }

    fn alloc_tag(&mut self) -> Tag {
        let tag = Tag(self.next_tag);
        self.next_tag = self.next_tag.wrapping_add(1);
        tag
    }

    /// `(card << 32) | linear page` — the policy-pure payload word the
    /// `Gc` trace records carry (stable across engines).
    fn addr_word(&self, card: u8, ppa: Ppa) -> u64 {
        (u64::from(card) << 32) | self.geometry.linear_of(ppa) as u64
    }

    /// Issue the next command of the current job, or pull the next job
    /// when the current one is finished.
    fn advance(&mut self, ctx: &mut Ctx<'_, Msg>) {
        loop {
            let Some(run) = &self.run else { return };
            if run.round == run.rounds.len() {
                self.run = None;
                match self.jobs.pop_front() {
                    Some(job) => {
                        self.stats.jobs += 1;
                        self.run = Some(Running {
                            card: job.card,
                            rounds: job.rounds,
                            round: 0,
                            mv: 0,
                            announced: 0,
                        });
                        continue;
                    }
                    None => return,
                }
            }
            let card = run.card;
            let round = &run.rounds[run.round];
            if run.announced == run.round {
                let a = self.addr_word(card, round.victim);
                let b = u64::from(round.wear_leveling);
                ctx.trace()
                    .instant(TraceCat::Gc, TraceName::Victim, self.node, a, b);
                self.run.as_mut().expect("job still running").announced += 1;
                continue;
            }
            let splitter = self.cards[card as usize];
            // Copy the target out before alloc_tag's mutable borrow.
            let target = if run.mv < round.moves.len() {
                Ok(round.moves[run.mv].0)
            } else {
                Err(round.victim)
            };
            let tag = self.alloc_tag();
            let reply_to = ctx.self_id();
            let cmd = match target {
                Ok(src) => CtrlCmd::Read { tag, ppa: src, reply_to },
                Err(victim) => CtrlCmd::Erase { tag, ppa: victim, reply_to },
            };
            ctx.send(splitter, SimTime::ZERO, cmd);
            return;
        }
    }

    fn on_resp(&mut self, ctx: &mut Ctx<'_, Msg>, resp: CtrlResp) {
        let run = self.run.as_ref().expect("completion with no job running");
        let card = run.card;
        let round = &run.rounds[run.round];
        match resp {
            CtrlResp::ReadDone { result, .. } => {
                // The mirror only relocates valid (mapped) pages, and
                // every mapped page was programmed by a simulated or
                // preloaded write — a failed read means the DES array
                // diverged from the mirror's books.
                let read = result.expect("GC relocation read failed: DES array diverged from mirror FTL");
                let (_src, dst) = round.moves[run.mv];
                let cmd = CtrlCmd::Write {
                    tag: self.alloc_tag(),
                    ppa: dst,
                    data: read.page,
                    reply_to: ctx.self_id(),
                };
                let splitter = self.cards[card as usize];
                ctx.send(splitter, SimTime::ZERO, cmd);
            }
            CtrlResp::WriteDone { result, .. } => {
                result.expect("GC relocation program failed: DES array diverged from mirror FTL");
                let (src, dst) = round.moves[run.mv];
                let a = self.addr_word(card, src);
                let b = self.geometry.linear_of(dst) as u64;
                ctx.trace()
                    .instant(TraceCat::Gc, TraceName::Move, self.node, a, b);
                self.stats.moves += 1;
                self.run.as_mut().expect("job still running").mv += 1;
                self.advance(ctx);
            }
            CtrlResp::EraseDone { result, .. } => {
                result.expect("GC erase failed: DES array diverged from mirror FTL");
                let a = self.addr_word(card, round.victim);
                let b = round.moves.len() as u64;
                ctx.trace()
                    .instant(TraceCat::Gc, TraceName::Erase, self.node, a, b);
                self.stats.erases += 1;
                self.stats.rounds += 1;
                let run = self.run.as_mut().expect("job still running");
                run.round += 1;
                run.mv = 0;
                self.advance(ctx);
            }
        }
    }
}

impl Component<Msg> for GcAgent {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::GcKick(_) => {
                if self.run.is_none() {
                    if let Some(job) = self.jobs.pop_front() {
                        self.stats.jobs += 1;
                        self.run = Some(Running {
                            card: job.card,
                            rounds: job.rounds,
                            round: 0,
                            mv: 0,
                            announced: 0,
                        });
                        self.advance(ctx);
                    }
                }
            }
            Msg::FlashResp(resp) => self.on_resp(ctx, resp),
            other => panic!("GC agent got an unexpected message: {other:?}"),
        }
    }
}
