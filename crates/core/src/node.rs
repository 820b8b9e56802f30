//! The per-node agent: the glue fabric of one BlueDBM storage device.
//!
//! In the paper's node architecture (Figure 2) the in-store processor
//! sits between four services: flash interface, network interface, host
//! interface and the on-board DRAM buffer. `NodeAgent` is that hub as a
//! DES component: it accepts operations from the experiment driver,
//! issues tagged commands to its flash cards, serves and issues
//! remote requests over the integrated network, stages host-bound data
//! through the PCIe link, streams accelerator-bound data through the
//! node's shared accelerator units, and answers remote DRAM-buffer reads.
//!
//! The agent is the only client of its node's PCIe link and accelerator
//! units, so it books them directly. When a page reaches the agent, a
//! host-bound page books its DMA transfer ([`PcieLink::transfer`]) and an
//! accelerator-bound page books a unit (`crate::scheduler::AccelUnits`,
//! the FIFO policy of paper Section 4); the agent then sends itself the
//! completion at the booked instant.
//!
//! ## Flash management
//!
//! BlueDBM's flash is raw: each node's own software maps pages and
//! collects garbage for the cards on that node (paper Section 4). The
//! agent is that software. It owns one [`Ftl`] per card, and page
//! addresses arrive *logical*:
//!
//! * A write steps its card's `Ftl` when it reaches the agent (at zero
//!   delay, in the order the driver injected it) and programs the cell
//!   the step returns.
//! * A read — local, or a remote node's request — is mapped with
//!   [`Ftl::physical_of`] when it reaches the card's agent, and keeps
//!   that cell through any wait in the card's line: every
//!   collection decided before it runs first, and none decided after it
//!   starts until it has completed. (Mapping at send time would see the
//!   moves of a collection decided later but not yet run.) A page no
//!   cell holds completes with [`PageFault::NotProgrammed`] and sends no
//!   flash command.
//! * A failure on a page is reported as [`ClusterError::Page`], naming
//!   the page's logical address: the cell behind it is the agent's
//!   business. A remote read's answer carries only the [`PageFault`]
//!   code, and the requester, which knows what it asked for, names the
//!   page, so a local and a remote failure of one page read the same.
//! * When a step decides collection rounds, the card stops: commands
//!   that arrive wait in its line, in arrival order. Once every command
//!   the card accepted before the step has completed, the agent runs the
//!   rounds one command at a time (`crate::gc::GcJob` is the cursor),
//!   then sends the waiting commands. Each card collects on its own; the
//!   node's other cards and every other node run on.
//!
//! ## A card's line
//!
//! Each card has one flash queue: its line. The agent hands out the
//! card's [`FlashController::PAPER_TAGS`] controller tags itself, as
//! `Tag((card << 8) | slot)`, and the line sends its head only while
//! fewer than that many of the card's commands are out, so the
//! controller never counts a stall. A command's slot remembers what the
//! command is for until its completion frees it. A command reaches the
//! card through two event hops (`crate::card`), its splitter and its
//! controller, which books it on the card's [`FlashController`] model
//! when it arrives and answers back through the splitter at the booked
//! end; neither hop queues or renames anything.
//!
//! The driver reaches the `Ftl`s functionally, between runs: a preload
//! steps a write and applies it to the array at once, and a free trims at
//! once, since a trim moves no data. So a trim can come before the step
//! of a write that was injected earlier in the same round but has not yet
//! reached the agent. That reorders an `Ftl`'s input only when a free
//! follows a write to the same card within one round; since a trim moves
//! no data and no read may be in flight against a freed page, the order
//! changes no page's contents. A DRAM load fills the agent's buffer
//! the same way, between runs.
//!
//! The paper's Flash Server (Section 3.1.2), which delivers a file's
//! pages in order through an Address Translation Unit loaded by the file
//! system, is not modelled: the card's `Ftl` is its one map (an ATU
//! would be a second copy, gone stale at the first collection), and
//! the KV driver already reassembles a multi-page get by placing each
//! page at its index, which is the ordering the server offered.

use std::collections::VecDeque;

use bluedbm_sim::fxhash::FxHashMap;

use bluedbm_flash::controller::{CtrlCmd, CtrlResp, FlashController, Tag};
use bluedbm_flash::geometry::{FlashGeometry, Ppa};
use bluedbm_ftl::{Ftl, FtlError, GcRound, StepOutcome};
use bluedbm_host::bufpool::BufferPool;
use bluedbm_host::pcie::PcieLink;
use bluedbm_net::router::{NetRecv, NetSend};
use bluedbm_net::topology::NodeId;
use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::{Bandwidth, SimTime};
use bluedbm_sim::{MetricsNode, PageRef, TraceCat, TraceName};

use crate::cluster::{ClusterError, OpId, PageFault};
use crate::config::SystemConfig;
use crate::gc::{GcJob, GcTrafficStats, LifecycleOp};
use crate::msg::{Msg, NetBody};
use crate::scheduler::{AccelUnits, SchedStats};

/// Endpoint used for remote request messages.
pub(crate) const REQUEST_ENDPOINT: u16 = 0;
/// Number of endpoints used for data return (spread across parallel
/// lanes by the deterministic router).
pub(crate) const DATA_ENDPOINTS: u16 = 4;
/// Wire size of a remote read request.
pub const REQUEST_BYTES: u32 = 32;

/// A page address in the cluster-wide global address space: a logical
/// page of one card, which the card's `Ftl` maps to a cell.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalPageAddr {
    /// Owning node.
    pub node: NodeId,
    /// Flash card within the node.
    pub card: u8,
    /// Logical page number on that card: its `Ftl`'s LBA.
    pub(crate) lpn: u32,
}

/// Who consumes the data of a read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Consume {
    /// The in-store processor: data stays on the device (ISP-* paths).
    Isp,
    /// Host software: data additionally crosses the PCIe link (Host-*
    /// and H-* paths).
    Host,
    /// A shared in-store accelerator unit: data stays on the device but
    /// must stream through one of the node's `config.accel.units` units,
    /// which the FIFO `crate::scheduler::AccelUnits` (paper Section 4)
    /// grants in submission order — competing tenants queue. The KV
    /// engine's get path.
    Accel,
}

/// Operations the experiment driver sends to a `NodeAgent`.
#[derive(Clone, Debug)]
pub(crate) enum AgentOp {
    /// Read one page of the global address space (local or remote — the
    /// agent routes accordingly).
    ReadFlash {
        /// Driver-chosen id echoed in the completion record.
        op_id: u64,
        /// Logical page to read; the driver checked that the cluster
        /// has it.
        addr: GlobalPageAddr,
        /// Data destination.
        consume: Consume,
    },
    /// Write one local logical page: the card's `Ftl` picks the cell.
    WriteFlash {
        /// Driver-chosen id echoed in the completion record.
        op_id: u64,
        /// Logical page to write; must be local to this agent's node.
        addr: GlobalPageAddr,
        /// Handle to the page contents (staged in the simulator's page
        /// store by the driver; consumed by the flash controller).
        data: PageRef,
    },
    /// Read a remote node's DRAM buffer over the integrated network (the
    /// H-D path of Figure 12).
    ReadRemoteDram {
        /// Driver-chosen id echoed in the completion record.
        op_id: u64,
        /// Node whose DRAM buffer is read.
        node: NodeId,
        /// Key to fetch.
        key: u64,
        /// Data destination.
        consume: Consume,
    },
}

/// A finished page operation, as [`crate::cluster::Cluster::drive`]
/// returns it.
#[derive(Clone, Debug)]
pub struct Completed {
    /// The id [`crate::cluster::Cluster::submit`] returned.
    pub op_id: OpId,
    /// The node the operation was submitted at.
    pub node: NodeId,
    /// The page the operation touched: a read's, or the page a write
    /// was given (`None` for a DRAM read, and for a write refused
    /// before a page was allocated).
    pub addr: Option<GlobalPageAddr>,
    /// The payload: `Some` exactly when `error` is `None` — the page
    /// for a read, empty for a write.
    pub data: Option<Vec<u8>>,
    /// Failure, if any.
    pub error: Option<ClusterError>,
    /// When the agent accepted the operation.
    pub start: SimTime,
    /// When it completed (data fully at its destination).
    pub end: SimTime,
}

/// Remote request carried over the storage network (interned in the
/// simulator-owned control-block pool; [`crate::msg::NetBody::Req`]
/// carries the 8-byte handle). Public only because it rides the network
/// body and crosses shard boundaries; agents construct and consume it.
#[derive(Clone, Debug)]
pub(crate) struct RemoteReq {
    req_id: u64,
    origin: NodeId,
    reply_ep: u16,
    kind: RemoteKind,
}

/// What a remote request asks for.
#[derive(Clone, Copy, Debug)]
enum RemoteKind {
    Flash(GlobalPageAddr),
    /// A key of the named node's DRAM buffer.
    Dram(NodeId, u64),
}

/// Remote response carried over the storage network. Public only because
/// it rides [`crate::msg::NetBody`]. Page data travels by handle (the
/// requesting agent consumes the page); a failure travels as its
/// [`PageFault`] code, as real hardware would return a status — a DRAM
/// miss as [`PageFault::NotProgrammed`], nothing stored under the key.
#[derive(Clone, Debug)]
pub(crate) struct RemoteResp {
    req_id: u64,
    /// `pub(crate)` so the cross-shard relocation in [`crate::msg`] can
    /// rewrite the page handle.
    pub(crate) data: Result<PageRef, PageFault>,
}

/// Delayed local DRAM reply (models the DRAM access latency of a
/// remote-DRAM request being serviced). Public only because it rides
/// [`crate::msg::Msg`] as an agent self-send. Carries the response
/// fields flat (DRAM replies never carry a flash address) so the
/// variant stays inside `Msg`'s 64-byte budget.
#[derive(Clone, Debug)]
pub(crate) struct DramServed {
    origin: NodeId,
    reply_ep: u16,
    req_id: u64,
    /// `pub(crate)` for the cross-shard relocation in [`crate::msg`].
    pub(crate) data: Result<PageRef, PageFault>,
    bytes: u32,
}

/// A read whose page is bound for the host or an accelerator unit: the
/// op state the agent's completion self-send carries to the booked end
/// of the page's PCIe transfer or accelerator job, so the agent keeps
/// no map of booked reads.
#[derive(Debug)]
pub(crate) struct ReadDone {
    op_id: u64,
    addr: Option<GlobalPageAddr>,
    start: SimTime,
    page: PageRef,
}

/// What an in-flight flash command is for.
#[derive(Clone)]
enum FlashDest {
    Local {
        op_id: u64,
        addr: GlobalPageAddr,
        consume: Consume,
        start: SimTime,
    },
    LocalWrite {
        op_id: u64,
        addr: GlobalPageAddr,
        start: SimTime,
    },
    RemoteJob {
        origin: NodeId,
        req_id: u64,
        reply_ep: u16,
    },
    /// A command of the card's collection in progress.
    Gc,
}

/// A flash command before it has a tag.
enum Cmd {
    /// Read a physical cell.
    Read(Ppa),
    /// Program a physical cell.
    Program(Ppa, PageRef),
    /// Erase the block of a physical cell.
    Erase(Ppa),
}

/// An entry of a card's line.
enum Waiting {
    /// Collection rounds one step decided, due once the commands the
    /// card accepted before them have completed.
    Gc(Vec<GcRound>),
    /// A foreground command, sent when it reaches the head and the card
    /// has a tag free.
    Cmd(Cmd, FlashDest),
}

/// One of the node's flash cards, as its agent runs it (see the module
/// docs).
pub(crate) struct Card {
    /// The card's splitter, the first hop to its controller.
    splitter: ComponentId,
    pub(crate) ftl: Ftl,
    /// What each command out on the card is for, by the slot its tag
    /// carries; grown on demand up to [`FlashController::PAPER_TAGS`].
    slots: Vec<Option<FlashDest>>,
    /// The slots free for reuse.
    free_slots: Vec<u8>,
    /// Commands and collections not yet started, in arrival order:
    /// non-empty only while the card is stopped or all its tags are out.
    waiting: VecDeque<Waiting>,
    /// The collection in progress.
    gc: Option<GcJob>,
    /// Every write and trim the `Ftl` stepped (under `config.gc.log`).
    pub(crate) lifecycle_log: Vec<LifecycleOp>,
    /// Every collection round the `Ftl` decided, in op order (under
    /// `config.gc.log`).
    pub(crate) gc_rounds_log: Vec<GcRound>,
}

/// A network round trip awaiting its response. Remembers what was asked
/// for, so completion records (and rehydrated errors) carry the full
/// context without the response having to echo it over the wire.
#[derive(Clone)]
struct NetPending {
    op_id: u64,
    consume: Consume,
    start: SimTime,
    target: RemoteKind,
}

/// Cumulative node-agent statistics. `PartialEq` so the cross-engine
/// determinism suite can compare agents field for field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Driver operations accepted.
    pub ops: u64,
    /// Reads issued to local flash (driver-initiated).
    pub local_reads: u64,
    /// Remote requests sent over the storage network.
    pub remote_reads: u64,
    /// Remote requests served here on behalf of other nodes.
    pub(crate) remote_jobs: u64,
    /// Operations completed (success or failure).
    pub completions: u64,
    /// Host-bound pages that had to park waiting for a read buffer.
    pub parked_pages: u64,
    /// Read payloads booked on the node's accelerator units.
    pub accel_jobs: u64,
}

impl AgentStats {
    /// Write every counter into a metrics `node` (see
    /// [`bluedbm_sim::MetricsRegistry`]).
    pub(crate) fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("ops", self.ops);
        node.set("local_reads", self.local_reads);
        node.set("remote_reads", self.remote_reads);
        node.set("remote_jobs", self.remote_jobs);
        node.set("completions", self.completions);
        node.set("parked_pages", self.parked_pages);
        node.set("accel_jobs", self.accel_jobs);
    }
}

/// The node hub component. Built by [`crate::cluster::Cluster`].
pub(crate) struct NodeAgent {
    node: NodeId,
    router: ComponentId,
    /// The node's PCIe link (for [`Consume::Host`] reads).
    pcie: PcieLink,
    cards: Vec<Card>,
    geometry: FlashGeometry,
    /// Record each card's lifecycle (`config.gc.log`).
    log: bool,
    dram_latency: SimTime,
    /// The node's accelerator units and one unit's processing bandwidth
    /// (for [`Consume::Accel`] reads).
    accel: AccelUnits,
    accel_bandwidth: Bandwidth,

    next_req: u64,
    /// Per-destination counter for round-robin data-return endpoints
    /// (spreads response traffic across parallel lanes regardless of how
    /// requests to different destinations interleave).
    reply_rr: FxHashMap<NodeId, u64>,
    net_pending: FxHashMap<u64, NetPending>,
    /// The paper's host-interface read buffers: a device-to-host page
    /// must claim one of the (128 in the paper) buffers before its DMA
    /// is issued; pages that find the pool exhausted park in
    /// `host_parked` until a completion frees a buffer.
    host_buffers: BufferPool,
    host_parked: VecDeque<ReadDone>,
    /// The DRAM buffer, by key.
    pub(crate) dram: FxHashMap<u64, Vec<u8>>,
    /// Finished operations awaiting [`crate::cluster::Cluster::drive`].
    pub(crate) completed: Vec<Completed>,
    stats: AgentStats,
    gc_stats: GcTrafficStats,
}

impl NodeAgent {
    /// Build an agent for `node` wired to its router, running each
    /// card's `(splitter, Ftl)` and the node's PCIe link and accelerator
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if `config.accel.units` or `config.host.read_buffers` is
    /// zero (the cluster refuses both first).
    pub(crate) fn new(
        node: NodeId,
        router: ComponentId,
        cards: Vec<(ComponentId, Ftl)>,
        config: &SystemConfig,
    ) -> Self {
        NodeAgent {
            node,
            router,
            pcie: PcieLink::new(config.pcie),
            cards: cards
                .into_iter()
                .map(|(splitter, ftl)| Card {
                    splitter,
                    ftl,
                    slots: Vec::new(),
                    free_slots: Vec::new(),
                    waiting: VecDeque::new(),
                    gc: None,
                    lifecycle_log: Vec::new(),
                    gc_rounds_log: Vec::new(),
                })
                .collect(),
            geometry: config.flash.geometry,
            log: config.gc.log,
            dram_latency: config.host.dram_latency,
            accel: AccelUnits::new(config.accel.units),
            accel_bandwidth: config.accel.bandwidth,
            next_req: 0,
            reply_rr: FxHashMap::default(),
            net_pending: FxHashMap::default(),
            host_buffers: BufferPool::new(config.host.read_buffers),
            host_parked: VecDeque::new(),
            dram: FxHashMap::default(),
            completed: Vec::new(),
            stats: AgentStats::default(),
            gc_stats: GcTrafficStats::default(),
        }
    }

    /// The host-interface read-buffer pool (stats: peak occupancy,
    /// exhaustion stalls).
    pub(crate) fn host_buffers(&self) -> &BufferPool {
        &self.host_buffers
    }

    /// Statistics gathered so far.
    pub(crate) fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The node's accelerator-unit statistics.
    pub(crate) fn sched_stats(&self) -> &SchedStats {
        self.accel.stats()
    }

    /// Collection statistics gathered so far.
    pub(crate) fn gc_stats(&self) -> &GcTrafficStats {
        &self.gc_stats
    }

    /// One of the node's cards.
    pub(crate) fn card(&self, card: usize) -> &Card {
        &self.cards[card]
    }

    /// Step a write of logical page `lba` on `card`'s `Ftl`: the cell to
    /// program and any collection rounds that must run first.
    pub(crate) fn step_write(&mut self, card: u8, lba: u64) -> StepOutcome {
        let card = &mut self.cards[usize::from(card)];
        if self.log {
            card.lifecycle_log.push(LifecycleOp::Write(lba));
        }
        // Allocation is gated on the `Ftl`'s exported capacity, so the
        // policy can always make room: NoSpace here is a logic bug, not
        // an operational condition.
        let outcome = card
            .ftl
            .step_write(lba)
            .expect("Ftl out of space despite capacity-gated allocation");
        if self.log {
            card.gc_rounds_log.extend(outcome.gc.iter().cloned());
        }
        outcome
    }

    /// Trim logical page `lba` on `card`'s `Ftl`.
    pub(crate) fn trim(&mut self, card: u8, lba: u64) -> Result<(), FtlError> {
        let card = &mut self.cards[usize::from(card)];
        card.ftl.step_trim(lba)?;
        if self.log {
            card.lifecycle_log.push(LifecycleOp::Trim(lba));
        }
        Ok(())
    }

    /// Hand a foreground command to `card`: it joins the card's line,
    /// which sends it at once unless the card is stopped.
    fn submit(&mut self, ctx: &mut Ctx<'_, Msg>, card: u8, cmd: Cmd, dest: FlashDest) {
        self.cards[usize::from(card)].waiting.push_back(Waiting::Cmd(cmd, dest));
        self.pump(ctx, card);
    }

    /// Move `card`'s line forward: send the commands at its head while
    /// the card has a tag free, until a collection is due, and start that
    /// collection once nothing the card accepted before it is out.
    fn pump(&mut self, ctx: &mut Ctx<'_, Msg>, card: u8) {
        loop {
            let c = &mut self.cards[usize::from(card)];
            if c.gc.is_some() {
                return;
            }
            let out = c.slots.len() - c.free_slots.len();
            match c.waiting.pop_front() {
                None => return,
                Some(head @ Waiting::Gc(_)) if out > 0 => {
                    c.waiting.push_front(head);
                    return;
                }
                Some(head @ Waiting::Cmd(..)) if out == FlashController::PAPER_TAGS => {
                    c.waiting.push_front(head);
                    return;
                }
                Some(Waiting::Gc(rounds)) => {
                    c.gc = Some(GcJob { rounds, round: 0, mv: 0 });
                    self.gc_stats.jobs += 1;
                    self.gc_next(ctx, card);
                }
                Some(Waiting::Cmd(cmd, dest)) => self.issue_flash(ctx, card, cmd, dest),
            }
        }
    }

    /// `(card << 32) | linear page` — the policy-pure payload word the
    /// `Gc` trace records carry (stable across engines).
    fn addr_word(&self, card: u8, ppa: Ppa) -> u64 {
        (u64::from(card) << 32) | self.geometry.linear_of(ppa) as u64
    }

    /// Issue the next command of `card`'s collection — the next move's
    /// read, or the round's erase — or end the collection and release
    /// the card's line.
    fn gc_next(&mut self, ctx: &mut Ctx<'_, Msg>, card: u8) {
        let c = &mut self.cards[usize::from(card)];
        let job = c.gc.as_ref().expect("a collection in progress");
        let Some(round) = job.rounds.get(job.round) else {
            c.gc = None;
            self.pump(ctx, card);
            return;
        };
        let (opens, victim, wear_leveling) = (job.mv == 0, round.victim, round.wear_leveling);
        let cmd = match round.moves.get(job.mv) {
            Some(&(src, _)) => Cmd::Read(src),
            None => Cmd::Erase(victim),
        };
        if opens {
            let a = self.addr_word(card, victim);
            let b = u64::from(wear_leveling);
            ctx.trace()
                .instant(TraceCat::Gc, TraceName::Victim, self.node.0 as u32, a, b);
        }
        self.issue_flash(ctx, card, cmd, FlashDest::Gc);
    }

    /// A completion of `card`'s collection: program the relocated copy,
    /// or count the move or erase and go on.
    fn gc_resp(&mut self, ctx: &mut Ctx<'_, Msg>, card: u8, resp: CtrlResp) {
        let node = self.node.0 as u32;
        let job = self.cards[usize::from(card)].gc.as_mut().expect("a collection in progress");
        let round = &job.rounds[job.round];
        // The `Ftl` relocates only valid pages onto free cells and erases
        // only its own victims: a failure means the array diverged from
        // its books.
        match resp {
            CtrlResp::ReadDone { result, .. } => {
                let read = result.expect("GC relocation read failed: array diverged from the Ftl");
                let dst = round.moves[job.mv].1;
                self.issue_flash(ctx, card, Cmd::Program(dst, read.page), FlashDest::Gc);
            }
            CtrlResp::WriteDone { result, .. } => {
                result.expect("GC relocation program failed: array diverged from the Ftl");
                let (src, dst) = round.moves[job.mv];
                job.mv += 1;
                self.gc_stats.moves += 1;
                let (a, b) = (self.addr_word(card, src), self.geometry.linear_of(dst) as u64);
                ctx.trace().instant(TraceCat::Gc, TraceName::Move, node, a, b);
                self.gc_next(ctx, card);
            }
            CtrlResp::EraseDone { result, .. } => {
                result.expect("GC erase failed: array diverged from the Ftl");
                let (victim, moves) = (round.victim, round.moves.len() as u64);
                job.round += 1;
                job.mv = 0;
                self.gc_stats.erases += 1;
                self.gc_stats.rounds += 1;
                let a = self.addr_word(card, victim);
                ctx.trace().instant(TraceCat::Gc, TraceName::Erase, node, a, moves);
                self.gc_next(ctx, card);
            }
        }
    }

    /// Send one command to `card` under one of its free tags: the caller
    /// checked that the card has one.
    fn issue_flash(&mut self, ctx: &mut Ctx<'_, Msg>, card: u8, cmd: Cmd, dest: FlashDest) {
        let c = &mut self.cards[usize::from(card)];
        let slot = match c.free_slots.pop() {
            Some(slot) => {
                c.slots[usize::from(slot)] = Some(dest);
                slot
            }
            None => {
                c.slots.push(Some(dest));
                (c.slots.len() - 1) as u8 // < PAPER_TAGS, checked by `pump`
            }
        };
        let tag = Tag((u16::from(card) << 8) | u16::from(slot));
        let cmd = match cmd {
            Cmd::Read(ppa) => CtrlCmd::Read { tag, ppa },
            Cmd::Program(ppa, data) => CtrlCmd::Write { tag, ppa, data },
            Cmd::Erase(ppa) => CtrlCmd::Erase { tag, ppa },
        };
        ctx.send(c.splitter, SimTime::ZERO, cmd);
    }

    /// A foreground read of logical page `lpn` on `card`, mapped to its
    /// cell now (see the module docs); a page no cell holds completes
    /// with `NotProgrammed` at once.
    fn read(&mut self, ctx: &mut Ctx<'_, Msg>, card: u8, lpn: u32, dest: FlashDest) {
        match self.cards[usize::from(card)].ftl.physical_of(u64::from(lpn)) {
            Some(ppa) => self.submit(ctx, card, Cmd::Read(ppa), dest),
            None => self.deliver_read(ctx, dest, Err(PageFault::NotProgrammed)),
        }
    }

    /// Hand a foreground read's result to whoever asked.
    fn deliver_read(&mut self, ctx: &mut Ctx<'_, Msg>, dest: FlashDest, result: Result<PageRef, PageFault>) {
        match dest {
            FlashDest::Local { op_id, addr, consume, start } => {
                let result = result.map_err(|fault| ClusterError::Page(addr, fault));
                self.consume_read(ctx, op_id, Some(addr), consume, start, result);
            }
            FlashDest::RemoteJob { origin, req_id, reply_ep } => {
                let bytes = self.geometry.page_bytes as u32;
                self.reply(ctx, origin, reply_ep, bytes, RemoteResp { req_id, data: result });
            }
            FlashDest::LocalWrite { .. } | FlashDest::Gc => panic!("a read result for a write or a collection"),
        }
    }

    pub(crate) fn complete(
        &mut self,
        now: SimTime,
        op_id: OpId,
        addr: Option<GlobalPageAddr>,
        data: Result<Vec<u8>, ClusterError>,
        start: SimTime,
    ) {
        self.stats.completions += 1;
        let (data, error) = match data {
            Ok(d) => (Some(d), None),
            Err(e) => (None, Some(e)),
        };
        self.completed.push(Completed {
            op_id,
            node: self.node,
            addr,
            data,
            error,
            start,
            end: now,
        });
    }

    /// Deliver read data to its consumer: ISP copies the page out of the
    /// store here; Accel books an accelerator unit first; Host claims a
    /// read buffer and pays the PCIe crossing first (parking if all
    /// buffers are in flight).
    fn consume_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        op_id: u64,
        addr: Option<GlobalPageAddr>,
        consume: Consume,
        start: SimTime,
        data: Result<PageRef, ClusterError>,
    ) {
        match (consume, data) {
            (Consume::Isp, data) => {
                let data = data.map(|page| ctx.pages().take(page));
                self.complete(ctx.now(), op_id, addr, data, start);
            }
            (Consume::Accel, Ok(page)) => {
                // The payload must stream through one of the node's
                // shared accelerator units before the op counts as done;
                // the FIFO policy (paper Section 4) arbitrates them among
                // competing tenants.
                self.stats.accel_jobs += 1;
                let (now, node) = (ctx.now(), self.node.0 as u32);
                let duration = self.accel_bandwidth.time_for(ctx.pages().len(page) as u64);
                let (job, grant) = self.accel.submit(now, duration);
                if grant.start > now {
                    ctx.trace().instant(TraceCat::Accel, TraceName::Park, node, job, 0);
                }
                let waited = (grant.start - now).as_ps();
                ctx.trace().instant(TraceCat::Accel, TraceName::Grant, node, job, waited);
                let done = ReadDone { op_id, addr, start, page };
                ctx.send_self(grant.end - now, Msg::AccelDone(done, job));
            }
            (Consume::Accel, Err(e)) => {
                self.complete(ctx.now(), op_id, addr, Err(e), start)
            }
            (Consume::Host, Ok(page)) => {
                let read = ReadDone { op_id, addr, start, page };
                if self.host_buffers.adopt(page) {
                    self.issue_pcie(ctx, read);
                } else {
                    // All 128 read buffers hold in-flight pages: the
                    // paper's free-queue discipline makes this page wait
                    // for a completion to return a buffer.
                    self.stats.parked_pages += 1;
                    ctx.trace().instant(
                        TraceCat::BufPool,
                        TraceName::Park,
                        self.node.0 as u32,
                        op_id,
                        self.host_parked.len() as u64 + 1,
                    );
                    self.host_parked.push_back(read);
                }
            }
            (Consume::Host, Err(e)) => self.complete(ctx.now(), op_id, addr, Err(e), start),
        }
    }

    /// DMA one buffered page to the host.
    fn issue_pcie(&mut self, ctx: &mut Ctx<'_, Msg>, read: ReadDone) {
        let now = ctx.now();
        let done_at = self.pcie.transfer(now, ctx.pages().len(read.page) as u64);
        ctx.send_self(done_at - now, Msg::PcieDone(read));
    }

    fn handle_op(&mut self, ctx: &mut Ctx<'_, Msg>, op: AgentOp) {
        self.stats.ops += 1;
        match op {
            AgentOp::ReadFlash {
                op_id,
                addr,
                consume,
            } => {
                if addr.node == self.node {
                    self.stats.local_reads += 1;
                    self.read(
                        ctx,
                        addr.card,
                        addr.lpn,
                        FlashDest::Local {
                            op_id,
                            addr,
                            consume,
                            start: ctx.now(),
                        },
                    );
                } else {
                    self.request(ctx, op_id, consume, addr.node, RemoteKind::Flash(addr));
                }
            }
            AgentOp::WriteFlash { op_id, addr, data } => {
                assert_eq!(addr.node, self.node, "remote writes are not modelled");
                let outcome = self.step_write(addr.card, u64::from(addr.lpn));
                if !outcome.gc.is_empty() {
                    let line = &mut self.cards[usize::from(addr.card)].waiting;
                    line.push_back(Waiting::Gc(outcome.gc));
                }
                let dest = FlashDest::LocalWrite {
                    op_id,
                    addr,
                    start: ctx.now(),
                };
                self.submit(ctx, addr.card, Cmd::Program(outcome.target, data), dest);
            }
            AgentOp::ReadRemoteDram {
                op_id,
                node,
                key,
                consume,
            } => self.request(ctx, op_id, consume, node, RemoteKind::Dram(node, key)),
        }
    }

    /// Send a response of `bytes` on the wire back to a requester.
    fn reply(&self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, reply_ep: u16, bytes: u32, resp: RemoteResp) {
        let send = NetSend::new(origin, reply_ep, bytes, NetBody::Resp(resp));
        ctx.send(self.router, SimTime::ZERO, send);
    }

    /// Send a read request for `target` to node `home` over the storage
    /// network, remembering what was asked for.
    fn request(&mut self, ctx: &mut Ctx<'_, Msg>, op_id: u64, consume: Consume, home: NodeId, target: RemoteKind) {
        self.stats.remote_reads += 1;
        let req_id = self.next_req;
        self.next_req += 1;
        let start = ctx.now();
        let pending = NetPending { op_id, consume, start, target };
        self.net_pending.insert(req_id, pending);
        let rr = self.reply_rr.entry(home).or_insert(0);
        let reply_ep = 1 + (*rr % u64::from(DATA_ENDPOINTS)) as u16;
        *rr += 1;
        // Interned, not boxed: the pool slot recycles when the owning
        // node takes the request back out, so the remote-read control
        // plane allocates nothing in steady state.
        let req = ctx.pools().intern(RemoteReq {
            req_id,
            origin: self.node,
            reply_ep,
            kind: target,
        });
        let send = NetSend::new(home, REQUEST_ENDPOINT, REQUEST_BYTES, NetBody::Req(req));
        ctx.send(self.router, SimTime::ZERO, send);
    }

    /// A command of one of the node's cards completed: free its tag, hand
    /// the result on, and move the card's line forward.
    fn handle_ctrl_resp(&mut self, ctx: &mut Ctx<'_, Msg>, resp: CtrlResp) {
        let Tag(tag) = resp.tag();
        let (card, slot) = ((tag >> 8) as u8, tag as u8);
        let c = &mut self.cards[usize::from(card)];
        let dest = c.slots[usize::from(slot)]
            .take()
            .expect("completion for a tag the agent never issued");
        c.free_slots.push(slot);
        match (dest, resp) {
            (FlashDest::Gc, resp) => self.gc_resp(ctx, card, resp),
            (FlashDest::LocalWrite { op_id, addr, start }, CtrlResp::WriteDone { result, .. }) => {
                let data = result.map(|()| Vec::new()).map_err(|e| {
                    PageFault::of(&e).map_or(ClusterError::Flash(e), |f| ClusterError::Page(addr, f))
                });
                self.complete(ctx.now(), op_id, Some(addr), data, start);
                self.pump(ctx, card);
            }
            (dest, CtrlResp::ReadDone { result, .. }) => {
                let result = result.map(|r| r.page).map_err(|e| {
                    PageFault::of(&e).expect("a flash read fails only with a page fault")
                });
                self.deliver_read(ctx, dest, result);
                self.pump(ctx, card);
            }
            _ => panic!("mismatched flash completion kind"),
        }
    }

    fn handle_net(&mut self, ctx: &mut Ctx<'_, Msg>, recv: NetRecv<NetBody>) {
        let resp = match recv.body {
            NetBody::Req(req) => {
                let req = ctx.pools().take(req);
                self.stats.remote_jobs += 1;
                match req.kind {
                    RemoteKind::Flash(addr) => {
                        debug_assert_eq!(addr.node, self.node);
                        self.read(
                            ctx,
                            addr.card,
                            addr.lpn,
                            FlashDest::RemoteJob {
                                origin: req.origin,
                                req_id: req.req_id,
                                reply_ep: req.reply_ep,
                            },
                        );
                    }
                    RemoteKind::Dram(_, key) => {
                        let data = match self.dram.get(&key) {
                            Some(d) => Ok(ctx.pages().alloc_from(d)),
                            None => Err(PageFault::NotProgrammed),
                        };
                        let bytes = match &data {
                            Ok(page) => ctx.pages().len(*page) as u32,
                            Err(_) => 8,
                        };
                        // Model the DRAM access before replying.
                        ctx.send_self(
                            self.dram_latency,
                            DramServed {
                                origin: req.origin,
                                reply_ep: req.reply_ep,
                                req_id: req.req_id,
                                data,
                                bytes,
                            },
                        );
                    }
                }
                return;
            }
            NetBody::Resp(resp) => resp,
        };
        let pending = self
            .net_pending
            .remove(&resp.req_id)
            .expect("response for a request the agent never sent");
        // The wire carries only the fault code: the requester names what
        // it asked for.
        let (addr, data) = match pending.target {
            RemoteKind::Flash(addr) => (Some(addr), resp.data.map_err(|f| ClusterError::Page(addr, f))),
            RemoteKind::Dram(node, key) => (None, resp.data.map_err(|_| ClusterError::DramMiss { node, key })),
        };
        self.consume_read(ctx, pending.op_id, addr, pending.consume, pending.start, data);
    }
}

impl Component<Msg> for NodeAgent {
    fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Op(op) => self.handle_op(ctx, op),
            Msg::FlashResp(resp) => self.handle_ctrl_resp(ctx, resp),
            Msg::NetRecv(recv) => self.handle_net(ctx, recv),
            Msg::Dram(served) => {
                let resp = RemoteResp {
                    req_id: served.req_id,
                    data: served.data,
                };
                self.reply(ctx, served.origin, served.reply_ep, served.bytes, resp);
            }
            Msg::AccelDone(done, job) => {
                self.accel.complete();
                ctx.trace()
                    .instant(TraceCat::Accel, TraceName::Done, self.node.0 as u32, job, 0);
                let data = ctx.pages().take(done.page);
                self.complete(ctx.now(), done.op_id, done.addr, Ok(data), done.start);
            }
            Msg::PcieDone(done) => {
                // The page is in host memory: return the read buffer to
                // the free queue and hand the next parked page its slot.
                self.host_buffers.release(done.page);
                let data = ctx.pages().take(done.page);
                self.complete(ctx.now(), done.op_id, done.addr, Ok(data), done.start);
                if let Some(next) = self.host_parked.pop_front() {
                    let adopted = self.host_buffers.adopt(next.page);
                    debug_assert!(adopted, "a just-released buffer must be free");
                    let waited = (ctx.now() - next.start).as_ps();
                    ctx.trace().instant(
                        TraceCat::BufPool,
                        TraceName::Resume,
                        self.node.0 as u32,
                        next.op_id,
                        waited,
                    );
                    self.issue_pcie(ctx, next);
                }
            }
            other => panic!("node agent got an unexpected message: {other:?}"),
        }
    }
}

/// The Virtex-7 module inventory of one node under `config` — the
/// software analogue of the paper's Table 2.
pub fn node_inventory(config: &SystemConfig) -> Vec<(&'static str, usize)> {
    vec![
        ("flash interface", config.flash.cards_per_node),
        ("network interface", 1),
        ("dram interface", 1),
        ("host interface", 1),
        ("in-store processor slots", config.accel.units),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, PageOp};

    /// A two-node ring on the 512-byte-page tiny geometry, and three
    /// quarters of node 0's capacity preloaded (alternating cards from
    /// card 0).
    fn three_quarters_full() -> (Cluster, Vec<GlobalPageAddr>) {
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = FlashGeometry::tiny();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let most = cluster.node_capacity_pages(NodeId(0)) as usize * 3 / 4;
        let addrs = (0..most)
            .map(|i| cluster.preload_page(NodeId(0), &[i as u8; 512]).unwrap())
            .collect();
        (cluster, addrs)
    }

    #[test]
    fn submit_never_runs_the_simulation() {
        // Overwrite churn of node 0, with remote reads beside it, until
        // it has collected: no submit may move the clock or deliver an
        // event.
        let (mut cluster, addrs) = three_quarters_full();
        let mut live = std::collections::VecDeque::from(addrs);
        for round in 0..live.len() / 4 {
            for i in 0..16u8 {
                cluster.free_page(live.pop_front().unwrap()).unwrap();
                let before = (cluster.now(), cluster.events_delivered());
                cluster.submit(NodeId(0), PageOp::Write(&[i; 512]));
                let addr = live[live.len() / 2];
                cluster.submit(NodeId(1), PageOp::Read { addr, consume: Consume::Isp });
                let after = (cluster.now(), cluster.events_delivered());
                assert_eq!(after, before, "round {round}: a submit ran the simulation");
            }
            for c in cluster.drive() {
                assert_eq!(c.error, None);
                if c.node == NodeId(0) {
                    live.push_back(c.addr.expect("a write names its page"));
                }
            }
        }
        assert!(cluster.gc_stats().erases > 0, "the churn collected");
        cluster.assert_quiescent();
    }

    #[test]
    fn reads_between_stacked_collections_find_their_pages() {
        // Batches of overwrites of every fourth page stack collections on
        // stopped cards, and the victims carry the other pages, cold,
        // which reads queued between the collections must find where the
        // collections before them, and none after them, left them.
        let (mut cluster, addrs) = three_quarters_full();
        let mut live: Vec<_> = addrs.into_iter().enumerate().map(|(i, a)| (a, i as u8)).collect();
        let hot = live.len() / 4;
        for round in 0..hot {
            let (mut writes, mut reads) = (Vec::new(), Vec::new());
            for i in 0..16 {
                let (h, fill) = (4 * ((round * 16 + i) % hot), (round * 16 + i) as u8);
                cluster.free_page(live[h].0).unwrap();
                writes.push((cluster.submit(NodeId(0), PageOp::Write(&[fill; 512])), h, fill));
                let (addr, value) = live[4 * ((i * 37 + round) % hot) + 1 + i % 3];
                let read = PageOp::Read { addr, consume: Consume::Isp };
                reads.push((cluster.submit(NodeId(0), read), value));
            }
            let done = cluster.drive();
            let find = |op| done.iter().find(|c| c.op_id == op).expect("completed");
            for (op, value) in reads {
                let c = find(op);
                assert_eq!(c.data.as_deref(), Some(&[value; 512][..]), "round {round}: {:?}", c.error);
            }
            for (op, h, fill) in writes {
                live[h] = (find(op).addr.expect("a write names its page"), fill);
            }
        }
        assert!(cluster.gc_traffic_stats(NodeId(0)).moves > 0, "collections relocated pages");
    }

    #[test]
    fn collection_stops_only_its_card() {
        // Rewrite a card-0 page with a card-1 read in the same batch until
        // a rewrite collects: the read never waits for card 0.
        let (mut cluster, addrs) = three_quarters_full();
        let (card0, card1) = (addrs[0], addrs[1]);
        assert_eq!((card0.card, card1.card), (0, 1));
        let read_card1 = PageOp::Read { addr: card1, consume: Consume::Isp };
        let uncontended = cluster.run_one(NodeId(0), read_card1).map(|c| c.end - c.start).unwrap();
        for _ in 0..addrs.len() {
            cluster.free_page(card0).unwrap();
            let (at, erases) = (cluster.now(), cluster.gc_traffic_stats(NodeId(0)).erases);
            let write = cluster.submit(NodeId(0), PageOp::Write(&[1; 512]));
            let read = cluster.submit(NodeId(0), read_card1);
            let done = cluster.drive();
            let took = |op| done.iter().find(|c| c.op_id == op).expect("completed").end - at;
            assert!(took(read) <= uncontended, "the card-1 read waited: {}", took(read));
            if cluster.gc_traffic_stats(NodeId(0)).erases > erases {
                assert!(took(write) > uncontended, "the write did not wait out its collection");
                return cluster.assert_quiescent();
            }
        }
        panic!("no rewrite collected");
    }

    #[test]
    fn a_card_line_holds_reads_past_the_controller_tags() {
        // Three times the card's tags and one more, of one page, at one
        // instant: the card's line holds every read past the 128th until
        // a completion frees a tag, so the controller never books one
        // past them, and the line keeps the chip as busy as the
        // controller's own queue did.
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = FlashGeometry::tiny();
        let mut cluster = Cluster::ring(1, &config).unwrap();
        let page = [7u8; 512];
        let addr = cluster.preload_page(NodeId(0), &page).unwrap();
        let reads = 3 * FlashController::PAPER_TAGS + 1;
        for _ in 0..reads {
            cluster.submit(NodeId(0), PageOp::Read { addr, consume: Consume::Isp });
        }
        let done = cluster.drive();
        assert_eq!(done.len(), reads);
        assert!(done.iter().all(|c| c.data.as_deref() == Some(&page[..])));
        cluster.assert_quiescent();
        let ctrl = cluster.controller_stats(NodeId(0), usize::from(addr.card));
        assert_eq!((ctrl.peak_in_flight, ctrl.tag_stalls), (FlashController::PAPER_TAGS, 0));
        let last = done.iter().map(|c| c.end).max().unwrap();
        let sum: u64 = done.iter().map(|c| c.end.as_ps()).sum();
        assert_eq!((last.as_ps(), sum), (19_253_613_333, 3_716_641_133_205));
    }

    #[test]
    fn inventory_matches_table2_modules() {
        let inv = node_inventory(&SystemConfig::paper());
        let names: Vec<&str> = inv.iter().map(|(n, _)| *n).collect();
        for expected in [
            "flash interface",
            "network interface",
            "dram interface",
            "host interface",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn global_addr_ordering_and_copy() {
        let a = GlobalPageAddr { node: NodeId(0), card: 0, lpn: 0 };
        let b = GlobalPageAddr { node: NodeId(1), card: 0, lpn: 0 };
        assert!(a < b);
        let c = a;
        assert_eq!(a, c);
    }
}
