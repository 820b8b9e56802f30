//! The per-node agent: the glue fabric of one BlueDBM storage device.
//!
//! In the paper's node architecture (Figure 2) the in-store processor
//! sits between four services: flash interface, network interface, host
//! interface and the on-board DRAM buffer. `NodeAgent` is that hub as a
//! DES component: it accepts operations from the experiment driver,
//! issues tagged commands to the local flash splitters, serves and issues
//! remote requests over the integrated network, stages host-bound data
//! through the PCIe link, and answers remote DRAM-buffer reads.

use std::collections::VecDeque;

use bluedbm_sim::fxhash::FxHashMap;

use bluedbm_flash::controller::{CtrlCmd, CtrlResp, Tag};
use bluedbm_flash::error::FlashError;
use bluedbm_flash::geometry::Ppa;
use bluedbm_host::bufpool::BufferPool;
use bluedbm_host::msg::HostMsg;
use bluedbm_host::pcie::PcieXfer;
use bluedbm_net::router::{NetRecv, NetSend};
use bluedbm_net::topology::NodeId;
use bluedbm_sim::engine::{Component, ComponentId, Ctx};
use bluedbm_sim::time::{Bandwidth, SimTime};
use bluedbm_sim::{MetricsNode, PageRef, TraceCat, TraceName};

use crate::msg::{Msg, NetBody};
use crate::scheduler::{SchedDone, SchedSubmit};

/// Endpoint used for remote request messages.
pub(crate) const REQUEST_ENDPOINT: u16 = 0;
/// Number of endpoints used for data return (spread across parallel
/// lanes by the deterministic router).
pub(crate) const DATA_ENDPOINTS: u16 = 4;
/// Wire size of a remote read request.
pub const REQUEST_BYTES: u32 = 32;

/// A page address in the cluster-wide global address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalPageAddr {
    /// Owning node.
    pub node: NodeId,
    /// Flash card within the node.
    pub card: u8,
    /// Physical page on that card.
    pub(crate) ppa: Ppa,
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
    /// must first be granted one of the node's
    /// `config.accel.units` units by the FIFO
    /// `crate::scheduler::AccelSched` (paper Section 4) — competing
    /// tenants queue. The KV engine's get path.
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
        /// Page to read.
        addr: GlobalPageAddr,
        /// Data destination.
        consume: Consume,
    },
    /// A read of a logical page no cell holds (never written, or
    /// freed): completes at once with `NotProgrammed`, touching neither
    /// flash nor network.
    ReadUnmapped {
        /// Driver-chosen id echoed in the completion record.
        op_id: u64,
        /// The logical page asked for.
        addr: GlobalPageAddr,
    },
    /// Program one local page.
    WriteFlash {
        /// Driver-chosen id echoed in the completion record.
        op_id: u64,
        /// Page to program; must be local to this agent's node.
        addr: GlobalPageAddr,
        /// Handle to the page contents (staged in the simulator's page
        /// store by the driver; consumed by the flash controller).
        data: PageRef,
    },
    /// Stage data into this node's DRAM buffer (setup; immediate).
    LoadDram {
        /// Key later used by `ReadRemoteDram`.
        key: u64,
        /// Value stored.
        data: Vec<u8>,
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

/// A finished operation, harvested by the cluster facade.
#[derive(Clone, Debug)]
pub struct Completed {
    /// Echo of the driver's op id.
    pub op_id: u64,
    /// Address the operation touched (reads/writes).
    pub addr: Option<GlobalPageAddr>,
    /// The payload: `Some` exactly when `error` is `None` — the page
    /// for a read, empty for a write.
    pub data: Option<Vec<u8>>,
    /// Failure, if any.
    pub error: Option<FlashError>,
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

#[derive(Clone, Copy, Debug)]
enum RemoteKind {
    Flash(GlobalPageAddr),
    Dram(u64),
}

/// Compact wire form of a remote read failure: a status code, as real
/// hardware would return — the rich [`FlashError`] context (which page,
/// which key) is reconstructed by the requester from its own pending
/// state, so the response message stays small. Only the errors a read
/// path can produce exist here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RemoteError {
    /// The address does not exist on the owning node.
    OutOfRange,
    /// The block is marked bad.
    BadBlock,
    /// The page was never programmed.
    NotProgrammed,
    /// Uncorrectable ECC failure.
    Uncorrectable,
    /// The DRAM buffer holds no such key.
    UnknownHandle,
}

impl RemoteError {
    /// Collapse a read-path failure to its wire code.
    fn of(e: &FlashError) -> Self {
        match e {
            FlashError::OutOfRange(_) => RemoteError::OutOfRange,
            FlashError::BadBlock(_) => RemoteError::BadBlock,
            FlashError::NotProgrammed(_) => RemoteError::NotProgrammed,
            FlashError::Uncorrectable(_) => RemoteError::Uncorrectable,
            FlashError::UnknownHandle(_) => RemoteError::UnknownHandle,
            other => panic!("non-read error on the remote read path: {other}"),
        }
    }

    /// Rehydrate the full error from the requester's knowledge of what
    /// it asked for.
    fn rehydrate(self, target: RemoteKind) -> FlashError {
        match (self, target) {
            (RemoteError::OutOfRange, RemoteKind::Flash(a)) => FlashError::OutOfRange(a.ppa),
            (RemoteError::BadBlock, RemoteKind::Flash(a)) => FlashError::BadBlock(a.ppa),
            (RemoteError::NotProgrammed, RemoteKind::Flash(a)) => {
                FlashError::NotProgrammed(a.ppa)
            }
            (RemoteError::Uncorrectable, RemoteKind::Flash(a)) => {
                FlashError::Uncorrectable(a.ppa)
            }
            (RemoteError::UnknownHandle, RemoteKind::Dram(key)) => {
                FlashError::UnknownHandle(key)
            }
            (code, target) => panic!("error code {code:?} does not fit request {target:?}"),
        }
    }
}

/// Remote response carried over the storage network. Public only because
/// it rides [`crate::msg::NetBody`]. Page data travels by handle (the
/// requesting agent consumes the page); failures travel as
/// `RemoteError` codes.
#[derive(Clone, Debug)]
pub(crate) struct RemoteResp {
    req_id: u64,
    /// `pub(crate)` so the cross-shard relocation in [`crate::msg`] can
    /// rewrite the page handle.
    pub(crate) data: Result<PageRef, RemoteError>,
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
    pub(crate) data: Result<PageRef, RemoteError>,
    bytes: u32,
}

/// What an in-flight flash tag is for.
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
    /// Read payloads submitted to the node's accelerator scheduler.
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
    pcie: ComponentId,
    /// Splitter (or controller) per flash card.
    cards: Vec<ComponentId>,
    page_bytes: usize,
    dram_latency: SimTime,
    /// The node's accelerator scheduler and one unit's processing
    /// bandwidth (for [`Consume::Accel`] reads).
    sched: ComponentId,
    accel_bandwidth: Bandwidth,

    next_tag: u16,
    flash_pending: FxHashMap<u16, FlashDest>,
    /// Flash commands waiting for a tag while all 65 536 are in flight,
    /// in arrival order: the page, the payload of a write, and what the
    /// command is for.
    tag_parked: VecDeque<(GlobalPageAddr, Option<PageRef>, FlashDest)>,
    next_req: u64,
    /// Per-destination counter for round-robin data-return endpoints
    /// (spreads response traffic across parallel lanes regardless of how
    /// requests to different destinations interleave).
    reply_rr: FxHashMap<NodeId, u64>,
    net_pending: FxHashMap<u64, NetPending>,
    /// Host-bound pages in flight on PCIe: token -> (op state).
    pcie_pending: FxHashMap<u64, (u64, Option<GlobalPageAddr>, SimTime)>,
    next_pcie_token: u64,
    /// The paper's host-interface read buffers: a device-to-host page
    /// must claim one of the (128 in the paper) buffers before its DMA
    /// is issued; pages that find the pool exhausted park in
    /// `host_parked` until a completion frees a buffer.
    host_buffers: BufferPool,
    host_parked: VecDeque<(u64, Option<GlobalPageAddr>, SimTime, PageRef)>,
    /// Read payloads being processed on (or queued for) an accelerator
    /// unit: job -> the op state restored when [`SchedDone`] arrives.
    accel_pending: FxHashMap<u64, (u64, Option<GlobalPageAddr>, SimTime, Vec<u8>)>,
    next_accel_job: u64,
    dram: FxHashMap<u64, Vec<u8>>,
    /// Finished operations awaiting harvest.
    completed: Vec<Completed>,
    stats: AgentStats,
}

impl NodeAgent {
    /// Build an agent for `node` wired to its router, PCIe link, flash
    /// card frontends and accelerator scheduler.
    #[expect(clippy::too_many_arguments, reason = "the cluster builder is the one caller")]
    pub(crate) fn new(
        node: NodeId,
        router: ComponentId,
        pcie: ComponentId,
        cards: Vec<ComponentId>,
        page_bytes: usize,
        dram_latency: SimTime,
        read_buffers: usize,
        sched: ComponentId,
        accel_bandwidth: Bandwidth,
    ) -> Self {
        NodeAgent {
            node,
            router,
            pcie,
            cards,
            page_bytes,
            dram_latency,
            sched,
            accel_bandwidth,
            next_tag: 0,
            flash_pending: FxHashMap::default(),
            tag_parked: VecDeque::new(),
            next_req: 0,
            reply_rr: FxHashMap::default(),
            net_pending: FxHashMap::default(),
            pcie_pending: FxHashMap::default(),
            next_pcie_token: 0,
            host_buffers: BufferPool::new(read_buffers),
            host_parked: VecDeque::new(),
            accel_pending: FxHashMap::default(),
            next_accel_job: 0,
            dram: FxHashMap::default(),
            completed: Vec::new(),
            stats: AgentStats::default(),
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

    /// Drain all completions recorded so far.
    pub(crate) fn take_completed(&mut self) -> Vec<Completed> {
        std::mem::take(&mut self.completed)
    }

    /// The next free rolling 16-bit tag, or `None` when every one is in
    /// flight.
    fn alloc_tag(&mut self) -> Option<u16> {
        if self.flash_pending.len() > usize::from(u16::MAX) {
            return None;
        }
        loop {
            let t = self.next_tag;
            self.next_tag = self.next_tag.wrapping_add(1);
            if !self.flash_pending.contains_key(&t) {
                return Some(t);
            }
        }
    }

    /// Send one flash command for `addr` — a program of `data` when
    /// given, a read otherwise — under a fresh tag, or park it until
    /// [`Self::handle_ctrl_resp`] frees one.
    fn issue_flash(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        addr: GlobalPageAddr,
        data: Option<PageRef>,
        dest: FlashDest,
    ) {
        let Some(tag) = self.alloc_tag() else {
            self.tag_parked.push_back((addr, data, dest));
            return;
        };
        self.flash_pending.insert(tag, dest);
        let (tag, ppa, reply_to) = (Tag(tag), addr.ppa, ctx.self_id());
        let cmd = match data {
            None => CtrlCmd::Read { tag, ppa, reply_to },
            Some(data) => CtrlCmd::Write {
                tag,
                ppa,
                data,
                reply_to,
            },
        };
        ctx.send(self.cards[addr.card as usize], SimTime::ZERO, cmd);
    }

    fn complete(
        &mut self,
        now: SimTime,
        op_id: u64,
        addr: Option<GlobalPageAddr>,
        data: Result<Vec<u8>, FlashError>,
        start: SimTime,
    ) {
        self.stats.completions += 1;
        let (data, error) = match data {
            Ok(d) => (Some(d), None),
            Err(e) => (None, Some(e)),
        };
        self.completed.push(Completed {
            op_id,
            addr,
            data,
            error,
            start,
            end: now,
        });
    }

    /// Deliver read data to its consumer: ISP copies the page out of the
    /// store here; Host claims a read buffer and pays the PCIe crossing
    /// first (parking if all buffers are in flight).
    fn consume_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        op_id: u64,
        addr: Option<GlobalPageAddr>,
        consume: Consume,
        start: SimTime,
        data: Result<PageRef, FlashError>,
    ) {
        match (consume, data) {
            (Consume::Isp, data) => {
                let data = data.map(|page| ctx.pages().take(page));
                self.complete(ctx.now(), op_id, addr, data, start);
            }
            (Consume::Accel, Ok(page)) => {
                // The payload must stream through one of the node's
                // shared accelerator units before the op counts as done;
                // the FIFO scheduler (paper Section 4) arbitrates them
                // among competing tenants.
                self.stats.accel_jobs += 1;
                let data = ctx.pages().take(page);
                let duration = self.accel_bandwidth.time_for(data.len() as u64);
                let job = self.next_accel_job;
                self.next_accel_job += 1;
                self.accel_pending.insert(job, (op_id, addr, start, data));
                let me = ctx.self_id();
                ctx.send(
                    self.sched,
                    SimTime::ZERO,
                    SchedSubmit {
                        job,
                        reply_to: me,
                        duration,
                    },
                );
            }
            (Consume::Accel, Err(e)) => {
                self.complete(ctx.now(), op_id, addr, Err(e), start)
            }
            (Consume::Host, Ok(page)) => {
                if self.host_buffers.adopt(page) {
                    self.issue_pcie(ctx, op_id, addr, start, page);
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
                    self.host_parked.push_back((op_id, addr, start, page));
                }
            }
            (Consume::Host, Err(e)) => self.complete(ctx.now(), op_id, addr, Err(e), start),
        }
    }

    /// DMA one buffered page to the host.
    fn issue_pcie(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        op_id: u64,
        addr: Option<GlobalPageAddr>,
        start: SimTime,
        page: PageRef,
    ) {
        let token = self.next_pcie_token;
        self.next_pcie_token += 1;
        self.pcie_pending.insert(token, (op_id, addr, start));
        let me = ctx.self_id();
        let bytes = ctx.pages().len(page) as u32;
        ctx.send(
            self.pcie,
            SimTime::ZERO,
            PcieXfer::new(bytes, me, token, page),
        );
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
                    self.issue_flash(
                        ctx,
                        addr,
                        None,
                        FlashDest::Local {
                            op_id,
                            addr,
                            consume,
                            start: ctx.now(),
                        },
                    );
                } else {
                    self.stats.remote_reads += 1;
                    let req_id = self.next_req;
                    self.next_req += 1;
                    self.net_pending.insert(
                        req_id,
                        NetPending {
                            op_id,
                            consume,
                            start: ctx.now(),
                            target: RemoteKind::Flash(addr),
                        },
                    );
                    let rr = self.reply_rr.entry(addr.node).or_insert(0);
                    let reply_ep = 1 + (*rr % u64::from(DATA_ENDPOINTS)) as u16;
                    *rr += 1;
                    // Interned, not boxed: the pool slot recycles when the
                    // owning node takes the request back out, so the
                    // remote-read control plane allocates nothing in
                    // steady state.
                    let req = ctx.pools().intern(RemoteReq {
                        req_id,
                        origin: self.node,
                        reply_ep,
                        kind: RemoteKind::Flash(addr),
                    });
                    ctx.send(
                        self.router,
                        SimTime::ZERO,
                        NetSend::new(
                            addr.node,
                            REQUEST_ENDPOINT,
                            REQUEST_BYTES,
                            NetBody::Req(req),
                        ),
                    );
                }
            }
            AgentOp::ReadUnmapped { op_id, addr } => {
                let error = FlashError::NotProgrammed(addr.ppa);
                self.complete(ctx.now(), op_id, Some(addr), Err(error), ctx.now());
            }
            AgentOp::WriteFlash { op_id, addr, data } => {
                assert_eq!(addr.node, self.node, "remote writes are not modelled");
                let dest = FlashDest::LocalWrite {
                    op_id,
                    addr,
                    start: ctx.now(),
                };
                self.issue_flash(ctx, addr, Some(data), dest);
            }
            AgentOp::LoadDram { key, data } => {
                self.dram.insert(key, data);
            }
            AgentOp::ReadRemoteDram {
                op_id,
                node,
                key,
                consume,
            } => {
                self.stats.remote_reads += 1;
                let req_id = self.next_req;
                self.next_req += 1;
                self.net_pending.insert(
                    req_id,
                    NetPending {
                        op_id,
                        consume,
                        start: ctx.now(),
                        target: RemoteKind::Dram(key),
                    },
                );
                let rr = self.reply_rr.entry(node).or_insert(0);
                let reply_ep = 1 + (*rr % u64::from(DATA_ENDPOINTS)) as u16;
                *rr += 1;
                let req = ctx.pools().intern(RemoteReq {
                    req_id,
                    origin: self.node,
                    reply_ep,
                    kind: RemoteKind::Dram(key),
                });
                ctx.send(
                    self.router,
                    SimTime::ZERO,
                    NetSend::new(
                        node,
                        REQUEST_ENDPOINT,
                        REQUEST_BYTES,
                        NetBody::Req(req),
                    ),
                );
            }
        }
    }

    fn handle_ctrl_resp(&mut self, ctx: &mut Ctx<'_, Msg>, resp: CtrlResp) {
        let tag = resp.tag().0;
        let dest = self
            .flash_pending
            .remove(&tag)
            .expect("completion for a tag the agent never issued");
        if let Some((addr, data, parked)) = self.tag_parked.pop_front() {
            self.issue_flash(ctx, addr, data, parked);
        }
        match (dest, resp) {
            (
                FlashDest::Local {
                    op_id,
                    addr,
                    consume,
                    start,
                },
                CtrlResp::ReadDone { result, .. },
            ) => {
                self.consume_read(ctx, op_id, Some(addr), consume, start, result.map(|r| r.page));
            }
            (FlashDest::LocalWrite { op_id, addr, start }, CtrlResp::WriteDone { result, .. }) => {
                let data = result.map(|()| Vec::new());
                self.complete(ctx.now(), op_id, Some(addr), data, start);
            }
            (
                FlashDest::RemoteJob {
                    origin,
                    req_id,
                    reply_ep,
                },
                CtrlResp::ReadDone { result, .. },
            ) => {
                let data = result
                    .map(|r| r.page)
                    .map_err(|e| RemoteError::of(&e));
                let bytes = self.page_bytes as u32;
                ctx.send(
                    self.router,
                    SimTime::ZERO,
                    NetSend::new(
                        origin,
                        reply_ep,
                        bytes,
                        NetBody::Resp(RemoteResp { req_id, data }),
                    ),
                );
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
                        self.issue_flash(
                            ctx,
                            addr,
                            None,
                            FlashDest::RemoteJob {
                                origin: req.origin,
                                req_id: req.req_id,
                                reply_ep: req.reply_ep,
                            },
                        );
                    }
                    RemoteKind::Dram(key) => {
                        let data = match self.dram.get(&key) {
                            Some(d) => Ok(ctx.pages().alloc_from(d)),
                            None => Err(RemoteError::UnknownHandle),
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
        let addr = match pending.target {
            RemoteKind::Flash(addr) => Some(addr),
            RemoteKind::Dram(_) => None,
        };
        let data = resp.data.map_err(|code| code.rehydrate(pending.target));
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
                ctx.send(
                    self.router,
                    SimTime::ZERO,
                    NetSend::new(
                        served.origin,
                        served.reply_ep,
                        served.bytes,
                        NetBody::Resp(RemoteResp {
                            req_id: served.req_id,
                            data: served.data,
                        }),
                    ),
                );
            }
            Msg::SchedDone(SchedDone { job }) => {
                let (op_id, addr, start, data) = self
                    .accel_pending
                    .remove(&job)
                    .expect("accelerator completion for an unknown job");
                self.complete(ctx.now(), op_id, addr, Ok(data), start);
            }
            Msg::Host(HostMsg::Done(done)) => {
                let (op_id, addr, start) = self
                    .pcie_pending
                    .remove(&done.token)
                    .expect("PCIe completion for an unknown token");
                // The page is in host memory: return the read buffer to
                // the free queue and hand the next parked page its slot.
                self.host_buffers.release(done.body);
                let data = ctx.pages().take(done.body);
                self.complete(ctx.now(), op_id, addr, Ok(data), start);
                if let Some((op_id, addr, start, page)) = self.host_parked.pop_front() {
                    let adopted = self.host_buffers.adopt(page);
                    debug_assert!(adopted, "a just-released buffer must be free");
                    let waited = (ctx.now() - start).as_ps();
                    ctx.trace().instant(
                        TraceCat::BufPool,
                        TraceName::Resume,
                        self.node.0 as u32,
                        op_id,
                        waited,
                    );
                    self.issue_pcie(ctx, op_id, addr, start, page);
                }
            }
            other => panic!("node agent got an unexpected message: {other:?}"),
        }
    }
}

/// The Virtex-7 module inventory of one node — the software analogue of
/// the paper's Table 2.
pub fn node_inventory(cards: usize) -> Vec<(&'static str, usize)> {
    vec![
        ("flash interface", cards),
        ("network interface", 1),
        ("dram interface", 1),
        ("host interface", 1),
        ("in-store processor slots", 4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_table2_modules() {
        let inv = node_inventory(2);
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
        let a = GlobalPageAddr {
            node: NodeId(0),
            card: 0,
            ppa: Ppa::new(0, 0, 0, 0),
        };
        let b = GlobalPageAddr {
            node: NodeId(1),
            card: 0,
            ppa: Ppa::new(0, 0, 0, 0),
        };
        assert!(a < b);
        let c = a;
        assert_eq!(a, c);
    }
}
