//! The cluster facade: build a DES world of N BlueDBM nodes and drive it
//! through submit and drive.
//!
//! A [`Cluster`] owns the simulator, the per-node flash cards (a
//! controller and a splitter hop each, `crate::card`), the node agents
//! (each booking its node's PCIe link and accelerator units) and the
//! integrated network.
//! Every simulated page operation goes in one way: [`Cluster::submit`]
//! schedules a [`PageOp`] at the current instant without running
//! anything, and [`Cluster::drive`] runs the event queue dry and hands
//! back every completion, in op-id order, with simulated timestamps.
//! [`Cluster::run_one`] is that pair for one op.
//! [`Cluster::preload_page`] and [`Cluster::load_dram`] are functional
//! setup: they fill a card or a DRAM buffer without simulated time.
//!
//! Page addresses are *logical*: a [`GlobalPageAddr`] names a card's
//! logical page, its [`Ftl`]'s LBA. Each card's `Ftl` is run by its
//! node's agent inside the simulation: it places a write when the write
//! reaches the agent, decides garbage collection and wear leveling, and
//! maps a read to its cell when the read reaches the card's agent (see
//! `crate::node`). A failure on a page names the page
//! ([`ClusterError::Page`]), never its cell.
//!
//! One engine runs every cluster: a [`ShardedSimulator`] over the node →
//! shard map. One shard (`config.sim.shards = 1`, the default) is the
//! sequential kernel, unsplit; more shards run the conservative-parallel
//! protocol, deterministic and observably identical (same statistics,
//! same event counts, same store quiescence) — the shard count is a
//! wall-clock decision, never a modelling one.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bluedbm_flash::array::{ErrorModel, FlashArray};
use bluedbm_flash::controller::{CtrlStats, FlashController};
use bluedbm_flash::error::FlashError;
use bluedbm_ftl::{Ftl, FtlError, GcRound};
use bluedbm_net::router::{build_network_routed, Router, RouterStats};
use bluedbm_net::routing::RoutingTable;
use bluedbm_net::topology::{NodeId, Topology};
use bluedbm_sim::engine::{ComponentId, Simulator};
use bluedbm_sim::shard::{ExecMode, ShardStats, ShardedSimulator};
use bluedbm_sim::time::SimTime;
use bluedbm_sim::{MetricsDoc, MetricsRegistry, PageStore, TracePart, WallLaneProfile};

use crate::card::{CardController, CardSplitter};
use crate::config::SystemConfig;
use crate::gc::{GcStats, GcTrafficStats, LifecycleOp};
use crate::msg::{Msg, NetBody};
use crate::node::{AgentOp, AgentStats, Consume, NodeAgent, DATA_ENDPOINTS, REQUEST_ENDPOINT};
use crate::scheduler::SchedStats;

pub use crate::node::{Completed, GlobalPageAddr};

/// A chain of `n` nodes with `lanes` cables per hop, closed into a ring
/// when `closed`; below two nodes there is nothing to cable, so 0 nodes
/// is [`ClusterError::NoNodes`] and 1 a one-node cluster, as for
/// [`Cluster::new`].
fn chain(n: usize, lanes: usize, closed: bool) -> Result<Topology, ClusterError> {
    // An inner node cables both of its hops; two nodes share one hop.
    let ports = if n > 2 { 2 * lanes } else { lanes };
    match n {
        0 | 1 => Ok(Topology::from_edges(n, &[])),
        _ if lanes == 0 || ports > Topology::MAX_PORTS => Err(ClusterError::Lanes(lanes)),
        _ if closed => Ok(Topology::ring(n, lanes)),
        _ => Ok(Topology::line(n, lanes)),
    }
}

/// The per-pair lookahead matrix of a partition: entry `[s][r]` is
/// `hop_latency x` the minimum hop distance between any node of shard
/// `s` and any node of shard `r`. Sound because every cross-node message
/// — cable transmit or credit return — pays at least one hop of latency
/// per hop of distance, so a message from shard `s` into shard `r` takes
/// at least that long.
fn cross_shard_lookaheads(
    topo: &Topology,
    partition: &[u32],
    shards: usize,
    hop_latency: SimTime,
) -> Vec<Vec<SimTime>> {
    topo.shard_distances(partition, shards)
        .into_iter()
        .map(|row| row.into_iter().map(|d| hop_latency * u64::from(d)).collect())
        .collect()
}

/// Errors surfaced by the cluster facade.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A flash card cannot be built (`GeometryTooLarge`), or a write's
    /// payload does not fit a page (`WrongPageSize`).
    Flash(FlashError),
    /// An operation on this page failed.
    Page(GlobalPageAddr, PageFault),
    /// A DRAM read asked `node` for a key its buffer does not hold.
    DramMiss {
        /// The node whose buffer was read.
        node: NodeId,
        /// The key asked for.
        key: u64,
    },
    /// A card's FTL cannot be built: the lifecycle knobs in
    /// `config.gc` are out of range, or the geometry is too large for
    /// its tables or too small for the GC reserve. Boxed:
    /// construction-time only, and `ClusterError` rides in every
    /// completion.
    Ftl(Box<FtlError>),
    /// A node's flash cards are fully allocated.
    DeviceFull(NodeId),
    /// The topology has no nodes.
    NoNodes,
    /// The node → shard map given to [`Cluster::with_partition`] cannot
    /// be built.
    InvalidPartition(PartitionError),
    /// The topology is not connected: this node cannot be reached from
    /// node 0, so no route joins them.
    Disconnected(NodeId),
    /// `config.flash.cards_per_node` is outside `1..=256`: a page
    /// address names its card in 8 bits (as does the KV store's packed
    /// extent), so a 257th card would alias the first.
    CardsPerNode(usize),
    /// `config.accel.units` is zero: every node needs at least one
    /// accelerator unit to serve its in-store jobs.
    NoAccelUnits,
    /// `config.host.read_buffers` is zero: a host-bound page needs a
    /// read buffer to cross the PCIe link.
    NoReadBuffers,
    /// `config.net.credits_per_lane` is zero on a topology with a cable:
    /// no lane could ever send a packet.
    NoLaneCredits,
    /// `config.net.hop_latency` is zero on more than one shard: the
    /// shards' conservative windows need a positive lookahead.
    NoHopLatency,
    /// The cluster has no such node.
    NoSuchNode(NodeId),
    /// [`Cluster::ring`] or [`Cluster::line`] was asked for this many
    /// cables per hop: none, or more than [`Topology::MAX_PORTS`] hold.
    Lanes(usize),
}

/// Why an operation on one page failed ([`ClusterError::Page`]'s cause).
/// A remote read's answer carries it as its status code, so a remote
/// failure names its page the way a local one does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageFault {
    /// The cluster has no such page: a node or card it lacks, or a page
    /// past the card's logical capacity.
    OutOfRange,
    /// No cell holds the page: it was never written, or it was freed.
    NotProgrammed,
    /// The page's cell is in a bad block.
    BadBlock,
    /// The page's cell read back with more errors than ECC corrects.
    Uncorrectable,
}

impl PageFault {
    /// The fault a flash failure on a page's cell is, if a page op can
    /// meet it (the others mean the array and its `Ftl` disagree).
    pub(crate) fn of(e: &FlashError) -> Option<Self> {
        match e {
            FlashError::OutOfRange(_) => Some(PageFault::OutOfRange),
            FlashError::NotProgrammed(_) => Some(PageFault::NotProgrammed),
            FlashError::BadBlock(_) => Some(PageFault::BadBlock),
            FlashError::Uncorrectable(_) => Some(PageFault::Uncorrectable),
            _ => None,
        }
    }
}

impl fmt::Display for PageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PageFault::OutOfRange => "out of range",
            PageFault::NotProgrammed => "not programmed",
            PageFault::BadBlock => "in a bad block",
            PageFault::Uncorrectable => "uncorrectable ECC error",
        })
    }
}

/// The id [`Cluster::submit`] hands out and the op's [`Completed`]
/// echoes: consecutive from 0, in submission order.
pub type OpId = u64;

/// One simulated page operation, for [`Cluster::submit`].
#[derive(Clone, Copy, Debug)]
pub enum PageOp<'a> {
    /// Read a page of the global address space, local or remote.
    Read {
        /// The page read.
        addr: GlobalPageAddr,
        /// Who consumes the data.
        consume: Consume,
    },
    /// Write one page, zero-padded, to the submitting node's flash on a
    /// page the cluster allocates (the completion's `addr`).
    Write(&'a [u8]),
    /// Read entry `key` of `home`'s DRAM buffer over the integrated
    /// network (the H-D path of Figure 12).
    ReadDram {
        /// The node whose buffer is read.
        home: NodeId,
        /// The entry read (see [`Cluster::load_dram`]).
        key: u64,
        /// Who consumes the data.
        consume: Consume,
    },
}

/// What is wrong with a node → shard map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The map does not have one entry per node.
    Length {
        /// Nodes in the topology.
        nodes: usize,
        /// Entries in the map.
        entries: usize,
    },
    /// The map names a shard id at or past the node count, so some
    /// shard below it is necessarily empty.
    ShardOutOfRange {
        /// The offending shard id.
        shard: u32,
        /// Nodes in the topology.
        nodes: usize,
    },
    /// Shard ids must be dense `0..k`: this one, below the largest id
    /// used, owns no node.
    EmptyShard(u32),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PartitionError::Length { nodes, entries } => {
                write!(f, "{entries} entries for {nodes} nodes")
            }
            PartitionError::ShardOutOfRange { shard, nodes } => {
                write!(f, "shard id {shard} on a topology of {nodes} nodes")
            }
            PartitionError::EmptyShard(shard) => {
                write!(f, "shard ids must be dense from 0, but shard {shard} owns no node")
            }
        }
    }
}

/// The shard count of a node → shard map, once it is known to be one
/// entry per node with shard ids dense from 0.
fn checked_shard_count(partition: &[u32], nodes: usize) -> Result<usize, PartitionError> {
    if partition.len() != nodes {
        return Err(PartitionError::Length { nodes, entries: partition.len() });
    }
    // Bounded by the node count before anything is sized by it: the
    // engine builds a simulator per shard and a shards² lookahead matrix.
    if let Some(&shard) = partition.iter().find(|&&s| s as usize >= nodes) {
        return Err(PartitionError::ShardOutOfRange { shard, nodes });
    }
    let shards = partition.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
    let mut inhabited = vec![false; shards];
    for &s in partition {
        inhabited[s as usize] = true;
    }
    match inhabited.iter().position(|&used| !used) {
        Some(empty) => Err(PartitionError::EmptyShard(empty as u32)),
        None => Ok(shards),
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Flash(e) => write!(f, "flash error: {e}"),
            ClusterError::Page(a, fault) => {
                write!(f, "page {} of card {} on {}: {fault}", a.lpn, a.card, a.node)
            }
            ClusterError::DramMiss { node, key } => {
                write!(f, "no DRAM buffer entry {key} on {node}")
            }
            ClusterError::Ftl(e) => write!(f, "FTL cannot be built: {e}"),
            ClusterError::DeviceFull(n) => write!(f, "no free pages left on {n}"),
            ClusterError::NoNodes => write!(f, "the topology has no nodes"),
            ClusterError::InvalidPartition(e) => write!(f, "invalid partition: {e}"),
            ClusterError::Disconnected(n) => write!(f, "topology is disconnected: no route to {n}"),
            ClusterError::CardsPerNode(c) => write!(f, "{c} cards per node is outside 1..=256"),
            ClusterError::NoAccelUnits => write!(f, "a node needs at least one accelerator unit"),
            ClusterError::NoReadBuffers => write!(f, "a node needs at least one host read buffer"),
            ClusterError::NoLaneCredits => write!(f, "a cabled lane needs at least one credit"),
            ClusterError::NoHopLatency => {
                write!(f, "more than one shard needs a positive hop latency")
            }
            ClusterError::NoSuchNode(n) => write!(f, "the cluster has no {n}"),
            ClusterError::Lanes(l) => write!(
                f,
                "{l} cables per hop is outside 1..=the {} ports of a node",
                Topology::MAX_PORTS
            ),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Flash(e) => Some(e),
            ClusterError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for ClusterError {
    fn from(e: FlashError) -> Self {
        ClusterError::Flash(e)
    }
}

impl From<FtlError> for ClusterError {
    fn from(e: FtlError) -> Self {
        ClusterError::Ftl(Box::new(e))
    }
}

/// A DES world of BlueDBM nodes. See the
/// [crate-level documentation](crate) for an example.
pub struct Cluster {
    sim: ShardedSimulator<Msg>,
    config: SystemConfig,
    topo: Topology,
    /// The routes every router follows (shared with them).
    routing: Arc<RoutingTable>,
    routers: Vec<ComponentId>,
    agents: Vec<ComponentId>,
    controllers: Vec<Vec<ComponentId>>,
    /// Node -> shard map (all zeros on one shard).
    partition: Vec<u32>,
    /// Next never-allocated logical page per (node, card).
    bump: Vec<Vec<usize>>,
    /// Logical page capacity per (node, card): its `Ftl`'s, read at
    /// build.
    capacity: Vec<Vec<usize>>,
    /// Freed pages available for reallocation, per node (LIFO — the
    /// most recently freed page is reused first, keeping the touched
    /// footprint compact).
    free: Vec<Vec<GlobalPageAddr>>,
    /// Flash pages allocated and not yet freed, cluster-wide — the KV
    /// layer's stranded-extent audit baseline.
    pages_in_use: u64,
    next_op: OpId,
    /// The first op id submitted since the last [`Cluster::drive`].
    drained: OpId,
    /// Completions [`Cluster::run_to_quiescence`] keeps for
    /// [`Cluster::harvest_node`], by submitting node.
    undrained: Vec<Vec<Completed>>,
    /// Ops submitted at a node the cluster lacks, which have no agent
    /// to complete on, for the next [`Cluster::drive`].
    refused: Vec<Completed>,
    /// [`Cluster::drive`]'s placement slots, one per op of the drive;
    /// empty between drives, and kept for their capacity.
    slots: Vec<Option<Completed>>,
}

impl Cluster {
    /// Build a cluster over an explicit topology.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Flash`] wrapping `GeometryTooLarge` when the flash
    /// geometry has more pages than a card's `u32` tables can index, and
    /// [`ClusterError::Ftl`] when the lifecycle knobs in `config.gc` are
    /// out of range or the geometry leaves no room for the GC reserve,
    /// [`ClusterError::CardsPerNode`] when `config.flash.cards_per_node`
    /// is outside `1..=256`, [`ClusterError::NoAccelUnits`] when
    /// `config.accel.units` is zero, [`ClusterError::NoReadBuffers`] when
    /// `config.host.read_buffers` is zero, [`ClusterError::Disconnected`]
    /// when some node cannot reach another, [`ClusterError::NoLaneCredits`]
    /// when `config.net.credits_per_lane` is zero and the topology has a
    /// cable, [`ClusterError::NoHopLatency`] when `config.net.hop_latency`
    /// is zero on more than one shard, and [`ClusterError::NoNodes`] when
    /// the topology is empty.
    pub fn new(topo: Topology, config: &SystemConfig) -> Result<Self, ClusterError> {
        let shards = config.sim.shards.min(topo.node_count()).max(1);
        let partition = if shards <= 1 {
            vec![0; topo.node_count()]
        } else {
            // Latency-aware min-cut partition: fewest cut cables, so the
            // least cross-shard mail and the largest per-pair lookaheads.
            topo.min_cut_partition(shards)
        };
        Self::with_partition(topo, config, &partition)
    }

    /// Build a cluster with an explicit node -> shard map: one entry per
    /// node, shard ids dense from 0 (the shard count is
    /// `max(partition) + 1`; a map of all zeros is one shard, the
    /// sequential kernel unsplit). Every component of a node — router, flash
    /// controllers, splitters, agent — is pinned to the
    /// node's shard, so only inter-node traffic crosses shards and the
    /// conservative lookahead is the minimum cross-shard link latency.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::new`], plus [`ClusterError::InvalidPartition`]
    /// when the map is the wrong length, names a shard id at or past the
    /// node count, or leaves a shard below its largest id empty.
    pub fn with_partition(
        topo: Topology,
        config: &SystemConfig,
        partition: &[u32],
    ) -> Result<Self, ClusterError> {
        if topo.node_count() == 0 {
            return Err(ClusterError::NoNodes);
        }
        let cards = config.flash.cards_per_node;
        if !(1..=256).contains(&cards) {
            return Err(ClusterError::CardsPerNode(cards));
        }
        if config.accel.units == 0 {
            return Err(ClusterError::NoAccelUnits);
        }
        if config.host.read_buffers == 0 {
            return Err(ClusterError::NoReadBuffers);
        }
        let shards = checked_shard_count(partition, topo.node_count())
            .map_err(ClusterError::InvalidPartition)?;
        if shards > 1 && config.net.hop_latency == SimTime::ZERO {
            return Err(ClusterError::NoHopLatency);
        }
        let card_array = |node: usize, card: usize| {
            FlashArray::with_error_model(
                config.flash.geometry,
                ((0xB1DE + (node as u64)) << 8) | card as u64,
                ErrorModel::none(),
            )
        };
        let routing = Arc::new(RoutingTable::compute(&topo));
        if let Some(lost) = (0..topo.node_count())
            .map(NodeId::from)
            .find(|&n| routing.hops(&topo, NodeId(0), n).is_none())
        {
            return Err(ClusterError::Disconnected(lost));
        }
        // Connected, so a cable exactly when there are two nodes or more.
        if topo.node_count() > 1 && config.net.credits_per_lane == 0 {
            return Err(ClusterError::NoLaneCredits);
        }
        let mut sim = Simulator::new();
        let routers = build_network_routed(&mut sim, &topo, config.net, Arc::clone(&routing));
        let n = topo.node_count();
        let mut agents = Vec::with_capacity(n);
        let mut controllers = Vec::with_capacity(n);
        let mut splitters = Vec::with_capacity(n);
        let mut capacity = Vec::with_capacity(n);
        for (node, &node_router) in routers.iter().enumerate() {
            let mut node_ctrls = Vec::new();
            let mut node_splitters = Vec::new();
            let mut cards = Vec::with_capacity(config.flash.cards_per_node);
            for card in 0..config.flash.cards_per_node {
                // One array per card: the FTL reads the factory state
                // (geometry, bad blocks, wear) off it before the card's
                // controller takes it over, so its physical decisions
                // are valid verbatim on the simulated card.
                let array = card_array(node, card)?;
                let ftl = Ftl::new(&array, config.gc.ftl)?;
                let (ctrl, split) = (sim.reserve(), sim.reserve());
                let model = FlashController::new(array, config.flash.timing);
                sim.install(ctrl, CardController::new(model, split));
                // The splitter is installed once the agent, its client,
                // has an id.
                node_ctrls.push(ctrl);
                node_splitters.push(split);
                cards.push((split, ftl));
            }
            capacity.push(cards.iter().map(|(_, ftl)| ftl.capacity_pages() as usize).collect());
            let agent =
                sim.add_component(NodeAgent::new(NodeId::from(node), node_router, cards, config));
            for (&ctrl, &split) in node_ctrls.iter().zip(&node_splitters) {
                sim.install(split, CardSplitter::new(ctrl, agent));
            }
            let router = sim
                .component_mut::<Router<NetBody>>(node_router)
                .expect("router installed");
            router.register_endpoint(REQUEST_ENDPOINT, agent);
            for ep in 1..=DATA_ENDPOINTS {
                router.register_endpoint(ep, agent);
            }
            agents.push(agent);
            controllers.push(node_ctrls);
            splitters.push(node_splitters);
        }
        let mut owner = vec![u32::MAX; sim.component_count()];
        for node in 0..n {
            let shard = partition[node];
            owner[routers[node].index()] = shard;
            owner[agents[node].index()] = shard;
            for c in controllers[node].iter().chain(&splitters[node]) {
                owner[c.index()] = shard;
            }
        }
        let lookaheads = cross_shard_lookaheads(&topo, partition, shards, config.net.hop_latency);
        let mut sim = ShardedSimulator::with_lookaheads(sim, owner, shards, lookaheads);
        sim.set_exec_mode(config.sim.exec);
        sim.set_trace(config.sim.trace);
        Ok(Cluster {
            sim,
            config: *config,
            bump: vec![vec![0; config.flash.cards_per_node]; n],
            capacity,
            free: vec![Vec::new(); n],
            pages_in_use: 0,
            topo,
            routing,
            routers,
            agents,
            controllers,
            partition: partition.to_vec(),
            next_op: 0,
            drained: 0,
            undrained: vec![Vec::new(); n],
            refused: Vec::new(),
            slots: Vec::new(),
        })
    }

    /// A ring of `n` nodes with enough lanes to mirror the paper's
    /// cabling (4 each way for n > 2). One node is a cluster with no
    /// cables.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::new`].
    pub fn ring(n: usize, config: &SystemConfig) -> Result<Self, ClusterError> {
        Self::new(chain(n, 4, true)?, config)
    }

    /// A line of `n` nodes with `lanes` parallel cables per hop. One
    /// node is a cluster with no cables.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::new`], plus [`ClusterError::Lanes`] when
    /// `lanes` is 0 or the node's ports cannot hold them.
    pub fn line(n: usize, lanes: usize, config: &SystemConfig) -> Result<Self, ClusterError> {
        Self::new(chain(n, lanes, false)?, config)
    }

    /// The system configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Total simulation events delivered so far (aggregated across
    /// shards).
    pub fn events_delivered(&self) -> u64 {
        self.sim.events_delivered()
    }

    /// Shards executing this cluster (1 = the sequential kernel).
    pub fn shard_count(&self) -> usize {
        self.sim.shard_count()
    }

    /// The node -> shard map in force (all zeros on one shard).
    pub fn partition(&self) -> &[u32] {
        &self.partition
    }

    /// The engine when it runs the window protocol — more than one
    /// shard. The protocol's probes below are `None` on one shard, which
    /// needs no window and exchanges nothing.
    fn windowed(&self) -> Option<&ShardedSimulator<Msg>> {
        (self.sim.shard_count() > 1).then_some(&self.sim)
    }

    /// The minimum conservative window — the smallest entry of the
    /// per-pair lookahead matrix (`None` on one shard).
    pub fn min_lookahead(&self) -> Option<SimTime> {
        self.windowed().map(ShardedSimulator::lookahead)
    }

    /// The per-pair conservative lookahead from shard `src` to shard
    /// `dst` (`None` on one shard).
    ///
    /// # Panics
    ///
    /// Panics if either shard index is out of range on more than one
    /// shard.
    pub fn lookahead_between(&self, src: usize, dst: usize) -> Option<SimTime> {
        self.windowed().map(|sim| sim.lookahead_between(src, dst))
    }

    /// Cumulative conservative-sync rounds executed (`None` on one
    /// shard): one all-to-all mailbox/horizon exchange per round, so
    /// rounds ÷ wall time is the protocol-overhead denominator.
    pub fn sync_rounds(&self) -> Option<u64> {
        self.windowed().map(ShardedSimulator::sync_rounds)
    }

    /// Where the window protocol runs its rounds (`None` on one shard).
    pub(crate) fn exec_mode(&self) -> Option<ExecMode> {
        self.windowed().map(ShardedSimulator::exec_mode)
    }

    /// Synchronization statistics (`None` on one shard): sync rounds
    /// plus, per shard, the spin/park wait counters of the threaded
    /// rounds.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        self.windowed().map(ShardedSimulator::shard_stats)
    }

    /// Harvest the per-shard trace buffers accumulated so far, one
    /// [`TracePart`] per shard (empty parts when `config.sim.trace` is
    /// off), each a run of the varint bytes its sink encoded at push.
    /// Taking empties the buffers but keeps each sink's sequence
    /// running, so back-to-back harvests see disjoint records that still
    /// merge in order; gather parts with [`bluedbm_sim::TraceDoc::merge`].
    pub(crate) fn take_trace(&mut self) -> Vec<TracePart> {
        self.sim.take_trace()
    }

    /// Wall-clock worker profiles from threaded runs (`None` on one
    /// shard; all zeros unless `config.sim.trace.wall_profile` opted
    /// in). Strictly an out-of-band measurement — never part of the
    /// deterministic record.
    pub fn wall_profiles(&self) -> Option<Vec<WallLaneProfile>> {
        self.windowed().map(ShardedSimulator::wall_profiles)
    }

    /// Write the cluster's complete statistics inventory into `reg`: an
    /// `engine` scope (mode, shard count, event count, sync rounds,
    /// per-shard wait lanes, opt-in wall profiles), a `gc` scope
    /// (lifecycle counters and write amplification) and a `nodes` scope
    /// with per-node router / agent / scheduler / GC-agent / host-buffer
    /// / flash-card subtrees.
    pub(crate) fn fill_metrics(&self, reg: &mut MetricsRegistry) {
        let engine = reg.scope("engine");
        engine.set(
            "mode",
            match self.exec_mode() {
                None => "seq".to_string(),
                Some(m) => format!("{m:?}").to_lowercase(),
            },
        );
        engine.set("shards", self.shard_count());
        engine.set("now_ps", self.now().as_ps());
        engine.set("events_delivered", self.events_delivered());
        if let Some(rounds) = self.sync_rounds() {
            engine.set("sync_rounds", rounds);
        }
        if let Some(stats) = self.shard_stats() {
            for (i, lane) in stats.shards.iter().enumerate() {
                let shard = engine.child(&format!("shard{i}"));
                shard.set("spins", lane.spins);
                shard.set("parks", lane.parks);
            }
        }
        if let Some(walls) = self.wall_profiles() {
            for (i, w) in walls.iter().enumerate() {
                if w.spin_ns == 0 && w.park_ns == 0 && w.execute_ns == 0 {
                    continue;
                }
                let lane = engine.child(&format!("wall{i}"));
                lane.set("spin_ns", w.spin_ns);
                lane.set("park_ns", w.park_ns);
                lane.set("execute_ns", w.execute_ns);
            }
        }
        self.gc_stats().fill_metrics(reg.scope("gc"));
        let nodes = reg.scope("nodes");
        for node in 0..self.node_count() {
            let id = NodeId::from(node);
            let scope = nodes.child(&format!("node{node}"));
            self.router_stats(id).fill_metrics(scope.child("router"));
            self.agent_stats(id).fill_metrics(scope.child("agent"));
            self.sched_stats(id).fill_metrics(scope.child("sched"));
            self.gc_traffic_stats(id).fill_metrics(scope.child("gc_traffic"));
            self.agent(id).host_buffers().fill_metrics(scope.child("host_buffers"));
            for card in 0..self.config.flash.cards_per_node {
                self.controller_stats(id, card)
                    .fill_metrics(scope.child(&format!("card{card}")));
            }
        }
    }

    /// A fresh [`MetricsDoc`] snapshot of `Cluster::fill_metrics` —
    /// the mid-run observability entry point (JSON via
    /// [`MetricsDoc::to_json_pretty`]).
    pub fn metrics(&self) -> MetricsDoc {
        let mut reg = MetricsRegistry::new();
        self.fill_metrics(&mut reg);
        reg.snapshot()
    }

    /// Allocate the next free page on `node`: a previously
    /// [`Cluster::free_page`]d page if one is available (most recently
    /// freed first), otherwise the next never-allocated logical page of
    /// the card with the fewest, so allocations go round-robin across
    /// cards.
    ///
    /// The address returned encodes a **logical** page: the card's FTL
    /// picks the physical cell when the write reaches the node's agent
    /// and may move it later during collection. Capacity is the FTL's
    /// exported logical capacity (good pages minus over-provision and
    /// watermark reserve), not the raw cell count — the slack is what GC
    /// reclaims into.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DeviceFull`] when every card is exhausted.
    pub(crate) fn alloc_page(&mut self, node: NodeId) -> Result<GlobalPageAddr, ClusterError> {
        if let Some(addr) = self.free[node.index()].pop() {
            self.pages_in_use += 1;
            return Ok(addr);
        }
        let capacity = &self.capacity[node.index()];
        let cards = &mut self.bump[node.index()];
        let card = (0..cards.len())
            .filter(|&c| cards[c] < capacity[c])
            .min_by_key(|&c| cards[c])
            .ok_or(ClusterError::DeviceFull(node))?;
        let lba = cards[card];
        cards[card] += 1;
        self.pages_in_use += 1;
        Ok(GlobalPageAddr {
            node,
            card: card as u8, // < 256, checked at build
            lpn: lba as u32,  // < the card's Ftl capacity, a u32
        })
    }

    /// Return an allocated page to `addr.node`'s free pool, where it
    /// becomes the next allocation candidate on that node. A free is a
    /// logical trim, applied to the card's FTL at once: the page is
    /// unmapped and its cell turns stale, to be reclaimed when collection
    /// erases the block (the simulated array keeps the stale page
    /// programmed until then, as the FTL's books do). The caller must own
    /// the page (allocated and not already freed) and must not have reads
    /// in flight against it — the KV store's per-key gates guarantee
    /// both.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Page`] with [`PageFault::OutOfRange`] on an
    /// address the cluster lacks: a node or card it does not have, or a
    /// page past the card's logical capacity; nothing changes.
    ///
    /// # Panics
    ///
    /// Panics if more pages are freed than were ever allocated (a
    /// double-free somewhere).
    pub(crate) fn free_page(&mut self, addr: GlobalPageAddr) -> Result<(), ClusterError> {
        let out_of_range = ClusterError::Page(addr, PageFault::OutOfRange);
        let lba = self.lba_of(addr).ok_or(out_of_range.clone())?;
        self.agent_mut(addr.node).trim(addr.card, lba).map_err(|_| out_of_range)?;
        self.pages_in_use = self
            .pages_in_use
            .checked_sub(1)
            .expect("free_page without a matching alloc_page");
        self.free[addr.node.index()].push(addr);
        Ok(())
    }

    /// Flash pages currently allocated (cluster-wide): every
    /// `Cluster::alloc_page` not yet returned via
    /// `Cluster::free_page`. The KV store audits its directory against
    /// this to catch stranded extents.
    pub fn flash_pages_in_use(&self) -> u64 {
        self.pages_in_use
    }

    /// The LBA `addr` names on its card's `Ftl`, or `None` when the
    /// cluster has no such node or card, or the page is past the card's
    /// logical capacity.
    fn lba_of(&self, addr: GlobalPageAddr) -> Option<u64> {
        let capacity = self.capacity.get(addr.node.index())?.get(usize::from(addr.card))?;
        ((addr.lpn as usize) < *capacity).then_some(u64::from(addr.lpn))
    }

    /// Check a write payload against the page size before anything is
    /// allocated: at most one page (shorter data is zero-padded).
    fn check_page_size(&self, data: &[u8]) -> Result<(), ClusterError> {
        let want = self.config.flash.geometry.page_bytes;
        if data.len() > want {
            return Err(FlashError::WrongPageSize { got: data.len(), want }.into());
        }
        Ok(())
    }

    /// Cluster-wide flash lifecycle accounting, aggregated over every
    /// card's FTL: host programs vs GC relocation programs (the
    /// write-amplification numerator), victim erases, relocated pages,
    /// and the widest per-card erase-count spread the wear leveler is
    /// holding down.
    pub fn gc_stats(&self) -> GcStats {
        let mut total = GcStats::default();
        for node in 0..self.node_count() {
            for card in 0..self.config.flash.cards_per_node {
                let ftl = self.ftl(NodeId::from(node), card);
                let stats = ftl.stats();
                total.host_writes += stats.host_writes;
                total.gc_writes += stats.flash_writes - stats.host_writes;
                total.erases += stats.gc_erases;
                total.relocated += stats.gc_moves;
                total.wear_spread = total.wear_spread.max(ftl.wear_spread());
            }
        }
        total
    }

    /// Per-node collection statistics: rounds/moves/erases this node's
    /// agent has executed as simulated traffic (rounds a preload applies
    /// functionally are accounted only in the FTL's policy totals).
    pub fn gc_traffic_stats(&self, node: NodeId) -> &GcTrafficStats {
        self.agent(node).gc_stats()
    }

    /// Logical page capacity of `node` across its cards: the sum of their
    /// FTLs' exported capacities.
    pub fn node_capacity_pages(&self, node: NodeId) -> u64 {
        self.capacity[node.index()].iter().map(|&c| c as u64).sum()
    }

    /// The FTL of one card — the conformance suite compares its mapping
    /// table and stats against an offline twin.
    pub fn ftl(&self, node: NodeId, card: usize) -> &Ftl {
        &self.agent(node).card(card).ftl
    }

    /// The simulated flash array of one card (the only one) — the
    /// conformance suite checks its programmed pages and erase counts
    /// against an offline twin's books.
    pub fn card_array(&self, node: NodeId, card: usize) -> &FlashArray {
        self.controller(node, card).array()
    }

    fn controller(&self, node: NodeId, card: usize) -> &FlashController {
        &self
            .sim
            .component::<CardController>(self.controllers[node.index()][card])
            .expect("controller installed")
            .model
    }

    /// The logical lifecycle ops recorded for one card, in the order its
    /// FTL stepped them (empty unless `config.gc.log`).
    pub fn lifecycle_log(&self, node: NodeId, card: usize) -> &[LifecycleOp] {
        &self.agent(node).card(card).lifecycle_log
    }

    /// The GC rounds one card's FTL decided, in op order (empty unless
    /// `config.gc.log`).
    pub fn gc_rounds_log(&self, node: NodeId, card: usize) -> &[GcRound] {
        &self.agent(node).card(card).gc_rounds_log
    }

    fn agent(&self, node: NodeId) -> &NodeAgent {
        self.sim
            .component::<NodeAgent>(self.agents[node.index()])
            .expect("agent installed")
    }

    fn agent_mut(&mut self, node: NodeId) -> &mut NodeAgent {
        self.sim
            .component_mut::<NodeAgent>(self.agents[node.index()])
            .expect("agent installed")
    }

    /// `node`, if the cluster has it.
    fn has_node(&self, node: NodeId) -> Result<(), ClusterError> {
        if node.index() < self.node_count() {
            Ok(())
        } else {
            Err(ClusterError::NoSuchNode(node))
        }
    }

    fn op_id(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    /// Preload a page without simulating the write (experiment setup:
    /// building a 100k-page dataset should not cost 100k simulated
    /// tPROGs). `data` shorter than a page is zero-padded.
    ///
    /// Preload skips simulated time but not the lifecycle: the card's
    /// FTL, reached in its node's agent, steps exactly as for a simulated
    /// write, and the step — any collection rounds it decided, then the
    /// program — is applied *functionally* to the card's array
    /// ([`bluedbm_ftl::StepOutcome::apply`]: no simulated latency), so
    /// the array holds what the FTL's books say for later simulated
    /// traffic.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchNode`] when the cluster has no `node`,
    /// [`ClusterError::Flash`] wrapping `WrongPageSize` when `data` is
    /// longer than a page (nothing is allocated), allocation failures,
    /// and flash failures.
    pub fn preload_page(
        &mut self,
        node: NodeId,
        data: &[u8],
    ) -> Result<GlobalPageAddr, ClusterError> {
        self.has_node(node)?;
        self.check_page_size(data)?;
        let addr = self.alloc_page(node)?;
        let outcome = self.agent_mut(node).step_write(addr.card, u64::from(addr.lpn));
        let page_bytes = self.config.flash.geometry.page_bytes;
        let mut page = Cow::Borrowed(data);
        if data.len() < page_bytes {
            page.to_mut().resize(page_bytes, 0);
        }
        let ctrl = self.controllers[node.index()][addr.card as usize];
        let array = self
            .sim
            .component_mut::<CardController>(ctrl)
            .expect("controller installed")
            .model
            .array_mut();
        outcome.apply(array, &page)?;
        Ok(addr)
    }

    /// Store `data` under `key` in `node`'s DRAM buffer, for
    /// [`PageOp::ReadDram`] (setup, like [`Cluster::preload_page`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchNode`] when the cluster has no `node`.
    pub fn load_dram(&mut self, node: NodeId, key: u64, data: &[u8]) -> Result<(), ClusterError> {
        self.has_node(node)?;
        self.agent_mut(node).dram.insert(key, data.to_vec());
        Ok(())
    }

    /// Submit one page operation at `node` at the current instant,
    /// **without running the simulation**, and return the op id its
    /// completion will echo; [`Cluster::drive`] runs it. An op that
    /// cannot start completes at once, with no flash command and no
    /// network message: a read of a page the cluster lacks (a node, a
    /// card, or a page past the card's logical capacity) with
    /// [`PageFault::OutOfRange`], a write longer than a page
    /// (`WrongPageSize`) or to a full node ([`ClusterError::DeviceFull`])
    /// allocating nothing, a DRAM read of a node the cluster lacks
    /// with [`ClusterError::DramMiss`], and any op submitted at a node
    /// the cluster lacks with [`ClusterError::NoSuchNode`].
    pub fn submit(&mut self, node: NodeId, op: PageOp<'_>) -> OpId {
        let op_id = self.op_id();
        if let Err(error) = self.has_node(node) {
            // No agent to complete it on: `drive` merges it in.
            let addr = match op {
                PageOp::Read { addr, .. } => Some(addr),
                PageOp::Write(_) | PageOp::ReadDram { .. } => None,
            };
            let (now, error) = (self.now(), Some(error));
            self.refused.push(Completed { op_id, node, addr, data: None, error, start: now, end: now });
            return op_id;
        }
        let started = match op {
            PageOp::Read { addr, consume } if self.lba_of(addr).is_some() => {
                Ok(AgentOp::ReadFlash { op_id, addr, consume })
            }
            PageOp::Read { addr, .. } => {
                Err((Some(addr), ClusterError::Page(addr, PageFault::OutOfRange)))
            }
            PageOp::Write(data) => match self.check_page_size(data).and_then(|()| self.alloc_page(node)) {
                Ok(addr) => {
                    // Staged in the store segment of the shard that owns
                    // the node, where its flash controller consumes (and
                    // frees) the page.
                    let page_bytes = self.config.flash.geometry.page_bytes;
                    let shard = self.partition[node.index()] as usize;
                    let data = self.sim.page_store_mut(shard).alloc_padded(data, page_bytes);
                    Ok(AgentOp::WriteFlash { op_id, addr, data })
                }
                Err(e) => Err((None, e)),
            },
            PageOp::ReadDram { home, key, consume } if home.index() < self.node_count() => {
                Ok(AgentOp::ReadRemoteDram { op_id, node: home, key, consume })
            }
            PageOp::ReadDram { home, key, .. } => Err((None, ClusterError::DramMiss { node: home, key })),
        };
        match started {
            Ok(op) => self.sim.schedule(SimTime::ZERO, self.agents[node.index()], op),
            Err((addr, error)) => {
                let now = self.now();
                self.agent_mut(node).complete(now, op_id, addr, Err(error), now);
            }
        }
        op_id
    }

    /// Run the event queues to global quiescence (across all shards) and
    /// return every completion recorded since the last drive, on every
    /// node, in op-id order — submission order, whichever node finished
    /// first.
    ///
    /// Op ids are handed out consecutively and every op submitted since
    /// the last drive has completed at quiescence, so the ids since then
    /// are dense: each completion is placed at `op_id − first id since
    /// the last drive` in a slot vector kept across drives, with no sort,
    /// and moved out once into a result of exactly the drive's size.
    pub fn drive(&mut self) -> Vec<Completed> {
        self.sim.run();
        let first = std::mem::replace(&mut self.drained, self.next_op);
        let len = (self.next_op - first) as usize;
        let mut slots = std::mem::take(&mut self.slots);
        slots.resize_with(len, || None);
        let mut place = |c: Completed| {
            let at = (c.op_id - first) as usize;
            slots[at] = Some(c);
        };
        self.refused.drain(..).for_each(&mut place);
        for node in 0..self.node_count() {
            self.agent_mut(NodeId::from(node))
                .completed
                .drain(..)
                .for_each(&mut place);
        }
        let mut done = Vec::with_capacity(len);
        done.extend(slots.drain(..).flatten());
        self.slots = slots;
        done
    }

    /// Submit `op` at `node`, drive, and return its completion: the
    /// blocking form of [`Cluster::submit`] and [`Cluster::drive`]. Ops
    /// submitted before it run too, and their completions are dropped.
    ///
    /// # Errors
    ///
    /// The op's failure (see [`Cluster::submit`]).
    pub fn run_one(&mut self, node: NodeId, op: PageOp<'_>) -> Result<Completed, ClusterError> {
        self.submit(node, op);
        // Submitted last, so last in op-id order.
        let mut one = self.drive().pop().expect("drive completes every submitted op");
        match one.error.take() {
            Some(e) => Err(e),
            None => Ok(one),
        }
    }

    /// `submit(reader, PageOp::Read { addr, consume })`, kept only
    /// because the benchmark's mesh workload (`benchmark/src/mesh.rs`)
    /// calls it, until that workload calls `submit` and `drive`.
    pub fn inject_read(&mut self, reader: NodeId, addr: GlobalPageAddr, consume: Consume) -> OpId {
        self.submit(reader, PageOp::Read { addr, consume })
    }

    /// [`Cluster::drive`], keeping each completion for
    /// [`Cluster::harvest_node`] of its submitting node; kept only for
    /// the benchmark's mesh workload, as [`Cluster::inject_read`] is.
    pub fn run_to_quiescence(&mut self) {
        for c in self.drive() {
            // An op submitted at a node the cluster lacks has no node to
            // be kept for.
            if let Some(kept) = self.undrained.get_mut(c.node.index()) {
                kept.push(c);
            }
        }
    }

    /// The completions [`Cluster::run_to_quiescence`] kept for ops
    /// submitted at `node` (none at a node the cluster lacks); kept only
    /// for the benchmark's mesh workload, as [`Cluster::inject_read`] is.
    pub fn harvest_node(&mut self, node: NodeId) -> Vec<Completed> {
        self.undrained.get_mut(node.index()).map(std::mem::take).unwrap_or_default()
    }

    /// Shortest-path hop count between two nodes, walked along the
    /// routers' shared table.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoSuchNode`] when the cluster lacks `a` or `b`.
    pub fn hops(&self, a: NodeId, b: NodeId) -> Result<u32, ClusterError> {
        self.has_node(a)?;
        self.has_node(b)?;
        // Never taken: building refuses a topology that is not connected.
        self.routing.hops(&self.topo, a, b).ok_or(ClusterError::Disconnected(b))
    }

    /// Router statistics for `node`. Borrowed straight from the
    /// component — clone at the call site if the probe must outlive
    /// further cluster mutation.
    pub fn router_stats(&self, node: NodeId) -> &RouterStats {
        self.sim
            .component::<Router<NetBody>>(self.routers[node.index()])
            .expect("router installed")
            .stats()
    }

    /// Node-agent statistics for `node` (borrowed; see
    /// [`Cluster::router_stats`]).
    pub fn agent_stats(&self, node: NodeId) -> &AgentStats {
        self.agent(node).stats()
    }

    /// Accelerator-scheduler statistics for `node` (borrowed; see
    /// [`Cluster::router_stats`]): FIFO unit grants, parked-job counts
    /// and queue waits for the node's shared acceleration units.
    pub fn sched_stats(&self, node: NodeId) -> &SchedStats {
        self.agent(node).sched_stats()
    }

    /// Controller statistics for one card of `node` (borrowed; see
    /// [`Cluster::router_stats`]).
    pub fn controller_stats(&self, node: NodeId, card: usize) -> &CtrlStats {
        self.controller(node, card).stats()
    }

    /// Shard 0's segment of the simulator-owned page store — on a
    /// one-shard cluster, the whole store (occupancy probes such as
    /// `peak_live`). Audit leaks with [`Cluster::assert_quiescent`],
    /// which covers every segment and the control-block pools too.
    pub fn page_store(&self) -> &PageStore {
        self.sim.page_store(0)
    }

    /// Store leak audit: every page and every interned control block,
    /// in every shard's segment, must have been consumed.
    ///
    /// # Panics
    ///
    /// Panics if any store segment still holds live entries.
    pub fn assert_quiescent(&self) {
        self.sim.assert_quiescent();
    }
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.node_count())
            .field("shards", &self.shard_count())
            .field("now", &self.sim.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(config: &SystemConfig, fill: u8) -> Vec<u8> {
        vec![fill; config.flash.geometry.page_bytes]
    }

    fn read(
        cluster: &mut Cluster,
        at: NodeId,
        addr: GlobalPageAddr,
        consume: Consume,
    ) -> Result<Completed, ClusterError> {
        cluster.run_one(at, PageOp::Read { addr, consume })
    }

    fn latency(c: &Completed) -> SimTime {
        c.end - c.start
    }

    #[test]
    fn local_write_then_read_round_trip() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let written = cluster.run_one(NodeId(0), PageOp::Write(&page(&config, 1))).unwrap();
        let addr = written.addr.unwrap();
        let read = read(&mut cluster, NodeId(0), addr, Consume::Isp).unwrap();
        assert_eq!(read.data, Some(page(&config, 1)));
        // Local ISP read: tR 50us + bus transfer (2 KiB page at 150 MB/s
        // is ~13.7us), no network.
        assert!(latency(&read) >= SimTime::us(50));
        assert!(latency(&read) < SimTime::us(66), "{}", latency(&read));
        // Every page handle was consumed on its way through the stack.
        cluster.assert_quiescent();
    }

    #[test]
    fn remote_read_pays_the_network_but_not_much() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(4, &config).unwrap();
        let addr = cluster.preload_page(NodeId(0), &page(&config, 7)).unwrap();
        let local = latency(&read(&mut cluster, NodeId(0), addr, Consume::Isp).unwrap());
        let remote = read(&mut cluster, NodeId(1), addr, Consume::Isp).unwrap();
        assert_eq!(remote.data, Some(page(&config, 7)));
        assert!(latency(&remote) > local);
        // One hop each way (0.48us) plus the 8KB+ page on the wire: the
        // paper's "integrated network adds ~5% to a flash access".
        let overhead = latency(&remote) - local;
        assert!(
            overhead < SimTime::us(12),
            "network overhead too large: {overhead}"
        );
    }

    #[test]
    fn host_read_adds_pcie_crossing() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let addr = cluster.preload_page(NodeId(0), &page(&config, 3)).unwrap();
        let isp = latency(&read(&mut cluster, NodeId(0), addr, Consume::Isp).unwrap());
        let host = read(&mut cluster, NodeId(0), addr, Consume::Host).unwrap();
        assert_eq!(host.data, Some(page(&config, 3)));
        let gap = latency(&host) - isp;
        // DMA setup 1us + ~1.3us transfer (2KB page at 1.6GB/s) + 2us
        // completion.
        assert!(gap > SimTime::us(3) && gap < SimTime::us(10), "{gap}");
        cluster.assert_quiescent();
    }

    #[test]
    fn remote_dram_read_works_and_is_faster_than_flash() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let data = page(&config, 9);
        cluster.load_dram(NodeId(1), 42, &data).unwrap();
        let flash_addr = cluster.preload_page(NodeId(1), &data).unwrap();
        let dram = PageOp::ReadDram { home: NodeId(1), key: 42, consume: Consume::Isp };
        let dram = cluster.run_one(NodeId(0), dram).unwrap();
        let flash = read(&mut cluster, NodeId(0), flash_addr, Consume::Isp).unwrap();
        assert_eq!(dram.data, Some(data));
        // DRAM skips the 50us tR.
        assert!(latency(&flash) > latency(&dram) + SimTime::us(40));
    }

    #[test]
    fn missing_dram_key_reports_error() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        for home in [NodeId(1), NodeId(2)] {
            let op = PageOp::ReadDram { home, key: 999, consume: Consume::Isp };
            let err = cluster.run_one(NodeId(0), op).unwrap_err();
            assert_eq!(err, ClusterError::DramMiss { node: home, key: 999 });
        }
        assert_eq!(
            ClusterError::DramMiss { node: NodeId(1), key: 999 }.to_string(),
            "no DRAM buffer entry 999 on node1"
        );
    }

    #[test]
    fn unwritten_page_read_errors() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let addr = cluster.alloc_page(NodeId(0)).unwrap();
        let err = read(&mut cluster, NodeId(0), addr, Consume::Isp).unwrap_err();
        assert_eq!(err, ClusterError::Page(addr, PageFault::NotProgrammed));
        assert_eq!(err.to_string(), "page 0 of card 0 on node0: not programmed");
    }

    #[test]
    fn allocation_spreads_across_cards_and_fills_up() {
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = bluedbm_flash::FlashGeometry::tiny();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let a = cluster.alloc_page(NodeId(0)).unwrap();
        let b = cluster.alloc_page(NodeId(0)).unwrap();
        assert_ne!(a.card, b.card, "round-robin across the two cards");
        // Logical capacity under the lifecycle: good pages minus the
        // over-provision and watermark reserve GC reclaims into.
        let total = cluster.node_capacity_pages(NodeId(0)) as usize;
        assert!(total < 2 * config.flash.geometry.total_pages());
        for _ in 2..total {
            cluster.alloc_page(NodeId(0)).unwrap();
        }
        assert!(matches!(
            cluster.alloc_page(NodeId(0)),
            Err(ClusterError::DeviceFull(_))
        ));
    }

    #[test]
    fn unusable_geometries_are_refused_with_typed_errors() {
        // More pages than the u32 page tables can index: refused before
        // anything is sized from it.
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry.blocks_per_chip = 1 << 28;
        assert!(config.flash.geometry.checked_total_pages().is_none());
        assert_eq!(
            Cluster::ring(2, &config).unwrap_err(),
            ClusterError::Flash(FlashError::GeometryTooLarge)
        );
        // One block per plane leaves nothing above the GC reserve, and
        // no blocks at all leave nothing.
        for blocks_per_chip in [1, 0] {
            let mut config = SystemConfig::scaled_down();
            config.flash.geometry.blocks_per_chip = blocks_per_chip;
            assert_eq!(
                Cluster::ring(2, &config).unwrap_err(),
                ClusterError::Ftl(Box::new(FtlError::NoSpace))
            );
        }
    }

    #[test]
    fn card_counts_past_the_8_bit_card_field_are_refused() {
        // A page address names its card in 8 bits: card 256 would alias
        // card 0, so the count is refused before anything is built.
        for cards in [0, 257] {
            let mut config = SystemConfig::scaled_down();
            config.flash.cards_per_node = cards;
            assert_eq!(
                Cluster::ring(2, &config).unwrap_err(),
                ClusterError::CardsPerNode(cards)
            );
        }
        // 256 cards fit: one page per card lands on every card once.
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = bluedbm_flash::FlashGeometry::tiny();
        config.flash.cards_per_node = 256;
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let mut cards: Vec<u8> = (0..256)
            .map(|_| cluster.alloc_page(NodeId(0)).unwrap().card)
            .collect();
        cards.sort_unstable();
        cards.dedup();
        assert_eq!(cards.len(), 256);
    }

    #[test]
    fn stream_of_remote_reads_saturates_one_lane() {
        // Paper geometry: the flash side sustains 2.4 GB/s, so the single
        // 8.2 Gbps lane (~1.0 GB/s) is the bottleneck — Figure 13's
        // ISP-2Nodes remote component.
        let config = SystemConfig::paper();
        let mut cluster = Cluster::line(2, 1, &config).unwrap();
        let page_bytes = config.flash.geometry.page_bytes;
        let mut addrs = Vec::new();
        for i in 0..600 {
            let data = vec![i as u8; page_bytes];
            addrs.push(cluster.preload_page(NodeId(1), &data).unwrap());
        }
        let t0 = cluster.now();
        for addr in addrs {
            cluster.submit(NodeId(0), PageOp::Read { addr, consume: Consume::Isp });
        }
        let done = cluster.drive();
        assert_eq!(done.len(), 600);
        let last = done.iter().map(|c| c.end).max().unwrap();
        let bytes = (600 * page_bytes) as f64;
        let rate = bytes / (last - t0).as_secs_f64();
        assert!(
            rate > 0.90e9 && rate < 1.06e9,
            "one-lane remote stream: {rate:.3e} B/s"
        );
        cluster.assert_quiescent();
    }

    #[test]
    fn default_partition_minimizes_cut_and_widens_lookaheads() {
        let mut config = SystemConfig::scaled_down();
        config.sim.shards = 4;
        let topo = || Topology::mesh2d(8, 8);
        let cluster = Cluster::new(topo(), &config).unwrap();
        assert_eq!(cluster.shard_count(), 4);
        // The min-cut partition beats the old row-band split on a mesh
        // (quadrants cut 2 seams of 8; 4 bands cut 3).
        let per = 64 / 4;
        let band: Vec<u32> = (0..64).map(|i| (i / per) as u32).collect();
        let t = topo();
        assert!(t.cut_cables(cluster.partition()) < t.cut_cables(&band));
        // Adjacent shard pairs synchronize on one hop; diagonal pairs
        // (two hops apart) get a strictly wider window.
        let hop = config.net.hop_latency;
        let min = cluster.min_lookahead().unwrap();
        assert_eq!(min, hop);
        let mut widest = SimTime::ZERO;
        for s in 0..4 {
            for r in 0..4 {
                if s == r {
                    continue;
                }
                let l = cluster.lookahead_between(s, r).unwrap();
                assert!(l >= min, "pair ({s},{r}) below the global bound");
                widest = widest.max(l);
            }
        }
        assert_eq!(widest, hop * 2, "quadrant diagonals are two hops apart");
    }

    #[test]
    fn one_shard_cluster_has_no_window() {
        // One shard is the sequential kernel: no window, no exchange,
        // and the one store segment is the whole store.
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::with_partition(Topology::ring(3, 4), &config, &[0; 3]).unwrap();
        assert_eq!(cluster.shard_count(), 1);
        assert_eq!(cluster.min_lookahead(), None);
        assert_eq!(cluster.lookahead_between(0, 0), None);
        let written = cluster.run_one(NodeId(1), PageOp::Write(&page(&config, 5))).unwrap();
        read(&mut cluster, NodeId(0), written.addr.unwrap(), Consume::Host).unwrap();
        assert_eq!(cluster.sync_rounds(), None);
        assert_eq!(cluster.exec_mode(), None);
        assert_eq!(cluster.shard_stats(), None);
        assert_eq!(cluster.wall_profiles(), None);
        assert!(cluster.page_store().peak_live() > 0);
        assert_eq!(
            cluster.metrics().get("engine/mode"),
            Some(&bluedbm_trace::MetricValue::from("seq"))
        );
        cluster.assert_quiescent();
    }

    fn partition_error(map: &[u32]) -> PartitionError {
        let config = SystemConfig::scaled_down();
        match Cluster::with_partition(Topology::ring(4, 1), &config, map) {
            Err(ClusterError::InvalidPartition(e)) => e,
            Err(other) => panic!("{map:?}: wrong error {other}"),
            Ok(_) => panic!("{map:?}: accepted"),
        }
    }

    #[test]
    fn partition_of_the_wrong_length_is_an_error() {
        assert_eq!(
            partition_error(&[0, 1, 0]),
            PartitionError::Length { nodes: 4, entries: 3 }
        );
    }

    #[test]
    fn partition_with_a_shard_id_past_the_node_count_is_an_error() {
        // Nothing may be sized by this id: 70 001 simulators and a
        // 70 001² lookahead matrix do not fit in memory.
        assert_eq!(
            partition_error(&[0, 0, 0, 70_000]),
            PartitionError::ShardOutOfRange { shard: 70_000, nodes: 4 }
        );
    }

    #[test]
    fn partition_with_an_empty_shard_is_an_error() {
        // Shard 1 would get a worker with nothing to run but the
        // frontier relay.
        assert_eq!(partition_error(&[0, 2, 2, 0]), PartitionError::EmptyShard(1));
        assert_eq!(
            ClusterError::InvalidPartition(PartitionError::EmptyShard(1)).to_string(),
            "invalid partition: shard ids must be dense from 0, but shard 1 owns no node"
        );
    }

    #[test]
    fn disconnected_topology_is_an_error() {
        let config = SystemConfig::scaled_down();
        let topo = Topology::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        match Cluster::new(topo, &config) {
            Err(e) => {
                assert_eq!(e, ClusterError::Disconnected(NodeId(2)));
                assert_eq!(e.to_string(), "topology is disconnected: no route to node2");
            }
            Ok(_) => panic!("a split topology was accepted"),
        }
    }

    #[test]
    fn zero_accelerator_units_are_refused() {
        let mut config = SystemConfig::scaled_down();
        config.accel.units = 0;
        let err = Cluster::ring(2, &config).unwrap_err();
        assert_eq!(err, ClusterError::NoAccelUnits);
        assert_eq!(err.to_string(), "a node needs at least one accelerator unit");
    }

    #[test]
    fn zero_read_buffers_are_refused() {
        let mut config = SystemConfig::scaled_down();
        config.host.read_buffers = 0;
        let err = Cluster::ring(1, &config).unwrap_err();
        assert_eq!(err, ClusterError::NoReadBuffers);
        assert_eq!(err.to_string(), "a node needs at least one host read buffer");
    }

    #[test]
    fn zero_lane_credits_are_refused_where_there_is_a_cable() {
        let mut config = SystemConfig::scaled_down();
        config.net.credits_per_lane = 0;
        let err = Cluster::ring(2, &config).unwrap_err();
        assert_eq!(err, ClusterError::NoLaneCredits);
        assert_eq!(err.to_string(), "a cabled lane needs at least one credit");
        // One node has no lane to send on.
        let mut one = Cluster::ring(1, &config).unwrap();
        one.run_one(NodeId(0), PageOp::Write(&page(&config, 1))).unwrap();
    }

    #[test]
    fn zero_hop_latency_is_refused_on_more_than_one_shard() {
        let mut config = SystemConfig::scaled_down();
        config.net.hop_latency = SimTime::ZERO;
        let err = Cluster::with_partition(Topology::ring(4, 1), &config, &[0, 0, 1, 1]).unwrap_err();
        assert_eq!(err, ClusterError::NoHopLatency);
        assert_eq!(err.to_string(), "more than one shard needs a positive hop latency");
        // One shard needs no lookahead.
        let mut one = Cluster::with_partition(Topology::ring(4, 1), &config, &[0; 4]).unwrap();
        let written = one.run_one(NodeId(0), PageOp::Write(&page(&config, 2))).unwrap();
        read(&mut one, NodeId(3), written.addr.unwrap(), Consume::Isp).unwrap();
    }

    #[test]
    fn a_node_the_cluster_lacks_is_a_typed_error() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let (lost, data) = (NodeId(9), page(&config, 4));
        let err = ClusterError::NoSuchNode(lost);
        assert_eq!(err.to_string(), "the cluster has no node9");
        assert_eq!(cluster.preload_page(lost, &data), Err(err.clone()));
        assert_eq!(cluster.load_dram(lost, 1, &data), Err(err.clone()));
        assert_eq!(cluster.hops(lost, NodeId(0)), Err(err.clone()));
        assert_eq!(cluster.hops(NodeId(0), lost), Err(err.clone()));
        assert_eq!(cluster.hops(NodeId(1), NodeId(0)), Ok(1));
        let addr = cluster.preload_page(NodeId(0), &data).unwrap();
        let ops = [
            PageOp::Write(&data),
            PageOp::Read { addr, consume: Consume::Host },
            PageOp::ReadDram { home: NodeId(1), key: 1, consume: Consume::Isp },
        ];
        // Submitted between two reads that run, and returned in op-id
        // order among them.
        let before = cluster.submit(NodeId(1), PageOp::Read { addr, consume: Consume::Isp });
        let refused: Vec<OpId> = ops.iter().map(|&op| cluster.submit(lost, op)).collect();
        let after = cluster.submit(NodeId(0), PageOp::Read { addr, consume: Consume::Isp });
        let at = cluster.now();
        let done = cluster.drive();
        let ids: Vec<OpId> = done.iter().map(|c| c.op_id).collect();
        assert_eq!(ids, [vec![before], refused.clone(), vec![after]].concat());
        for (c, want) in done[1..4].iter().zip([None, Some(addr), None]) {
            assert_eq!((c.node, c.addr, c.error.clone()), (lost, want, Some(err.clone())));
            assert_eq!((c.data.clone(), c.start, c.end), (None, at, at));
        }
        assert!(done[0].error.is_none() && done[4].error.is_none());
        assert_eq!(cluster.run_one(lost, PageOp::Write(&data)).unwrap_err(), err);
        assert_eq!(cluster.flash_pages_in_use(), 1);
        cluster.assert_quiescent();
    }

    #[test]
    fn drive_places_each_completion_by_its_op_id() {
        // A remote read outlasts a local one submitted after it, and a
        // refused op completes at once; each drive still returns only
        // the ops submitted since the last, in op-id order.
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(4, &config).unwrap();
        let data = page(&config, 3);
        let addr = cluster.preload_page(NodeId(0), &data).unwrap();
        let read = PageOp::Read { addr, consume: Consume::Isp };
        let ids = |done: &[Completed]| done.iter().map(|c| c.op_id).collect::<Vec<_>>();
        let first = [cluster.submit(NodeId(1), read), cluster.submit(NodeId(0), read)];
        assert_eq!(ids(&cluster.drive()), first);
        let remote = cluster.submit(NodeId(2), read);
        let refused = cluster.submit(NodeId(9), read);
        let local = cluster.submit(NodeId(0), read);
        let done = cluster.drive();
        assert_eq!(ids(&done), [remote, refused, local]);
        assert!(done[2].end < done[0].end, "the local read finishes first");
        assert_eq!(done[1].error, Some(ClusterError::NoSuchNode(NodeId(9))));
        assert_eq!((done[0].data.as_ref(), done[2].data.as_ref()), (Some(&data), Some(&data)));
        assert!(cluster.drive().is_empty());
        let one = cluster.run_one(NodeId(3), read).unwrap();
        assert_eq!((one.op_id, one.node, one.data), (local + 1, NodeId(3), Some(data)));
        cluster.assert_quiescent();
    }

    #[test]
    fn empty_topology_is_an_error() {
        for shards in [1, 4] {
            let mut config = SystemConfig::scaled_down();
            config.sim.shards = shards;
            let topo = || Topology::from_edges(0, &[]);
            assert_eq!(Cluster::new(topo(), &config).unwrap_err(), ClusterError::NoNodes);
            assert_eq!(
                Cluster::with_partition(topo(), &config, &[]).unwrap_err(),
                ClusterError::NoNodes
            );
        }
        assert_eq!(ClusterError::NoNodes.to_string(), "the topology has no nodes");
    }

    #[test]
    fn rings_and_lines_of_too_few_nodes_or_lanes_are_typed() {
        let config = SystemConfig::scaled_down();
        assert_eq!(Cluster::ring(0, &config).unwrap_err(), ClusterError::NoNodes);
        let one = Cluster::ring(1, &config).unwrap();
        assert_eq!(one.node_count(), 1);
        // No lane at all, and 5 lanes each way on the middle node of a
        // line need 10 of its 8 ports.
        for lanes in [0, 5] {
            assert_eq!(Cluster::line(3, lanes, &config).unwrap_err(), ClusterError::Lanes(lanes));
        }
    }

    #[test]
    fn host_stream_respects_the_read_buffer_pool() {
        use crate::node::NodeAgent;

        // Shrink the host interface to 4 read buffers so a 32-page burst
        // must recycle them: pages beyond the pool park until a PCIe
        // completion returns a buffer (paper Section 3.3's free-queue
        // discipline on the read side).
        let mut config = SystemConfig::scaled_down();
        config.host.read_buffers = 4;
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let addrs: Vec<GlobalPageAddr> = (0..32)
            .map(|i| cluster.preload_page(NodeId(0), &page(&config, i as u8)).unwrap())
            .collect();
        for addr in addrs {
            cluster.submit(NodeId(0), PageOp::Read { addr, consume: Consume::Host });
        }
        let done = cluster.drive();
        assert_eq!(done.len(), 32, "every parked page eventually crosses PCIe");
        assert!(done.iter().all(|c| c.error.is_none()));
        let agent = cluster.agents[0];
        let pool = cluster
            .sim
            .component::<NodeAgent>(agent)
            .expect("agent installed")
            .host_buffers();
        assert_eq!(pool.peak_in_use(), 4, "the burst saturates the pool");
        assert!(pool.exhaustions() > 0, "flash outruns 4 buffers");
        assert_eq!(pool.in_use(), 0, "all buffers returned");
        cluster.assert_quiescent();
    }

    /// A two-node ring on the 512-byte-page tiny geometry.
    fn tiny_cluster() -> Cluster {
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = bluedbm_flash::FlashGeometry::tiny();
        Cluster::ring(2, &config).unwrap()
    }

    /// Nothing allocated, logged or mapped anywhere on the cluster.
    fn assert_untouched(cluster: &Cluster) {
        assert_eq!(cluster.flash_pages_in_use(), 0);
        assert_eq!(cluster.gc_stats().host_writes, 0);
        assert_eq!(cluster.ftl(NodeId(0), 0).physical_of(0), None);
    }

    #[test]
    fn preload_pads_short_pages_and_refuses_long_ones_untouched() {
        let mut cluster = tiny_cluster();
        let err = cluster.preload_page(NodeId(0), &[7; 513]).unwrap_err();
        assert_eq!(err, ClusterError::Flash(FlashError::WrongPageSize { got: 513, want: 512 }));
        assert_untouched(&cluster);
        let addr = cluster.preload_page(NodeId(0), &[1, 2, 3]).unwrap();
        let data = read(&mut cluster, NodeId(0), addr, Consume::Isp).unwrap().data.unwrap();
        assert_eq!(data[..3], [1, 2, 3]);
        assert!(data[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn a_write_longer_than_a_page_is_refused_untouched() {
        let mut cluster = tiny_cluster();
        let events = cluster.events_delivered();
        let op = cluster.submit(NodeId(0), PageOp::Write(&[0; 4096]));
        assert_untouched(&cluster);
        let done = cluster.drive();
        assert_eq!(done.len(), 1);
        let want = ClusterError::Flash(FlashError::WrongPageSize { got: 4096, want: 512 });
        assert_eq!((done[0].op_id, done[0].addr, done[0].error.clone()), (op, None, Some(want)));
        assert_eq!(cluster.events_delivered(), events);
        assert_untouched(&cluster);
        cluster.assert_quiescent();
    }

    #[test]
    fn address_outside_the_geometry_reads_out_of_range() {
        let mut cluster = tiny_cluster();
        let geom = cluster.config().flash.geometry;
        let addrs: Vec<GlobalPageAddr> = (0..40u8)
            .map(|i| cluster.preload_page(NodeId(0), &[i; 512]).unwrap())
            .collect();
        // The first page past card 0's logical capacity is still inside
        // the geometry (the capacity leaves out the GC reserve); a page
        // past the geometry, a card or a node the two-node, two-card
        // cluster lacks must not index past its tables either.
        let capacity = cluster.ftl(NodeId(0), 0).capacity_pages() as u32;
        assert!((capacity as usize) < geom.total_pages());
        let outside = [
            GlobalPageAddr { lpn: capacity, ..addrs[0] },
            GlobalPageAddr { lpn: geom.total_pages() as u32, ..addrs[0] },
            GlobalPageAddr { card: 7, ..addrs[0] },
            GlobalPageAddr { node: NodeId(5), ..addrs[0] },
        ];
        for addr in outside {
            let out_of_range = ClusterError::Page(addr, PageFault::OutOfRange);
            for reader in [NodeId(0), NodeId(1)] {
                let reads = cluster.card_array(NodeId(0), 0).stats().reads;
                let (injected, at) = (cluster.router_stats(reader).injected, cluster.now());
                let op = cluster.submit(reader, PageOp::Read { addr, consume: Consume::Isp });
                let done = cluster.drive();
                assert_eq!(done.len(), 1);
                let c = &done[0];
                let want = (op, Some(out_of_range.clone()), at, at);
                assert_eq!((c.op_id, c.error.clone(), c.start, c.end), want, "{addr:?} read at {reader}");
                assert_eq!(cluster.card_array(NodeId(0), 0).stats().reads, reads);
                assert_eq!(cluster.router_stats(reader).injected, injected);
            }
            // A free refuses it the same way, and changes nothing.
            assert_eq!(cluster.free_page(addr), Err(out_of_range));
            assert_eq!(cluster.flash_pages_in_use(), 40);
        }
        cluster.assert_quiescent();
    }

    #[test]
    fn freeing_an_address_outside_the_geometry_is_an_error() {
        let mut cluster = tiny_cluster();
        let addr = cluster.alloc_page(NodeId(0)).unwrap();
        let outside = GlobalPageAddr { lpn: u32::MAX, ..addr };
        let err = cluster.free_page(outside).unwrap_err();
        assert_eq!(err, ClusterError::Page(outside, PageFault::OutOfRange));
        assert_eq!(cluster.flash_pages_in_use(), 1);
        assert_eq!(cluster.ftl(NodeId(0), 0).stats().trims, 0);
        // The page that was allocated still is, and is the one freed.
        cluster.free_page(addr).unwrap();
        assert_eq!(cluster.alloc_page(NodeId(0)).unwrap(), addr);
    }

    #[test]
    fn freed_page_read_fails_without_flash_or_network() {
        let mut cluster = tiny_cluster();
        let geom = cluster.config().flash.geometry;
        let addrs: Vec<GlobalPageAddr> = (0..10u8)
            .map(|i| cluster.preload_page(NodeId(0), &[i; 512]).unwrap())
            .collect();
        // Allocation alternates the two cards, and each card's writes
        // go round-robin over its four planes: the third preload is
        // card 0's logical page 1, and its fifth logical page (the ninth
        // preload) sits in linear page 1, the cell whose index is the
        // freed page's number.
        let freed = addrs[2];
        assert_eq!((freed.card, freed.lpn), (0, 1));
        assert_eq!((addrs[8].card, addrs[8].lpn), (0, 4));
        assert_eq!(cluster.ftl(NodeId(0), 0).physical_of(4), Some(geom.ppa_of(1)));
        cluster.free_page(freed).unwrap();
        let mut errors = Vec::new();
        for reader in [NodeId(0), NodeId(1)] {
            let flash_reads = cluster.card_array(NodeId(0), 0).stats().reads;
            let injected = cluster.router_stats(reader).injected;
            let at = cluster.now();
            let op = cluster.submit(reader, PageOp::Read { addr: freed, consume: Consume::Host });
            let done = cluster.drive();
            assert_eq!(done.len(), 1);
            let c = &done[0];
            assert_eq!((c.op_id, c.node, c.data.is_none()), (op, reader, true));
            errors.push(c.error.clone());
            assert_eq!(cluster.card_array(NodeId(0), 0).stats().reads, flash_reads);
            if reader == NodeId(0) {
                assert_eq!((c.start, c.end), (at, at), "completes at the injection instant");
                assert_eq!(cluster.router_stats(reader).injected, injected);
            } else {
                // Only the home node knows the mapping: the request
                // crosses the network, and the answer comes back.
                assert_eq!(cluster.router_stats(reader).injected, injected + 1);
            }
        }
        // The local and the remote read name the same page the same way.
        let not_programmed = ClusterError::Page(freed, PageFault::NotProgrammed);
        assert_eq!(errors, [Some(not_programmed.clone()), Some(not_programmed)]);
        let read = read(&mut cluster, NodeId(1), addrs[8], Consume::Isp).unwrap();
        assert_eq!(read.data, Some(vec![8; 512]));
        cluster.assert_quiescent();
    }
}
