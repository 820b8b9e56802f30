//! The cluster facade: build a DES world of N BlueDBM nodes and drive it
//! with synchronous-feeling operations.
//!
//! A [`Cluster`] owns the simulator, the per-node flash stacks
//! (controller + splitter per card), the node agents, the PCIe links and
//! the integrated network. Experiment drivers inject operations, the
//! cluster runs the event queue to quiescence, and completions come back
//! with simulated timestamps.
//!
//! One engine runs every cluster: a [`ShardedSimulator`] over the node →
//! shard map. One shard (`config.sim.shards = 1`, the default) is the
//! sequential kernel, unsplit; more shards run the conservative-parallel
//! protocol, deterministic and observably identical (same statistics,
//! same event counts, same store quiescence) — the shard count is a
//! wall-clock decision, never a modelling one.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bluedbm_flash::array::{ErrorModel, FlashArray};
use bluedbm_flash::controller::{CtrlStats, FlashController};
use bluedbm_flash::error::FlashError;
use bluedbm_flash::splitter::FlashSplitter;
use bluedbm_ftl::{Ftl, FtlError, GcRound};
use bluedbm_host::pcie::PcieLink;
use bluedbm_net::router::{build_network_routed, Router, RouterStats};
use bluedbm_net::routing::RoutingTable;
use bluedbm_net::topology::{NodeId, PortId, Topology};
use bluedbm_sim::engine::{ComponentId, Simulator};
use bluedbm_sim::shard::{ExecMode, ShardStats, ShardedSimulator};
use bluedbm_sim::time::SimTime;
use bluedbm_sim::{MetricsDoc, MetricsRegistry, PageStore, TracePart, WallLaneProfile};

use crate::config::SystemConfig;
use crate::gc::{GcAgent, GcAgentStats, GcKick, GcStats, LifecycleOp};
use crate::msg::{Msg, NetBody};
use crate::node::{AgentOp, AgentStats, Completed, Consume, NodeAgent, DATA_ENDPOINTS, REQUEST_ENDPOINT};
use crate::scheduler::{AccelSched, SchedStats};

pub use crate::node::GlobalPageAddr;

/// The conservative lookahead of a partition: the minimum latency of any
/// cable whose endpoints live in different shards. Every link shares one
/// hop latency today; written as a min-fold so per-link latencies stay
/// easy to introduce. The sharded engine runs on the finer per-pair
/// bound ([`cross_shard_lookaheads`]); this global bound survives as its
/// floor — a probe and a debug invariant.
fn cross_shard_lookahead(topo: &Topology, partition: &[u32], hop_latency: SimTime) -> SimTime {
    let mut lookahead: Option<SimTime> = None;
    for node in 0..topo.node_count() {
        for port in 0..Topology::MAX_PORTS {
            let Some((peer, _)) = topo.peer(NodeId::from(node), PortId(port as u8)) else {
                continue;
            };
            if partition[node] != partition[peer.index()] {
                lookahead = Some(lookahead.map_or(hop_latency, |l| l.min(hop_latency)));
            }
        }
    }
    // No cross-shard cable: the only cross-shard traffic left is the
    // direct end-to-end ack, which also pays >= one hop of latency.
    lookahead.unwrap_or(hop_latency)
}

/// The per-pair lookahead matrix of a partition: entry `[s][r]` is
/// `hop_latency x` the minimum hop distance between any node of shard
/// `s` and any node of shard `r`. Sound because every cross-node message
/// — cable transmit, credit return, end-to-end ack — pays at least one
/// hop of latency per hop of distance, so a message from shard `s` into
/// shard `r` takes at least that long. Mutually unreachable shard pairs
/// (possible on disconnected topologies) exchange no traffic at all;
/// they get a generous `hop_latency x node count` bound.
fn cross_shard_lookaheads(
    topo: &Topology,
    partition: &[u32],
    shards: usize,
    hop_latency: SimTime,
) -> Vec<Vec<SimTime>> {
    let unreachable = hop_latency * topo.node_count() as u64;
    topo.shard_distances(partition, shards)
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|d| {
                    if d == u32::MAX {
                        unreachable
                    } else {
                        hop_latency * u64::from(d)
                    }
                })
                .collect()
        })
        .collect()
}

/// Errors surfaced by the cluster facade.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// An underlying flash operation failed.
    Flash(FlashError),
    /// The configured geometry cannot back a card's mirror FTL (too
    /// large for its tables, or too small for the GC reserve). Boxed:
    /// construction-time only, and `ClusterError` rides in every
    /// completion.
    Ftl(Box<FtlError>),
    /// A node's flash cards are fully allocated.
    DeviceFull(NodeId),
    /// The node → shard map given to [`Cluster::with_partition`] cannot
    /// be built.
    InvalidPartition(PartitionError),
    /// The simulation quiesced without producing the expected completion
    /// (a wiring bug, surfaced as an error for debuggability).
    MissingCompletion,
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
            ClusterError::Ftl(e) => write!(f, "mirror FTL rejected the geometry: {e}"),
            ClusterError::DeviceFull(n) => write!(f, "no free pages left on {n}"),
            ClusterError::InvalidPartition(e) => write!(f, "invalid partition: {e}"),
            ClusterError::MissingCompletion => write!(f, "operation produced no completion"),
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

/// A completed single read with its simulated latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedRead {
    /// Page contents.
    pub data: Vec<u8>,
    /// Operation latency (accept to data-at-destination).
    pub latency: SimTime,
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
    pcie: Vec<ComponentId>,
    controllers: Vec<Vec<ComponentId>>,
    /// Per-node accelerator scheduler (paper Section 4).
    scheds: Vec<ComponentId>,
    /// Per-node GC agent executing lifecycle rounds as simulated
    /// traffic.
    gc_agents: Vec<ComponentId>,
    /// Per-(node, card) mirror FTL making the GC / wear-leveling
    /// decisions the agents execute (empty when `config.gc.enabled` is
    /// off). Addresses handed to drivers encode *logical* pages; the
    /// mirror's mapping table translates them at injection time.
    mirrors: Vec<Vec<Ftl>>,
    /// Per-(node, card) logical op log (populated under
    /// `config.gc.log`) — the conformance suite's replay input.
    lifecycle_log: Vec<Vec<Vec<LifecycleOp>>>,
    /// Per-(node, card) mirror-decided GC rounds in op order (populated
    /// under `config.gc.log`) — the conformance suite's expected victim
    /// and relocation sequence.
    gc_rounds_log: Vec<Vec<Vec<GcRound>>>,
    /// Node -> shard map (all zeros on one shard).
    partition: Vec<u32>,
    /// Next unallocated linear page per (node, card).
    bump: Vec<Vec<usize>>,
    /// Trimmed pages available for reallocation, per node (LIFO — the
    /// most recently freed page is reused first, keeping the touched
    /// footprint compact).
    free: Vec<Vec<GlobalPageAddr>>,
    /// Flash pages allocated and not yet freed, cluster-wide — the KV
    /// layer's stranded-extent audit baseline.
    pages_in_use: u64,
    next_op: u64,
}

impl Cluster {
    /// Build a cluster over an explicit topology.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Flash`] wrapping `GeometryTooLarge` when the flash
    /// geometry has more pages than a card's `u32` tables can index, and
    /// [`ClusterError::Ftl`] when the lifecycle is enabled and the
    /// geometry leaves no room for its GC reserve.
    pub fn new(topo: Topology, config: &SystemConfig) -> Result<Self, ClusterError> {
        let shards = config.sim.shards.clamp(1, topo.node_count());
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
    /// controllers, splitters, PCIe link, agent — is pinned to the
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
        let shards = checked_shard_count(partition, topo.node_count())
            .map_err(ClusterError::InvalidPartition)?;
        let card_array = |node: usize, card: usize| {
            FlashArray::with_error_model(
                config.flash.geometry,
                ((0xB1DE + (node as u64)) << 8) | card as u64,
                ErrorModel::none(),
            )
        };
        let mut sim = Simulator::new();
        let routing = Arc::new(RoutingTable::compute(&topo));
        let routers = build_network_routed(&mut sim, &topo, config.net, Arc::clone(&routing));
        let n = topo.node_count();
        let mut agents = Vec::with_capacity(n);
        let mut pcie = Vec::with_capacity(n);
        let mut scheds = Vec::with_capacity(n);
        let mut controllers = Vec::with_capacity(n);
        let mut splitters = Vec::with_capacity(n);
        let mut gc_agents = Vec::with_capacity(n);
        let mut mirrors = Vec::with_capacity(if config.gc.enabled { n } else { 0 });
        for (node, &node_router) in routers.iter().enumerate() {
            let mut node_ctrls = Vec::new();
            let mut node_splitters = Vec::new();
            for card in 0..config.flash.cards_per_node {
                let ctrl = sim.add_component(FlashController::new(
                    card_array(node, card)?,
                    config.flash.timing,
                ));
                let split = sim.add_component(FlashSplitter::new(
                    ctrl,
                    FlashController::PAPER_TAGS,
                ));
                node_ctrls.push(ctrl);
                node_splitters.push(split);
            }
            let gc_agent = sim.add_component(GcAgent::new(
                node as u32,
                node_splitters.clone(),
                config.flash.geometry,
            ));
            gc_agents.push(gc_agent);
            if config.gc.enabled {
                let mut node_mirrors = Vec::with_capacity(config.flash.cards_per_node);
                for card in 0..config.flash.cards_per_node {
                    // The shadow array is seeded like the card's real
                    // array: under today's error-free factory model both
                    // start blank with identical good-block sets, so the
                    // mirror's physical decisions are valid verbatim on
                    // the simulated card.
                    node_mirrors.push(Ftl::new(card_array(node, card)?, config.gc.ftl())?);
                }
                mirrors.push(node_mirrors);
            }
            let link = sim.add_component(PcieLink::new(config.pcie));
            let sched = sim
                .add_component(AccelSched::new(config.accel.units).with_node(node as u32));
            let agent = sim.add_component(NodeAgent::new(
                NodeId::from(node),
                node_router,
                link,
                node_splitters.clone(),
                config.flash.geometry.page_bytes,
                config.host.dram_latency,
                config.host.read_buffers,
                sched,
                config.accel.bandwidth,
            ));
            let router = sim
                .component_mut::<Router<NetBody>>(node_router)
                .expect("router installed");
            router.register_endpoint(REQUEST_ENDPOINT, agent);
            for ep in 1..=DATA_ENDPOINTS {
                router.register_endpoint(ep, agent);
            }
            agents.push(agent);
            pcie.push(link);
            scheds.push(sched);
            controllers.push(node_ctrls);
            splitters.push(node_splitters);
        }
        let mut owner = vec![u32::MAX; sim.component_count()];
        for node in 0..n {
            let shard = partition[node];
            owner[routers[node].index()] = shard;
            owner[agents[node].index()] = shard;
            owner[pcie[node].index()] = shard;
            owner[scheds[node].index()] = shard;
            owner[gc_agents[node].index()] = shard;
            for c in controllers[node].iter().chain(&splitters[node]) {
                owner[c.index()] = shard;
            }
        }
        let lookaheads = cross_shard_lookaheads(&topo, partition, shards, config.net.hop_latency);
        // The pair matrix can only widen the global single-link bound,
        // never undercut it.
        debug_assert!(lookaheads.iter().enumerate().all(|(s, row)| {
            row.iter().enumerate().all(|(r, &l)| {
                s == r || l >= cross_shard_lookahead(&topo, partition, config.net.hop_latency)
            })
        }));
        let mut sim = ShardedSimulator::with_lookaheads(sim, owner, shards, lookaheads);
        sim.set_exec_mode(config.sim.exec);
        sim.set_trace(config.sim.trace);
        Ok(Cluster {
            sim,
            config: *config,
            bump: vec![vec![0; config.flash.cards_per_node]; n],
            free: vec![Vec::new(); n],
            pages_in_use: 0,
            topo,
            routing,
            routers,
            agents,
            pcie,
            scheds,
            gc_agents,
            mirrors,
            lifecycle_log: vec![vec![Vec::new(); config.flash.cards_per_node]; n],
            gc_rounds_log: vec![vec![Vec::new(); config.flash.cards_per_node]; n],
            controllers,
            partition: partition.to_vec(),
            next_op: 0,
        })
    }

    /// A ring of `n` nodes with enough lanes to mirror the paper's
    /// cabling (4 each way for n > 2).
    ///
    /// # Errors
    ///
    /// As for [`Cluster::new`].
    pub fn ring(n: usize, config: &SystemConfig) -> Result<Self, ClusterError> {
        let lanes = 4;
        Self::new(Topology::ring(n, lanes), config)
    }

    /// A line of `n` nodes with `lanes` parallel cables per hop.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::new`].
    pub fn line(n: usize, lanes: usize, config: &SystemConfig) -> Result<Self, ClusterError> {
        Self::new(Topology::line(n, lanes), config)
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
    pub fn exec_mode(&self) -> Option<ExecMode> {
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
    /// off). Taking resets the sinks, so back-to-back harvests see
    /// disjoint records; merge parts with [`bluedbm_sim::TraceDoc::merge`].
    pub fn take_trace(&mut self) -> Vec<TracePart> {
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
    /// per-shard wait lanes, opt-in wall profiles), a `gc`
    /// scope (lifecycle counters and write amplification, when the
    /// lifecycle is enabled) and a `nodes` scope with per-node router /
    /// agent / scheduler / GC-agent / host-buffer / flash-card
    /// subtrees.
    pub fn fill_metrics(&self, reg: &mut MetricsRegistry) {
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
        if self.config.gc.enabled {
            self.gc_stats().fill_metrics(reg.scope("gc"));
        }
        let nodes = reg.scope("nodes");
        for node in 0..self.node_count() {
            let id = NodeId::from(node);
            let scope = nodes.child(&format!("node{node}"));
            self.router_stats(id).fill_metrics(scope.child("router"));
            self.agent_stats(id).fill_metrics(scope.child("agent"));
            self.sched_stats(id).fill_metrics(scope.child("sched"));
            if self.config.gc.enabled {
                self.gc_agent_stats(id).fill_metrics(scope.child("gc_agent"));
            }
            self.sim
                .component::<NodeAgent>(self.agents[node])
                .expect("agent installed")
                .host_buffers()
                .fill_metrics(scope.child("host_buffers"));
            for card in 0..self.config.flash.cards_per_node {
                self.controller_stats(id, card)
                    .fill_metrics(scope.child(&format!("card{card}")));
            }
        }
    }

    /// A fresh [`MetricsDoc`] snapshot of [`Cluster::fill_metrics`] —
    /// the mid-run observability entry point (JSON via
    /// [`MetricsDoc::to_json_pretty`]).
    pub fn metrics(&self) -> MetricsDoc {
        let mut reg = MetricsRegistry::new();
        self.fill_metrics(&mut reg);
        reg.snapshot()
    }

    /// Allocate the next free page on `node`: a previously
    /// [`Cluster::free_page`]d page if one is available (most recently
    /// freed first), otherwise the bump allocator's next page —
    /// round-robin across cards, and striped across every bus and chip
    /// within a card so sequential allocations exploit the device's full
    /// parallelism (the same discipline the FTL uses).
    ///
    /// With the flash lifecycle live (`config.gc.enabled`, the default)
    /// the address returned encodes a **logical** page: the mirror FTL
    /// picks the physical cell at write time and may move it later
    /// during collection, and every injection path translates through
    /// the mapping table. Capacity is then the FTL's exported logical
    /// capacity (good pages minus over-provision and watermark reserve),
    /// not the raw cell count — the slack is what GC reclaims into.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DeviceFull`] when every card is exhausted.
    pub fn alloc_page(&mut self, node: NodeId) -> Result<GlobalPageAddr, ClusterError> {
        if let Some(addr) = self.free[node.index()].pop() {
            self.pages_in_use += 1;
            return Ok(addr);
        }
        let geom = self.config.flash.geometry;
        if self.config.gc.enabled {
            let mirrors = &self.mirrors[node.index()];
            let cards = &mut self.bump[node.index()];
            let card = (0..cards.len())
                .filter(|&c| cards[c] < mirrors[c].capacity_pages() as usize)
                .min_by_key(|&c| cards[c])
                .ok_or(ClusterError::DeviceFull(node))?;
            let lba = cards[card];
            cards[card] += 1;
            self.pages_in_use += 1;
            return Ok(GlobalPageAddr {
                node,
                card: card as u8,
                ppa: geom.ppa_of(lba),
            });
        }
        let cards = &mut self.bump[node.index()];
        let card = (0..cards.len())
            .min_by_key(|&c| cards[c])
            .filter(|&c| cards[c] < geom.total_pages())
            .ok_or(ClusterError::DeviceFull(node))?;
        let i = cards[card];
        cards[card] += 1;
        // Chip-interleaved layout: consecutive allocations land on
        // consecutive (bus, chip) planes.
        let chips = geom.total_chips();
        let plane = i % chips;
        let within = i / chips;
        let ppa = bluedbm_flash::Ppa::new(
            (plane / geom.chips_per_bus) as u16,
            (plane % geom.chips_per_bus) as u16,
            (within / geom.pages_per_block) as u32,
            (within % geom.pages_per_block) as u32,
        );
        self.pages_in_use += 1;
        Ok(GlobalPageAddr {
            node,
            card: card as u8,
            ppa,
        })
    }

    /// Return an allocated page to `addr.node`'s free pool: the page is
    /// trimmed (its data invalidated and the cell reprogrammable — see
    /// [`bluedbm_flash::array::FlashArray::trim`]) and becomes the next
    /// allocation candidate on that node. The caller must own the page
    /// (allocated and not already freed) and must not have reads in
    /// flight against it — the KV store's per-key gates guarantee both.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Flash`] on an address outside the configured
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if more pages are freed than were ever allocated (a
    /// double-free somewhere).
    pub fn free_page(&mut self, addr: GlobalPageAddr) -> Result<(), ClusterError> {
        if self.config.gc.enabled {
            // Lifecycle mode: a free is a logical trim. The mirror
            // unmaps the lba (marking the physical cell stale and
            // reclaimable); the simulated array keeps the stale bits
            // until the block's erase, exactly like the mirror's shadow
            // — the two stay program-bitmap lockstep.
            let node = addr.node.index();
            let card = addr.card as usize;
            let lba = self.config.flash.geometry.linear_of(addr.ppa) as u64;
            if self.config.gc.log {
                self.lifecycle_log[node][card].push(LifecycleOp::Trim(lba));
            }
            self.mirrors[node][card]
                .step_trim(lba)
                .expect("freed address outside the mirror's logical space");
        } else {
            let ctrl = self.controllers[addr.node.index()][addr.card as usize];
            self.sim
                .component_mut::<FlashController>(ctrl)
                .expect("controller installed")
                .array_mut()
                .trim(addr.ppa)?;
        }
        self.pages_in_use = self
            .pages_in_use
            .checked_sub(1)
            .expect("free_page without a matching alloc_page");
        self.free[addr.node.index()].push(addr);
        Ok(())
    }

    /// Flash pages currently allocated (cluster-wide): every
    /// [`Cluster::alloc_page`] not yet returned via
    /// [`Cluster::free_page`]. The KV store audits its directory against
    /// this to catch stranded extents.
    pub fn flash_pages_in_use(&self) -> u64 {
        self.pages_in_use
    }

    /// Translate a driver-visible (logical) address into the physical
    /// cell the mirror FTL currently maps it to. Identity when the
    /// lifecycle is disabled, and for unmapped logical pages — an
    /// unwritten page then reads as `NotProgrammed`, matching the
    /// GC-off contract.
    fn resolve(&self, addr: GlobalPageAddr) -> GlobalPageAddr {
        if !self.config.gc.enabled {
            return addr;
        }
        let lba = self.config.flash.geometry.linear_of(addr.ppa) as u64;
        match self.mirrors[addr.node.index()][addr.card as usize].physical_of(lba) {
            Some(ppa) => GlobalPageAddr { ppa, ..addr },
            None => addr,
        }
    }

    /// Mirror-FTL write replay for one logical page: step the mapping
    /// table and, when the write tripped a free-block watermark, execute
    /// the resulting collection rounds as simulated flash traffic before
    /// returning the physical program target.
    fn step_mirror_write(&mut self, node: NodeId, card: u8, lba: u64) -> bluedbm_flash::Ppa {
        let n = node.index();
        let c = card as usize;
        if self.config.gc.log {
            self.lifecycle_log[n][c].push(LifecycleOp::Write(lba));
        }
        // Allocation is gated on the mirror's exported capacity, so the
        // policy can always make room: NoSpace here is a logic bug, not
        // an operational condition.
        let outcome = self.mirrors[n][c]
            .step_write(lba)
            .expect("mirror FTL out of space despite capacity-gated allocation");
        if !outcome.gc.is_empty() {
            if self.config.gc.log {
                self.gc_rounds_log[n][c].extend(outcome.gc.iter().cloned());
            }
            self.run_gc(node, card, outcome.gc);
        }
        outcome.target
    }

    /// Execute mirror-decided collection rounds on `node`/`card` as
    /// simulated commands, stop-the-world: first drain in-flight
    /// foreground traffic (whose physical targets were resolved against
    /// the pre-collection mapping), then let the node's [`GcAgent`] run
    /// the relocation reads/programs and erases through the shared
    /// splitter and buses. The simulated clock advances across both
    /// drains — that stall is precisely the GC pressure tenants observe.
    fn run_gc(&mut self, node: NodeId, card: u8, rounds: Vec<GcRound>) {
        self.sim.run();
        let agent = self.gc_agents[node.index()];
        self.sim
            .component_mut::<GcAgent>(agent)
            .expect("GC agent installed")
            .push_job(card, rounds);
        self.sim.schedule(SimTime::ZERO, agent, GcKick);
        self.sim.run();
    }

    /// Cluster-wide flash lifecycle accounting, aggregated over every
    /// card's mirror FTL: host programs vs GC relocation programs (the
    /// write-amplification numerator), victim erases, relocated pages,
    /// and the widest per-card erase-count spread the wear leveler is
    /// holding down. All zeros when `config.gc.enabled` is off.
    pub fn gc_stats(&self) -> GcStats {
        let mut total = GcStats::default();
        for node in &self.mirrors {
            for mirror in node {
                let stats = mirror.stats();
                total.host_writes += stats.host_writes;
                total.gc_writes += stats.flash_writes - stats.host_writes;
                total.erases += stats.gc_erases;
                total.relocated += stats.gc_moves;
                let spread = mirror.array().max_wear() - mirror.array().min_wear();
                total.wear_spread = total.wear_spread.max(spread);
            }
        }
        total
    }

    /// Per-node GC agent statistics: rounds/moves/erases this node has
    /// executed as simulated traffic (preload-time functional rounds are
    /// accounted only in the mirror's policy totals).
    pub fn gc_agent_stats(&self, node: NodeId) -> &GcAgentStats {
        self.sim
            .component::<GcAgent>(self.gc_agents[node.index()])
            .expect("GC agent installed")
            .stats()
    }

    /// Logical page capacity of `node` across its cards: the mirror
    /// FTL's exported capacity under the lifecycle, the raw cell count
    /// otherwise.
    pub fn node_capacity_pages(&self, node: NodeId) -> u64 {
        if self.config.gc.enabled {
            self.mirrors[node.index()].iter().map(Ftl::capacity_pages).sum()
        } else {
            (self.config.flash.cards_per_node * self.config.flash.geometry.total_pages()) as u64
        }
    }

    /// The mirror FTL of one card (lifecycle mode only) — the
    /// conformance suite compares its mapping table and stats against an
    /// offline twin.
    ///
    /// # Panics
    ///
    /// Panics when `config.gc.enabled` is off.
    pub fn mirror(&self, node: NodeId, card: usize) -> &Ftl {
        &self.mirrors[node.index()][card]
    }

    /// The simulated flash array of one card — the conformance suite
    /// checks its programmed bitmap and erase counts against the
    /// mirror's shadow.
    pub fn card_array(&self, node: NodeId, card: usize) -> &FlashArray {
        self.sim
            .component::<FlashController>(self.controllers[node.index()][card])
            .expect("controller installed")
            .array()
    }

    /// The logical lifecycle ops recorded for one card (empty unless
    /// `config.gc.log`).
    pub fn lifecycle_log(&self, node: NodeId, card: usize) -> &[LifecycleOp] {
        &self.lifecycle_log[node.index()][card]
    }

    /// The mirror-decided GC rounds recorded for one card, in op order
    /// (empty unless `config.gc.log`).
    pub fn gc_rounds_log(&self, node: NodeId, card: usize) -> &[GcRound] {
        &self.gc_rounds_log[node.index()][card]
    }

    fn op_id(&mut self) -> u64 {
        let id = self.next_op;
        self.next_op += 1;
        id
    }

    fn harvest(&mut self, node: NodeId) -> Vec<Completed> {
        self.sim
            .component_mut::<NodeAgent>(self.agents[node.index()])
            .expect("agent installed")
            .take_completed()
    }

    fn run_one(&mut self, node: NodeId, op: AgentOp) -> Result<Completed, ClusterError> {
        self.sim.schedule(SimTime::ZERO, self.agents[node.index()], op);
        self.drain_one(node)
    }

    /// Run to quiescence and harvest the single completion `node` must
    /// have produced, mapping its failure to an error.
    fn drain_one(&mut self, node: NodeId) -> Result<Completed, ClusterError> {
        self.sim.run();
        let mut done = self.harvest(node);
        let one = done.pop().ok_or(ClusterError::MissingCompletion)?;
        debug_assert!(done.is_empty(), "single op produced multiple completions");
        match one.error {
            Some(e) => Err(ClusterError::Flash(e)),
            None => Ok(one),
        }
    }

    /// Write a page to `node`'s own flash through the full DES path.
    ///
    /// # Errors
    ///
    /// Allocation or flash failures.
    pub fn write_page_local(
        &mut self,
        node: NodeId,
        data: &[u8],
    ) -> Result<GlobalPageAddr, ClusterError> {
        // Stage the page in the owning node's shard segment of the
        // store; the flash controller consumes (and frees) the handle
        // once the bus has read it.
        let (_op_id, addr) = self.inject_write(node, data)?;
        match self.drain_one(node) {
            Ok(_) => Ok(addr),
            Err(e) => {
                // The write failed: the page holds nothing durable, so
                // return it to the pool (keeps the allocation audit
                // honest on this blocking path).
                let _ = self.free_page(addr);
                Err(e)
            }
        }
    }

    /// Preload a page without simulating the write (experiment setup:
    /// building a 100k-page dataset should not cost 100k simulated
    /// tPROGs).
    ///
    /// # Errors
    ///
    /// Allocation or flash failures.
    pub fn preload_page(
        &mut self,
        node: NodeId,
        data: &[u8],
    ) -> Result<GlobalPageAddr, ClusterError> {
        let addr = self.alloc_page(node)?;
        if self.config.gc.enabled {
            // Preload skips simulated time but not the lifecycle: the
            // mirror steps exactly as for a simulated write, and any
            // collection rounds it decides are applied *functionally* to
            // the card's array (relocation copies and victim erases with
            // no simulated latency), keeping the two program bitmaps in
            // lockstep for later simulated traffic.
            let geom = self.config.flash.geometry;
            let lba = geom.linear_of(addr.ppa) as u64;
            let n = node.index();
            let c = addr.card as usize;
            if self.config.gc.log {
                self.lifecycle_log[n][c].push(LifecycleOp::Write(lba));
            }
            let outcome = self.mirrors[n][c]
                .step_write(lba)
                .expect("mirror FTL out of space despite capacity-gated allocation");
            if self.config.gc.log {
                self.gc_rounds_log[n][c].extend(outcome.gc.iter().cloned());
            }
            let ctrl = self.controllers[n][c];
            let array = self
                .sim
                .component_mut::<FlashController>(ctrl)
                .expect("controller installed")
                .array_mut();
            for round in &outcome.gc {
                for &(src, dst) in &round.moves {
                    if array.page_has_data(src) {
                        let data = array.read(src)?.data;
                        array.program(dst, &data)?;
                    } else {
                        array.program_blank(dst)?;
                    }
                }
                array.erase(round.victim)?;
            }
            array.program(outcome.target, data)?;
            return Ok(addr);
        }
        let ctrl = self.controllers[node.index()][addr.card as usize];
        let programmed = self
            .sim
            .component_mut::<FlashController>(ctrl)
            .expect("controller installed")
            .array_mut()
            .program(addr.ppa, data);
        if let Err(e) = programmed {
            let _ = self.free_page(addr);
            return Err(e.into());
        }
        Ok(addr)
    }

    /// Read a page, consumed by the in-store processor of `reader`
    /// (local flash or the ISP-F remote path, depending on `addr`).
    ///
    /// # Errors
    ///
    /// Flash failures.
    pub fn read_page_remote(
        &mut self,
        reader: NodeId,
        addr: GlobalPageAddr,
    ) -> Result<CompletedRead, ClusterError> {
        self.read_page(reader, addr, Consume::Isp)
    }

    /// Read a page into `reader`'s host memory (adds the PCIe crossing).
    ///
    /// # Errors
    ///
    /// Flash failures.
    pub fn read_page_host(
        &mut self,
        reader: NodeId,
        addr: GlobalPageAddr,
    ) -> Result<CompletedRead, ClusterError> {
        self.read_page(reader, addr, Consume::Host)
    }

    /// Read with an explicit consumer.
    ///
    /// # Errors
    ///
    /// Flash failures.
    pub fn read_page(
        &mut self,
        reader: NodeId,
        addr: GlobalPageAddr,
        consume: Consume,
    ) -> Result<CompletedRead, ClusterError> {
        let op_id = self.op_id();
        let addr = self.resolve(addr);
        let done = self.run_one(
            reader,
            AgentOp::ReadFlash {
                op_id,
                addr,
                consume,
            },
        )?;
        Ok(CompletedRead {
            data: done.data.expect("successful read carries data"),
            latency: done.end - done.start,
        })
    }

    /// Stage data into `node`'s DRAM buffer.
    pub fn load_dram(&mut self, node: NodeId, key: u64, data: &[u8]) {
        self.sim.schedule(
            SimTime::ZERO,
            self.agents[node.index()],
            AgentOp::LoadDram {
                key,
                data: data.to_vec(),
            },
        );
        self.sim.run();
    }

    /// Read `host`'s DRAM buffer from `reader` over the integrated
    /// network (the H-D path's storage half).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Flash`] wrapping `UnknownHandle` when `key` was
    /// never loaded.
    pub fn read_remote_dram(
        &mut self,
        reader: NodeId,
        host: NodeId,
        key: u64,
        consume: Consume,
    ) -> Result<CompletedRead, ClusterError> {
        let op_id = self.op_id();
        let done = self.run_one(
            reader,
            AgentOp::ReadRemoteDram {
                op_id,
                node: host,
                key,
                consume,
            },
        )?;
        Ok(CompletedRead {
            data: done.data.expect("successful read carries data"),
            latency: done.end - done.start,
        })
    }

    /// Inject one read at `reader` (scheduled at the current instant)
    /// **without running the simulation** — the building block for
    /// concurrent multi-reader workloads (all-to-all scatter streams):
    /// inject from every reader, then [`Cluster::run_to_quiescence`] and
    /// [`Cluster::harvest_node`]. Returns the op id echoed in the
    /// completion.
    pub fn inject_read(&mut self, reader: NodeId, addr: GlobalPageAddr, consume: Consume) -> u64 {
        let op_id = self.op_id();
        let addr = self.resolve(addr);
        self.sim.schedule(
            SimTime::ZERO,
            self.agents[reader.index()],
            AgentOp::ReadFlash {
                op_id,
                addr,
                consume,
            },
        );
        op_id
    }

    /// Inject one page write at `node` (allocating the page and staging
    /// the payload) **without running the simulation** — the write-side
    /// twin of [`Cluster::inject_read`], used by the concurrent KV
    /// engine to put many tenants' writes in flight at once. `data`
    /// shorter than a page is zero-padded. Returns the op id echoed in
    /// the completion and the page allocated.
    ///
    /// # Errors
    ///
    /// [`ClusterError::DeviceFull`] when `node` has no free pages.
    pub fn inject_write(
        &mut self,
        node: NodeId,
        data: &[u8],
    ) -> Result<(u64, GlobalPageAddr), ClusterError> {
        let addr = self.alloc_page(node)?;
        let op_id = self.op_id();
        // Lifecycle mode: replay the write against the mirror FTL first.
        // If it trips a watermark the collection runs to completion as
        // simulated traffic *before* this program is scheduled — the
        // foreground write waits out its own GC, like on a real device.
        let target = if self.config.gc.enabled {
            let lba = self.config.flash.geometry.linear_of(addr.ppa) as u64;
            let ppa = self.step_mirror_write(node, addr.card, lba);
            GlobalPageAddr { ppa, ..addr }
        } else {
            addr
        };
        // Staged in the store segment of the shard that owns the node,
        // where its flash controller consumes (and frees) the page.
        let page_bytes = self.config.flash.geometry.page_bytes;
        let shard = self.partition[node.index()] as usize;
        let buffer = self.sim.page_store_mut(shard).alloc_padded(data, page_bytes);
        self.sim.schedule(
            SimTime::ZERO,
            self.agents[node.index()],
            AgentOp::WriteFlash {
                op_id,
                addr: target,
                data: buffer,
            },
        );
        Ok((op_id, addr))
    }

    /// Run the event queues to global quiescence (across all shards).
    pub fn run_to_quiescence(&mut self) {
        self.sim.run();
    }

    /// Drain the completions recorded at `node`.
    pub fn harvest_node(&mut self, node: NodeId) -> Vec<Completed> {
        self.harvest(node)
    }

    /// Inject a batch of reads at `reader` (all at the current instant),
    /// run to quiescence, and return every completion. Used by the
    /// bandwidth experiments (Figure 13): per-class sustained rates are
    /// computed from the completion timestamps.
    pub fn stream_reads(
        &mut self,
        reader: NodeId,
        addrs: &[GlobalPageAddr],
        consume: Consume,
    ) -> Vec<Completed> {
        for &addr in addrs {
            let op_id = self.op_id();
            let addr = self.resolve(addr);
            self.sim.schedule(
                SimTime::ZERO,
                self.agents[reader.index()],
                AgentOp::ReadFlash {
                    op_id,
                    addr,
                    consume,
                },
            );
        }
        self.sim.run();
        self.harvest(reader)
    }

    /// Run a user-defined in-store processor over an address stream —
    /// the paper's hardware-software codesign interface: the host
    /// supplies physical addresses (from
    /// [`bluedbm_ftl::Rfs::physical_addrs`] in the full flow), the
    /// engine consumes pages *in stream order* at simulated device
    /// bandwidth (the Flash Server's in-order interface), and only the
    /// engine's result state returns.
    ///
    /// Returns the simulated time from first request to last page.
    ///
    /// # Errors
    ///
    /// Fails on the first page whose read failed.
    pub fn isp_scan(
        &mut self,
        reader: NodeId,
        addrs: &[GlobalPageAddr],
        engine: &mut dyn bluedbm_isp::Accelerator,
    ) -> Result<SimTime, ClusterError> {
        let t0 = self.sim.now();
        let mut done = self.stream_reads(reader, addrs, Consume::Isp);
        if done.len() != addrs.len() {
            return Err(ClusterError::MissingCompletion);
        }
        // Reorder completions back into the host-supplied stream order
        // (op ids were assigned in that order).
        done.sort_by_key(|c| c.op_id);
        let mut last = t0;
        for (seq, c) in done.into_iter().enumerate() {
            if let Some(e) = c.error {
                return Err(ClusterError::Flash(e));
            }
            last = last.max(c.end);
            let data = c.data.expect("successful reads carry data");
            engine.consume(seq as u64, &data);
        }
        Ok(last - t0)
    }

    /// Shortest-path hop count between two nodes, read off the routers'
    /// shared table (`None` when `b` is unreachable from `a`).
    pub fn hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        self.routing.hops(a, b)
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
        self.sim
            .component::<NodeAgent>(self.agents[node.index()])
            .expect("agent installed")
            .stats()
    }

    /// Accelerator-scheduler statistics for `node` (borrowed; see
    /// [`Cluster::router_stats`]): FIFO unit grants, parked-job counts
    /// and queue waits for the node's shared acceleration units.
    pub fn sched_stats(&self, node: NodeId) -> &SchedStats {
        self.sim
            .component::<AccelSched>(self.scheds[node.index()])
            .expect("scheduler installed")
            .stats()
    }

    /// Controller statistics for one card of `node` (borrowed; see
    /// [`Cluster::router_stats`]).
    pub fn controller_stats(&self, node: NodeId, card: usize) -> &CtrlStats {
        self.sim
            .component::<FlashController>(self.controllers[node.index()][card])
            .expect("controller installed")
            .stats()
    }

    /// The PCIe link component id of `node` (advanced drivers can inject
    /// [`bluedbm_host::pcie::PcieXfer`]s directly).
    pub fn pcie_id(&self, node: NodeId) -> ComponentId {
        self.pcie[node.index()]
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

    #[test]
    fn local_write_then_read_round_trip() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let addr = cluster.write_page_local(NodeId(0), &page(&config, 1)).unwrap();
        let read = cluster.read_page_remote(NodeId(0), addr).unwrap();
        assert_eq!(read.data, page(&config, 1));
        // Local ISP read: tR 50us + bus transfer (2 KiB page at 150 MB/s
        // is ~13.7us), no network.
        assert!(read.latency >= SimTime::us(50));
        assert!(read.latency < SimTime::us(66), "{}", read.latency);
        // Every page handle was consumed on its way through the stack.
        cluster.assert_quiescent();
    }

    #[test]
    fn remote_read_pays_the_network_but_not_much() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(4, &config).unwrap();
        let addr = cluster.preload_page(NodeId(0), &page(&config, 7)).unwrap();
        let local = cluster.read_page_remote(NodeId(0), addr).unwrap();
        let remote = cluster.read_page_remote(NodeId(1), addr).unwrap();
        assert_eq!(remote.data, page(&config, 7));
        assert!(remote.latency > local.latency);
        // One hop each way (0.48us) plus the 8KB+ page on the wire: the
        // paper's "integrated network adds ~5% to a flash access".
        let overhead = remote.latency - local.latency;
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
        let isp = cluster.read_page_remote(NodeId(0), addr).unwrap();
        let host = cluster.read_page_host(NodeId(0), addr).unwrap();
        assert_eq!(host.data, page(&config, 3));
        let gap = host.latency - isp.latency;
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
        cluster.load_dram(NodeId(1), 42, &data);
        let flash_addr = cluster.preload_page(NodeId(1), &data).unwrap();
        let dram = cluster
            .read_remote_dram(NodeId(0), NodeId(1), 42, Consume::Isp)
            .unwrap();
        let flash = cluster.read_page_remote(NodeId(0), flash_addr).unwrap();
        assert_eq!(dram.data, data);
        // DRAM skips the 50us tR.
        assert!(flash.latency > dram.latency + SimTime::us(40));
    }

    #[test]
    fn missing_dram_key_reports_error() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let err = cluster
            .read_remote_dram(NodeId(0), NodeId(1), 999, Consume::Isp)
            .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::Flash(FlashError::UnknownHandle(999))
        ));
    }

    #[test]
    fn unwritten_page_read_errors() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let addr = cluster.alloc_page(NodeId(0)).unwrap();
        let err = cluster.read_page_remote(NodeId(0), addr).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::Flash(FlashError::NotProgrammed(_))
        ));
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
        // One block per plane leaves nothing above the GC reserve.
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry.blocks_per_chip = 1;
        assert_eq!(
            Cluster::ring(2, &config).unwrap_err(),
            ClusterError::Ftl(Box::new(FtlError::NoSpace))
        );
        config.gc.enabled = false;
        assert!(Cluster::ring(2, &config).is_ok());
    }

    #[test]
    fn isp_scan_streams_in_order_at_device_bandwidth() {
        use bluedbm_isp::mp::MpMatcher;
        let config = SystemConfig::paper();
        let mut cluster = Cluster::line(2, 1, &config).unwrap();
        let page_bytes = config.flash.geometry.page_bytes;

        // A needle straddling two consecutive pages on the REMOTE node:
        // stream-order delivery is what makes it findable.
        let needle = b"cross-page-needle";
        let mut haystack = vec![b'.'; 32 * page_bytes];
        let at = 3 * page_bytes - 5;
        haystack[at..at + needle.len()].copy_from_slice(needle);
        let addrs: Vec<GlobalPageAddr> = haystack
            .chunks(page_bytes)
            .map(|c| cluster.preload_page(NodeId(1), c).unwrap())
            .collect();

        let mut engine = MpMatcher::new(needle).unwrap();
        let elapsed = cluster.isp_scan(NodeId(0), &addrs, &mut engine).unwrap();
        assert_eq!(engine.matches(), &[at as u64]);
        // 32 pages over the single 8.2Gbps lane, minus the ~110us
        // pipeline fill of the first page.
        let rate = haystack.len() as f64 / elapsed.as_secs_f64();
        assert!(rate > 0.5e9, "scan rate {rate:.3e}");
    }

    #[test]
    fn isp_scan_reports_failed_pages() {
        let config = SystemConfig::scaled_down();
        let mut cluster = Cluster::ring(2, &config).unwrap();
        let addr = cluster.alloc_page(NodeId(0)).unwrap(); // never written
        let mut engine = bluedbm_isp::mp::MpMatcher::new(b"needle").unwrap();
        let err = cluster.isp_scan(NodeId(0), &[addr], &mut engine).unwrap_err();
        assert!(matches!(err, ClusterError::Flash(_)));
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
        let done = cluster.stream_reads(NodeId(0), &addrs, Consume::Isp);
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
        let addr = cluster.write_page_local(NodeId(1), &page(&config, 5)).unwrap();
        cluster.read_page_host(NodeId(0), addr).unwrap();
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
        let done = cluster.stream_reads(NodeId(0), &addrs, Consume::Host);
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
}
