//! Cross-engine determinism: sharded parallel runs must be observably
//! identical to sequential runs.
//!
//! The contract (see `bluedbm_sim::shard`): for any topology, any
//! node → shard partition and any workload,
//!
//! * serialized (uncontended) operations are identical down to the
//!   picosecond — completions, latencies, full latency histograms;
//! * every arbitration-independent observable is identical always, even
//!   under heavy same-instant contention: total event counts, every
//!   additive router / controller / agent counter, per-operation
//!   results (data and errors), per-flow FIFO order, and the store leak
//!   audits. (Which of several same-instant rivals wins a serial
//!   resource is a same-cycle arbitration choice; each engine resolves
//!   it deterministically, so individual queueing delays may
//!   redistribute within the contended instant — that freedom is
//!   exactly the one conservative PDES leaves open.)
//!
//! These tests pin both levels down on fixed scatter workloads at mesh
//! scale, on the host-consume (PCIe + read-buffer-pool) path, and
//! property-style over random topologies × random partition maps at 2
//! and 4 shards.

mod common;

use bluedbm::core::node::{AgentStats, Consume};
use bluedbm::core::{Cluster, ExecMode, GlobalPageAddr, NodeId, PageOp, SystemConfig};
use bluedbm::flash::controller::CtrlStats;
use bluedbm::net::router::RouterStats;
use bluedbm::net::Topology;
use bluedbm::sim::time::SimTime;
use bluedbm_check::check;
use common::{assert_lanes_agree, Lane, TWO_AND_FOUR};

/// The arbitration-independent view of one router: every additive
/// counter plus the latency histogram's sample count (the distribution
/// *shape* may shift under same-instant contention — see the module
/// docs).
#[derive(Debug, PartialEq)]
struct RouterCounters {
    injected: u64,
    forwarded: u64,
    delivered: u64,
    delivered_bytes: u64,
    order_violations: u64,
    latency_samples: u64,
}

impl RouterCounters {
    fn of(stats: &RouterStats) -> Self {
        RouterCounters {
            injected: stats.injected,
            forwarded: stats.forwarded,
            delivered: stats.delivered,
            delivered_bytes: stats.delivered_bytes,
            order_violations: stats.order_violations,
            latency_samples: stats.latency.count(),
        }
    }
}

/// The arbitration-independent view of one flash controller.
#[derive(Debug, PartialEq)]
struct CtrlCounters {
    reads: u64,
    read_bytes: u64,
    read_ops: u64,
}

impl CtrlCounters {
    fn of(stats: &CtrlStats) -> Self {
        CtrlCounters {
            reads: stats.read_latency.count(),
            read_bytes: stats.read_throughput.total_bytes(),
            read_ops: stats.read_throughput.ops(),
        }
    }
}

/// Everything arbitration-independent about a cluster run — identical
/// between engines for *any* workload, contended or not.
#[derive(Debug, PartialEq)]
struct Observation {
    events: u64,
    routers: Vec<RouterCounters>,
    controllers: Vec<CtrlCounters>,
    agents: Vec<AgentStats>,
    /// Per node: completions sorted by op id, reduced to the
    /// timing-independent fields.
    completions: Vec<Vec<CompletionResult>>,
}

/// One operation's timing-independent outcome: op id, address, data,
/// error text.
type CompletionResult = (u64, Option<GlobalPageAddr>, Option<Vec<u8>>, Option<String>);

/// Drive `cluster` to quiescence and observe it.
fn observe(cluster: &mut Cluster) -> Observation {
    let n = cluster.node_count();
    let cards = cluster.config().flash.cards_per_node;
    let mut completions = vec![Vec::new(); n];
    for c in cluster.drive() {
        let done = (c.op_id, c.addr, c.data, c.error.map(|e| e.to_string()));
        completions[c.node.index()].push(done);
    }
    Observation {
        events: cluster.events_delivered(),
        routers: (0..n)
            .map(|node| RouterCounters::of(cluster.router_stats(NodeId::from(node))))
            .collect(),
        controllers: (0..n)
            .flat_map(|node| (0..cards).map(move |card| (node, card)))
            .map(|(node, card)| CtrlCounters::of(cluster.controller_stats(NodeId::from(node), card)))
            .collect(),
        agents: (0..n)
            .map(|node| *cluster.agent_stats(NodeId::from(node)))
            .collect(),
        completions,
    }
}

/// The strict view for uncontended (serialized) workloads: the
/// arbitration-independent observation *plus* exact timing — final
/// clock, full per-completion timestamps, full latency histograms.
#[derive(Debug, PartialEq)]
struct StrictObservation {
    base: Observation,
    now: SimTime,
    routers: Vec<RouterStats>,
    controllers: Vec<CtrlStats>,
}

fn observe_strict(cluster: &mut Cluster) -> StrictObservation {
    let n = cluster.node_count();
    let cards = cluster.config().flash.cards_per_node;
    StrictObservation {
        now: cluster.now(),
        routers: (0..n)
            .map(|node| cluster.router_stats(NodeId::from(node)).clone())
            .collect(),
        controllers: (0..n)
            .flat_map(|node| (0..cards).map(move |card| (node, card)))
            .map(|(node, card)| cluster.controller_stats(NodeId::from(node), card).clone())
            .collect(),
        base: observe(cluster),
    }
}

/// Preload `pages_per_node` pages everywhere, then run an all-to-all
/// scatter: every node streams `reads_per_node` reads of remote pages
/// (deterministically chosen), all injected at one instant so the whole
/// fabric is busy at once.
fn run_scatter(mut cluster: Cluster, pages_per_node: usize, reads_per_node: usize) -> Observation {
    let n = cluster.node_count();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    let mut addrs: Vec<Vec<GlobalPageAddr>> = Vec::with_capacity(n);
    for node in 0..n {
        let mut node_addrs = Vec::with_capacity(pages_per_node);
        for p in 0..pages_per_node {
            let fill = (node * 31 + p * 7) as u8;
            node_addrs.push(
                cluster
                    .preload_page(NodeId::from(node), &vec![fill; page_bytes])
                    .expect("preload fits"),
            );
        }
        addrs.push(node_addrs);
    }
    for reader in 0..n {
        for r in 0..reads_per_node {
            // Deterministic scatter: walk the other nodes round-robin
            // with a reader-dependent stride.
            let target = (reader + 1 + (r * 3 + reader)) % n;
            let target = if target == reader { (target + 1) % n } else { target };
            let addr = addrs[target][r % pages_per_node];
            cluster.submit(NodeId::from(reader), PageOp::Read { addr, consume: Consume::Isp });
        }
    }
    let obs = observe(&mut cluster);
    cluster.assert_quiescent();
    obs
}

#[test]
fn mesh4x4_scatter_identical_at_2_and_4_shards() {
    let base = SystemConfig::scaled_down();
    assert_lanes_agree(&Lane::ONE, &TWO_AND_FOUR, |lane| {
        run_scatter(lane.cluster(Topology::mesh2d(4, 4), &base), 3, 6)
    });
}

#[test]
fn sharded_write_read_round_trip_with_host_consume() {
    // The full payload path under sharding: local writes, remote reads
    // into host memory (PCIe + read-buffer pool), remote DRAM reads.
    // Serialized operations are uncontended, so the strict contract
    // applies: exact clocks, exact latencies, full histograms.
    let mut base = SystemConfig::scaled_down();
    base.host.read_buffers = 4; // force buffer-pool recycling
    assert_lanes_agree(&Lane::ONE, &[Lane::new(3, ExecMode::Cooperative)], |lane| {
        let mut cluster = lane.cluster(Topology::ring(6, 4), &base);
        assert_eq!(cluster.shard_count(), lane.shards);
        let page_bytes = base.flash.geometry.page_bytes;

        let mut written = Vec::new();
        for node in 0..6u16 {
            let data = vec![node as u8; page_bytes];
            let write = cluster.run_one(NodeId(node), PageOp::Write(&data)).unwrap();
            written.push(write.addr.unwrap());
        }
        cluster.load_dram(NodeId(3), 77, &vec![0x5A; page_bytes]).unwrap();

        let mut reads = Vec::new();
        for reader in 0..6u16 {
            let addr = written[(reader as usize + 2) % 6];
            let read = cluster
                .run_one(NodeId(reader), PageOp::Read { addr, consume: Consume::Host })
                .unwrap();
            reads.push((read.data, read.end - read.start));
        }
        let dram = PageOp::ReadDram { home: NodeId(3), key: 77, consume: Consume::Isp };
        let dram = cluster.run_one(NodeId(0), dram).unwrap();
        let dram = (dram.data, dram.end - dram.start);
        let missing = PageOp::ReadDram { home: NodeId(3), key: 999, consume: Consume::Isp };
        let missing = cluster.run_one(NodeId(1), missing).unwrap_err();
        cluster.assert_quiescent();
        (reads, dram, missing.to_string(), observe_strict(&mut cluster))
    });
}

#[test]
fn sharded_runs_are_repeatable() {
    let lane = Lane::new(4, ExecMode::Cooperative);
    let run = || run_scatter(lane.cluster(Topology::mesh2d(3, 3), &SystemConfig::scaled_down()), 2, 5);
    assert_eq!(run(), run());
}

#[test]
fn explicit_partition_controls_shard_count() {
    let config = SystemConfig::scaled_down();
    let cluster = Cluster::with_partition(
        Topology::ring(5, 2),
        &config,
        &[0, 1, 0, 2, 1],
    )
    .unwrap();
    assert_eq!(cluster.shard_count(), 3);
    assert_eq!(cluster.partition(), &[0, 1, 0, 2, 1]);
}

/// Random topology × random partition map: sharded (up to 2 and up to 4
/// shards) and sequential runs of the same scatter workload must produce
/// identical observations and pass the leak audit, and every sharded
/// run synchronizes on the hop latency.
#[test]
fn random_topology_and_partition_match_sequential() {
    check("random_topology_and_partition_match_sequential", 10, |s| {
        let topo = common::topology(s, 3, 6..13);
        let lanes = [2, 4].map(|shards| Lane::partitioned(common::partition(s, topo.node_count(), shards)));
        let base = SystemConfig::scaled_down();
        assert_lanes_agree(&Lane::ONE, &lanes, |lane| {
            let cluster = lane.cluster(topo.clone(), &base);
            let window = (cluster.shard_count() > 1).then_some(base.net.hop_latency);
            assert_eq!(cluster.lookahead(), window, "{lane}");
            run_scatter(cluster, 2, 4)
        });
    });
}
