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

use proptest::prelude::*;

use bluedbm::core::node::{AgentStats, Consume};
use bluedbm::core::{Cluster, GlobalPageAddr, NodeId, SystemConfig};
use bluedbm::flash::controller::CtrlStats;
use bluedbm::net::router::RouterStats;
use bluedbm::net::Topology;
use bluedbm::sim::time::SimTime;

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

fn observe(cluster: &mut Cluster) -> Observation {
    let n = cluster.node_count();
    let cards = cluster.config().flash.cards_per_node;
    let mut completions = Vec::with_capacity(n);
    for node in 0..n {
        let mut done: Vec<_> = cluster
            .harvest_node(NodeId::from(node))
            .into_iter()
            .map(|c| (c.op_id, c.addr, c.data, c.error.map(|e| e.to_string())))
            .collect();
        done.sort_by_key(|c| c.0);
        completions.push(done);
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
            cluster.inject_read(NodeId::from(reader), addr, Consume::Isp);
        }
    }
    cluster.run_to_quiescence();
    let obs = observe(&mut cluster);
    cluster.assert_quiescent();
    obs
}

fn config_with_shards(shards: usize) -> SystemConfig {
    let mut config = SystemConfig::scaled_down();
    config.sim.shards = shards;
    config
}

#[test]
fn mesh4x4_scatter_identical_at_2_and_4_shards() {
    let topo = || Topology::mesh2d(4, 4);
    let seq = run_scatter(
        Cluster::new(topo(), &config_with_shards(1)).unwrap(),
        3,
        6,
    );
    for shards in [2, 4] {
        let sharded = run_scatter(
            Cluster::new(topo(), &config_with_shards(shards)).unwrap(),
            3,
            6,
        );
        assert_eq!(seq, sharded, "{shards}-shard run diverged from sequential");
    }
}

#[test]
fn sharded_write_read_round_trip_with_host_consume() {
    // The full payload path under sharding: local writes, remote reads
    // into host memory (PCIe + read-buffer pool), remote DRAM reads.
    let run = |shards: usize| {
        let mut config = config_with_shards(shards);
        config.host.read_buffers = 4; // force buffer-pool recycling
        let mut cluster = Cluster::ring(6, &config).unwrap();
        assert_eq!(cluster.shard_count(), shards);
        let page_bytes = config.flash.geometry.page_bytes;

        let mut written = Vec::new();
        for node in 0..6u16 {
            let addr = cluster
                .write_page_local(NodeId(node), &vec![node as u8; page_bytes])
                .unwrap();
            written.push(addr);
        }
        cluster.load_dram(NodeId(3), 77, &vec![0x5A; page_bytes]);

        let mut reads = Vec::new();
        for reader in 0..6u16 {
            let addr = written[(reader as usize + 2) % 6];
            let read = cluster.read_page_host(NodeId(reader), addr).unwrap();
            reads.push(read);
        }
        let dram = cluster
            .read_remote_dram(NodeId(0), NodeId(3), 77, Consume::Isp)
            .unwrap();
        let missing = cluster
            .read_remote_dram(NodeId(1), NodeId(3), 999, Consume::Isp)
            .unwrap_err();
        cluster.assert_quiescent();
        // Serialized operations are uncontended, so the strict contract
        // applies: exact clocks, exact latencies, full histograms.
        let obs = observe_strict(&mut cluster);
        (reads, dram, missing.to_string(), obs)
    };
    let seq = run(1);
    let sharded = run(3);
    assert_eq!(seq.0, sharded.0, "host reads (incl. latencies) diverged");
    assert_eq!(seq.1, sharded.1, "remote DRAM read diverged");
    assert_eq!(seq.2, sharded.2, "error path diverged");
    assert_eq!(seq.3, sharded.3, "strict observations diverged");
}

#[test]
fn sharded_runs_are_repeatable() {
    let run = || {
        run_scatter(
            Cluster::new(Topology::mesh2d(3, 3), &config_with_shards(4)).unwrap(),
            2,
            5,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn explicit_partition_controls_shard_count() {
    let config = config_with_shards(1);
    let cluster = Cluster::with_partition(
        Topology::ring(5, 2),
        &config,
        &[0, 1, 0, 2, 1],
    )
    .unwrap();
    assert_eq!(cluster.shard_count(), 3);
    assert_eq!(cluster.partition(), &[0, 1, 0, 2, 1]);
}

/// Deterministic mulberry-style mixer for the property test's derived
/// choices (kept local so the test is self-contained).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Relabel a node -> shard map so that its shard ids are dense from 0:
/// a random draw can miss an id, and `Cluster::with_partition` rejects
/// a map with an empty shard.
fn dense(partition: &[u32]) -> Vec<u32> {
    let mut ids = partition.to_vec();
    ids.sort_unstable();
    ids.dedup();
    partition
        .iter()
        .map(|s| ids.binary_search(s).expect("own id") as u32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random topology × random partition map: every per-pair lookahead
    /// is exactly `hop_latency x` the shard hop distance, and therefore
    /// never below the global single-link bound the engine used to run
    /// on (cross-shard cables are one hop, so the old bound is one hop
    /// of latency).
    #[test]
    fn pair_lookaheads_dominate_the_global_bound(
        shape in 0u8..3,
        size in 6usize..13,
        seed: u64,
    ) {
        let topo = || match shape {
            0 => Topology::ring(size, 2),
            1 => Topology::line(size, 2),
            _ => Topology::mesh2d(3, size.div_ceil(3)),
        };
        let nodes = topo().node_count();
        for draw in [2u32, 4] {
            let partition: Vec<u32> = (0..nodes)
                .map(|n| if n == 0 { 0 } else { (mix(seed ^ (n as u64) << 8) % u64::from(draw)) as u32 })
                .collect();
            let partition = dense(&partition);
            let config = config_with_shards(1);
            let cluster = Cluster::with_partition(topo(), &config, &partition).unwrap();
            let hop = config.net.hop_latency;
            let dists = topo().shard_distances(&partition, cluster.shard_count());
            let global = cluster.min_lookahead().unwrap();
            for (s, row) in dists.iter().enumerate() {
                for (r, &d) in row.iter().enumerate() {
                    if s == r {
                        continue;
                    }
                    let l = cluster.lookahead_between(s, r).unwrap();
                    prop_assert!(
                        l >= global,
                        "pair ({s},{r}) lookahead {l} under global bound {global}"
                    );
                    if d != u32::MAX {
                        prop_assert_eq!(l, hop * u64::from(d));
                    }
                }
            }
        }
    }

    /// Random topology × random partition map: sharded (2 and 4 shards)
    /// and sequential runs of the same scatter workload must produce
    /// identical observations and pass the leak audit.
    #[test]
    fn random_topology_and_partition_match_sequential(
        shape in 0u8..3,
        size in 6usize..13,
        seed: u64,
    ) {
        let topo = || match shape {
            0 => Topology::ring(size, 2),
            1 => Topology::line(size, 2),
            _ => Topology::mesh2d(3, size.div_ceil(3)),
        };
        let nodes = topo().node_count();
        let seq = run_scatter(
            Cluster::new(topo(), &config_with_shards(1)).unwrap(),
            2,
            4,
        );
        for shards in [2u32, 4] {
            // Random node -> shard map over up to `shards` shards.
            let partition: Vec<u32> = (0..nodes)
                .map(|n| if n == 0 { 0 } else { (mix(seed ^ (n as u64) << 8) % u64::from(shards)) as u32 })
                .collect();
            let partition = dense(&partition);
            let cluster = Cluster::with_partition(topo(), &config_with_shards(1), &partition).unwrap();
            let sharded = run_scatter(cluster, 2, 4);
            prop_assert!(
                seq == sharded,
                "shards={shards} partition={partition:?} diverged from sequential"
            );
        }
    }
}
