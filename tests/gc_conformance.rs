//! Flash-lifecycle conformance: the DES garbage collector pinned
//! against the offline [`Ftl`] twin.
//!
//! The cluster runs GC *in the simulation*: each node's agent runs one
//! `Ftl` per card, which decides placement and victims, and issues the
//! relocation reads, programs and erases as ordinary commands on the
//! same buses and controllers as foreground traffic.
//! This suite replays each card's recorded logical lifecycle (every
//! host write and trim, in order) through a fresh offline `Ftl` built
//! for an identical factory-fresh card and requires bit-level agreement
//! on:
//!
//! * the GC victim sequence and every relocation `(from, to)` pair;
//! * the full logical→physical mapping table;
//! * cumulative stats — host writes, flash writes, erases, moves, WA;
//! * the *simulated* arrays themselves: which pages the DES flash holds
//!   programmed and each block's erase count must match the twin's
//!   books page for page (lockstep physics, not just lockstep
//!   bookkeeping).
//!
//! Cross-engine: the same churn on Threads / Cooperative at 2 and 4
//! shards must leave identical GC state, identical KV results and
//! identical flash wear.
//!
//! The SSD cliff: churn past device capacity forces GC migration onto
//! the foreground path, and the regression test pins that tenants see
//! it where production would — in put tail latency (p999).

mod common;

use bluedbm::core::cluster::ClusterError;
use bluedbm::core::{Cluster, GcStats, KvStore, NodeId, SystemConfig};
use bluedbm::flash::FlashArray;
use bluedbm::flash::FlashGeometry;
use bluedbm::ftl::{FtlError, FtlStats};
use bluedbm::net::Topology;
use bluedbm::sim::time::SimTime;
use bluedbm::workloads::kvgen::{run_requests, KvRequest, KvRunSummary, KvWorkloadSpec};
use bluedbm_check::check;
use common::{assert_lanes_agree, Lane, SHARDED_LANES};

/// Scaled-down system on the tiny flash geometry (512 pages x 512 B
/// per card, 2 cards per node) so churn reaches the GC watermark in
/// test time. GC is on by default in `SystemConfig`.
fn gc_config() -> SystemConfig {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = FlashGeometry::tiny();
    config.gc.log = true; // record the lifecycle for twin replay
    config
}

/// Overwrite-only churn spec: a bounded live set (one page per value)
/// rewritten over and over, so cumulative host writes grow without
/// bound while logical occupancy stays flat — the workload shape that
/// makes garbage and triggers collection. Occupancy and skew both
/// matter: the live set fills ~65% of logical capacity and the zipfian
/// churn keeps hot keys turning over while cold keys sit valid in old
/// blocks — so victims carry live pages and GC must *relocate*, not
/// just erase (at low occupancy a fully-stale block always exists and
/// WA stays at 1.0).
fn churn_spec(nodes: usize, seed: u64) -> KvWorkloadSpec {
    KvWorkloadSpec {
        tenants: 4,
        keys_per_tenant: 125 * nodes as u64, // ~65% of logical capacity

        churn_ops: 0, // each test picks its own churn volume
        read_fraction: 0.0,
        delete_fraction: 0.0,
        zipf_exponent: 0.99,
        value_bytes: 400, // one tiny-geometry page per value
        nodes,
        seed,
    }
}

/// Total logical capacity (pages) across every card in the cluster.
fn logical_capacity(cluster: &Cluster) -> u64 {
    (0..cluster.node_count())
        .map(|n| cluster.node_capacity_pages(NodeId::from(n)))
        .sum()
}

/// Load `spec`'s keyspace on `cluster`, then churn it, and pass the
/// leak audits.
fn run_churn(cluster: Cluster, spec: &KvWorkloadSpec, batch: usize) -> (KvStore, KvRunSummary) {
    let mut store = KvStore::new(cluster);
    let summary = run_requests(&mut store, spec.load().chain(spec.churn()), batch);
    store.cluster().assert_quiescent();
    store.assert_no_stranded_pages();
    (store, summary)
}

/// A ring of `nodes` nodes on `lane`, loaded and churned with
/// `churn_ops` zipfian overwrites.
fn churn_ring(lane: &Lane, nodes: usize, seed: u64, churn_ops: u64) -> (KvStore, KvRunSummary) {
    let mut spec = churn_spec(nodes, seed);
    spec.churn_ops = churn_ops;
    run_churn(lane.cluster(Topology::ring(nodes, 4), &gc_config()), &spec, 64)
}

/// Replay every card's lifecycle log through a fresh offline twin and
/// require full agreement: rounds, mapping, stats, and the physical
/// state of the simulated array itself.
fn assert_twin_agrees(cluster: &Cluster) {
    let config = *cluster.config();
    let geom = config.flash.geometry;
    for n in 0..cluster.node_count() {
        let node = NodeId::from(n);
        for card in 0..config.flash.cards_per_node {
            // The factory state the cluster built the card with: same
            // seed, so the same bad-block map and the same wear.
            let card_seed = ((0xB1DE + (n as u64)) << 8) | card as u64;
            let (twin, rounds) = common::replay_lifecycle(
                &FlashArray::new(geom, card_seed),
                config.gc.ftl,
                cluster.lifecycle_log(node, card),
            );

            // Victim sequence and every relocation pair, in order.
            assert_eq!(
                rounds.as_slice(),
                cluster.gc_rounds_log(node, card),
                "node {n} card {card}: GC round sequence diverged"
            );

            // Mapping table and cumulative stats.
            let ftl = cluster.ftl(node, card);
            assert_eq!(
                twin.stats(),
                ftl.stats(),
                "node {n} card {card}: twin stats diverged"
            );
            for lba in 0..twin.capacity_pages() {
                assert_eq!(
                    twin.physical_of(lba),
                    ftl.physical_of(lba),
                    "node {n} card {card}: mapping of lba {lba} diverged"
                );
            }

            // Physical lockstep: the DES array (real data, written by
            // simulated commands racing foreground traffic) and the
            // twin's books must agree on which cells are programmed and
            // how often each block was erased.
            let des = cluster.card_array(node, card);
            for linear in 0..geom.total_pages() {
                let ppa = geom.ppa_of(linear);
                assert_eq!(
                    des.is_programmed(ppa),
                    twin.is_programmed(ppa),
                    "node {n} card {card} page {linear}: programmed pages diverged"
                );
                assert_eq!(
                    des.erase_count(ppa),
                    twin.erase_count(ppa),
                    "node {n} card {card} page {linear}: erase count diverged"
                );
            }
        }
    }
}

/// Per card: FTL stats, the full mapping table, and the physical state
/// (programmed, erase count) of every simulated page.
type CardPrint = (FtlStats, Vec<Option<bluedbm::flash::Ppa>>, Vec<(bool, u32)>);

/// Everything GC-observable about a churn run, for cross-engine
/// equality — errors, KV digest, lifecycle stats and every card's
/// [`CardPrint`] — once the run agrees with its offline twin.
fn observe_gc(store: &KvStore, summary: &KvRunSummary) -> (u64, u64, GcStats, Vec<CardPrint>) {
    let cluster = store.cluster();
    assert_twin_agrees(cluster);
    let config = cluster.config();
    let geom = config.flash.geometry;
    let mut cards = Vec::new();
    for n in 0..cluster.node_count() {
        let node = NodeId::from(n);
        for card in 0..config.flash.cards_per_node {
            let ftl = cluster.ftl(node, card);
            let mapping = (0..ftl.capacity_pages()).map(|lba| ftl.physical_of(lba)).collect();
            let des = cluster.card_array(node, card);
            let physical = (0..geom.total_pages())
                .map(|linear| {
                    let ppa = geom.ppa_of(linear);
                    (des.is_programmed(ppa), des.erase_count(ppa))
                })
                .collect();
            cards.push((ftl.stats(), mapping, physical));
        }
    }
    (summary.errors, summary.digest, cluster.gc_stats(), cards)
}

// ---------------------------------------------------------------------
// Headline: DES lifecycle vs offline twin
// ---------------------------------------------------------------------

/// Overwrite churn at 2x logical capacity triggers real collection
/// (erases, relocations, WA > 1) and the whole lifecycle — victims,
/// moves, mapping, wear — agrees op for op with the offline twin.
///
/// The churn is twice what the cards can hold, so it can only complete
/// by collecting: it completes with zero errors and no
/// `FtlError::NoSpace` anywhere (an out-of-space `Ftl` panics the
/// write path, so completing *is* the assertion).
#[test]
fn churn_at_twice_capacity_collects_and_agrees_with_the_offline_twin() {
    let churn = 2 * logical_capacity_of(2);
    let (store, summary) = churn_ring(&Lane::ONE, 2, 0x5EED, churn);
    assert_eq!(summary.errors, 0, "churn must complete error-free");

    let gc = store.cluster().gc_stats();
    assert!(gc.erases > 0, "2x-capacity churn must trigger GC: {gc:?}");
    assert!(gc.relocated > 0, "GC must relocate live pages: {gc:?}");
    assert!(gc.wa() > 1.0, "relocation must show up as WA: {}", gc.wa());

    // The in-sim agents performed exactly the work the FTLs decided.
    let (mut agent_erases, mut agent_moves) = (0, 0);
    for n in 0..store.cluster().node_count() {
        let stats = store.cluster().gc_traffic_stats(NodeId::from(n));
        agent_erases += stats.erases;
        agent_moves += stats.moves;
    }
    assert_eq!(agent_erases, gc.erases, "agent erases vs FTL erases");
    assert_eq!(agent_moves, gc.relocated, "agent moves vs FTL moves");

    assert_twin_agrees(store.cluster());
}

/// Total logical capacity for a ring of `nodes` under [`gc_config`],
/// without keeping the probe cluster around.
fn logical_capacity_of(nodes: usize) -> u64 {
    logical_capacity(&Cluster::ring(nodes, &gc_config()).expect("cluster"))
}

// ---------------------------------------------------------------------
// Cross-engine: GC state identical on every execution engine
// ---------------------------------------------------------------------

/// The same churn on every parallel engine at 2 and 4 shards leaves
/// byte-identical GC state: KV digest, lifecycle stats, mapping tables
/// and simulated flash wear.
#[test]
fn gc_state_identical_across_engines_and_shards() {
    const NODES: usize = 4;
    let churn = (13 * logical_capacity_of(NODES)) / 10; // 1.3x capacity
    let (errors, _, gc, _) = assert_lanes_agree(&Lane::ONE, &SHARDED_LANES, |lane| {
        let (store, summary) = churn_ring(lane, NODES, 0x5EED, churn);
        observe_gc(&store, &summary)
    });
    assert_eq!(errors, 0);
    assert!(gc.erases > 0, "baseline must collect: {gc:?}");
}

// ---------------------------------------------------------------------
// The SSD cliff: GC pressure lands in tenant tail latency
// ---------------------------------------------------------------------

/// Submit puts one at a time and collect end-to-end latency
/// (`finished - submitted`) per completion. A put that triggers
/// collection waits out its own GC, so the stall is visible exactly
/// where a tenant would see it.
fn put_latencies(store: &mut KvStore, requests: impl Iterator<Item = KvRequest>) -> Vec<SimTime> {
    let mut latencies = Vec::new();
    let mut pending = 0usize;
    for request in requests {
        match request {
            KvRequest::Put { tenant, key, value } => {
                store.submit_put(tenant, &key, &value);
            }
            other => panic!("latency driver only takes puts: {other:?}"),
        }
        pending += 1;
        if pending >= 16 {
            latencies.extend(store.drive().iter().map(|c| c.finished - c.submitted));
            pending = 0;
        }
    }
    latencies.extend(store.drive().iter().map(|c| c.finished - c.submitted));
    latencies
}

fn p999(latencies: &mut [SimTime]) -> SimTime {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    latencies[((latencies.len() - 1) as f64 * 0.999) as usize]
}

/// Churn past capacity degrades put p999 — the SSD cliff. Below the
/// cliff the same workload never erases and its tail stays flat; past
/// it, foreground puts absorb migration + erase stalls.
#[test]
fn gc_pressure_degrades_put_tail_latency_past_the_cliff() {
    let config = gc_config();
    let spec = churn_spec(2, 0x5EED);

    // Below the cliff: load + light churn, never reaching the
    // watermark.
    let mut calm = KvStore::new(Cluster::ring(2, &config).expect("cluster"));
    let mut calm_lat = put_latencies(&mut calm, spec.load().chain(spec.overwrite_churn(200)));
    assert_eq!(calm.cluster().gc_stats().erases, 0, "calm run must not collect");
    let calm_p999 = p999(&mut calm_lat);

    // Past the cliff: 2x capacity of cumulative writes.
    let churn = 2 * logical_capacity_of(2);
    let mut cliff = KvStore::new(Cluster::ring(2, &config).expect("cluster"));
    let mut cliff_lat = put_latencies(&mut cliff, spec.load().chain(spec.overwrite_churn(churn)));
    let gc = cliff.cluster().gc_stats();
    assert!(gc.erases > 0, "cliff run must collect: {gc:?}");
    let cliff_p999 = p999(&mut cliff_lat);

    assert!(
        cliff_p999.as_ns() >= 2 * calm_p999.as_ns(),
        "GC must widen the put tail: calm p999 {calm_p999:?}, cliff p999 {cliff_p999:?}"
    );
}

// ---------------------------------------------------------------------
// Pin: the lifecycle knobs are checked as values
// ---------------------------------------------------------------------

/// Over-provisioning must withhold a fraction in `[0, 1)`: all of the
/// space, a negative share or a NaN is refused as a value, not a panic.
#[test]
fn over_provision_outside_its_range_is_rejected() {
    for over_provision in [1.0, -0.1, f64::NAN] {
        let mut config = gc_config();
        config.gc.ftl.over_provision = over_provision;
        let err = Cluster::ring(2, &config).expect_err("cluster accepted the configuration");
        assert!(
            matches!(&err, ClusterError::Ftl(e) if matches!(**e, FtlError::InvalidConfig(_))),
            "over_provision {over_provision}: {err}"
        );
    }
}

// ---------------------------------------------------------------------
// Property: random topology x partition x churn seed
// ---------------------------------------------------------------------

/// For any small topology, any node -> shard partition and any churn
/// seed: the sequential run agrees with its offline twin, and a sharded
/// run leaves the identical KV digest and GC fingerprint.
#[test]
fn random_topology_partition_and_seed_agree_with_the_twin() {
    check("random_topology_partition_and_seed_agree_with_the_twin", 4, |s| {
        let topo = common::topology(s, 2, 2..5);
        let nodes = topo.node_count();
        let mut spec = churn_spec(nodes, s.any_u64());
        spec.keys_per_tenant = s.range(16..48);
        spec.churn_ops = (14 * logical_capacity_of(nodes)) / 10; // 1.4x capacity
        let lane = Lane::partitioned(common::partition(s, nodes, 2));
        let (errors, _, gc, _) = assert_lanes_agree(&Lane::ONE, &[lane], |lane| {
            let (store, summary) = run_churn(lane.cluster(topo.clone(), &gc_config()), &spec, 48);
            observe_gc(&store, &summary)
        });
        assert_eq!(errors, 0);
        assert!(gc.erases > 0, "churn past capacity must collect: {gc:?}");
    });
}
