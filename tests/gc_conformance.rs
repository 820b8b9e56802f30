//! Flash-lifecycle conformance: the DES garbage collector pinned
//! against the offline [`Ftl`] twin.
//!
//! The cluster runs GC *in the simulation* — a per-node `GcAgent`
//! issues relocation reads, programs and erases as ordinary commands on
//! the same buses and controllers as foreground traffic — while a
//! driver-side mirror `Ftl` per card decides placement and victims.
//! This suite replays each card's recorded logical lifecycle (every
//! host write and trim, in order) through a fresh offline `Ftl` built
//! over an identical blank array and requires bit-level agreement on:
//!
//! * the GC victim sequence and every relocation `(from, to)` pair;
//! * the full logical→physical mapping table;
//! * cumulative stats — host writes, flash writes, erases, moves, WA;
//! * the *simulated* arrays themselves: program bitmaps and per-block
//!   erase counts of the DES flash must match the twin's shadow page
//!   for page (lockstep physics, not just lockstep bookkeeping).
//!
//! Cross-engine: the same churn on Threads / Cooperative at 2 and 4
//! shards must leave identical GC state, identical KV results and
//! identical flash wear.
//!
//! The SSD cliff: churn past device capacity forces GC migration onto
//! the foreground path, and the regression test pins that tenants see
//! it where production would — in put tail latency (p999).

mod common;

use proptest::prelude::*;

use bluedbm::core::{Cluster, ExecMode, KvStore, NodeId, SystemConfig};
use bluedbm::flash::FlashArray;
use bluedbm::flash::FlashGeometry;
use bluedbm::ftl::FtlStats;
use bluedbm::net::Topology;
use bluedbm::sim::time::SimTime;
use bluedbm::workloads::kvgen::{run_requests, KvRequest, KvRunSummary, KvWorkloadSpec};

/// Scaled-down system on the tiny flash geometry (512 pages x 512 B
/// per card, 2 cards per node) so churn reaches the GC watermark in
/// test time. GC is on by default in `SystemConfig`.
fn gc_config(shards: usize, exec: ExecMode) -> SystemConfig {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = FlashGeometry::tiny();
    config.sim.shards = shards;
    config.sim.exec = exec;
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

/// Load the keyspace, then churn it with `churn_ops` zipfian overwrites.
fn run_churn(config: &SystemConfig, nodes: usize, seed: u64, churn_ops: u64) -> (KvStore, KvRunSummary) {
    let mut store = KvStore::new(Cluster::ring(nodes, config).expect("cluster"));
    let mut spec = churn_spec(nodes, seed);
    spec.churn_ops = churn_ops;
    let summary = run_requests(&mut store, spec.load().chain(spec.churn()), 64);
    store.cluster().assert_quiescent();
    store.assert_no_stranded_pages();
    (store, summary)
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
            // Same blank array the cluster builds: same seed, so the
            // same bad-block map and the same physics.
            let shadow_seed = ((0xB1DE + (n as u64)) << 8) | card as u64;
            let (twin, rounds) = common::replay_lifecycle(
                FlashArray::new(geom, shadow_seed),
                config.gc.ftl(),
                cluster.lifecycle_log(node, card),
            );

            // Victim sequence and every relocation pair, in order.
            assert_eq!(
                rounds.as_slice(),
                cluster.gc_rounds_log(node, card),
                "node {n} card {card}: GC round sequence diverged"
            );

            // Mapping table and cumulative stats.
            let mirror = cluster.mirror(node, card);
            assert_eq!(
                twin.stats(),
                mirror.stats(),
                "node {n} card {card}: twin stats diverged"
            );
            for lba in 0..twin.capacity_pages() {
                assert_eq!(
                    twin.physical_of(lba),
                    mirror.physical_of(lba),
                    "node {n} card {card}: mapping of lba {lba} diverged"
                );
            }

            // Physical lockstep: the DES array (real data, written by
            // simulated commands racing foreground traffic) and the
            // twin's shadow (blank pages) must agree on which cells are
            // programmed and how often each block was erased.
            let des = cluster.card_array(node, card);
            let shadow = twin.array();
            for linear in 0..geom.total_pages() {
                let ppa = geom.ppa_of(linear);
                assert_eq!(
                    des.is_programmed(ppa),
                    shadow.is_programmed(ppa),
                    "node {n} card {card} page {linear}: program bitmap diverged"
                );
                assert_eq!(
                    des.erase_count(ppa),
                    shadow.erase_count(ppa),
                    "node {n} card {card} page {linear}: erase count diverged"
                );
            }
        }
    }
}

/// Everything GC-observable about a cluster, for cross-engine equality:
/// per-card FTL stats, full mapping tables, and the physical state of
/// every simulated page.
#[allow(clippy::type_complexity)]
fn gc_fingerprint(cluster: &Cluster) -> Vec<(FtlStats, Vec<Option<bluedbm::flash::Ppa>>, Vec<(bool, u64)>)> {
    let config = cluster.config();
    let geom = config.flash.geometry;
    let mut cards = Vec::new();
    for n in 0..cluster.node_count() {
        let node = NodeId::from(n);
        for card in 0..config.flash.cards_per_node {
            let mirror = cluster.mirror(node, card);
            let mapping = (0..mirror.capacity_pages()).map(|lba| mirror.physical_of(lba)).collect();
            let des = cluster.card_array(node, card);
            let physical = (0..geom.total_pages())
                .map(|linear| {
                    let ppa = geom.ppa_of(linear);
                    (des.is_programmed(ppa), des.erase_count(ppa))
                })
                .collect();
            cards.push((mirror.stats(), mapping, physical));
        }
    }
    cards
}

// ---------------------------------------------------------------------
// Headline: DES lifecycle vs offline twin
// ---------------------------------------------------------------------

/// Overwrite churn at 2x logical capacity triggers real collection
/// (erases, relocations, WA > 1) and the whole lifecycle — victims,
/// moves, mapping, wear — agrees op for op with the offline twin.
///
/// This is also the satellite flip: before the lifecycle existed this
/// volume of churn could only complete by reprogramming trimmed cells
/// in place (see `churn_without_the_lifecycle_never_erases`); with GC
/// live it completes with zero errors and no `FtlError::NoSpace`
/// anywhere (an out-of-space mirror panics the injection path, so
/// completing *is* the assertion).
#[test]
fn churn_at_twice_capacity_collects_and_agrees_with_the_offline_twin() {
    let config = gc_config(1, ExecMode::Auto);
    let churn = 2 * logical_capacity_of(&config, 2);
    let (store, summary) = run_churn(&config, 2, 0x5EED, churn);
    assert_eq!(summary.errors, 0, "churn must complete error-free");

    let gc = store.cluster().gc_stats();
    assert!(gc.erases > 0, "2x-capacity churn must trigger GC: {gc:?}");
    assert!(gc.relocated > 0, "GC must relocate live pages: {gc:?}");
    assert!(gc.wa() > 1.0, "relocation must show up as WA: {}", gc.wa());

    // The in-sim agents performed exactly the work the mirrors decided.
    let (mut agent_erases, mut agent_moves) = (0, 0);
    for n in 0..store.cluster().node_count() {
        let stats = store.cluster().gc_agent_stats(NodeId::from(n));
        agent_erases += stats.erases;
        agent_moves += stats.moves;
    }
    assert_eq!(agent_erases, gc.erases, "agent erases vs mirror erases");
    assert_eq!(agent_moves, gc.relocated, "agent moves vs mirror moves");

    assert_twin_agrees(store.cluster());
}

/// Total logical capacity for a ring of `nodes` under `config`,
/// without keeping the probe cluster around.
fn logical_capacity_of(config: &SystemConfig, nodes: usize) -> u64 {
    logical_capacity(&Cluster::ring(nodes, config).expect("cluster"))
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
    let seq_config = gc_config(1, ExecMode::Auto);
    let churn = (13 * logical_capacity_of(&seq_config, NODES)) / 10; // 1.3x capacity
    let (seq_store, seq_summary) = run_churn(&seq_config, NODES, 0x5EED, churn);
    let seq_gc = seq_store.cluster().gc_stats();
    assert!(seq_gc.erases > 0, "baseline must collect: {seq_gc:?}");
    let seq_digest = seq_summary.digest;
    let seq_print = gc_fingerprint(seq_store.cluster());
    assert_twin_agrees(seq_store.cluster());

    for exec in [ExecMode::Threads, ExecMode::Cooperative] {
        for shards in [2usize, 4] {
            let config = gc_config(shards, exec);
            let (store, summary) = run_churn(&config, NODES, 0x5EED, churn);
            assert_eq!(summary.errors, 0, "{exec:?}@{shards}");
            assert_eq!(summary.digest, seq_digest, "{exec:?}@{shards}: KV digest diverged");
            assert_eq!(
                store.cluster().gc_stats(),
                seq_gc,
                "{exec:?}@{shards}: GC stats diverged"
            );
            assert_eq!(
                gc_fingerprint(store.cluster()),
                seq_print,
                "{exec:?}@{shards}: GC fingerprint diverged"
            );
            assert_twin_agrees(store.cluster());
        }
    }
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
    let config = gc_config(1, ExecMode::Auto);
    let spec = churn_spec(2, 0x5EED);

    // Below the cliff: load + light churn, never reaching the
    // watermark.
    let mut calm = KvStore::new(Cluster::ring(2, &config).expect("cluster"));
    let mut calm_lat = put_latencies(&mut calm, spec.load().chain(spec.overwrite_churn(200)));
    assert_eq!(calm.cluster().gc_stats().erases, 0, "calm run must not collect");
    let calm_p999 = p999(&mut calm_lat);

    // Past the cliff: 2x capacity of cumulative writes.
    let churn = 2 * logical_capacity_of(&config, 2);
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
// Satellite pin/flip: churn past capacity without the lifecycle
// ---------------------------------------------------------------------

/// Pin: a lifecycle with no collection reserve is structurally
/// impossible — relocation would have nowhere to land and sustained
/// churn would die with `FtlError::NoSpace` mid-run, so the FTL rejects
/// the configuration at construction.
#[test]
#[should_panic(expected = "GC needs a reserve block")]
fn lifecycle_without_a_reserve_block_is_rejected() {
    let mut config = gc_config(1, ExecMode::Auto);
    config.gc.gc_watermark = 0;
    let _ = Cluster::ring(2, &config);
}

/// Pin: with the lifecycle disabled, churn past raw capacity only
/// "completes" because per-page trim pretends flash cells are
/// reprogrammable in place — the device absorbs ~2x its raw capacity
/// in programs without a single erase, which no real flash can do.
/// This is the pre-GC behavior the lifecycle replaces (the flip is
/// `churn_at_twice_capacity_collects_and_agrees_with_the_offline_twin`).
#[test]
fn churn_without_the_lifecycle_never_erases() {
    let mut config = gc_config(1, ExecMode::Auto);
    config.gc.enabled = false;
    let geom = config.flash.geometry;
    let raw_pages = (2 * config.flash.cards_per_node * geom.total_pages()) as u64;
    let (store, summary) = run_churn(&config, 2, 0x5EED, 2 * raw_pages);
    assert_eq!(summary.errors, 0);
    assert!(summary.puts > raw_pages, "churn must exceed raw capacity");
    for n in 0..store.cluster().node_count() {
        for card in 0..config.flash.cards_per_node {
            assert_eq!(
                store.cluster().card_array(NodeId::from(n), card).max_wear(),
                0,
                "node {n} card {card}: the GC-less store never erases"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property: random topology x partition x churn seed
// ---------------------------------------------------------------------

/// Deterministic mixer for the property test's derived choices.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any small topology, any node -> shard partition and any
    /// churn seed: the sequential run agrees with its offline twin,
    /// and a sharded run leaves the identical KV digest and GC
    /// fingerprint.
    #[test]
    fn random_topology_partition_and_seed_agree_with_the_twin(
        shape in 0u8..2,
        size in 2usize..5,
        seed: u64,
        keys in 16u64..48,
    ) {
        let topo = || match shape {
            0 => Topology::ring(size, 2),
            _ => Topology::line(size, 2),
        };
        let nodes = topo().node_count();
        let mut spec = churn_spec(nodes, seed);
        spec.keys_per_tenant = keys;

        let config = gc_config(1, ExecMode::Auto);
        let churn = (14 * logical_capacity_of(&config, nodes)) / 10; // 1.4x capacity
        spec.churn_ops = churn;
        let run = |cluster: Cluster| {
            let mut store = KvStore::new(cluster);
            let summary = run_requests(&mut store, spec.load().chain(spec.churn()), 48);
            store.cluster().assert_quiescent();
            store.assert_no_stranded_pages();
            (store, summary)
        };

        let (seq_store, seq_summary) = run(Cluster::new(topo(), &config).unwrap());
        prop_assert_eq!(seq_summary.errors, 0);
        let gc = seq_store.cluster().gc_stats();
        prop_assert!(gc.erases > 0, "churn past capacity must collect: {:?}", gc);
        assert_twin_agrees(seq_store.cluster());

        // Random node -> shard map over 2 shards; shard 0 always
        // inhabited so the shard count survives the draw.
        let partition: Vec<u32> = (0..nodes)
            .map(|n| if n == 0 { 0 } else { (mix(seed ^ (n as u64) << 8) % 2) as u32 })
            .collect();
        let (sharded_store, sharded_summary) =
            run(Cluster::with_partition(topo(), &config, &partition).unwrap());
        prop_assert!(
            seq_summary.digest == sharded_summary.digest,
            "KV digest diverged under partition {:?}",
            partition
        );
        prop_assert!(
            gc_fingerprint(seq_store.cluster()) == gc_fingerprint(sharded_store.cluster()),
            "GC fingerprint diverged under partition {:?}",
            partition
        );
        assert_twin_agrees(sharded_store.cluster());
    }
}
