//! Cross-engine conformance for the multi-tenant KV workload engine:
//! the sequential kernel and the sharded parallel runtime must agree on
//! every arbitration-independent KV observable.
//!
//! Extends the PR 4 determinism contract (`tests/sharded.rs`) one layer
//! up, to whole KV operations: for any topology, any node → shard
//! partition and any workload,
//!
//! * per-op results — values read, hit/miss outcomes, errors — are
//!   identical (folded into the order-independent `KvRunSummary`
//!   digest);
//! * op counts, event totals, directory state, flash-extent accounting
//!   and every additive agent / scheduler counter are identical;
//! * the leak audits (payload handles, pooled control blocks, stranded
//!   flash extents) pass on every engine.
//!
//! *Not* compared: queue waits and park counts (scheduler or buffer
//! pool) — which same-instant rival wins a unit is a same-cycle
//! arbitration choice each engine resolves deterministically but not
//! necessarily identically (see `bluedbm_sim::shard`).

mod common;

use proptest::prelude::*;

use bluedbm::core::{Cluster, ExecMode, GcStats, KvStore, NodeId, SystemConfig};
use bluedbm::flash::FlashGeometry;
use bluedbm::net::Topology;
use bluedbm::trace::{TraceCat, TraceConfig, TraceDoc, ALL_CATEGORIES, STABLE_CATEGORIES};
use bluedbm::workloads::kvgen::{run_requests, KvRunSummary, KvWorkloadSpec};

/// Everything arbitration-independent a KV run exposes.
#[derive(Debug, PartialEq)]
struct KvObservation {
    summary: KvRunSummary,
    events: u64,
    keys: usize,
    flash_pages_in_use: u64,
    /// Cumulative flash-lifecycle counters (all-zero when the workload
    /// never reaches the GC watermark).
    gc: GcStats,
    /// Per node: (sched submitted, sched completed, agent accel jobs,
    /// agent ops, agent completions).
    nodes: Vec<(u64, u64, u64, u64, u64)>,
}

fn observe(store: &KvStore, mut summary: KvRunSummary) -> KvObservation {
    // The final quiescent clock is *timing*: under same-instant
    // contention queueing redistributes within the contended instant, so
    // engines may quiesce picoseconds apart. Results are compared;
    // clocks are not.
    summary.sim_time = bluedbm::sim::time::SimTime::ZERO;
    let cluster = store.cluster();
    KvObservation {
        summary,
        events: cluster.events_delivered(),
        keys: store.len(),
        flash_pages_in_use: cluster.flash_pages_in_use(),
        gc: cluster.gc_stats(),
        nodes: (0..cluster.node_count())
            .map(|n| {
                let node = NodeId::from(n);
                let sched = cluster.sched_stats(node);
                let agent = cluster.agent_stats(node);
                (
                    sched.submitted,
                    sched.completed,
                    agent.accel_jobs,
                    agent.ops,
                    agent.completions,
                )
            })
            .collect(),
    }
}

/// Drive `spec` on `cluster` and collect the observation (plus run the
/// leak audits, which must pass on every engine).
fn run(spec: &KvWorkloadSpec, cluster: Cluster, batch: usize) -> KvObservation {
    let mut store = KvStore::new(cluster);
    let summary = run_requests(&mut store, spec.load().chain(spec.churn()), batch);
    store.cluster().assert_quiescent();
    store.assert_no_stranded_pages();
    observe(&store, summary)
}

/// As [`run`], but with the trace sinks enabled: returns the merged
/// trace document beside the observation.
fn run_traced(spec: &KvWorkloadSpec, cluster: Cluster, batch: usize) -> (KvObservation, TraceDoc) {
    let mut store = KvStore::new(cluster);
    let summary = run_requests(&mut store, spec.load().chain(spec.churn()), batch);
    store.cluster().assert_quiescent();
    store.assert_no_stranded_pages();
    let obs = observe(&store, summary);
    let doc = TraceDoc::merge(store.take_trace());
    (obs, doc)
}

fn config_with_shards(shards: usize) -> SystemConfig {
    let mut config = SystemConfig::scaled_down();
    config.sim.shards = shards;
    config
}

fn traced_config(shards: usize, exec: ExecMode) -> SystemConfig {
    let mut config = config_with_shards(shards);
    config.sim.exec = exec;
    config.sim.trace = TraceConfig::on();
    config
}

fn small_spec(nodes: usize) -> KvWorkloadSpec {
    KvWorkloadSpec {
        tenants: 4,
        keys_per_tenant: 120,
        churn_ops: 300,
        read_fraction: 0.6,
        delete_fraction: 0.15,
        zipf_exponent: 0.99,
        value_bytes: 700, // ~a third of a scaled-down page
        nodes,
        seed: 0x5EED,
    }
}

#[test]
fn ring4_kv_identical_at_2_and_4_shards() {
    let spec = small_spec(4);
    let seq = run(&spec, Cluster::ring(4, &config_with_shards(1)).unwrap(), 64);
    assert_eq!(spec.total_keys(), 480);
    assert!(seq.summary.errors == 0);
    assert!(seq.summary.get_hits > 0 && seq.summary.get_misses > 0);
    for shards in [2, 4] {
        let sharded = run(&spec, Cluster::ring(4, &config_with_shards(shards)).unwrap(), 64);
        assert_eq!(seq, sharded, "{shards}-shard KV run diverged from sequential");
    }
}

#[test]
fn mesh_kv_with_multi_page_values_matches() {
    // Values spanning several pages: reassembly order, extent free/reuse
    // and the accelerator path all cross shard boundaries.
    let mut spec = small_spec(9);
    spec.keys_per_tenant = 40;
    spec.churn_ops = 160;
    spec.value_bytes = 3 * 2048 + 123; // 4 pages at scaled-down geometry
    let topo = || Topology::mesh2d(3, 3);
    let seq = run(&spec, Cluster::new(topo(), &config_with_shards(1)).unwrap(), 48);
    assert_eq!(seq.summary.errors, 0);
    for shards in [2, 4] {
        let sharded = run(&spec, Cluster::new(topo(), &config_with_shards(shards)).unwrap(), 48);
        assert_eq!(seq, sharded, "{shards}-shard multi-page run diverged");
    }
}

#[test]
fn kv_runs_are_bit_repeatable_per_engine() {
    let spec = small_spec(4);
    for shards in [1, 4] {
        let a = run(&spec, Cluster::ring(4, &config_with_shards(shards)).unwrap(), 32);
        let b = run(&spec, Cluster::ring(4, &config_with_shards(shards)).unwrap(), 32);
        assert_eq!(a, b, "{shards}-shard run not repeatable");
    }
}

#[test]
fn batch_size_does_not_change_results() {
    // The submission batch only bounds driver-side memory; per-op
    // results and final state must not depend on it. (Event totals can:
    // each drive round runs the engines to quiescence, so round
    // boundaries — and e.g. how often parked pages resume — shift.)
    let spec = small_spec(4);
    let a = run(&spec, Cluster::ring(4, &config_with_shards(1)).unwrap(), 16);
    let b = run(&spec, Cluster::ring(4, &config_with_shards(2)).unwrap(), 512);
    assert_eq!(a.summary.digest, b.summary.digest);
    assert_eq!(a.summary.ops, b.summary.ops);
    assert_eq!(a.summary.get_hits, b.summary.get_hits);
    assert_eq!(a.keys, b.keys);
    assert_eq!(a.flash_pages_in_use, b.flash_pages_in_use);
}

#[test]
fn trace_digest_identical_across_all_engines() {
    // The arbitration-independent trace categories (KV op lifecycle)
    // must XOR-fold to the same digest on every engine at every shard
    // count — the merged trace is *observably* the same run.
    let spec = small_spec(4);
    let (seq_obs, seq_doc) =
        run_traced(&spec, Cluster::ring(4, &traced_config(1, ExecMode::Auto)).unwrap(), 64);
    assert_eq!(seq_doc.dropped(), 0, "conformance topology must fit the ring");
    assert!(seq_doc.count(TraceCat::KvOp) > 0, "KV lifecycle must be traced");
    assert!(seq_doc.count(TraceCat::Dispatch) > 0, "dispatch must be traced");
    let stable = seq_doc.digest_stable(STABLE_CATEGORIES);
    for (shards, exec) in common::SHARDED_LANES {
        let (obs, doc) = run_traced(
            &spec,
            Cluster::ring(4, &traced_config(shards, exec)).unwrap(),
            64,
        );
        assert_eq!(seq_obs, obs, "{exec:?}@{shards} observation diverged");
        assert_eq!(doc.dropped(), 0, "{exec:?}@{shards} dropped records");
        assert_eq!(
            doc.digest_stable(STABLE_CATEGORIES),
            stable,
            "{exec:?}@{shards} stable trace digest diverged from sequential"
        );
    }
}

/// Tiny-geometry system whose churn phase runs past the GC watermark,
/// so collection traffic (victim / move / erase instants in the `Gc`
/// trace category) interleaves with foreground KV ops.
fn gc_traced_config(shards: usize, exec: ExecMode) -> SystemConfig {
    let mut config = traced_config(shards, exec);
    config.flash.geometry = FlashGeometry::tiny();
    config
}

/// Overwrite-heavy spec sized to collect on tiny geometry: the live
/// set fills ~65% of logical capacity and the churn rewrites ~1.3x
/// capacity, so victims carry valid pages and GC both erases and
/// relocates.
fn gc_spec(nodes: usize) -> KvWorkloadSpec {
    KvWorkloadSpec {
        tenants: 4,
        keys_per_tenant: 125 * nodes as u64,
        churn_ops: 1000 * nodes as u64,
        read_fraction: 0.0,
        delete_fraction: 0.0,
        zipf_exponent: 0.99,
        value_bytes: 400, // one tiny-geometry page
        nodes,
        seed: 0x5EED,
    }
}

#[test]
fn gc_active_trace_digest_identical_across_all_engines() {
    // With collection live, the stable digest covers the Gc category
    // too: every engine must report the identical victim / relocation /
    // erase sequence, not just the same KV results.
    let spec = gc_spec(4);
    let (seq_obs, seq_doc) =
        run_traced(&spec, Cluster::ring(4, &gc_traced_config(1, ExecMode::Auto)).unwrap(), 64);
    assert_eq!(seq_obs.summary.errors, 0);
    assert!(seq_obs.gc.erases > 0, "churn must collect: {:?}", seq_obs.gc);
    assert!(seq_obs.gc.relocated > 0, "victims must carry live pages: {:?}", seq_obs.gc);
    assert!(seq_doc.count(TraceCat::Gc) > 0, "GC lifecycle must be traced");
    let stable = seq_doc.digest_stable(STABLE_CATEGORIES);
    for (shards, exec) in common::SHARDED_LANES {
        let (obs, doc) = run_traced(
            &spec,
            Cluster::ring(4, &gc_traced_config(shards, exec)).unwrap(),
            64,
        );
        assert_eq!(seq_obs, obs, "{exec:?}@{shards} GC-active observation diverged");
        assert_eq!(
            doc.digest_stable(STABLE_CATEGORIES),
            stable,
            "{exec:?}@{shards} GC-active stable digest diverged"
        );
    }
}

#[test]
fn trace_reruns_are_bit_identical_per_engine() {
    // Within one engine, the *full* digest — every field, including
    // timestamps, shard ids and per-shard sequence numbers — pins
    // rerun-for-rerun bit identity of the whole merged trace.
    let spec = small_spec(4);
    for (shards, exec) in [
        (1, ExecMode::Auto),
        (2, ExecMode::Threads),
        (2, ExecMode::Cooperative),
    ] {
        let mk = || Cluster::ring(4, &traced_config(shards, exec)).unwrap();
        let (_, a) = run_traced(&spec, mk(), 64);
        let (_, b) = run_traced(&spec, mk(), 64);
        assert_eq!(a.len(), b.len(), "{exec:?}@{shards} record counts diverged");
        assert_eq!(
            a.digest_full(ALL_CATEGORIES),
            b.digest_full(ALL_CATEGORIES),
            "{exec:?}@{shards} rerun trace not bit-identical"
        );
    }
}

#[test]
fn threads_and_cooperative_produce_the_same_full_trace() {
    // Threads and Cooperative execute the identical conservative round
    // protocol, so even the engine-internal categories — dispatch
    // instants, mailbox flushes — must match record for record.
    let spec = small_spec(4);
    for shards in [2, 4] {
        let (_, t) = run_traced(
            &spec,
            Cluster::ring(4, &traced_config(shards, ExecMode::Threads)).unwrap(),
            64,
        );
        let (_, c) = run_traced(
            &spec,
            Cluster::ring(4, &traced_config(shards, ExecMode::Cooperative)).unwrap(),
            64,
        );
        assert_eq!(t.len(), c.len(), "{shards}-shard record counts diverged");
        assert_eq!(
            t.digest_full(ALL_CATEGORIES),
            c.digest_full(ALL_CATEGORIES),
            "{shards}-shard threads/cooperative traces diverged"
        );
    }
}

/// Deterministic mixer for the property test's derived choices.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random topology × random partition map × random workload seed:
    /// sharded (2 and 4 shards) and sequential runs of the same KV
    /// workload must produce identical observations and pass every
    /// audit.
    #[test]
    fn random_topology_partition_and_seed_match_sequential(
        shape in 0u8..3,
        size in 6usize..11,
        seed: u64,
    ) {
        let topo = || match shape {
            0 => Topology::ring(size, 2),
            1 => Topology::line(size, 2),
            _ => Topology::mesh2d(3, size.div_ceil(3)),
        };
        let nodes = topo().node_count();
        let mut spec = small_spec(nodes);
        spec.keys_per_tenant = 60;
        spec.churn_ops = 200;
        spec.seed = seed;
        let seq = run(&spec, Cluster::new(topo(), &config_with_shards(1)).unwrap(), 40);
        for shards in [2u32, 4] {
            // Random node -> shard map over up to `shards` shards,
            // relabelled dense from 0 (a draw can miss an id, and
            // `Cluster::with_partition` rejects a map with an empty
            // shard).
            let drawn: Vec<u32> = (0..nodes)
                .map(|n| if n == 0 { 0 } else { (mix(seed ^ (n as u64) << 8) % u64::from(shards)) as u32 })
                .collect();
            let mut ids = drawn.clone();
            ids.sort_unstable();
            ids.dedup();
            let partition: Vec<u32> = drawn
                .iter()
                .map(|s| ids.binary_search(s).expect("own id") as u32)
                .collect();
            let cluster = Cluster::with_partition(topo(), &config_with_shards(1), &partition).unwrap();
            let sharded = run(&spec, cluster, 40);
            prop_assert!(
                seq == sharded,
                "shards={shards} partition={partition:?} diverged: seq={seq:?} sharded={sharded:?}"
            );
        }
    }

    /// Turning the trace sinks on must never perturb a run: every
    /// arbitration-independent observable of a traced run equals the
    /// untraced run's, on both engines, for any workload seed.
    #[test]
    fn trace_capture_never_perturbs_results(
        seed: u64,
        shards in 1usize..5,
        cooperative: bool,
    ) {
        let exec = if cooperative { ExecMode::Cooperative } else { ExecMode::Threads };
        let mut spec = small_spec(4);
        spec.keys_per_tenant = 40;
        spec.churn_ops = 120;
        spec.seed = seed;
        let mut off_config = config_with_shards(shards);
        off_config.sim.exec = exec;
        let off = run(&spec, Cluster::ring(4, &off_config).unwrap(), 32);
        let (on, doc) =
            run_traced(&spec, Cluster::ring(4, &traced_config(shards, exec)).unwrap(), 32);
        prop_assert!(
            off == on,
            "tracing perturbed the run (shards={shards} exec={exec:?}): off={off:?} on={on:?}"
        );
        prop_assert!(!doc.is_empty(), "enabled sinks must capture records");
    }

    /// Capture must never perturb *collection* either: with churn past
    /// the GC watermark, the traced and untraced runs must agree on
    /// every lifecycle counter (erases, relocations, WA) and every KV
    /// observable, for any seed on either sharded engine.
    #[test]
    fn trace_capture_never_perturbs_gc(
        seed: u64,
        shards in 1usize..5,
        cooperative: bool,
    ) {
        let exec = if cooperative { ExecMode::Cooperative } else { ExecMode::Threads };
        let mut spec = gc_spec(4);
        spec.seed = seed;
        let mut off_config = gc_traced_config(shards, exec);
        off_config.sim.trace = TraceConfig::default();
        let off = run(&spec, Cluster::ring(4, &off_config).unwrap(), 64);
        prop_assert!(off.gc.erases > 0, "churn must collect: {:?}", off.gc);
        let (on, doc) =
            run_traced(&spec, Cluster::ring(4, &gc_traced_config(shards, exec)).unwrap(), 64);
        prop_assert!(
            off == on,
            "tracing perturbed GC (shards={shards} exec={exec:?}): off={off:?} on={on:?}"
        );
        prop_assert!(doc.count(TraceCat::Gc) > 0, "GC activity must be captured");
    }
}
