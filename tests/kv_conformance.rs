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

use bluedbm::core::{Cluster, ExecMode, GcStats, KvStore, NodeId, SystemConfig};
use bluedbm::flash::FlashGeometry;
use bluedbm::net::Topology;
use bluedbm::trace::{TraceCat, TraceConfig, TraceDoc, ALL_CATEGORIES, STABLE_CATEGORIES};
use bluedbm::workloads::kvgen::{run_requests, KvRunSummary, KvWorkloadSpec};
use bluedbm_check::check;
use common::{assert_lanes_agree, Lane, SHARDED_LANES, TWO_AND_FOUR};

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

/// The scaled-down system with the trace sinks on.
fn traced() -> SystemConfig {
    let mut config = SystemConfig::scaled_down();
    config.sim.trace = TraceConfig::on();
    config
}

/// The 4-node, 4-lane ring of `Cluster::ring`, built under `base` on
/// `lane`.
fn ring4(lane: &Lane, base: &SystemConfig) -> Cluster {
    lane.cluster(Topology::ring(4, 4), base)
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
    let base = SystemConfig::scaled_down();
    let seq = assert_lanes_agree(&Lane::ONE, &TWO_AND_FOUR, |lane| run(&spec, ring4(lane, &base), 64));
    assert_eq!(spec.total_keys(), 480);
    assert!(seq.summary.errors == 0);
    assert!(seq.summary.get_hits > 0 && seq.summary.get_misses > 0);
}

#[test]
fn mesh_kv_with_multi_page_values_matches() {
    // Values spanning several pages: reassembly order, extent free/reuse
    // and the accelerator path all cross shard boundaries.
    let mut spec = small_spec(9);
    spec.keys_per_tenant = 40;
    spec.churn_ops = 160;
    spec.value_bytes = 3 * 2048 + 123; // 4 pages at scaled-down geometry
    let base = SystemConfig::scaled_down();
    let seq = assert_lanes_agree(&Lane::ONE, &TWO_AND_FOUR, |lane| {
        run(&spec, lane.cluster(Topology::mesh2d(3, 3), &base), 48)
    });
    assert_eq!(seq.summary.errors, 0);
}

#[test]
fn kv_runs_are_bit_repeatable_per_engine() {
    let spec = small_spec(4);
    let base = SystemConfig::scaled_down();
    for lane in [Lane::ONE, Lane::new(4, ExecMode::Cooperative)] {
        let a = run(&spec, ring4(&lane, &base), 32);
        let b = run(&spec, ring4(&lane, &base), 32);
        assert_eq!(a, b, "{lane} run not repeatable");
    }
}

#[test]
fn batch_size_does_not_change_results() {
    // The submission batch only bounds driver-side memory; per-op
    // results and final state must not depend on it. (Event totals can:
    // each drive round runs the engines to quiescence, so round
    // boundaries — and e.g. how often parked pages resume — shift.)
    let spec = small_spec(4);
    let base = SystemConfig::scaled_down();
    assert_lanes_agree(&Lane::ONE, &[Lane::new(2, ExecMode::Threads)], |lane| {
        let batch = if lane.shards == 1 { 16 } else { 512 };
        let o = run(&spec, ring4(lane, &base), batch);
        (o.summary.digest, o.summary.ops, o.summary.get_hits, o.keys, o.flash_pages_in_use)
    });
}

#[test]
fn trace_digest_identical_across_all_engines() {
    // The arbitration-independent trace categories (KV op lifecycle)
    // must XOR-fold to the same digest on every engine at every shard
    // count — the merged trace is *observably* the same run.
    let spec = small_spec(4);
    let (_, dropped, _, kv_ops, dispatched) = assert_lanes_agree(&Lane::ONE, &SHARDED_LANES, |lane| {
        let (obs, doc) = run_traced(&spec, ring4(lane, &traced()), 64);
        let stable = doc.digest_stable(STABLE_CATEGORIES);
        (obs, doc.dropped(), stable, doc.count(TraceCat::KvOp), doc.count(TraceCat::Dispatch) > 0)
    });
    assert_eq!(dropped, 0, "conformance topology must fit the ring");
    assert!(kv_ops > 0, "KV lifecycle must be traced");
    assert!(dispatched, "dispatch must be traced");
}

/// Tiny-geometry traced system whose churn phase runs past the GC
/// watermark, so collection traffic (victim / move / erase instants in
/// the `Gc` trace category) interleaves with foreground KV ops.
fn gc_traced() -> SystemConfig {
    let mut config = traced();
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
    let (seq, _, gc_records) = assert_lanes_agree(&Lane::ONE, &SHARDED_LANES, |lane| {
        let (obs, doc) = run_traced(&spec, ring4(lane, &gc_traced()), 64);
        (obs, doc.digest_stable(STABLE_CATEGORIES), doc.count(TraceCat::Gc))
    });
    assert_eq!(seq.summary.errors, 0);
    assert!(seq.gc.erases > 0, "churn must collect: {:?}", seq.gc);
    assert!(seq.gc.relocated > 0, "victims must carry live pages: {:?}", seq.gc);
    assert!(gc_records > 0, "GC lifecycle must be traced");
}

#[test]
fn trace_reruns_are_bit_identical_per_engine() {
    // Within one engine, the *full* digest — every field, including
    // timestamps, shard ids and per-shard sequence numbers — pins
    // rerun-for-rerun bit identity of the whole merged trace.
    let spec = small_spec(4);
    for lane in [Lane::ONE].iter().chain(&SHARDED_LANES[..2]) {
        let (_, a) = run_traced(&spec, ring4(lane, &traced()), 64);
        let (_, b) = run_traced(&spec, ring4(lane, &traced()), 64);
        assert_eq!(a.len(), b.len(), "{lane} record counts diverged");
        assert_eq!(
            a.digest_full(ALL_CATEGORIES),
            b.digest_full(ALL_CATEGORIES),
            "{lane} rerun trace not bit-identical"
        );
    }
}

#[test]
fn threads_and_cooperative_produce_the_same_full_trace() {
    // Threads and Cooperative execute the identical conservative round
    // protocol, so even the engine-internal categories — dispatch
    // instants, mailbox flushes — must match record for record, and the
    // two drivers must count the same sync rounds.
    let spec = small_spec(4);
    for shards in [2, 4] {
        let cooperative = Lane::new(shards, ExecMode::Cooperative);
        assert_lanes_agree(&Lane::new(shards, ExecMode::Threads), &[cooperative], |lane| {
            let mut store = KvStore::new(ring4(lane, &traced()));
            run_requests(&mut store, spec.load().chain(spec.churn()), 64);
            let doc = TraceDoc::merge(store.take_trace());
            (store.cluster().sync_rounds(), doc.len(), doc.digest_full(ALL_CATEGORIES))
        });
    }
}

/// Random topology × random partition map × random workload seed:
/// sharded (up to 2 and up to 4 shards) and sequential runs of the same
/// KV workload must produce identical observations and pass every
/// audit.
#[test]
fn random_topology_partition_and_seed_match_sequential() {
    check("random_topology_partition_and_seed_match_sequential", 6, |s| {
        let topo = common::topology(s, 3, 6..11);
        let nodes = topo.node_count();
        let mut spec = small_spec(nodes);
        spec.keys_per_tenant = 60;
        spec.churn_ops = 200;
        spec.seed = s.any_u64();
        let lanes = [2, 4].map(|shards| Lane::partitioned(common::partition(s, nodes, shards)));
        let base = SystemConfig::scaled_down();
        assert_lanes_agree(&Lane::ONE, &lanes, |lane| run(&spec, lane.cluster(topo.clone(), &base), 40));
    });
}

/// Turning the trace sinks on must never perturb a run: every
/// arbitration-independent observable of a traced run equals the
/// untraced run's, on both engines, for any workload seed.
#[test]
fn trace_capture_never_perturbs_results() {
    check("trace_capture_never_perturbs_results", 6, |s| {
        let mut spec = small_spec(4);
        spec.keys_per_tenant = 40;
        spec.churn_ops = 120;
        spec.seed = s.any_u64();
        let lane = common::exec_lane(s, 1..5);
        let off = run(&spec, ring4(&lane, &SystemConfig::scaled_down()), 32);
        let (on, doc) = run_traced(&spec, ring4(&lane, &traced()), 32);
        assert_eq!(off, on, "tracing perturbed the run on {lane}");
        assert!(!doc.is_empty(), "enabled sinks must capture records");
    });
}

/// A trace ring too small for the run drops records and counts them,
/// and dropping never perturbs the run: completions, digest and event
/// count equal the untraced run's.
#[test]
fn trace_ring_overflow_is_counted_and_never_perturbs_results() {
    let spec = small_spec(4);
    let off = run(&spec, ring4(&Lane::ONE, &SystemConfig::scaled_down()), 64);
    let mut tiny = SystemConfig::scaled_down();
    tiny.sim.trace = TraceConfig::on().with_capacity(64);
    let (on, doc) = run_traced(&spec, ring4(&Lane::ONE, &tiny), 64);
    assert!(doc.dropped() > 0, "a 64-record ring must overflow");
    assert_eq!(off, on, "an overflowing trace ring perturbed the run");
}

/// Capture must never perturb *collection* either: with churn past
/// the GC watermark, the traced and untraced runs must agree on
/// every lifecycle counter (erases, relocations, WA) and every KV
/// observable, for any seed on either sharded engine.
#[test]
fn trace_capture_never_perturbs_gc() {
    check("trace_capture_never_perturbs_gc", 6, |s| {
        let mut spec = gc_spec(4);
        spec.seed = s.any_u64();
        let lane = common::exec_lane(s, 1..5);
        let mut untraced = gc_traced();
        untraced.sim.trace = TraceConfig::default();
        let off = run(&spec, ring4(&lane, &untraced), 64);
        assert!(off.gc.erases > 0, "churn must collect: {:?}", off.gc);
        let (on, doc) = run_traced(&spec, ring4(&lane, &gc_traced()), 64);
        assert_eq!(off, on, "tracing perturbed GC on {lane}");
        assert!(doc.count(TraceCat::Gc) > 0, "GC activity must be captured");
    });
}
