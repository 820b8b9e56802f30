//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is generated from these tables (`bluedbm-benchmark spec`)
//! and `tests/smoke.rs` pins the committed file to them, so the names a
//! run prints and the names the contract lists cannot drift apart.

/// One benchmark workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Threads that must run at once for its host-time metrics to mean
    /// what their names say (on fewer cores they are reported unresolved).
    pub worker_threads: usize,
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is produced, which decides how two runs are compared.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Host wall clock or memory: noisy, compared against the bound.
    Host,
    /// Simulated time or accounting: a pure function of the seed, so two
    /// runs of one commit at one seed must agree exactly.
    Sim,
}

/// One end-to-end metric.
pub struct E2eSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. For `Sim` metrics the
    /// bound has to cover the spread *across seeds* (the driver compares
    /// medians over runs at different seeds); at one seed `compare`
    /// demands equality instead.
    pub bound: f64,
    pub kind: Kind,
    /// Workloads the metric is defined on. Elsewhere the flat result
    /// line carries the placeholder [`NOT_APPLICABLE`].
    pub workloads: &'static [&'static str],
}

/// Value printed for a metric on a workload where it is not defined:
/// the contract wants every end-to-end metric on every workload, and
/// never zero. Human-readable output and result files say `n/a`.
pub const NOT_APPLICABLE: f64 = 1.0;

/// One per-layer metric (layer = crate module).
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const KV_MIXED: &str = "kv_mixed";
pub const KV_MIXED_TRACED: &str = "kv_mixed_traced";
pub const MESH_SCATTER: &str = "mesh_scatter";
pub const MESH_SCATTER_SH2: &str = "mesh_scatter_sh2";
pub const GC_CHURN: &str = "gc_churn";
pub const EXHIBITS: &str = "exhibits";

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: KV_MIXED,
        why: "10^6-key 8-tenant load + zipf 70/20/10 churn on a 4-node ring: core KV driver and flash \
              controller dominate, net is <=2 hops, GC never triggers; working set far past LLC",
        worker_threads: 1,
    },
    WorkloadSpec {
        name: KV_MIXED_TRACED,
        why: "same shape at 500k keys with full trace capture, paired with an untraced twin: the only \
              workload where the trace sink does real work (~10 records per op)",
        worker_threads: 1,
    },
    WorkloadSpec {
        name: MESH_SCATTER,
        why: "1024-node 32x32 mesh, all-to-all page reads on the sequential engine: sim event queue and \
              net router do nearly everything; bypasses the KV driver and GC",
        worker_threads: 1,
    },
    WorkloadSpec {
        name: MESH_SCATTER_SH2,
        why: "the same scatter on 2 worker shards (threads): exercises the shard sync protocol; results \
              must equal the sequential twin's, wall ratio is the honest 2-core speed-up",
        worker_threads: 2,
    },
    WorkloadSpec {
        name: GC_CHURN,
        why: "overwrite-only zipf churn of 6x capacity on a small geometry at 65% occupancy: the only \
              workload where GcAgent, mirror Ftl and erases run (writes beside reads)",
        worker_threads: 1,
    },
    WorkloadSpec {
        name: EXHIBITS,
        why: "every paper table and figure driver: the blocking stream_reads/isp_scan API, host PCIe path \
              and isp engines; carries the paper-anchor accuracy metric",
        worker_threads: 1,
    },
];

const ALL: &[&str] = &[
    KV_MIXED,
    KV_MIXED_TRACED,
    MESH_SCATTER,
    MESH_SCATTER_SH2,
    GC_CHURN,
    EXHIBITS,
];
const SIMULATED: &[&str] = &[
    KV_MIXED,
    KV_MIXED_TRACED,
    MESH_SCATTER,
    MESH_SCATTER_SH2,
    GC_CHURN,
];
const KV: &[&str] = &[KV_MIXED, KV_MIXED_TRACED, GC_CHURN];
const MESH: &[&str] = &[MESH_SCATTER, MESH_SCATTER_SH2];

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> E2eSpec {
    E2eSpec {
        name,
        unit,
        better,
        bound,
        kind: Kind::Host,
        workloads,
    }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    workloads: &'static [&'static str],
) -> E2eSpec {
    E2eSpec {
        name,
        unit,
        better: Better::Lower,
        bound,
        kind: Kind::Sim,
        workloads,
    }
}

/// Simulated times carry `sim_` units so no reader (or tool) mistakes a
/// deterministic simulated clock for a host measurement.
///
/// The bounds are what the spreads measured on the defining host allow
/// (README, "Steadiness"): about three times the interquartile spread of
/// ten runs at ten seeds, capped at the contract's 25 %. Host-time spread
/// on that shared host ranged from 6 % to 28 % with the hour.
pub const END_TO_END: [E2eSpec; 14] = [
    host("setup_s", "s", Better::Lower, 0.25, ALL),
    host("wall_s", "s", Better::Lower, 0.25, ALL),
    host("events_per_s", "1/s", Better::Higher, 0.25, SIMULATED),
    host("ops_per_s", "1/s", Better::Higher, 0.25, ALL),
    host("peak_rss_mb", "MB", Better::Lower, 0.05, ALL),
    sim("sim_time_ms", "sim_ms", 0.08, SIMULATED),
    sim("sim_get_p50_us", "sim_us", 0.25, KV),
    sim("sim_get_p999_us", "sim_us", 0.20, KV),
    sim("sim_put_p50_us", "sim_us", 0.02, KV),
    sim("sim_put_p999_us", "sim_us", 0.25, KV),
    sim("sim_read_p50_us", "sim_us", 0.02, MESH),
    sim("sim_read_p999_us", "sim_us", 0.12, MESH),
    sim("write_amp", "ratio", 0.02, KV),
    sim("anchor_err_pct", "%", 0.10, &[EXHIBITS]),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec { name, unit, better }
}

use Better::{Higher as H, Lower as L};

pub const PER_LAYER: [LayerSpec; 89] = [
    // workloads (generators and exhibit drivers)
    layer("workloads.gen_s", "s", L),
    layer("workloads.exhibit.fig11_s", "s", L),
    layer("workloads.exhibit.fig12_s", "s", L),
    layer("workloads.exhibit.fig13_s", "s", L),
    layer("workloads.exhibit.fig16_s", "s", L),
    layer("workloads.exhibit.fig17_s", "s", L),
    layer("workloads.exhibit.fig18_s", "s", L),
    layer("workloads.exhibit.fig19_s", "s", L),
    layer("workloads.exhibit.fig20_s", "s", L),
    layer("workloads.exhibit.fig21_s", "s", L),
    layer("workloads.exhibit.fig11_lane_gbps", "Gb/s", H),
    layer("workloads.exhibit.fig11_hop_us", "sim_us", L),
    layer("workloads.exhibit.fig13_host_local_gbps", "GB/s", H),
    layer("workloads.exhibit.fig13_isp_local_gbps", "GB/s", H),
    layer("workloads.exhibit.fig13_isp_2nodes_gbps", "GB/s", H),
    layer("workloads.exhibit.fig13_isp_3nodes_gbps", "GB/s", H),
    // core.kv
    layer("core.kv.submit_s", "s", L),
    layer("core.kv.drive_s", "s", L),
    layer("core.kv.drive_calls", "count", L),
    layer("core.kv.ops_per_drive", "count", H),
    layer("core.kv.load_s", "s", L),
    layer("core.kv.churn_s", "s", L),
    layer("core.kv.load_slowdown_x", "ratio", L),
    layer("core.kv.teardown_s", "s", L),
    layer("core.kv.gate_wait_total_us", "sim_us", L),
    layer("core.kv.gate_wait_max_us", "sim_us", L),
    // core.cluster
    layer("core.cluster.build_s", "s", L),
    layer("core.cluster.preload_s", "s", L),
    layer("core.cluster.inject_s", "s", L),
    layer("core.cluster.run_s", "s", L),
    layer("core.cluster.harvest_s", "s", L),
    // core.agent / core.sched
    layer("core.agent.local_reads", "count", L),
    layer("core.agent.remote_reads", "count", L),
    layer("core.agent.accel_jobs", "count", L),
    layer("core.agent.parked_pages", "count", L),
    layer("core.sched.granted", "count", L),
    layer("core.sched.parked", "count", L),
    layer("core.sched.peak_parked", "count", L),
    layer("core.sched.mean_wait_us", "sim_us", L),
    layer("core.sched.max_wait_us", "sim_us", L),
    // core.gc / ftl
    layer("core.gc.host_writes", "count", L),
    layer("core.gc.gc_writes", "count", L),
    layer("core.gc.erases", "count", L),
    layer("core.gc.relocated", "count", L),
    layer("core.gc.moves_per_erase", "ratio", L),
    layer("core.gc.wear_spread", "count", L),
    layer("core.gc.stalled_put_share", "ratio", L),
    layer("ftl.step_write_ns", "ns", L),
    // sim.engine / sim.kernel
    layer("sim.engine.events", "count", L),
    layer("sim.engine.ns_per_event", "ns", L),
    layer("sim.engine.cold_ns_per_event", "ns", L),
    layer("sim.kernel.fastq_ns_per_event", "ns", L),
    layer("sim.kernel.heap_ns_per_event", "ns", L),
    // sim.shard
    layer("sim.shard.sync_rounds", "count", L),
    layer("sim.shard.events_per_round", "count", H),
    layer("sim.shard.spins", "count", L),
    layer("sim.shard.parks", "count", L),
    layer("sim.shard.rollbacks", "count", L),
    layer("sim.shard.imbalance_pct", "%", L),
    layer("sim.shard.spin_s", "s", L),
    layer("sim.shard.park_s", "s", L),
    layer("sim.shard.execute_s", "s", L),
    layer("sim.shard.speedup_x", "ratio", H),
    // sim.pagestore
    layer("sim.pagestore.live_pages", "count", L),
    // net.router
    layer("net.router.injected", "count", L),
    layer("net.router.forwarded", "count", L),
    layer("net.router.delivered", "count", L),
    layer("net.router.credit_stalls", "count", L),
    layer("net.router.hops_per_packet", "ratio", L),
    layer("net.router.latency_p50_us", "sim_us", L),
    layer("net.router.order_violations", "count", L),
    layer("net.router.probe_ns_per_packet", "ns", L),
    // flash.ctrl
    layer("flash.ctrl.reads", "count", L),
    layer("flash.ctrl.tag_stalls", "count", L),
    layer("flash.ctrl.peak_in_flight", "count", L),
    layer("flash.ctrl.read_latency_p50_us", "sim_us", L),
    // host / isp
    layer("host.bufpool.parked_pages", "count", L),
    layer("isp.mp_gbps", "GB/s", H),
    layer("isp.hamming_gbps", "GB/s", H),
    layer("isp.filter_gbps", "GB/s", H),
    // trace
    layer("trace.records", "count", L),
    layer("trace.dropped", "count", L),
    layer("trace.capture_overhead_pct", "%", L),
    layer("trace.ns_per_record", "ns", L),
    layer("trace.merge_s", "s", L),
    layer("trace.bench_span_overhead_pct", "%", L),
    // the benchmark's own work inside a repetition (oracle, checks)
    layer("bench.oracle_s", "s", L),
    layer("bench.check_s", "s", L),
    layer("bench.unattributed_s", "s", L),
];

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u32 = 15;

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn e2e(name: &str) -> Option<&'static E2eSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Render `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name,
                    one_line(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Collapse the source-code line continuations of a `why` into one line.
fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}
