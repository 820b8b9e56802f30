//! Million-key multi-tenant KV workload on both execution engines.
//!
//! Loads a keyspace (default 10⁶ keys across 8 tenants), then churns it
//! with a zipfian 70/20/10 get/overwrite/delete mix, through the async
//! `KvStore` engine on a 4-node ring — three lanes: the sequential
//! kernel (`seq`), then 2 and 4 worker shards (`shard2`, `shard4`,
//! `ExecMode::Auto`) — and checks that every
//! arbitration-independent observable (per-op results digest, op
//! counts, leak audits) is identical across engines.
//!
//! Observability: per-tenant latency percentiles come from the
//! `TenantStats` histograms, engine/node counters from the unified
//! `MetricsRegistry` snapshot (`KvStore::metrics`), and setting
//! `BLUEDBM_TRACE=<prefix>` captures the deterministic event trace of
//! every run, writing `<prefix>-<engine>.bin` (binary, for `simtrace`)
//! and `<prefix>-<engine>.json` (Chrome `trace_event`, load in
//! Perfetto). Both are streamed to the file straight from the sinks'
//! sorted runs: the `.bin` is the runs' bytes as captured, and the
//! `.json` is written as the exporter merges them; `simtrace --chrome` on the
//! `.bin` writes the same `.json` bytes (CI's trace-smoke job `cmp`s
//! them). The KV-op trace digest is asserted identical across all
//! engines.
//!
//! ```text
//! cargo run --release --example kv_multitenant            # 1M keys
//! BLUEDBM_KV_KEYS=100000 cargo run --release --example kv_multitenant
//! BLUEDBM_TRACE=/tmp/kvtrace cargo run --release --example kv_multitenant
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

use bluedbm::core::{Cluster, KvStore, SystemConfig};
use bluedbm::sim::{TraceConfig, TraceDoc, STABLE_CATEGORIES};
use bluedbm::trace::{binfmt, chrome};
use bluedbm::workloads::kvgen::{kv_flash_geometry, run_requests, KvRunSummary, KvWorkloadSpec};

const NODES: usize = 4;

struct RunOut {
    summary: KvRunSummary,
    events: u64,
    wall: f64,
    /// XOR-folded digest over the arbitration-independent trace
    /// categories; `None` when tracing is off or the ring buffers
    /// overflowed (drop patterns are engine-dependent).
    trace_digest: Option<u64>,
}

fn trace_prefix() -> Option<String> {
    std::env::var("BLUEDBM_TRACE").ok().filter(|p| !p.is_empty())
}

fn run(spec: &KvWorkloadSpec, shards: usize, slug: &str) -> RunOut {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = kv_flash_geometry();
    config.sim.shards = shards;
    let tracing = trace_prefix();
    if tracing.is_some() {
        config.sim.trace = TraceConfig::on().with_capacity(1 << 21);
    }
    let mut store = KvStore::new(Cluster::ring(NODES, &config).expect("cluster"));

    #[expect(clippy::disallowed_methods, reason = "reports wall time only")]
    let t0 = Instant::now();
    let summary = run_requests(&mut store, spec.load().chain(spec.churn()), 8192);
    let wall = t0.elapsed().as_secs_f64();

    // Nothing leaked anywhere: payload handles, pooled control blocks,
    // flash extents.
    store.cluster().assert_quiescent();
    store.assert_no_stranded_pages();

    let engine = if shards == 1 {
        "sequential".to_string()
    } else {
        format!("{shards}-shard  ")
    };
    let events = store.cluster().events_delivered();
    let metrics = store.metrics();
    let rounds = match metrics.get("engine/sync_rounds").and_then(|v| v.as_int()) {
        Some(r) => format!("  {r} sync rounds"),
        None => String::new(),
    };
    println!(
        "{engine}  {:>9} ops  {:>10} events  {:>6.2} s wall  {:>5.2} M events/s  sim {:.1} ms{rounds}",
        summary.ops,
        events,
        wall,
        events as f64 / wall / 1e6,
        summary.sim_time.as_ms_f64(),
    );

    // Per-tenant end-to-end latency percentiles, straight from the
    // TenantStats histograms.
    for tenant in 0..spec.tenants {
        let ts = store.tenant_stats(tenant);
        println!(
            "  tenant {tenant}: {:>8} ops  p50 {}  p99 {}  p999 {}  ({} hits, {} misses, {} errors)",
            ts.puts + ts.gets + ts.deletes,
            ts.latency.percentile(0.50),
            ts.latency.percentile(0.99),
            ts.latency.percentile(0.999),
            ts.get_hits,
            ts.get_misses,
            ts.errors,
        );
    }

    // Engine-level sync-wait counters from the same snapshot.
    if let Some(engine_node) = metrics.node("engine") {
        let lanes: Vec<&str> = engine_node
            .keys()
            .filter(|k| k.starts_with("shard") && engine_node.node(k).is_some())
            .collect();
        for shard in lanes {
            let lane = engine_node.node(shard).expect("filtered to node entries");
            let count = |key: &str| lane.get(key).and_then(|v| v.as_int()).unwrap_or(0);
            println!("  {shard}: {} spins, {} parks", count("spins"), count("parks"));
        }
    }

    // The full unified snapshot, dumped once (the sharded runs carry
    // the same node subtrees plus the engine lanes printed above).
    if slug == "seq" {
        println!("\n  metrics snapshot:\n{}", metrics.to_json_pretty());
    }

    let trace_digest = tracing.map(|prefix| {
        let doc = TraceDoc::merge(store.take_trace());
        write_file(&format!("{prefix}-{slug}.bin"), |out| binfmt::write(&doc, out));
        write_file(&format!("{prefix}-{slug}.json"), |out| chrome::write_json(&doc, out));
        println!(
            "  trace: {} records ({} dropped) -> {prefix}-{slug}.bin/.json",
            doc.len(),
            doc.dropped(),
        );
        (doc.dropped() == 0).then(|| doc.digest_stable(STABLE_CATEGORIES))
    });
    RunOut {
        summary,
        events,
        wall,
        trace_digest: trace_digest.flatten(),
    }
}

/// Stream `export` into a new file at `path`.
fn write_file(path: &str, export: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) {
    let mut out = BufWriter::new(File::create(path).expect("create trace file"));
    export(&mut out).and_then(|()| out.flush()).expect("write trace file");
}

fn main() {
    let total_keys: u64 = std::env::var("BLUEDBM_KV_KEYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let spec = KvWorkloadSpec::million(NODES).scaled_to(total_keys);
    println!(
        "multi-tenant KV: {} tenants x {} keys = {} keys (+{} churn ops), {} B values, zipf {}",
        spec.tenants,
        spec.keys_per_tenant,
        spec.total_keys(),
        spec.churn_ops,
        spec.value_bytes,
        spec.zipf_exponent,
    );
    println!(
        "placement: FNV over the key -> home node; tenant t reads from node t % {NODES}; \
         gets stream through each node's {} accelerator units\n",
        SystemConfig::scaled_down().accel.units,
    );

    let seq = run(&spec, 1, "seq");
    for (shards, slug) in [(2, "shard2"), (4, "shard4")] {
        let sharded = run(&spec, shards, slug);
        assert_eq!(
            seq.summary.digest, sharded.summary.digest,
            "per-op results diverged between engines"
        );
        assert_eq!(seq.summary.ops, sharded.summary.ops);
        assert_eq!(
            seq.events, sharded.events,
            "event totals diverged between engines"
        );
        if let (Some(a), Some(b)) = (seq.trace_digest, sharded.trace_digest) {
            assert_eq!(a, b, "stable trace digest diverged between engines");
        }
        println!(
            "  == conformance vs sequential: digest {:#018x} identical, speedup {:.2}x\n",
            sharded.summary.digest,
            seq.wall / sharded.wall,
        );
    }

    println!(
        "summary: {} hits / {} misses / {} errors across engines — bit-identical results",
        seq.summary.get_hits, seq.summary.get_misses, seq.summary.errors
    );
}
