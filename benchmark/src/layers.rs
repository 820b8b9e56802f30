//! Per-layer counters read from a cluster's public statistics after an
//! instrumented repetition. Nothing here is timed; the host-time layer
//! metrics come from spans.

use bluedbm_core::{Cluster, NodeId};
use bluedbm_sim::stats::Histogram;
use bluedbm_sim::time::SimTime;

/// Named per-layer values, in the order they were produced.
pub type Layers = Vec<(&'static str, f64)>;

fn us(t: SimTime) -> f64 {
    t.as_ps() as f64 / 1e6
}

/// Count-weighted mean of per-node p50s: the stats expose one histogram
/// per node (or card) and no merge, and every node of these symmetric
/// workloads sees the same distribution.
fn mean_p50_us<'a>(hists: impl Iterator<Item = &'a Histogram>) -> f64 {
    let (mut weighted, mut count) = (0.0, 0u64);
    for h in hists {
        weighted += us(h.percentile(0.5)) * h.count() as f64;
        count += h.count();
    }
    if count == 0 {
        0.0
    } else {
        weighted / count as f64
    }
}

/// Counters that are high-water marks, not running totals.
const PEAKS: [&str; 4] = [
    "core.sched.peak_parked",
    "core.gc.wear_spread",
    "flash.ctrl.peak_in_flight",
    "sim.pagestore.live_pages",
];

/// What one repetition added: `after` with every running-total counter
/// reduced by its value in `before` (a snapshot taken when the repetition
/// began, on a cluster that already had history). Ratios, percentiles and
/// high-water marks describe the cluster's whole life and stay as read.
pub fn since(before: &Layers, mut after: Layers) -> Layers {
    for (name, value) in &mut after {
        let running_total = crate::spec::PER_LAYER
            .iter()
            .any(|m| m.name == *name && m.unit == "count")
            && !PEAKS.contains(name);
        if running_total {
            if let Some((_, earlier)) = before.iter().find(|(n, _)| n == name) {
                *value -= earlier;
            }
        }
    }
    after
}

/// Every layer counter a cluster exposes, summed over nodes.
pub fn cluster_layers(cluster: &Cluster, out: &mut Layers) {
    let nodes: Vec<NodeId> = (0..cluster.node_count()).map(NodeId::from).collect();
    let cards = cluster.config().flash.cards_per_node;

    out.push(("sim.engine.events", cluster.events_delivered() as f64));
    if cluster.shard_count() == 1 {
        // Peak, not final: a quiescent store holds no live page (the leak
        // audit asserts it), and the peak is what resident memory follows.
        // The accessor exists on the sequential engine only.
        out.push((
            "sim.pagestore.live_pages",
            cluster.page_store().peak_live() as f64,
        ));
    }

    let agents = nodes.iter().map(|&n| cluster.agent_stats(n));
    let (mut local, mut remote, mut accel, mut parked) = (0, 0, 0, 0);
    for a in agents {
        local += a.local_reads;
        remote += a.remote_reads;
        accel += a.accel_jobs;
        parked += a.parked_pages;
    }
    out.push(("core.agent.local_reads", local as f64));
    out.push(("core.agent.remote_reads", remote as f64));
    out.push(("core.agent.accel_jobs", accel as f64));
    out.push(("core.agent.parked_pages", parked as f64));

    let (mut granted, mut sched_parked, mut peak, mut max_wait) = (0u64, 0u64, 0u64, SimTime::ZERO);
    let mut total_wait_ps = 0u128;
    for &n in &nodes {
        let s = cluster.sched_stats(n);
        granted += s.granted;
        sched_parked += s.parked;
        peak = peak.max(s.peak_parked);
        max_wait = max_wait.max(s.max_wait);
        total_wait_ps += u128::from(s.total_wait.as_ps());
    }
    out.push(("core.sched.granted", granted as f64));
    out.push(("core.sched.parked", sched_parked as f64));
    out.push(("core.sched.peak_parked", peak as f64));
    out.push((
        "core.sched.mean_wait_us",
        if granted == 0 {
            0.0
        } else {
            total_wait_ps as f64 / granted as f64 / 1e6
        },
    ));
    out.push(("core.sched.max_wait_us", us(max_wait)));

    let gc = cluster.gc_stats();
    out.push(("core.gc.host_writes", gc.host_writes as f64));
    out.push(("core.gc.gc_writes", gc.gc_writes as f64));
    out.push(("core.gc.erases", gc.erases as f64));
    out.push(("core.gc.relocated", gc.relocated as f64));
    out.push((
        "core.gc.moves_per_erase",
        if gc.erases == 0 {
            0.0
        } else {
            gc.relocated as f64 / gc.erases as f64
        },
    ));
    out.push(("core.gc.wear_spread", gc.wear_spread as f64));

    let (mut injected, mut forwarded, mut delivered, mut stalls, mut violations) = (0, 0, 0, 0, 0);
    for &n in &nodes {
        let r = cluster.router_stats(n);
        injected += r.injected;
        forwarded += r.forwarded;
        delivered += r.delivered;
        stalls += r.credit_stalls;
        violations += r.order_violations;
    }
    out.push(("net.router.injected", injected as f64));
    out.push(("net.router.forwarded", forwarded as f64));
    out.push(("net.router.delivered", delivered as f64));
    out.push(("net.router.credit_stalls", stalls as f64));
    out.push((
        "net.router.hops_per_packet",
        if delivered == 0 {
            0.0
        } else {
            (forwarded + delivered) as f64 / delivered as f64
        },
    ));
    out.push((
        "net.router.latency_p50_us",
        mean_p50_us(nodes.iter().map(|&n| &cluster.router_stats(n).latency)),
    ));
    out.push(("net.router.order_violations", violations as f64));

    let ctrls = || {
        nodes
            .iter()
            .flat_map(|&n| (0..cards).map(move |c| cluster.controller_stats(n, c)))
    };
    out.push((
        "flash.ctrl.reads",
        ctrls().map(|c| c.read_throughput.ops()).sum::<u64>() as f64,
    ));
    out.push((
        "flash.ctrl.tag_stalls",
        ctrls().map(|c| c.tag_stalls).sum::<u64>() as f64,
    ));
    out.push((
        "flash.ctrl.peak_in_flight",
        ctrls().map(|c| c.peak_in_flight).max().unwrap_or(0) as f64,
    ));
    out.push((
        "flash.ctrl.read_latency_p50_us",
        mean_p50_us(ctrls().map(|c| &c.read_latency)),
    ));

    // The read-buffer pools sit behind the agents; their own counters are
    // only published through the metrics document.
    let doc = cluster.metrics();
    let exhaustions: u64 = (0..nodes.len())
        .filter_map(|n| {
            doc.get(&format!("nodes/node{n}/host_buffers/exhaustions"))?
                .as_int()
        })
        .sum();
    out.push(("host.bufpool.parked_pages", exhaustions as f64));

    if let Some(stats) = cluster.shard_stats() {
        let events = cluster.events_delivered();
        out.push(("sim.shard.sync_rounds", stats.sync_rounds as f64));
        out.push((
            "sim.shard.events_per_round",
            if stats.sync_rounds == 0 {
                0.0
            } else {
                events as f64 / stats.sync_rounds as f64
            },
        ));
        out.push((
            "sim.shard.spins",
            stats.shards.iter().map(|l| l.spins).sum::<u64>() as f64,
        ));
        out.push((
            "sim.shard.parks",
            stats.shards.iter().map(|l| l.parks).sum::<u64>() as f64,
        ));
        out.push((
            "sim.shard.rollbacks",
            stats.shards.iter().map(|l| l.rollbacks).sum::<u64>() as f64,
        ));
    }
    if let Some(walls) = cluster.wall_profiles() {
        let secs = |f: fn(&bluedbm_sim::WallLaneProfile) -> u64| {
            walls.iter().map(f).sum::<u64>() as f64 / 1e9
        };
        out.push(("sim.shard.spin_s", secs(|w| w.spin_ns)));
        out.push(("sim.shard.park_s", secs(|w| w.park_ns)));
        out.push(("sim.shard.execute_s", secs(|w| w.execute_ns)));
        // Lane imbalance from executed time: a round waits for the slower
        // lane, so max/min bounds the speed-up before execute time does.
        let (lo, hi) = walls.iter().fold((u64::MAX, 0u64), |(lo, hi), w| {
            (lo.min(w.execute_ns), hi.max(w.execute_ns))
        });
        if lo > 0 && lo != u64::MAX {
            out.push((
                "sim.shard.imbalance_pct",
                (hi as f64 / lo as f64 - 1.0) * 100.0,
            ));
        }
    }
}
