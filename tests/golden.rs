//! The golden table: absolute pins of every benchmarked quantity on
//! three small fixed-seed shapes, one row per workload × lane × metric.
//!
//! The other suites are relative — lanes against each other, the FTL
//! against its offline twin — so a change that moves a latency, an
//! event count or a digest the same way on every lane passes them. This
//! one compares against `tests/golden.txt`. On a mismatch it prints every
//! row that moved (old → new), then the whole new table; a deliberate
//! behaviour change pastes that table over the file, and the diff names
//! the rows it moved.
//!
//! The shapes, each at one shard and at two shards on worker threads:
//!
//! * `kv_mixed`: a 4-node ring on `kv_flash_geometry`, 10⁴ keys over 8
//!   tenants, then a 70/20/10 get/put/delete zipfian churn of 10³ ops.
//! * `mesh`: an 8×8 mesh, four preloaded pages per node, two rounds in
//!   which every node reads four pages of random other nodes.
//! * `gc_churn`: a 4-node ring on a 2×2×16×32 geometry of 512-byte
//!   pages, a one-page-value live set at 65 % of the logical capacity,
//!   then zipfian overwrites of one logical capacity.
//!
//! Pinned per shape: the result digest, the event count, the stable
//! trace digest (KV shapes; the mesh emits no stable-category record),
//! per-tenant put and get p50/p99/p999 (per-read for the mesh), the
//! final simulated clock, write amplification, GC erases and moves
//! (KV shapes), the routers' summed credit stalls and, on the two-shard
//! lane, the sync rounds of the window protocol (a round count is a
//! function of the simulated work alone, never of thread scheduling).
//! Times are exact picoseconds.

mod common;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bluedbm::core::kvstore::{KvCompletion, KvOpKind};
use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, ExecMode, KvStore, NodeId, PageOp, SystemConfig};
use bluedbm::flash::FlashGeometry;
use bluedbm::net::Topology;
use bluedbm::sim::{Rng, TraceConfig, TraceDoc, STABLE_CATEGORIES};
use bluedbm::workloads::kvgen::{kv_flash_geometry, KvRequest, KvWorkloadSpec};
use common::Lane;

const GOLDEN: &str = include_str!("golden.txt");

/// One shard, then two on worker threads.
const LANES: [Lane; 2] = [Lane::ONE, Lane::new(2, ExecMode::Threads)];

/// The table being built: `"<workload> <lane> <metric>"` → value.
#[derive(Default)]
struct Table(BTreeMap<String, String>);

impl Table {
    fn row(&mut self, workload: &str, lane: &Lane, metric: &str, value: impl ToString) {
        let key = format!("{workload} {lane} {metric}");
        let old = self.0.insert(key, value.to_string());
        assert!(
            old.is_none(),
            "row {workload} {lane} {metric} written twice"
        );
    }

    /// p50, p99 and p999 (nearest rank, exact picoseconds) of `ps`.
    fn percentiles(&mut self, workload: &str, lane: &Lane, what: &str, ps: &mut [u64]) {
        ps.sort_unstable();
        for (name, permille) in [("p50", 500), ("p99", 990), ("p999", 999)] {
            let value = ps[(ps.len() - 1) * permille / 1000];
            self.row(workload, lane, &format!("{what}_{name}_ps"), value);
        }
    }

    /// The routers' summed credit stalls, the event count, the clock
    /// and, on more than one shard, the window protocol's sync rounds.
    fn cluster_rows(&mut self, workload: &str, lane: &Lane, cluster: &Cluster) {
        let stalls: u64 = (0..cluster.node_count())
            .map(|n| cluster.router_stats(NodeId::from(n)).credit_stalls)
            .sum();
        self.row(workload, lane, "credit_stalls", stalls);
        self.row(workload, lane, "events", cluster.events_delivered());
        self.row(workload, lane, "sim_time_ps", cluster.now().as_ps());
        if let Some(rounds) = cluster.sync_rounds() {
            self.row(workload, lane, "sync_rounds", rounds);
        }
    }
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Drive `requests` through `store` in batches of `batch` submissions,
/// returning every completion.
fn drive_all(
    store: &mut KvStore,
    requests: impl Iterator<Item = KvRequest>,
    batch: usize,
) -> Vec<KvCompletion> {
    let mut done = Vec::new();
    let mut pending = 0;
    for request in requests {
        match request {
            KvRequest::Put { tenant, key, value } => store.submit_put(tenant, &key, &value),
            KvRequest::Get {
                tenant,
                reader,
                key,
            } => store.submit_get(tenant, reader, &key),
            KvRequest::Delete { tenant, key } => store.submit_delete(tenant, &key),
        };
        pending += 1;
        if pending == batch {
            done.extend(store.drive());
            pending = 0;
        }
    }
    done.extend(store.drive());
    done
}

/// Load and churn `spec` on a 4-node ring built on `lane`, and write
/// the shape's rows.
fn kv_rows(
    table: &mut Table,
    workload: &str,
    lane: &Lane,
    config: &SystemConfig,
    spec: &KvWorkloadSpec,
    batch: usize,
) {
    let mut config = *config;
    config.sim.trace = TraceConfig::on().with_capacity(1 << 22);
    let mut store = KvStore::new(lane.cluster(Topology::ring(4, 4), &config));
    let done = drive_all(&mut store, spec.load().chain(spec.churn()), batch);
    store.cluster().assert_quiescent();
    store.assert_no_stranded_pages();

    let mut digest = 0;
    let mut latencies: BTreeMap<(u16, &str), Vec<u64>> = BTreeMap::new();
    for c in &done {
        let mut h = fnv(FNV_OFFSET, &c.op.to_le_bytes());
        h = fnv(h, &[c.kind as u8, u8::from(c.found)]);
        if let Some(e) = &c.error {
            h = fnv(h, e.to_string().as_bytes());
        }
        if let Some(v) = &c.value {
            h = fnv(h, v);
        }
        digest ^= h;
        let kind = match c.kind {
            KvOpKind::Put => "put",
            KvOpKind::Get => "get",
            KvOpKind::Delete => continue,
        };
        latencies
            .entry((c.tenant, kind))
            .or_default()
            .push((c.finished - c.submitted).as_ps());
    }
    table.row(workload, lane, "ops", done.len());
    table.row(workload, lane, "digest", format!("{digest:#018x}"));
    for ((tenant, kind), ps) in &mut latencies {
        table.percentiles(workload, lane, &format!("t{tenant}_{kind}"), ps);
    }
    let cluster = store.cluster();
    let gc = cluster.gc_stats();
    table.row(workload, lane, "write_amp", gc.wa());
    table.row(workload, lane, "gc_erases", gc.erases);
    table.row(workload, lane, "gc_moves", gc.relocated);
    table.cluster_rows(workload, lane, cluster);
    let doc = TraceDoc::merge(store.take_trace());
    assert_eq!(
        doc.dropped(),
        0,
        "{workload} {lane}: the trace ring overflowed"
    );
    table.row(
        workload,
        lane,
        "trace_stable",
        format!("{:#018x}", doc.digest_stable(STABLE_CATEGORIES)),
    );
}

fn kv_mixed(table: &mut Table, lane: &Lane) {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = kv_flash_geometry();
    let spec = KvWorkloadSpec {
        seed: 1,
        ..KvWorkloadSpec::million(4).scaled_to(10_000)
    };
    kv_rows(table, "kv_mixed", lane, &config, &spec, 512);
}

fn gc_churn(table: &mut Table, lane: &Lane) {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = FlashGeometry {
        buses: 2,
        chips_per_bus: 2,
        blocks_per_chip: 16,
        pages_per_block: 32,
        page_bytes: 512,
    };
    let probe = Cluster::ring(4, &config).expect("probe cluster");
    let capacity: u64 = (0..4)
        .map(|n| probe.node_capacity_pages(NodeId::from(n)))
        .sum();
    let spec = KvWorkloadSpec {
        tenants: 4,
        keys_per_tenant: capacity * 65 / 100 / 4,
        churn_ops: capacity,
        read_fraction: 0.0,
        delete_fraction: 0.0,
        zipf_exponent: 0.99,
        value_bytes: 400,
        nodes: 4,
        seed: 1,
    };
    kv_rows(table, "gc_churn", lane, &config, &spec, 32);
}

fn mesh(table: &mut Table, lane: &Lane) {
    const PAGES: usize = 4;
    let config = SystemConfig::scaled_down();
    let mut cluster = lane.cluster(Topology::mesh2d(8, 8), &config);
    let n = cluster.node_count();
    let mut rng = Rng::new(1);
    let addrs: Vec<_> = (0..n)
        .map(|node| {
            (0..PAGES)
                .map(|_| {
                    let word = rng.next_u64().to_le_bytes();
                    let page: Vec<u8> = word
                        .iter()
                        .copied()
                        .cycle()
                        .take(config.flash.geometry.page_bytes)
                        .collect();
                    cluster
                        .preload_page(NodeId::from(node), &page)
                        .expect("preload fits")
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let (mut digest, mut reads) = (0, Vec::new());
    for _round in 0..2 {
        for reader in 0..n {
            #[expect(clippy::needless_range_loop, reason = "each read indexes a different node's row")]
            for r in 0..PAGES {
                let other = rng.below(n as u64 - 1) as usize;
                let target = other + usize::from(other >= reader);
                let read = PageOp::Read { addr: addrs[target][r], consume: Consume::Isp };
                cluster.submit(NodeId::from(reader), read);
            }
        }
        for c in cluster.drive() {
            let data = c.data.expect("every scatter read succeeds");
            digest ^= fnv(fnv(FNV_OFFSET, &c.op_id.to_le_bytes()), &data);
            reads.push((c.end - c.start).as_ps());
        }
    }
    cluster.assert_quiescent();
    table.row("mesh", lane, "ops", reads.len());
    table.row("mesh", lane, "digest", format!("{digest:#018x}"));
    table.percentiles("mesh", lane, "read", &mut reads);
    table.cluster_rows("mesh", lane, &cluster);
}

#[test]
fn golden_table_holds() {
    let mut table = Table::default();
    for lane in &LANES {
        kv_mixed(&mut table, lane);
        mesh(&mut table, lane);
        gc_churn(&mut table, lane);
    }
    let golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter(|line| !line.is_empty())
        .map(|line| {
            line.rsplit_once(' ')
                .expect("`<workload> <lane> <metric> <value>`")
        })
        .collect();
    let mut moved = String::new();
    for (key, new) in &table.0 {
        match golden.get(key.as_str()) {
            Some(old) if old == new => {}
            Some(old) => writeln!(moved, "  {key}: {old} -> {new}").expect("write to String"),
            None => writeln!(moved, "  {key}: (absent) -> {new}").expect("write to String"),
        }
    }
    for (key, old) in &golden {
        if !table.0.contains_key(*key) {
            writeln!(moved, "  {key}: {old} -> (absent)").expect("write to String");
        }
    }
    if !moved.is_empty() {
        let mut new = String::new();
        for (key, value) in &table.0 {
            writeln!(new, "{key} {value}").expect("write to String");
        }
        panic!("golden rows moved:\n{moved}\nthe whole new table (tests/golden.txt):\n{new}");
    }
}
