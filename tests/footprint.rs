//! Host-memory footprint of the KV path and of the 1024-node mesh,
//! pinned.
//!
//! A counting `#[global_allocator]` sees every heap request the
//! simulator makes. Requested bytes and call counts depend only on the
//! code and the (seedless) workload below — not on the host, the
//! allocator's bins or the clock — so the pins are exact-repeatable and
//! can sit ≈10 % above what the current layout achieves (241.7 B live
//! per key, 3.04 calls per put, 4.07 per get; the hash-map layout before
//! it: 415.4 B, 10.03, 8.08). A change that
//! brings back a per-key `Vec`, a per-page `Box` or an eagerly written
//! table trips them; a change that shrinks the footprint should tighten
//! them (every assert prints what it measured).
//!
//! The same test also pins what a sync round of the threaded shard
//! engine asks of the allocator (see [`SYNC_ROUND_CALLS_PIN`]).
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! thread would allocate into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, KvStore, NodeId, SystemConfig};
use bluedbm::net::Topology;
use bluedbm::sim::ExecMode;
use bluedbm::workloads::kvgen::{kv_flash_geometry, KvWorkloadSpec};

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (live bytes, live blocks, allocator calls) right now.
fn snapshot() -> (i64, i64, u64) {
    (
        LIVE_BYTES.load(Relaxed),
        LIVE_BLOCKS.load(Relaxed),
        CALLS.load(Relaxed),
    )
}

const KEYS: u64 = 50_000;
const TENANTS: u16 = 8;
const BATCH: u64 = 4_096;
const NODES: usize = 4;
/// ≈ 10 % above the 93.9 MB / 97 322 calls the current layout measures
/// (with a `Vec` per routed pair: 125.0 MB, 1 154 051 calls).
const MESH_MB_PIN: f64 = 103.0;
const MESH_CALLS_PIN: u64 = 107_000;

/// Allocator calls per sync round of a warmed two-shard threaded run,
/// ≈ 10 % above the 11.11 (7 332 calls over 660 rounds) the slot
/// exchange measures. What is left is the model's own — every packet
/// that crosses the cut boxes its wire header and body on the way out
/// and copies its page into the other shard's store — plus the per-run
/// thread spawns spread over the rounds. With a channel per shard pair,
/// a fresh parcel vector per exchange and a shared `Arc` of minima per
/// round it was 16.56 (10 930 calls).
const SYNC_ROUND_CALLS_PIN: f64 = 12.3;

/// Remote reads per node in one [`scatter`].
const SCATTER_READS: usize = 24;

/// One all-to-all page scatter on `cluster`: every node reads the pages
/// of [`SCATTER_READS`] other nodes, spread over the mesh.
fn scatter(cluster: &mut Cluster, pages: &[bluedbm::core::GlobalPageAddr]) {
    let n = pages.len();
    for reader in 0..n {
        for r in 1..=SCATTER_READS {
            let target = (reader + r * (n / SCATTER_READS).max(1) + r % 2) % n;
            let target = if target == reader { (target + 1) % n } else { target };
            cluster.inject_read(NodeId::from(reader), pages[target], Consume::Isp);
        }
    }
}

/// Key `i` of the dense (tenant, index) space the benchmark uses.
fn key(i: u64) -> (u16, [u8; 10]) {
    let tenant = (i % u64::from(TENANTS)) as u16;
    let bytes: [u8; 10] = KvWorkloadSpec::key(tenant, i / u64::from(TENANTS))
        .try_into()
        .expect("10-byte key");
    (tenant, bytes)
}

#[test]
fn kv_footprint_stays_within_its_pins() {
    let baseline = snapshot();

    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = kv_flash_geometry();
    let mut store = KvStore::new(Cluster::ring(NODES, &config).expect("ring cluster"));
    let built = snapshot();

    // Load: every key once, 64-byte values, the benchmark's batching.
    let value = [0xA7u8; 64];
    let mut next = 0;
    while next < KEYS {
        let end = (next + BATCH).min(KEYS);
        for i in next..end {
            let (tenant, key) = key(i);
            store.submit_put(tenant, &key, &value);
        }
        let done = store.drive();
        assert!(done.iter().all(|c| c.error.is_none()));
        next = end;
    }
    assert_eq!(store.len() as u64, KEYS);
    let loaded = snapshot();

    // Steady state: overwrite one batch, then read it back, counting
    // allocator calls (completions dropped inside the region, as a
    // driver that only checks them would).
    let before = snapshot();
    for i in 0..BATCH {
        let (tenant, key) = key(i);
        store.submit_put(tenant, &key, &value);
    }
    drop(store.drive());
    let after_puts = snapshot();
    for i in 0..BATCH {
        let (tenant, key) = key(i);
        store.submit_get(tenant, NodeId::from(tenant as usize % NODES), &key);
    }
    let got = store.drive();
    assert!(got.iter().all(|c| c.value.as_deref() == Some(&value[..])));
    drop(got);
    let after_gets = snapshot();

    store.assert_no_stranded_pages();
    store.cluster().assert_quiescent();
    drop(store);
    let dropped = snapshot();

    // The 1024-node mesh the `mesh_scatter` workloads build: what stays
    // live once the cluster stands, and how many allocator calls it
    // took. The routing table is two flat arrays (1 MB of port masks,
    // 4 MB of hop counts); as a `Vec` per (source, destination) pair it
    // alone was over a million calls and ≈ 55 MB.
    let before_mesh = snapshot();
    let mesh = Cluster::new(Topology::mesh2d(32, 32), &SystemConfig::scaled_down())
        .expect("mesh cluster");
    let mesh_built = snapshot();
    drop(mesh);
    let mesh_dropped = snapshot();

    // The threaded shard engine's round path: an 8x8 mesh cut in two,
    // one worker thread per half. The first scatter grows everything
    // that grows (event heaps, pools, the slots' parcel vectors); the
    // second is measured, run() call only.
    let mut config = SystemConfig::scaled_down();
    config.sim.shards = 2;
    config.sim.exec = ExecMode::Threads;
    let mut halves = Cluster::new(Topology::mesh2d(8, 8), &config).expect("8x8 mesh");
    let page = vec![0x5Au8; config.flash.geometry.page_bytes];
    let pages: Vec<_> = (0..halves.node_count())
        .map(|node| halves.preload_page(NodeId::from(node), &page).expect("preload fits"))
        .collect();
    scatter(&mut halves, &pages);
    halves.run_to_quiescence();
    let warm_rounds = halves.sync_rounds().expect("sharded");
    scatter(&mut halves, &pages);
    let before_rounds = snapshot();
    halves.run_to_quiescence();
    let after_rounds = snapshot();
    let rounds = halves.sync_rounds().expect("sharded") - warm_rounds;
    for node in 0..halves.node_count() {
        let done = halves.harvest_node(NodeId::from(node));
        assert_eq!(done.len(), 2 * SCATTER_READS);
        assert!(done.iter().all(|c| c.error.is_none()));
    }
    halves.assert_quiescent();
    drop(halves);

    // Report only now: captured test output is itself heap-allocated.
    let per_key = (loaded.0 - built.0) as f64 / KEYS as f64;
    let per_put = (after_puts.2 - before.2) as f64 / BATCH as f64;
    let per_get = (after_gets.2 - after_puts.2) as f64 / BATCH as f64;
    println!("live heap per stored 64 B value: {per_key:.1} B");
    println!("allocator calls per put: {per_put:.2}, per get: {per_get:.2}");
    println!(
        "after drop: {} live blocks / {} B over the baseline",
        dropped.1 - baseline.1,
        dropped.0 - baseline.0
    );
    assert!(
        per_key <= 270.0,
        "live heap per key {per_key:.1} B exceeds the 270 B pin"
    );
    assert!(
        per_put <= 3.4,
        "{per_put:.2} allocator calls per put exceeds the 3.4 pin"
    );
    assert!(
        per_get <= 4.5,
        "{per_get:.2} allocator calls per get exceeds the 4.5 pin"
    );
    assert_eq!(
        (dropped.0, dropped.1),
        (baseline.0, baseline.1),
        "dropping the store must return every block it allocated"
    );

    let per_round = (after_rounds.2 - before_rounds.2) as f64 / rounds as f64;
    println!(
        "8x8 mesh on 2 threaded shards: {} allocator calls over {rounds} sync rounds = {per_round:.2} per round",
        after_rounds.2 - before_rounds.2
    );
    assert!(rounds >= 100, "only {rounds} sync rounds: not a round-path measurement");
    assert!(
        per_round <= SYNC_ROUND_CALLS_PIN,
        "{per_round:.2} allocator calls per sync round exceeds the {SYNC_ROUND_CALLS_PIN} pin"
    );

    let mesh_mb = (mesh_built.0 - before_mesh.0) as f64 / (1 << 20) as f64;
    let mesh_calls = mesh_built.2 - before_mesh.2;
    println!("32x32 mesh cluster: {mesh_mb:.1} MB live, {mesh_calls} allocator calls to build");
    assert!(
        mesh_mb <= MESH_MB_PIN,
        "32x32 mesh holds {mesh_mb:.1} MB live, over the {MESH_MB_PIN} MB pin"
    );
    assert!(
        mesh_calls <= MESH_CALLS_PIN,
        "32x32 mesh took {mesh_calls} allocator calls to build, over the {MESH_CALLS_PIN} pin"
    );
    assert_eq!(
        (mesh_dropped.0, mesh_dropped.1),
        (before_mesh.0, before_mesh.1),
        "dropping the mesh must return every block it allocated"
    );
}
