//! Host-memory footprint of the KV path and of the 1024-node mesh,
//! pinned.
//!
//! A counting `#[global_allocator]` sees every heap request the
//! simulator makes. Requested bytes and call counts depend only on the
//! code and the (seedless) workload below — not on the host, the
//! allocator's bins or the clock — so the pins are exact-repeatable and
//! can sit 3–40 % above what the current layout achieves (243.7 B live
//! per key, counting the completion slots `Cluster::drive` keeps across
//! drives and the FTL map tables the load's writes make, with a 20-byte
//! key record; 236.9 B with both FTL maps allocated when the cluster was
//! built and a 24-byte record; 233.9 B while the slots were allocated
//! per drive; the hash-map layout before it: 415.4 B. Store calls: 0.024
//! per put and 1.071 per get, the test's own key building kept outside
//! the counted regions; 0.028 per put while each FTL map table was an
//! allocation of its own, 0.029 / 1.075 while the slots were allocated
//! per drive, and 10.03 / 8.08 in the hash-map layout with the test's
//! own key `Vec` counted in). A change that brings back a per-key
//! `Vec`, a per-op value or key copy, a per-page `Box`, an eagerly
//! written table or ECC parity on a noise-free flash card (16 B per
//! 128 B page: ≈ 12.7 B more per key) trips them; a change that
//! shrinks the footprint should tighten them (every assert prints what
//! it measured).
//!
//! The same test also pins what a sync round of the threaded shard
//! engine asks of the allocator (see [`SYNC_ROUND_CALLS_PIN`]), and that
//! decoding a trace header whose record or byte count is a lie requests
//! next to nothing.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! thread would allocate into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, KvStore, NodeId, PageOp, SystemConfig};
use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::ftl::{Ftl, FtlConfig};
use bluedbm::net::Topology;
use bluedbm::sim::ExecMode;
use bluedbm::workloads::kvgen::{kv_flash_geometry, KvWorkloadSpec};

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Relaxed);
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
        REQUESTED.fetch_add(new_size as u64, Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (live bytes, live blocks, allocator calls, bytes ever requested)
/// right now.
fn snapshot() -> (i64, i64, u64, u64) {
    (
        LIVE_BYTES.load(Relaxed),
        LIVE_BLOCKS.load(Relaxed),
        CALLS.load(Relaxed),
        REQUESTED.load(Relaxed),
    )
}

/// Store allocator calls per steady-state put, ≈ 38 % above the 0.024
/// measured (0.028 while each FTL map table was an allocation of its
/// own, not a slice of one arena; 0.029, 119 calls over a 4 096-op
/// batch, while `Cluster::drive` allocated its slots per drive): the
/// payload goes into a driver-owned arena, so what is left is per round
/// and per drive, not per op. With a copy of each value and of each
/// completion's key it was 2.03.
const PUT_CALLS_PIN: f64 = 0.033;
/// Store allocator calls per steady-state get, ≈ 12 % above the 1.071
/// measured: one call per get is the page the read hands back as the
/// value. With a reassembly buffer per get and a copy of each
/// completion's key it was 3.07.
const GET_CALLS_PIN: f64 = 1.2;

const KEYS: u64 = 50_000;
const TENANTS: u16 = 8;
const BATCH: u64 = 4_096;
const NODES: usize = 4;
/// 16 % and 17 % above the 17.3 MB / 45 094 calls the current layout
/// measures: each card's FTL maps made as its blocks open and its
/// logical ranges are written, 32-bit erase counts in the FTL's and the
/// array's per-block books, one byte of port mask per node pair and no
/// hop matrix (with 64-bit erase counts and a shard lookahead matrix:
/// 21.3 MB, 45 110 calls; with both FTL maps allocated for every page
/// of all 2 048 cards, a `u32` hop count per node pair and free lists
/// grown by doubling:
/// 81.6 MB, 81 974 calls; with the agent's hashed tags and a renaming
/// splitter stacked on each card's line: 85.3 MB, 86 070 calls; with a
/// GC component per node beside driver-side FTLs: 85.5 MB, 90 171 calls;
/// with a shadow `FlashArray` behind each card's FTL: 94.0 MB, 97 343
/// calls; with a `Vec` per routed pair: 125.0 MB, 1 154 051 calls).
const MESH_MB_PIN: f64 = 20.0;
const MESH_CALLS_PIN: u64 = 53_000;

/// Bytes `Ftl::new` may request for a paper-geometry card (2 048
/// blocks, 512 Ki pages), 16 % above the 44 032 B it measures. Its maps
/// are made as the card is written, so what it asks for up front is the
/// per-block books (16 B a block) and the planes' free lists; with a
/// 64-bit erase count padding each block's books to 24 B it was
/// 60 416 B, and with both maps allocated for every page 3.8 MB.
const FTL_NEW_BYTES_PIN: u64 = 50 << 10;

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
            let read = PageOp::Read { addr: pages[target], consume: Consume::Isp };
            cluster.submit(NodeId::from(reader), read);
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
    // driver that only checks them would). The batch's keys are built
    // first, so the regions count the store's calls alone.
    let batch: Vec<(u16, [u8; 10])> = (0..BATCH).map(key).collect();
    let before = snapshot();
    for (tenant, key) in &batch {
        store.submit_put(*tenant, key, &value);
    }
    drop(store.drive());
    let after_puts = snapshot();
    for (tenant, key) in &batch {
        store.submit_get(*tenant, NodeId::from(*tenant as usize % NODES), key);
    }
    let got = store.drive();
    assert!(got.iter().all(|c| c.value.as_deref() == Some(&value[..])));
    drop(got);
    let after_gets = snapshot();
    drop(batch);

    store.assert_no_stranded_pages();
    store.cluster().assert_quiescent();
    drop(store);
    let dropped = snapshot();

    // The 1024-node mesh the `mesh_scatter` workloads build: what stays
    // live once the cluster stands, and how many allocator calls it
    // took. The routing table is one flat 1 MB array of port masks; as a
    // `Vec` per (source, destination) pair it alone was over a million
    // calls and ≈ 55 MB.
    let before_mesh = snapshot();
    let mesh = Cluster::new(Topology::mesh2d(32, 32), &SystemConfig::scaled_down())
        .expect("mesh cluster");
    let mesh_built = snapshot();
    drop(mesh);
    let mesh_dropped = snapshot();

    // The threaded shard engine's round path: an 8x8 mesh cut in two,
    // one worker thread per half. The first scatter grows everything
    // that grows (event heaps, pools, the slots' parcel vectors); the
    // second is measured, drive() call only.
    let mut config = SystemConfig::scaled_down();
    config.sim.shards = 2;
    config.sim.exec = ExecMode::Threads;
    let mut halves = Cluster::new(Topology::mesh2d(8, 8), &config).expect("8x8 mesh");
    let page = vec![0x5Au8; config.flash.geometry.page_bytes];
    let pages: Vec<_> = (0..halves.node_count())
        .map(|node| halves.preload_page(NodeId::from(node), &page).expect("preload fits"))
        .collect();
    scatter(&mut halves, &pages);
    let warm = halves.drive();
    let warm_rounds = halves.sync_rounds().expect("sharded");
    scatter(&mut halves, &pages);
    let before_rounds = snapshot();
    let done = halves.drive();
    let after_rounds = snapshot();
    let rounds = halves.sync_rounds().expect("sharded") - warm_rounds;
    for node in 0..halves.node_count() {
        let node = NodeId::from(node);
        let reads = warm.iter().chain(&done).filter(|c| c.node == node);
        assert_eq!(reads.clone().count(), 2 * SCATTER_READS);
        assert!(reads.clone().all(|c| c.error.is_none()));
    }
    halves.assert_quiescent();
    drop(halves);

    // A trace file's counts are only its claims: a run that claims
    // `u64::MAX` records over no bytes, and one that claims `u64::MAX`
    // bytes that are not there, must each fail on the missing bytes,
    // not reserve for the claim first.
    let header = |records: u64, bytes: u64| {
        let mut h = bluedbm::trace::binfmt::MAGIC.to_vec();
        h.extend_from_slice(&0u64.to_le_bytes()); // dropped
        h.extend_from_slice(&1u32.to_le_bytes()); // runs
        h.extend_from_slice(&0u32.to_le_bytes()); // shard
        h.extend_from_slice(&records.to_le_bytes());
        h.extend_from_slice(&0u16.to_le_bytes()); // tags
        h.extend_from_slice(&bytes.to_le_bytes());
        h
    };
    let headers = [header(u64::MAX, 0), header(1, u64::MAX)];

    // An FTL over a paper-geometry card (512 Ki pages): its maps are
    // made as blocks open and logical ranges are written, so building
    // one requests only the per-block books and the planes' free lists.
    let paper = FlashArray::new(FlashGeometry::paper_card(), 1);
    let before_ftl = snapshot();
    let ftl = Ftl::new(&paper, FtlConfig::default()).expect("paper-card FTL");
    let ftl_requested = snapshot().3 - before_ftl.3;
    drop((ftl, paper));
    let before_decode = snapshot();
    let decoded = headers.each_ref().map(|h| bluedbm::trace::binfmt::decode(h).map(|doc| doc.len()));
    let decode_requested = snapshot().3 - before_decode.3;

    // Report only now: captured test output is itself heap-allocated.
    let per_key = (loaded.0 - built.0) as f64 / KEYS as f64;
    let per_put = (after_puts.2 - before.2) as f64 / BATCH as f64;
    let per_get = (after_gets.2 - after_puts.2) as f64 / BATCH as f64;
    println!("live heap per stored 64 B value: {per_key:.1} B");
    println!("allocator calls per put: {per_put:.3}, per get: {per_get:.3}");
    println!(
        "after drop: {} live blocks / {} B over the baseline",
        dropped.1 - baseline.1,
        dropped.0 - baseline.0
    );
    assert!(
        per_key <= 245.0,
        "live heap per key {per_key:.1} B exceeds the 245 B pin"
    );
    assert!(
        per_put <= PUT_CALLS_PIN,
        "{per_put:.3} allocator calls per put exceeds the {PUT_CALLS_PIN} pin"
    );
    assert!(
        per_get <= GET_CALLS_PIN,
        "{per_get:.3} allocator calls per get exceeds the {GET_CALLS_PIN} pin"
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

    let header_len = headers[0].len();
    println!(
        "decoding two {header_len}-byte trace headers claiming u64::MAX records or bytes: {decode_requested} B requested"
    );
    assert!(decoded.iter().all(Result::is_err), "a header without its records decoded: {decoded:?}");
    assert!(
        decode_requested < 1 << 20,
        "decoding two {header_len}-byte headers requested {decode_requested} B"
    );

    println!("Ftl::new over a paper card: {ftl_requested} B requested");
    assert!(
        ftl_requested < FTL_NEW_BYTES_PIN,
        "Ftl::new over a paper card requested {ftl_requested} B, over the {FTL_NEW_BYTES_PIN} B pin"
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
