//! Property-based tests of the core invariants, across crates.

mod common;

use proptest::prelude::*;

use bluedbm::flash::ecc::{self, Decoded};
use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::ftl::ftl::{Ftl, FtlConfig};
use bluedbm::host::ReorderQueue;
use bluedbm::isp::mp::MpMatcher;
use bluedbm::net::{NodeId, RoutingTable, Topology};
use bluedbm::sim::time::SimTime;
use bluedbm::sim::{PageRef, PageStore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// SECDED corrects any single flipped bit of the 72-bit codeword.
    #[test]
    fn ecc_corrects_any_single_flip(data: u64, bit in 0usize..72) {
        let parity = ecc::encode(data);
        let (d, p) = if bit < 64 {
            (data ^ (1u64 << bit), parity)
        } else {
            (data, parity ^ (1u8 << (bit - 64)))
        };
        prop_assert_eq!(ecc::decode(d, p), Decoded::Corrected(data));
    }

    /// SECDED never mis-corrects a double flip into the wrong word: it
    /// either reports uncorrectable or (for flips involving the overall
    /// parity bit) recovers the original data.
    #[test]
    fn ecc_never_silently_corrupts_on_double_flip(
        data: u64,
        b1 in 0usize..64,
        b2 in 0usize..64,
    ) {
        prop_assume!(b1 != b2);
        let parity = ecc::encode(data);
        let corrupted = data ^ (1u64 << b1) ^ (1u64 << b2);
        prop_assert_eq!(ecc::decode(corrupted, parity), Decoded::Uncorrectable);
    }

    /// Morris-Pratt equals naive search for arbitrary inputs and
    /// arbitrary stream split points.
    #[test]
    fn mp_equals_naive_under_any_split(
        hay in proptest::collection::vec(0u8..3, 0..400),
        pat in proptest::collection::vec(0u8..3, 1..6),
        split in 0usize..400,
    ) {
        let naive: Vec<u64> = (0..hay.len().saturating_sub(pat.len() - 1))
            .filter(|&i| hay[i..i + pat.len()] == pat[..])
            .map(|i| i as u64)
            .collect();
        let mut m = MpMatcher::new(&pat).expect("non-empty");
        let split = split.min(hay.len());
        m.feed(&hay[..split]);
        m.feed(&hay[split..]);
        prop_assert_eq!(m.matches(), &naive[..]);
    }

    /// The reorder queue reassembles a page exactly once from any chunk
    /// decomposition, with every burst a full burst except possibly the
    /// last.
    #[test]
    fn reorder_queue_reassembles_any_chunking(
        chunks in proptest::collection::vec(1u32..500, 1..40),
    ) {
        const PAGE: u32 = 4096;
        let mut rq = ReorderQueue::new(1, 128, PAGE);
        let mut fed = 0u32;
        let mut bursts = Vec::new();
        for c in chunks {
            let take = c.min(PAGE - fed);
            if take == 0 { break; }
            bursts.extend(rq.push(0, take));
            fed += take;
        }
        let total: u32 = bursts.iter().map(|b| b.bytes).sum();
        prop_assert_eq!(total, fed - rq.pending(0));
        let completes = bursts.iter().filter(|b| b.completes_page).count();
        prop_assert_eq!(completes, usize::from(fed == PAGE));
        for b in &bursts[..bursts.len().saturating_sub(1)] {
            prop_assert_eq!(b.bytes, 128);
        }
    }

    /// On any connected random topology, deterministic routing reaches
    /// every destination on a shortest path, for every endpoint.
    #[test]
    fn routing_always_finds_shortest_paths(
        n in 3usize..10,
        extra_edges in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
        endpoint in 0u16..8,
    ) {
        // A ring guarantees connectivity; extra edges add diversity.
        let mut topo = Topology::ring(n, 1);
        for (a, b) in extra_edges {
            let (a, b) = (a % n, b % n);
            if a != b
                && topo.free_ports(NodeId::from(a)) > 0
                && topo.free_ports(NodeId::from(b)) > 0
            {
                topo.connect(NodeId::from(a), NodeId::from(b));
            }
        }
        let table = RoutingTable::compute(&topo);
        for src in 0..n {
            let dist = topo.distances_from(NodeId::from(src));
            for (dst, &want) in dist.iter().enumerate().take(n) {
                if src == dst { continue; }
                let path = table.path(&topo, NodeId::from(src), NodeId::from(dst), endpoint);
                prop_assert_eq!(path.len() as u32 - 1, want);
                prop_assert_eq!(*path.last().unwrap(), NodeId::from(dst));
            }
        }
    }

    /// The page store never hands out a stale handle, under any
    /// interleaving of allocations, frees and slot reuse: live handles
    /// always read back exactly their contents, freed handles never
    /// become live again (generation tagging), and the live count always
    /// matches a reference model.
    #[test]
    fn pagestore_interleavings_never_alias(
        ops in proptest::collection::vec((0u8..5, 0usize..64, 1usize..96), 1..160),
    ) {
        let mut store = PageStore::new();
        let mut live: Vec<(PageRef, Vec<u8>)> = Vec::new();
        let mut dead: Vec<PageRef> = Vec::new();
        let mut stamp: u8 = 0;
        for (op, pick, len) in ops {
            match op {
                // Allocate a fresh page with distinctive contents.
                0 | 1 => {
                    stamp = stamp.wrapping_add(1);
                    let data = vec![stamp; len];
                    let r = store.alloc_from(&data);
                    prop_assert!(
                        dead.iter().all(|&d| d != r),
                        "recycled slot must carry a new generation"
                    );
                    live.push((r, data));
                }
                // Free a random live page.
                2 => if !live.is_empty() {
                    let (r, _) = live.remove(pick % live.len());
                    store.free(r);
                    prop_assert!(!store.is_live(r));
                    dead.push(r);
                }
                // Read a random live page back.
                3 => if !live.is_empty() {
                    let (r, data) = &live[pick % live.len()];
                    prop_assert_eq!(store.get(*r), &data[..]);
                    prop_assert_eq!(store.len(*r), data.len());
                }
                // Every dead handle stays dead; every live handle stays live.
                _ => {
                    prop_assert!(dead.iter().all(|&d| !store.is_live(d)));
                    prop_assert!(live.iter().all(|(r, _)| store.is_live(*r)));
                }
            }
        }
        // The audit agrees with the model: it passes exactly when the
        // model says nothing is live (`live_pages` is what it checks).
        prop_assert_eq!(store.live_pages(), live.len());
        for (r, data) in &live {
            prop_assert_eq!(store.get(*r), &data[..]); // contents survive to the end
        }
        for (r, _) in live {
            store.free(r);
        }
        store.assert_quiescent();
    }

    /// SimTime arithmetic: associativity of addition and consistency of
    /// multiplication, over sane ranges.
    #[test]
    fn simtime_arithmetic_laws(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, k in 0u64..1000) {
        let ta = SimTime::ps(a);
        let tb = SimTime::ps(b);
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert_eq!((ta + tb).saturating_sub(tb), ta);
        prop_assert_eq!(ta * k, SimTime::ps(a * k));
        prop_assert_eq!(ta.max(tb).min(ta), ta.min(tb).max(ta));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word count over any byte stream equals itself under any page
    /// split (the combiner's straddle-carrying invariant).
    #[test]
    fn wordcount_split_invariance(
        text in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        split in 0usize..300,
    ) {
        use bluedbm::isp::wordcount::WordCountEngine;
        use bluedbm::isp::Accelerator;
        let mut whole = WordCountEngine::new();
        whole.consume(0, &text);
        whole.finish();
        let mut halves = WordCountEngine::new();
        let split = split.min(text.len());
        halves.consume(0, &text[..split]);
        halves.consume(1, &text[split..]);
        halves.finish();
        prop_assert_eq!(whole.into_table(), halves.into_table());
    }

    /// Aggregation is page-decomposition invariant: any chunking of the
    /// record stream yields the same group table.
    #[test]
    fn aggregation_chunking_invariance(
        rows in proptest::collection::vec((0u64..8, 0u64..1000), 1..200),
        chunk in 1usize..32,
    ) {
        use bluedbm::isp::aggregate::{AggregateEngine, AggregateOp};
        use bluedbm::isp::Accelerator;
        let page_of = |rows: &[(u64, u64)]| {
            let mut p = Vec::with_capacity(rows.len() * 16);
            for &(k, v) in rows {
                p.extend_from_slice(&k.to_le_bytes());
                p.extend_from_slice(&v.to_le_bytes());
            }
            p
        };
        let mut whole = AggregateEngine::new(16, 0, 8, AggregateOp::Sum);
        whole.consume(0, &page_of(&rows));
        let mut chunked = AggregateEngine::new(16, 0, 8, AggregateOp::Sum);
        for (i, c) in rows.chunks(chunk).enumerate() {
            chunked.consume(i as u64, &page_of(c));
        }
        prop_assert_eq!(whole.into_table(), chunked.into_table());
    }
}

proptest! {
    // Heavier model-based test: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The log-structured file system behaves exactly like an in-memory
    /// map of name -> bytes under any sequence of create / write /
    /// append / delete / read operations, cleaner churn included.
    #[test]
    fn rfs_matches_map_model(
        ops in proptest::collection::vec(
            (0u8..5, 0usize..4, proptest::collection::vec(proptest::num::u8::ANY, 0..1500)),
            1..60,
        ),
    ) {
        use bluedbm::ftl::rfs::{Rfs, RfsConfig};
        use bluedbm::ftl::FtlError;
        let mut fs = Rfs::format(
            FlashArray::new(FlashGeometry::tiny(), 23),
            RfsConfig::default(),
        ).expect("format");
        // detlint::allow(no-std-hasher): oracle model independent of fxhash
        let mut model: std::collections::HashMap<String, Vec<u8>> = Default::default();
        let names = ["a", "b", "c", "d"];
        for (op, which, data) in ops {
            let name = names[which];
            match op {
                0 => match fs.create(name) {
                    Ok(()) => { prop_assert!(!model.contains_key(name)); model.insert(name.into(), vec![]); }
                    Err(FtlError::FileExists(_)) => prop_assert!(model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                },
                1 => match fs.write(name, &data) {
                    Ok(()) => { prop_assert!(model.contains_key(name)); model.insert(name.into(), data); }
                    Err(FtlError::NoSuchFile(_)) => prop_assert!(!model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                },
                2 => match fs.append(name, &data) {
                    Ok(()) => {
                        prop_assert!(model.contains_key(name));
                        model.get_mut(name).expect("checked").extend_from_slice(&data);
                    }
                    Err(FtlError::NoSuchFile(_)) => prop_assert!(!model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("append: {e}"))),
                },
                3 => match fs.delete(name) {
                    Ok(()) => { prop_assert!(model.remove(name).is_some()); }
                    Err(FtlError::NoSuchFile(_)) => prop_assert!(!model.contains_key(name)),
                    Err(e) => return Err(TestCaseError::fail(format!("delete: {e}"))),
                },
                _ => match model.get(name) {
                    Some(want) => prop_assert_eq!(&fs.read(name).expect("read"), want),
                    None => prop_assert!(fs.read(name).is_err()),
                },
            }
        }
        for (name, want) in &model {
            prop_assert_eq!(&fs.read(name).expect("final read"), want);
            prop_assert_eq!(
                fs.physical_addrs(name).expect("addrs").len() as u64,
                (want.len() as u64).div_ceil(fs.page_bytes() as u64)
            );
        }
    }

    /// The FTL behaves exactly like a hash map under any sequence of
    /// writes, overwrites, trims and reads (driver shared with the
    /// other oracle suites via `tests/common`).
    #[test]
    fn ftl_matches_hashmap_model(
        ops in proptest::collection::vec((0u8..3, 0u64..64, 0u8..255), 1..300),
    ) {
        let ftl = Ftl::new(
            FlashArray::new(FlashGeometry::tiny(), 3),
            FtlConfig::default(),
        ).expect("ftl");
        common::ftl_matches_model(ftl, ops);
    }
}

proptest! {
    // ~90 000 queue operations per case: a few cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The event queue delivers in exactly `(time, scheduling order)`,
    /// event for event, against a `BTreeSet` model — at the depth the
    /// mesh workloads run it (over 20 000 events pending, so every pop
    /// sifts through seven levels of full four-child groups), with only
    /// 48 distinct delays (most timestamps are shared by hundreds of
    /// events) and zero delays among them (the same-instant FIFO
    /// interleaving with heap entries of the same instant). The
    /// interleaved phase pops with `step`; the drain with `run`, the
    /// train-batching path.
    #[test]
    fn event_queue_matches_btreemap_model_at_depth(
        ops in proptest::collection::vec((0u8..8, 0u64..48), 30_000..40_000),
    ) {
        use bluedbm::sim::engine::{Component, Ctx, Simulator};
        use std::collections::BTreeSet;

        const DEPTH: usize = 20_000;

        struct Log(Vec<(SimTime, u64)>);
        impl Component<u64> for Log {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, id: u64) {
                self.0.push((ctx.now(), id));
            }
        }

        let mut sim = Simulator::new();
        let log = sim.add_component(Log(Vec::new()));
        // Ids are handed out in scheduling order, so they double as the
        // model's tie-break.
        let mut model: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut next_id = 0u64;
        let mut schedule = |sim: &mut Simulator<u64>, model: &mut BTreeSet<_>, ticks: u64| {
            let delay = SimTime::ns(ticks);
            sim.schedule(delay, log, next_id);
            model.insert((sim.now() + delay, next_id));
            next_id += 1;
        };

        for i in 0..DEPTH as u64 + 4_000 {
            schedule(&mut sim, &mut model, i * 7919 % 48);
        }
        let mut stepped = 0;
        for (kind, ticks) in ops {
            if kind < 4 {
                prop_assert!(sim.step());
                let expected = model.pop_first().expect("model holds what the queue holds");
                let got = sim.component::<Log>(log).expect("installed").0[stepped];
                prop_assert_eq!(got, expected);
                stepped += 1;
            } else {
                schedule(&mut sim, &mut model, ticks);
            }
            prop_assert!(sim.pending_events() >= DEPTH, "the walk left the deep regime");
            prop_assert_eq!(sim.pending_events(), model.len());
        }
        sim.run();
        let delivered = &sim.component::<Log>(log).expect("installed").0[stepped..];
        let expected: Vec<(SimTime, u64)> = model.into_iter().collect();
        prop_assert_eq!(delivered, &expected[..]);
    }
}
