//! Property-based tests of the core invariants, across crates.

mod common;

use bluedbm::flash::ecc::{self, Decoded};
use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::isp::mp::MpMatcher;
use bluedbm::net::{NodeId, RoutingTable, Topology};
use bluedbm::sim::time::SimTime;
use bluedbm::sim::{PageRef, PageStore};
use bluedbm_check::{check, Source};

/// A byte, over its whole range.
fn byte(s: &mut Source) -> u8 {
    s.below(256) as u8
}

/// SECDED corrects any single flipped bit of the 72-bit codeword.
#[test]
fn ecc_corrects_any_single_flip() {
    check("ecc_corrects_any_single_flip", 128, |s| {
        let (data, bit) = (s.any_u64(), s.range(0usize..72));
        let parity = ecc::encode(data);
        let (d, p) = if bit < 64 {
            (data ^ (1u64 << bit), parity)
        } else {
            (data, parity ^ (1u8 << (bit - 64)))
        };
        assert_eq!(ecc::decode(d, p), Decoded::Corrected(data));
    });
}

/// SECDED never mis-corrects a double flip into the wrong word: it
/// either reports uncorrectable or (for flips involving the overall
/// parity bit) recovers the original data.
#[test]
fn ecc_never_silently_corrupts_on_double_flip() {
    check("ecc_never_silently_corrupts_on_double_flip", 128, |s| {
        let data = s.any_u64();
        // Two distinct bits: the second is 1..64 places past the first.
        let b1 = s.below(64);
        let b2 = (b1 + 1 + s.below(63)) % 64;
        let parity = ecc::encode(data);
        let corrupted = data ^ (1u64 << b1) ^ (1u64 << b2);
        assert_eq!(ecc::decode(corrupted, parity), Decoded::Uncorrectable);
    });
}

/// Morris-Pratt equals naive search for arbitrary inputs and
/// arbitrary stream split points.
#[test]
fn mp_equals_naive_under_any_split() {
    check("mp_equals_naive_under_any_split", 128, |s| {
        let hay = s.vec(0..400, |s| s.range(0u8..3));
        let pat = s.vec(1..6, |s| s.range(0u8..3));
        let split = s.range(0usize..400);
        let naive: Vec<u64> = (0..hay.len().saturating_sub(pat.len() - 1))
            .filter(|&i| hay[i..i + pat.len()] == pat[..])
            .map(|i| i as u64)
            .collect();
        let mut m = MpMatcher::new(&pat).expect("non-empty");
        let split = split.min(hay.len());
        m.feed(&hay[..split]);
        m.feed(&hay[split..]);
        assert_eq!(m.matches(), &naive[..]);
    });
}

/// On any connected random topology, deterministic routing reaches
/// every destination on a shortest path, for every endpoint.
#[test]
fn routing_always_finds_shortest_paths() {
    check("routing_always_finds_shortest_paths", 128, |s| {
        let n = s.range(3usize..10);
        let extra_edges = s.vec(0..8, |s| (s.range(0usize..10), s.range(0usize..10)));
        let endpoint = s.range(0u16..8);
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
                assert_eq!(path.len() as u32 - 1, want);
                assert_eq!(*path.last().unwrap(), NodeId::from(dst));
            }
        }
    });
}

/// The page store never hands out a stale handle, under any
/// interleaving of allocations, frees and slot reuse: live handles
/// always read back exactly their contents, freed handles never
/// become live again (generation tagging), and the live count always
/// matches a reference model.
#[test]
fn pagestore_interleavings_never_alias() {
    check("pagestore_interleavings_never_alias", 128, |s| {
        let ops = s.vec(1..160, |s| (s.range(0u8..5), s.range(0usize..64), s.range(1usize..96)));
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
                    assert!(
                        dead.iter().all(|&d| d != r),
                        "recycled slot must carry a new generation"
                    );
                    live.push((r, data));
                }
                // Free a random live page.
                2 => if !live.is_empty() {
                    let (r, _) = live.remove(pick % live.len());
                    store.free(r);
                    assert!(!store.is_live(r));
                    dead.push(r);
                }
                // Read a random live page back.
                3 => if !live.is_empty() {
                    let (r, data) = &live[pick % live.len()];
                    assert_eq!(store.get(*r), &data[..]);
                    assert_eq!(store.len(*r), data.len());
                }
                // Every dead handle stays dead; every live handle stays live.
                _ => {
                    assert!(dead.iter().all(|&d| !store.is_live(d)));
                    assert!(live.iter().all(|(r, _)| store.is_live(*r)));
                }
            }
        }
        // The audit agrees with the model: it passes exactly when the
        // model says nothing is live (`live_pages` is what it checks).
        assert_eq!(store.live_pages(), live.len());
        for (r, data) in &live {
            assert_eq!(store.get(*r), &data[..]); // contents survive to the end
        }
        for (r, _) in live {
            store.free(r);
        }
        store.assert_quiescent();
    });
}

/// SimTime arithmetic: associativity of addition and consistency of
/// multiplication, over sane ranges.
#[test]
fn simtime_arithmetic_laws() {
    check("simtime_arithmetic_laws", 128, |s| {
        let (a, b, k) = (s.range(0u64..1 << 40), s.range(0u64..1 << 40), s.range(0u64..1000));
        let ta = SimTime::ps(a);
        let tb = SimTime::ps(b);
        assert_eq!(ta + tb, tb + ta);
        assert_eq!((ta + tb).saturating_sub(tb), ta);
        assert_eq!(ta * k, SimTime::ps(a * k));
        assert_eq!(ta.max(tb).min(ta), ta.min(tb).max(ta));
    });
}

/// Word count over any byte stream equals itself under any page
/// split (the combiner's straddle-carrying invariant).
#[test]
fn wordcount_split_invariance() {
    check("wordcount_split_invariance", 64, |s| {
        use bluedbm::isp::wordcount::WordCountEngine;
        use bluedbm::isp::Accelerator;
        let text = s.vec(0..300, byte);
        let split = s.range(0usize..300);
        let mut whole = WordCountEngine::new();
        whole.consume(0, &text);
        whole.finish();
        let mut halves = WordCountEngine::new();
        let split = split.min(text.len());
        halves.consume(0, &text[..split]);
        halves.consume(1, &text[split..]);
        halves.finish();
        assert_eq!(whole.into_table(), halves.into_table());
    });
}

/// Aggregation is page-decomposition invariant: any chunking of the
/// record stream yields the same group table.
#[test]
fn aggregation_chunking_invariance() {
    check("aggregation_chunking_invariance", 64, |s| {
        use bluedbm::isp::aggregate::AggregateEngine;
        use bluedbm::isp::Accelerator;
        let rows = s.vec(1..200, |s| (s.range(0u64..8), s.range(0u64..1000)));
        let chunk = s.range(1usize..32);
        let page_of = |rows: &[(u64, u64)]| {
            let mut p = Vec::with_capacity(rows.len() * 16);
            for &(k, v) in rows {
                p.extend_from_slice(&k.to_le_bytes());
                p.extend_from_slice(&v.to_le_bytes());
            }
            p
        };
        let mut whole = AggregateEngine::new(16, 0, 8);
        whole.consume(0, &page_of(&rows));
        let mut chunked = AggregateEngine::new(16, 0, 8);
        for (i, c) in rows.chunks(chunk).enumerate() {
            chunked.consume(i as u64, &page_of(c));
        }
        assert_eq!(whole.into_table(), chunked.into_table());
    });
}

/// A `KvStore` behaves exactly like an in-memory map of key -> bytes
/// under any sequence of put (fresh or overwriting), delete and get
/// operations on four keys, on a one-node cluster whose 64-page card is
/// small enough that its `Ftl` collects and puts run out of room: a put
/// refused with `DeviceFull` leaves the key's previous value readable.
/// Every get reads the value off flash through the in-simulation
/// `Ftl`'s map, so a collection that moved its pages must not show.
/// (Heavier model-based test: fewer cases.)
#[test]
fn kv_store_matches_map_model() {
    use bluedbm::core::cluster::ClusterError;
    use bluedbm::core::{Cluster, KvStore, SystemConfig};
    fn holds(store: &mut KvStore, key: &str, want: Option<&Vec<u8>>) {
        match (store.get(NodeId(0), key.as_bytes()), want) {
            (Ok(Some(got)), Some(want)) => assert_eq!(&got.value, want, "{key}"),
            (Ok(None), None) => {}
            (got, want) => panic!("{key}: got {got:?}, want {want:?}"),
        }
    }
    let mut config = SystemConfig::scaled_down();
    config.flash.cards_per_node = 1;
    config.flash.geometry = FlashGeometry {
        buses: 2,
        chips_per_bus: 1,
        blocks_per_chip: 4,
        pages_per_block: 8,
        page_bytes: 64,
    };
    let (refused, moved) = (std::cell::Cell::new(0u32), std::cell::Cell::new(0u64));
    check("kv_store_matches_map_model", 16, |s| {
        let ops = s.vec(1..60, |s| (s.range(0u8..5), s.range(0usize..4), s.vec(0..1500, byte)));
        let cluster = Cluster::ring(1, &config).expect("cluster");
        let mut store = KvStore::new(cluster);
        let mut model: std::collections::BTreeMap<&str, Vec<u8>> = Default::default();
        let keys = ["a", "b", "c", "d"];
        for (op, which, data) in ops {
            let key = keys[which];
            match op {
                0 | 1 => match store.put(key.as_bytes(), &data) {
                    Ok(()) => {
                        model.insert(key, data);
                    }
                    Err(ClusterError::DeviceFull(_)) => {
                        refused.set(refused.get() + 1);
                        holds(&mut store, key, model.get(key));
                    }
                    Err(e) => panic!("put: {e}"),
                },
                2 => {
                    store.submit_delete(0, key.as_bytes());
                    let done = store.drive();
                    assert_eq!(done[0].found, model.remove(key).is_some(), "delete {key}");
                }
                _ => holds(&mut store, key, model.get(key)),
            }
        }
        for key in keys {
            holds(&mut store, key, model.get(key));
        }
        store.assert_no_stranded_pages();
        store.cluster().assert_quiescent();
        moved.set(moved.get() + store.cluster().gc_stats().relocated);
    });
    assert!(refused.get() > 0, "no put ran out of room");
    assert!(moved.get() > 0, "no collection moved a live page");
}

/// The FTL behaves exactly like a hash map under any sequence of
/// writes, overwrites, trims and reads (driver shared with the
/// other oracle suites via `tests/common`).
#[test]
fn ftl_matches_hashmap_model() {
    check("ftl_matches_hashmap_model", 16, |s| {
        let ops = s.vec(1..300, |s| (s.range(0u8..3), s.range(0u64..64), s.range(0u8..255)));
        common::ftl_matches_model(FlashArray::new(FlashGeometry::tiny(), 3), ops);
    });
}

/// The event queue delivers in exactly `(time, scheduling order)`,
/// event for event, against a `BTreeSet` model — at the depth the
/// mesh workloads run it (over 20 000 events pending), with only 48
/// distinct delays (most timestamps are shared by hundreds of events,
/// so the low buckets are redistributed with long same-instant runs)
/// and zero delays among them (sends at the instant being executed
/// interleaving with events pending at it). The interleaved phase pops
/// with `step`; the drain with `run`. About 90 000 queue operations per
/// case: a few cases.
#[test]
fn event_queue_matches_btreemap_model_at_depth() {
    check("event_queue_matches_btreemap_model_at_depth", 8, |s| {
        use bluedbm::sim::engine::{Component, Ctx, Simulator};
        use std::collections::BTreeSet;

        const DEPTH: usize = 20_000;

        struct Log(Vec<(SimTime, u64)>);
        impl Component<u64> for Log {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, id: u64) {
                self.0.push((ctx.now(), id));
            }
        }

        let ops = s.vec(30_000..40_000, |s| (s.range(0u8..8), s.range(0u64..48)));
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
                assert!(sim.step());
                let expected = model.pop_first().expect("model holds what the queue holds");
                let got = sim.component::<Log>(log).expect("installed").0[stepped];
                assert_eq!(got, expected);
                stepped += 1;
            } else {
                schedule(&mut sim, &mut model, ticks);
            }
            assert!(sim.pending_events() >= DEPTH, "the walk left the deep regime");
            assert_eq!(sim.pending_events(), model.len());
        }
        sim.run();
        let delivered = &sim.component::<Log>(log).expect("installed").0[stepped..];
        let expected: Vec<(SimTime, u64)> = model.into_iter().collect();
        assert_eq!(delivered, &expected[..]);
    });
}

/// The same model over the whole key range: delays of every bit
/// length, from 0 and 1 ps up to 2⁴⁰ ps, so every bucket of the radix
/// heap up to the 41st fills and is redistributed; events scheduled at
/// the first and the last pending instant, so ties meet in the lowest
/// and the highest occupied bucket; and `run_until` to instants before
/// the clock, at a pending instant and just before one, interleaved
/// with `step` and `schedule`, over 10 000 events pending throughout.
#[test]
fn event_queue_matches_btreemap_model_across_the_key_range() {
    check("event_queue_matches_btreemap_model_across_the_key_range", 6, |s| {
        use bluedbm::sim::engine::{Component, Ctx, Simulator};
        use std::collections::BTreeSet;

        const DEPTH: usize = 10_000;

        struct Log(Vec<(SimTime, u64)>);
        impl Component<u64> for Log {
            fn handle(&mut self, ctx: &mut Ctx<'_, u64>, id: u64) {
                self.0.push((ctx.now(), id));
            }
        }

        /// A delay `bits` long (0 is zero), its low bits from `low`.
        fn delay(bits: u32, low: u64) -> SimTime {
            match bits {
                0 => SimTime::ZERO,
                b => {
                    let top = 1u64 << (b - 1);
                    SimTime::ps(top | low & (top - 1))
                }
            }
        }

        let ops = s.vec(20_000..30_000, |s| (s.range(0u8..8), s.range(0u32..41), s.any_u64()));
        let mut sim = Simulator::new();
        let log = sim.add_component(Log(Vec::new()));
        // Ids are handed out in scheduling order, so they double as the
        // model's tie-break.
        let mut model: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut next_id = 0u64;
        let mut schedule = |sim: &mut Simulator<u64>, model: &mut BTreeSet<_>, at: SimTime| {
            sim.schedule(at - sim.now(), log, next_id);
            model.insert((at, next_id));
            next_id += 1;
        };

        for i in 0..DEPTH as u64 + 4_000 {
            let at = sim.now() + delay((i % 41) as u32, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            schedule(&mut sim, &mut model, at);
        }
        let (mut clock, mut expected, mut checked) = (SimTime::ZERO, Vec::new(), 0);
        for (kind, bits, low) in ops {
            // Kind 0 schedules, so a failure shrinks toward a deeper
            // queue, never out of the regime under test.
            match kind {
                0..=2 => schedule(&mut sim, &mut model, clock + delay(bits, low)),
                3 => {
                    let pending = if bits % 2 == 0 { model.first() } else { model.last() };
                    let at = pending.expect("deep").0;
                    schedule(&mut sim, &mut model, at);
                }
                4..=6 => {
                    assert!(sim.step());
                    let next = model.pop_first().expect("model holds what the queue holds");
                    clock = next.0;
                    expected.push(next);
                }
                _ => {
                    let nth = model.iter().nth(bits as usize % 4).expect("deep").0;
                    let until = match low % 3 {
                        0 => clock.saturating_sub(delay(bits, low)),
                        1 => nth.saturating_sub(SimTime::ps(1)),
                        _ => nth,
                    };
                    sim.run_until(until);
                    while model.first().is_some_and(|&(at, _)| at <= until) {
                        expected.push(model.pop_first().expect("checked"));
                    }
                    clock = clock.max(until);
                }
            }
            let delivered = &sim.component::<Log>(log).expect("installed").0;
            assert_eq!(&delivered[checked..], &expected[checked..]);
            checked = expected.len();
            assert_eq!(sim.now(), clock);
            assert!(sim.pending_events() >= DEPTH, "the walk left the deep regime");
            assert_eq!(sim.pending_events(), model.len());
        }
        sim.run();
        let delivered = &sim.component::<Log>(log).expect("installed").0[checked..];
        let rest: Vec<(SimTime, u64)> = model.into_iter().collect();
        assert_eq!(delivered, &rest[..]);
    });
}
