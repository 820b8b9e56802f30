//! Shared harness for the schedule-driven and cross-engine suites.
//!
//! `tests/kv_engine.rs`, `tests/props.rs` and `tests/gc_conformance.rs`
//! all replay randomly drawn schedules against a reference map model.
//! The schedule encoding ([`Draw`]), the decoder ([`decode`]) and the
//! drivers ([`check_schedule`] for the async KV engine,
//! [`ftl_matches_model`] for the offline FTL) live here so all three
//! suites draw from one generator and decode through one decoder — a
//! failing schedule from any suite replays verbatim in the others. The
//! vendored proptest shim does not shrink: a failure reports the test
//! name, case index and seed, not a minimized schedule (integrated
//! shrinking through [`decode`] is ROADMAP item L).
//!
//! `tests/kv_conformance.rs` and `tests/gc_conformance.rs` compare every
//! multi-shard engine lane in [`SHARDED_LANES`] against one shard.

// Each test binary compiles this module independently and uses a
// different subset of it.
#![allow(dead_code)]

// detlint::allow(no-std-hasher): oracle models independent of fxhash
use std::collections::HashMap;

use bluedbm::core::kvstore::KvOpKind;
use bluedbm::core::{ExecMode, KvStore, NodeId};
use bluedbm::flash::FlashArray;
use bluedbm::ftl::ftl::{Ftl, FtlConfig};

/// The multi-shard engine lanes, `(shards, exec)`: two and four shards,
/// each on worker threads and on the calling thread.
pub const SHARDED_LANES: [(usize, ExecMode); 4] = [
    (2, ExecMode::Threads),
    (2, ExecMode::Cooperative),
    (4, ExecMode::Threads),
    (4, ExecMode::Cooperative),
];

/// One undecoded schedule step: `(kind, key, len)` as drawn by
/// proptest. Kept as a plain tuple so every suite shares the same
/// strategy (`proptest::collection::vec(any::<Draw>(), ..)`).
pub type Draw = (u8, u8, u16);

/// One schedule step, decoded from the proptest draw: which of a small
/// hot key set, what op, how large a value.
#[derive(Debug)]
pub enum Step {
    /// Store (or overwrite) `key` with a `len`-byte value.
    Put { key: u8, len: usize },
    /// Read `key` from node `reader`.
    Get { key: u8, reader: usize },
    /// Remove `key`.
    Delete { key: u8 },
}

/// Decode a raw draw against a cluster of `nodes` nodes with
/// `page_bytes`-page flash.
pub fn decode(draw: Draw, nodes: usize, page_bytes: usize) -> Step {
    let (kind, key, len) = draw;
    let key = key % 12; // a small hot set maximizes same-key interleaving
    match kind % 4 {
        // Put twice as likely as delete: the store should mostly grow.
        0 | 1 => Step::Put {
            key,
            // 0..~2.2 pages, hitting empty, partial and multi-page.
            len: len as usize % (2 * page_bytes + page_bytes / 4),
        },
        2 => Step::Get {
            key,
            reader: len as usize % nodes,
        },
        _ => Step::Delete { key },
    }
}

/// Drive `steps` through the engine (submitting everything before one
/// drive per `chunk` ops) and through a `HashMap` oracle, then compare
/// every per-op observable, the final directory state, and the leak
/// audits. The store's own configuration decides what else the schedule
/// exercises — a GC-enabled tiny-geometry cluster turns the same
/// schedule into a lifecycle workout.
pub fn check_schedule(s: &mut KvStore, nodes: usize, steps: Vec<Draw>, chunk: usize) {
    let page_bytes = s.cluster().config().flash.geometry.page_bytes;

    // detlint::allow(no-std-hasher): oracle model independent of fxhash
    let mut oracle: HashMap<u8, Vec<u8>> = HashMap::new();
    // op id -> expected (kind, found, value).
    // detlint::allow(no-std-hasher): ditto
    let mut expected: HashMap<u64, (KvOpKind, bool, Option<Vec<u8>>)> = HashMap::new();
    let mut completions = Vec::new();
    let mut pending = 0usize;

    for (i, draw) in steps.into_iter().enumerate() {
        let step = decode(draw, nodes, page_bytes);
        match step {
            Step::Put { key, len } => {
                // Deterministic distinctive contents per (key, step).
                let value: Vec<u8> = (0..len).map(|j| (j as u8) ^ key ^ (i as u8)).collect();
                let tenant = u16::from(key) % 4;
                let id = s.submit_put(tenant, &[key], &value);
                oracle.insert(key, value);
                expected.insert(id, (KvOpKind::Put, true, None));
            }
            Step::Get { key, reader } => {
                let id = s.submit_get(u16::from(key) % 4, NodeId::from(reader), &[key]);
                let value = oracle.get(&key).cloned();
                expected.insert(id, (KvOpKind::Get, value.is_some(), value));
            }
            Step::Delete { key } => {
                let id = s.submit_delete(u16::from(key) % 4, &[key]);
                let found = oracle.remove(&key).is_some();
                expected.insert(id, (KvOpKind::Delete, found, None));
            }
        }
        pending += 1;
        if pending >= chunk {
            completions.extend(s.drive());
            pending = 0;
        }
    }
    completions.extend(s.drive());

    assert_eq!(completions.len(), expected.len(), "every op completes");
    for c in &completions {
        let (kind, found, value) = expected.remove(&c.op).expect("unknown op id");
        assert_eq!(c.kind, kind, "op {} kind", c.op);
        assert!(c.error.is_none(), "op {} failed: {:?}", c.op, c.error);
        assert_eq!(c.found, found, "op {} hit/miss (key {:?})", c.op, c.key);
        if kind == KvOpKind::Get {
            assert_eq!(
                c.value, value,
                "op {} read the wrong value for key {:?}",
                c.op, c.key
            );
        }
    }

    // Final state agrees with the oracle.
    assert_eq!(s.len(), oracle.len());
    for (key, value) in &oracle {
        let got = s.get(NodeId(0), &[*key]).expect("oracle key present");
        assert_eq!(&got.value, value, "final state of key {key}");
    }

    // Nothing leaked: payload handles, pool slots, flash extents.
    s.cluster().assert_quiescent();
    s.assert_no_stranded_pages();
}

/// Drive `(op, lba, fill)` triples through an offline [`Ftl`] applying
/// every step to `array`, and through a `HashMap` model: writes, trims
/// and reads must agree op for op, and a final sweep of the whole
/// logical space must match the model exactly. `lba` draws are reduced
/// modulo `min(capacity, 64)` so schedules stay geometry-independent.
pub fn ftl_matches_model(mut array: FlashArray, ops: Vec<(u8, u64, u8)>) {
    let mut ftl = Ftl::new(&array, FtlConfig::default()).expect("ftl");
    let cap = ftl.capacity_pages().min(64);
    let page_bytes = array.geometry().page_bytes;
    // detlint::allow(no-std-hasher): oracle model independent of fxhash
    let mut model: HashMap<u64, u8> = HashMap::new();
    let check = |ftl: &Ftl, array: &mut FlashArray, model: &HashMap<u64, u8>, lba: u64| {
        match (model.get(&lba), ftl.physical_of(lba)) {
            (Some(&fill), Some(ppa)) => {
                assert_eq!(array.read(ppa).expect("read").data, vec![fill; page_bytes]);
            }
            (want, got) => assert!(want.is_none() && got.is_none(), "lba {lba} at {got:?}"),
        }
    };
    for (op, lba, fill) in ops {
        let lba = lba % cap;
        match op {
            0 => {
                let step = ftl.step_write(lba).expect("write");
                step.apply(&mut array, &vec![fill; page_bytes]).expect("apply");
                model.insert(lba, fill);
            }
            1 => {
                ftl.step_trim(lba).expect("trim");
                model.remove(&lba);
            }
            _ => check(&ftl, &mut array, &model, lba),
        }
    }
    // Final sweep: every mapping agrees.
    for lba in 0..cap {
        check(&ftl, &mut array, &model, lba);
    }
}

/// Replay a cluster card's recorded logical lifecycle ops against a
/// fresh offline twin of a card in `factory` state — the GC conformance
/// oracle. Returns the twin and the GC rounds it decided, in op order,
/// for comparison against the cluster mirror's state and recorded
/// rounds.
pub fn replay_lifecycle(
    factory: &FlashArray,
    config: FtlConfig,
    ops: &[bluedbm::core::LifecycleOp],
) -> (Ftl, Vec<bluedbm::ftl::GcRound>) {
    use bluedbm::core::LifecycleOp;
    let mut twin = Ftl::new(factory, config).expect("twin FTL");
    let mut rounds = Vec::new();
    for op in ops {
        match *op {
            LifecycleOp::Write(lba) => {
                let outcome = twin.step_write(lba).expect("twin out of space");
                rounds.extend(outcome.gc);
            }
            LifecycleOp::Trim(lba) => {
                twin.step_trim(lba).expect("twin trim");
            }
        }
    }
    (twin, rounds)
}
