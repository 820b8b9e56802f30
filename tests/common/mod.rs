//! Shared harness for the schedule-driven and cross-engine suites.
//!
//! Property tests draw their inputs from a [`Source`] (the repo's
//! `bluedbm-check` generator). A failing case is shrunk over its recorded
//! choices and reported as a minimal choice list, which
//! `bluedbm_check::replay` pins as a regression test.
//!
//! * Schedules: the step encoding ([`Draw`], drawn by [`draw`]), the one
//!   decoder ([`decode`]) and the drivers ([`check_schedule`] for the
//!   async KV engine, [`ftl_matches_model`] for the offline FTL). All-zero
//!   choices decode to a put of key 0 with an empty value, so a shrunk
//!   schedule reads as the few steps that matter.
//! * Lanes: a [`Lane`] names a shard count and its [`ExecMode`], or an
//!   explicit partition. [`assert_lanes_agree`] is the one cross-engine
//!   comparison of `tests/kv_conformance.rs`, `tests/gc_conformance.rs`
//!   and `tests/sharded.rs`; [`topology`] and [`partition`] are their
//!   random topology and partition draws.

#![allow(
    dead_code,
    reason = "each test binary compiles this module independently and uses a different subset of it"
)]

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use bluedbm::core::kvstore::KvOpKind;
use bluedbm::core::{Cluster, ExecMode, KvStore, NodeId, SystemConfig};
use bluedbm::flash::FlashArray;
use bluedbm::ftl::ftl::{Ftl, FtlConfig};
use bluedbm::net::Topology;
use bluedbm_check::Source;

/// One engine lane: `shards` shards executing per `exec`, or an explicit
/// node -> shard `partition` (dense; `shards` is its shard count).
#[derive(Clone, Debug)]
pub struct Lane {
    pub shards: usize,
    pub exec: ExecMode,
    pub partition: Option<Vec<u32>>,
}

impl Lane {
    /// One shard: the sequential kernel, every comparison's reference.
    pub const ONE: Lane = Lane::new(1, ExecMode::Auto);

    /// `shards` shards executing per `exec`.
    pub const fn new(shards: usize, exec: ExecMode) -> Lane {
        Lane { shards, exec, partition: None }
    }

    /// The lane of a dense `partition`: worker threads at two shards,
    /// the calling thread above (what a two-core host picked before every
    /// multi-shard lane named its mode).
    pub fn partitioned(partition: Vec<u32>) -> Lane {
        let shards = partition.iter().max().map_or(1, |&s| s as usize + 1);
        let exec = if shards > 2 { ExecMode::Cooperative } else { ExecMode::Threads };
        Lane { shards, exec, partition: Some(partition) }
    }

    /// `topo` built under `base` on this lane.
    pub fn cluster(&self, topo: Topology, base: &SystemConfig) -> Cluster {
        let mut config = *base;
        config.sim.shards = self.shards;
        config.sim.exec = self.exec;
        match &self.partition {
            Some(partition) => Cluster::with_partition(topo, &config, partition),
            None => Cluster::new(topo, &config),
        }
        .expect("lane cluster")
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}", self.exec, self.shards)?;
        match &self.partition {
            Some(partition) => write!(f, " partition {partition:?}"),
            None => Ok(()),
        }
    }
}

/// The multi-shard lanes: two and four shards, each on worker threads
/// and on the calling thread.
pub const SHARDED_LANES: [Lane; 4] = [
    Lane::new(2, ExecMode::Threads),
    Lane::new(2, ExecMode::Cooperative),
    Lane::new(4, ExecMode::Threads),
    Lane::new(4, ExecMode::Cooperative),
];

/// Two shards on worker threads and four on the calling thread.
pub const TWO_AND_FOUR: [Lane; 2] = [Lane::new(2, ExecMode::Threads), Lane::new(4, ExecMode::Cooperative)];

/// Observe the `reference` lane (mostly [`Lane::ONE`]), then every lane
/// of `lanes`, and require each observation to equal the reference's,
/// which is returned.
pub fn assert_lanes_agree<T: PartialEq + fmt::Debug>(
    reference: &Lane,
    lanes: &[Lane],
    mut observe: impl FnMut(&Lane) -> T,
) -> T {
    let want = observe(reference);
    for lane in lanes {
        assert_eq!(observe(lane), want, "{lane} diverged from {reference}");
    }
    want
}

/// A random topology of `sizes` nodes, one of the first `shapes` of:
/// a ring, a line, a three-row mesh (two lanes per hop). Shrinks toward
/// the smallest ring.
pub fn topology(s: &mut Source, shapes: u64, sizes: Range<usize>) -> Topology {
    let (shape, size) = (s.below(shapes), s.range(sizes));
    match shape {
        0 => Topology::ring(size, 2),
        1 => Topology::line(size, 2),
        _ => Topology::mesh2d(3, size.div_ceil(3)),
    }
}

/// A random lane of `shards` shards, on worker threads or on the
/// calling thread. Shrinks toward the fewest shards on threads.
pub fn exec_lane(s: &mut Source, shards: Range<usize>) -> Lane {
    let shards = s.range(shards);
    Lane::new(shards, if s.bool() { ExecMode::Cooperative } else { ExecMode::Threads })
}

/// A random node -> shard map over up to `shards` shards with node 0 on
/// shard 0, relabelled dense from 0 (a draw can miss an id, and
/// `Cluster::with_partition` rejects a map with an empty shard). Shrinks
/// toward one shard.
pub fn partition(s: &mut Source, nodes: usize, shards: u64) -> Vec<u32> {
    let drawn: Vec<u32> = (0..nodes).map(|n| if n == 0 { 0 } else { s.below(shards) as u32 }).collect();
    let mut ids = drawn.clone();
    ids.sort_unstable();
    ids.dedup();
    drawn.iter().map(|id| ids.binary_search(id).expect("own id") as u32).collect()
}

/// One undecoded schedule step: `(kind, key, len)`.
pub type Draw = (u8, u8, u16);

/// One random schedule step, each field over its whole range.
pub fn draw(s: &mut Source) -> Draw {
    (s.below(256) as u8, s.below(256) as u8, s.below(1 << 16) as u16)
}

/// One schedule step, decoded from a [`Draw`]: which of a small hot key
/// set, what op, how large a value.
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
/// drive per `chunk` ops) and through a `BTreeMap` oracle, then compare
/// every per-op observable, the final directory state, and the leak
/// audits. The store's own configuration decides what else the schedule
/// exercises — a GC-enabled tiny-geometry cluster turns the same
/// schedule into a lifecycle workout.
pub fn check_schedule(s: &mut KvStore, nodes: usize, steps: Vec<Draw>, chunk: usize) {
    let page_bytes = s.cluster().config().flash.geometry.page_bytes;

    let mut oracle: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
    // op id -> expected (kind, found, value).
    let mut expected: BTreeMap<u64, (KvOpKind, bool, Option<Vec<u8>>)> = BTreeMap::new();
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
        let got = s.get(NodeId(0), &[*key]).expect("read").expect("oracle key present");
        assert_eq!(&got.value, value, "final state of key {key}");
    }

    // Nothing leaked: payload handles, pool slots, flash extents.
    s.cluster().assert_quiescent();
    s.assert_no_stranded_pages();
}

/// Drive `(op, lba, fill)` triples through an offline [`Ftl`] applying
/// every step to `array`, and through a `BTreeMap` model: writes, trims
/// and reads must agree op for op, and a final sweep of the whole
/// logical space must match the model exactly. `lba` draws are reduced
/// modulo `min(capacity, 64)` so schedules stay geometry-independent.
pub fn ftl_matches_model(mut array: FlashArray, ops: Vec<(u8, u64, u8)>) {
    let mut ftl = Ftl::new(&array, FtlConfig::default()).expect("ftl");
    let cap = ftl.capacity_pages().min(64);
    let page_bytes = array.geometry().page_bytes;
    let mut model: BTreeMap<u64, u8> = BTreeMap::new();
    let check = |ftl: &Ftl, array: &mut FlashArray, model: &BTreeMap<u64, u8>, lba: u64| {
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
/// for comparison against the cluster card FTL's state and recorded
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
