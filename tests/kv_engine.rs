//! Model-based and stress coverage for the async KV engine.
//!
//! * A `BTreeMap` oracle (the shared `tests/common` harness) replays
//!   every random put/get/delete/overwrite schedule in submission order
//!   per key — the engine's per-key FIFO
//!   gates must make the simulated store agree on every read and every
//!   hit/miss outcome, however the underlying events interleave.
//! * Every schedule must end quiescent: no payload handles, pooled
//!   control blocks or flash extents left behind (the delete-path leak
//!   the blocking API used to have is exactly what the extent audit
//!   catches).
//! * Tenants saturating one node's accelerator units must all make
//!   progress (FIFO starvation-freedom at cluster level), with the
//!   queue visible in the scheduler stats.

mod common;

use bluedbm::core::{Cluster, KvStore, NodeId, SystemConfig};
use bluedbm_check::check;
use common::Draw;

fn store(nodes: usize) -> KvStore {
    let config = SystemConfig::scaled_down();
    KvStore::new(Cluster::ring(nodes, &config).expect("cluster"))
}

/// Drive `steps` through the shared oracle harness on a 3-node ring
/// (see `tests/common`).
fn check_schedule(steps: Vec<Draw>, chunk: usize) {
    const NODES: usize = 3;
    let mut s = store(NODES);
    common::check_schedule(&mut s, NODES, steps, chunk);
}

/// Fully concurrent: every op of the schedule is submitted before a
/// single drive, so same-key runs pile onto the gates and different
/// keys flood the cluster at one instant.
#[test]
fn random_concurrent_churn_agrees_with_oracle() {
    check("random_concurrent_churn_agrees_with_oracle", 8, |s| {
        check_schedule(s.vec(1..120, common::draw), usize::MAX);
    });
}

/// Interleaved: drive every few ops, so schedules cross round
/// boundaries and freed extents get recycled mid-schedule.
#[test]
fn random_interleaved_churn_agrees_with_oracle() {
    check("random_interleaved_churn_agrees_with_oracle", 8, |s| {
        let steps = s.vec(1..120, common::draw);
        check_schedule(steps, s.range(3..17));
    });
}

#[test]
fn tenants_saturating_one_unit_all_complete_in_fifo_spirit() {
    // One accelerator unit per node: concurrent gets from many tenants
    // against keys homed on a single node must queue on the scheduler
    // and all complete correctly.
    let mut config = SystemConfig::scaled_down();
    config.accel.units = 1;
    let mut s = KvStore::new(Cluster::ring(2, &config).unwrap());
    let page_bytes = config.flash.geometry.page_bytes;

    // Find keys all homed on node 0.
    let mut keys = Vec::new();
    let mut i = 0u32;
    while keys.len() < 12 {
        let key = format!("hot{i}");
        if s.home_node(key.as_bytes()) == NodeId(0) {
            keys.push(key);
        }
        i += 1;
    }
    for (k, key) in keys.iter().enumerate() {
        s.put(key.as_bytes(), &vec![k as u8; page_bytes]).unwrap();
    }

    // Every tenant reads every key, all in flight at once.
    for tenant in 0..6u16 {
        for key in &keys {
            let reader = NodeId::from(tenant as usize % 2);
            s.submit_get(tenant, reader, key.as_bytes());
        }
    }
    let done = s.drive();
    assert_eq!(done.len(), 6 * 12);
    for c in &done {
        assert!(c.error.is_none() && c.found, "get {:?} failed", c.key);
        let k = keys.iter().position(|key| key.as_bytes() == c.key).unwrap();
        assert_eq!(c.value.as_deref(), Some(&vec![k as u8; page_bytes][..]));
    }
    // Per-tenant fairness: FIFO means every tenant completed all reads.
    for tenant in 0..6u16 {
        assert_eq!(s.tenant_stats(tenant).get_hits, 12, "tenant {tenant}");
    }
    // The single unit was a real bottleneck, visible in the stats. The
    // gets split across both readers but all pages live on node 0, so
    // each reader's scheduler sees its half of the jobs.
    let sched0 = s.cluster().sched_stats(NodeId(0));
    let sched1 = s.cluster().sched_stats(NodeId(1));
    assert_eq!(sched0.completed + sched1.completed, 6 * 12);
    assert!(sched0.parked > 0, "unit exhaustion must park jobs: {sched0:?}");
    assert!(sched0.max_wait > bluedbm::sim::time::SimTime::ZERO);
    assert_eq!(sched0.submitted, sched0.completed, "no job stranded");
    assert_eq!(sched1.submitted, sched1.completed, "no job stranded");
    s.cluster().assert_quiescent();
    s.assert_no_stranded_pages();
}

#[test]
fn overwrite_churn_stays_within_reused_extents() {
    // 200 overwrites of one key must not grow flash usage: each put
    // frees the previous extent back to the node's pool.
    let mut s = store(2);
    let page_bytes = s.cluster().config().flash.geometry.page_bytes;
    for round in 0..200u32 {
        s.put(b"hot", &vec![round as u8; page_bytes + 1]).unwrap();
        assert_eq!(s.cluster().flash_pages_in_use(), 2, "round {round}");
    }
    assert_eq!(
        s.get(NodeId(1), b"hot").unwrap().unwrap().value,
        vec![199u8; page_bytes + 1]
    );
    s.assert_no_stranded_pages();
}
