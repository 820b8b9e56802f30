//! Sharded parallel simulation at the user surface: the same all-to-all
//! scatter on the sequential engine and on 4 worker shards, showing the
//! determinism contract — identical event totals, identical per-node
//! delivery counters, identical completion data — and the shard layout.
//!
//! ```bash
//! cargo run --release --example sharded_cluster
//! ```

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, NodeId, PageOp, SystemConfig};
use bluedbm::net::Topology;

fn run_scatter(shards: usize) -> (Cluster, u64, usize) {
    let mut config = SystemConfig::scaled_down();
    config.sim.shards = shards;
    let mut cluster = Cluster::new(Topology::mesh2d(4, 4), &config).expect("mesh builds");
    let page_bytes = config.flash.geometry.page_bytes;
    let n = cluster.node_count();

    // One page on every node, then every node reads four remote pages —
    // the whole fabric busy at one instant.
    let addrs: Vec<_> = (0..n)
        .map(|node| {
            cluster
                .preload_page(NodeId::from(node), &vec![node as u8; page_bytes])
                .expect("preload fits")
        })
        .collect();
    for reader in 0..n {
        for r in 1..=4 {
            let target = (reader + r * 3 + 1) % n;
            let target = if target == reader { (target + 1) % n } else { target };
            let read = PageOp::Read { addr: addrs[target], consume: Consume::Isp };
            cluster.submit(NodeId::from(reader), read);
        }
    }
    let done = cluster.drive().len();
    cluster.assert_quiescent();
    let events = cluster.events_delivered();
    (cluster, events, done)
}

fn main() {
    let (seq, seq_events, seq_done) = run_scatter(1);
    let (sharded, sh_events, sh_done) = run_scatter(4);

    println!("== 4x4 mesh all-to-all scatter: sequential vs 4-shard engine ==");
    println!(
        "shards: {} -> {} (partition {:?})",
        seq.shard_count(),
        sharded.shard_count(),
        sharded.partition(),
    );
    println!("events delivered : {seq_events} vs {sh_events}");
    println!("reads completed  : {seq_done} vs {sh_done}");
    assert_eq!(seq_events, sh_events, "event totals must match");
    assert_eq!(seq_done, sh_done, "completion counts must match");
    for node in 0..seq.node_count() {
        let a = seq.router_stats(NodeId::from(node));
        let b = sharded.router_stats(NodeId::from(node));
        assert_eq!(
            (a.injected, a.forwarded, a.delivered, a.delivered_bytes, a.order_violations),
            (b.injected, b.forwarded, b.delivered, b.delivered_bytes, b.order_violations),
            "router {node} counters must match"
        );
    }
    println!("router counters  : identical on all 16 nodes");
    println!("store audit      : quiescent on both engines");
}
