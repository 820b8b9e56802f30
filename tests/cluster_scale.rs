//! Cross-crate integration: the paper's 20-node appliance — global
//! address space, near-uniform latency, network invariants at scale.

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, NodeId, SystemConfig};
use bluedbm::sim::time::SimTime;

fn twenty_node_cluster() -> Cluster {
    let config = SystemConfig::scaled_down();
    Cluster::ring(20, &config).expect("20-node ring builds")
}

#[test]
fn twenty_nodes_form_a_global_address_space() {
    let mut cluster = twenty_node_cluster();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    // One page on every node, each readable from node 0.
    let addrs: Vec<_> = (0..20)
        .map(|n| {
            let data = vec![n as u8; page_bytes];
            cluster
                .preload_page(NodeId(n), &data)
                .expect("preload fits")
        })
        .collect();
    for (n, addr) in addrs.iter().enumerate() {
        let read = cluster
            .read_page(NodeId(0), *addr, Consume::Isp)
            .expect("read");
        assert_eq!(read.data, vec![n as u8; page_bytes], "node {n} contents");
    }
}

#[test]
fn access_latency_is_near_uniform_across_the_rack() {
    // The paper's Section 6.3 argument: with 50us flash reads, a rack's
    // worth of hops "gives the illusion of a uniform access storage".
    let mut cluster = twenty_node_cluster();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    let mut latencies = Vec::new();
    for n in 0..20u16 {
        let data = vec![n as u8; page_bytes];
        let addr = cluster.preload_page(NodeId(n), &data).expect("preload");
        let read = cluster
            .read_page(NodeId(0), addr, Consume::Isp)
            .expect("read");
        latencies.push((n, read.latency));
    }
    let local = latencies[0].1;
    let worst = latencies.iter().map(|&(_, l)| l).max().expect("non-empty");
    // Farthest node on a 20-ring is 10 hops; request+response hops plus
    // wire time must stay a small fraction of the flash access.
    let overhead = worst - local;
    assert!(
        overhead < SimTime::us(14),
        "worst-case network overhead {overhead} breaks uniformity"
    );
    assert!(
        overhead.as_secs_f64() / local.as_secs_f64() < 0.25,
        "non-uniformity {:.1}% too high",
        100.0 * overhead.as_secs_f64() / local.as_secs_f64()
    );
}

#[test]
fn no_order_violations_or_drops_under_mixed_load() {
    let mut cluster = twenty_node_cluster();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    // Pages spread over four remote nodes, streamed concurrently.
    let mut addrs = Vec::new();
    for n in [1u16, 5, 10, 15] {
        for i in 0..40 {
            let data = vec![i as u8; page_bytes];
            addrs.push(cluster.preload_page(NodeId(n), &data).expect("preload"));
        }
    }
    let done = cluster.stream_reads(NodeId(0), &addrs, Consume::Isp);
    assert_eq!(done.len(), addrs.len(), "flow control must not drop reads");
    for n in 0..20u16 {
        let stats = cluster.router_stats(NodeId(n));
        assert_eq!(
            stats.order_violations, 0,
            "per-endpoint FIFO violated at node {n}"
        );
    }
}

#[test]
fn writes_through_the_full_stack_on_every_node() {
    let mut cluster = twenty_node_cluster();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    for n in 0..20u16 {
        let data = vec![0xC0u8 | (n as u8 & 0x0F); page_bytes];
        let addr = cluster
            .write_page_local(NodeId(n), &data)
            .expect("write through the DES stack");
        let read = cluster
            .read_page(NodeId(n), addr, Consume::Isp)
            .expect("read");
        assert_eq!(read.data, data);
    }
    // Writes pay tPROG: simulated time must reflect 20 sequential writes.
    assert!(cluster.now() >= SimTime::ms(6), "now = {}", cluster.now());
}

#[test]
fn mesh32x32_smoke_at_4_shards() {
    // The top of the topology ladder: 1024 nodes, sharded 4 ways by the
    // min-cut partitioner. Build, scatter a short burst of remote reads
    // across distant corners, run to quiescence, audit the stores.
    use bluedbm::net::Topology;

    let mut config = SystemConfig::scaled_down();
    config.sim.shards = 4;
    let topo = Topology::mesh2d(32, 32);
    assert_eq!(topo.node_count(), 1024);
    let mut cluster = Cluster::new(topo, &config).expect("mesh32x32 builds");
    assert_eq!(cluster.shard_count(), 4);
    // Quadrant-style cut: far shard pairs must earn a wider window than
    // the global one-hop floor.
    let widest = (0..4)
        .flat_map(|s| (0..4).map(move |r| (s, r)))
        .filter(|&(s, r)| s != r)
        .map(|(s, r)| cluster.lookahead_between(s, r).expect("sharded"))
        .max()
        .expect("pairs exist");
    assert!(widest > cluster.min_lookahead().expect("sharded"));

    let page_bytes = cluster.config().flash.geometry.page_bytes;
    // One page on every 16th node, read by the diagonally opposite node.
    let stride = 16;
    let addrs: Vec<_> = (0..1024)
        .step_by(stride)
        .map(|n| {
            let data = vec![(n % 251) as u8; page_bytes];
            (n, cluster.preload_page(NodeId::from(n), &data).expect("preload"))
        })
        .collect();
    for &(n, addr) in &addrs {
        cluster.inject_read(NodeId::from(1023 - n), addr, Consume::Isp);
    }
    cluster.run_to_quiescence();
    let mut completions = 0;
    for &(n, _) in &addrs {
        let done = cluster.harvest_node(NodeId::from(1023 - n));
        assert!(done.iter().all(|c| c.error.is_none()), "read failed at {n}");
        completions += done.len();
    }
    assert_eq!(completions, addrs.len());
    cluster.assert_quiescent();
}

#[test]
fn host_consumed_reads_pay_pcie_everywhere() {
    let mut cluster = twenty_node_cluster();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    let addr = cluster
        .preload_page(NodeId(7), &vec![1u8; page_bytes])
        .expect("preload");
    let isp = cluster
        .read_page(NodeId(3), addr, Consume::Isp)
        .expect("isp");
    let host = cluster
        .read_page(NodeId(3), addr, Consume::Host)
        .expect("host");
    assert!(host.latency > isp.latency + SimTime::us(3));
}
