//! Cross-crate integration: the paper's 20-node appliance — global
//! address space, near-uniform latency, network invariants at scale.

use bluedbm::core::node::{Completed, Consume};
use bluedbm::core::{Cluster, GlobalPageAddr, NodeId, PageOp, SystemConfig};
use bluedbm::sim::time::SimTime;

fn twenty_node_cluster() -> Cluster {
    let config = SystemConfig::scaled_down();
    Cluster::ring(20, &config).expect("20-node ring builds")
}

/// Read `addr` at `reader` on an otherwise idle cluster.
fn read(cluster: &mut Cluster, reader: NodeId, addr: GlobalPageAddr, consume: Consume) -> Completed {
    cluster.run_one(reader, PageOp::Read { addr, consume }).expect("read")
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
        let read = read(&mut cluster, NodeId(0), *addr, Consume::Isp);
        assert_eq!(read.data, Some(vec![n as u8; page_bytes]), "node {n} contents");
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
        let read = read(&mut cluster, NodeId(0), addr, Consume::Isp);
        latencies.push((n, read.end - read.start));
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
    for &addr in &addrs {
        cluster.submit(NodeId(0), PageOp::Read { addr, consume: Consume::Isp });
    }
    let done = cluster.drive();
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
        let written = cluster
            .run_one(NodeId(n), PageOp::Write(&data))
            .expect("write through the DES stack");
        let read = read(&mut cluster, NodeId(n), written.addr.expect("written"), Consume::Isp);
        assert_eq!(read.data, Some(data));
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
        cluster.submit(NodeId::from(1023 - n), PageOp::Read { addr, consume: Consume::Isp });
    }
    let done = cluster.drive();
    assert_eq!(done.len(), addrs.len());
    for (c, &(n, _)) in done.iter().zip(&addrs) {
        assert_eq!((c.node, &c.error), (NodeId::from(1023 - n), &None), "read at {n}");
    }
    cluster.assert_quiescent();
}

#[test]
fn host_consumed_reads_pay_pcie_everywhere() {
    let mut cluster = twenty_node_cluster();
    let page_bytes = cluster.config().flash.geometry.page_bytes;
    let addr = cluster
        .preload_page(NodeId(7), &vec![1u8; page_bytes])
        .expect("preload");
    let isp = read(&mut cluster, NodeId(3), addr, Consume::Isp);
    let host = read(&mut cluster, NodeId(3), addr, Consume::Host);
    assert!(host.end - host.start > isp.end - isp.start + SimTime::us(3));
}
