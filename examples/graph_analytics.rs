//! Distributed graph traversal (the paper's Section 7.2 workload).
//!
//! A power-law graph is packed into flash pages and spread over the
//! cluster; BFS performs *dependent* page lookups — the next fetch is
//! unknown until the previous page is decoded — so traversal throughput
//! is set by per-step latency, which is where the integrated network and
//! in-store processing pay off (Figure 20).
//!
//! Run with: `cargo run --release --example graph_analytics`

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, GlobalPageAddr, NodeId, SystemConfig};
use bluedbm::workloads::graphgen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::scaled_down();
    let mut cluster = Cluster::ring(4, &config)?;
    let page_bytes = config.flash.geometry.page_bytes;

    // A 1500-vertex power-law graph packed into flash pages.
    println!("generating and packing a power-law graph...");
    let adj = graphgen::power_law(1_500, 6, 1.1, 7);
    let graph = graphgen::pack(&adj, page_bytes);
    println!(
        "{} vertices in {} pages of {} bytes",
        graph.vertex_count(),
        graph.page_count(),
        page_bytes
    );

    // Spread the pages across all four nodes.
    let mut placement: Vec<GlobalPageAddr> = Vec::with_capacity(graph.page_count());
    for p in 0..graph.page_count() {
        let node = NodeId::from(p % cluster.node_count());
        placement.push(cluster.preload_page(node, graph.page(p as u64))?);
    }

    // BFS from vertex 0, fetching every page through the simulated
    // cluster (in-store consumer: the ISP-F path).
    let t0 = cluster.now();
    let mut fetches = 0u64;
    let stats = {
        // The closure borrows the cluster mutably; BFS drives it.
        let cluster = &mut cluster;
        graph.bfs_with_fetch(0, |page| {
            fetches += 1;
            cluster
                .read_page(NodeId(0), placement[page as usize], Consume::Isp)
                .expect("graph pages were preloaded")
                .data
        })
    };
    let elapsed = cluster.now() - t0;
    let steps_per_sec = stats.page_fetches as f64 / elapsed.as_secs_f64();
    println!(
        "BFS visited {} vertices via {} dependent page fetches in {elapsed} (simulated)",
        stats.order.len(),
        stats.page_fetches
    );
    println!("traversal rate: {:.0} steps/s (ISP-F path)", steps_per_sec);

    // The same traversal through host software pays ~100us of software
    // overhead per step (H-RH-F pays it twice) — Figure 20's gap.
    let sw = config.host.sw_overhead;
    let step = elapsed / stats.page_fetches;
    let hf_rate = 1.0 / (step + sw).as_secs_f64();
    let hrhf_rate = 1.0 / (step + sw * 2).as_secs_f64();
    println!(
        "host-software equivalents: H-F {:.0} steps/s, H-RH-F {:.0} steps/s ({:.1}x slower)",
        hf_rate,
        hrhf_rate,
        steps_per_sec / hrhf_rate
    );
    assert!(steps_per_sec > hrhf_rate * 2.0);
    Ok(())
}
