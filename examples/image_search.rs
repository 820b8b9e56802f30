//! LSH nearest-neighbor image search (the paper's Section 7.1 workload).
//!
//! A dataset of page-sized feature vectors lives in flash across the
//! cluster. A query is hashed with bit-sampling LSH; the matching
//! buckets name candidate items scattered randomly over the nodes
//! (Figure 15); the in-store hamming engine streams those pages at
//! device bandwidth and returns only the best match.
//!
//! Run with: `cargo run --release --example image_search`

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, GlobalPageAddr, NodeId, PageOp, SystemConfig};
use bluedbm::isp::hamming::HammingEngine;
use bluedbm::isp::Accelerator;
use bluedbm::workloads::lshgen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::scaled_down();
    let mut cluster = Cluster::ring(4, &config)?;
    let item_bytes = config.flash.geometry.page_bytes;

    // Build a 400-item dataset with 5 queries that have planted
    // near-duplicates, and index it with LSH.
    println!("building LSH workload ({item_bytes}-byte items)...");
    let workload = lshgen::build(400, item_bytes, 5, 2024);

    // Distribute items across the cluster round-robin: the global
    // address space makes placement irrelevant to the query code.
    let mut placement: Vec<GlobalPageAddr> = Vec::with_capacity(workload.items.len());
    for (i, item) in workload.items.iter().enumerate() {
        let node = NodeId::from(i % cluster.node_count());
        placement.push(cluster.preload_page(node, item)?);
    }

    for (qi, (query, truth)) in workload.queries.iter().enumerate() {
        let candidates = workload.index.candidates(query);
        let t0 = cluster.now();
        // The in-store processor on node 0 pulls every candidate page —
        // local or remote — and keeps the closest.
        let mut engine = HammingEngine::new(query.clone());
        for &c in &candidates {
            let read = PageOp::Read { addr: placement[c as usize], consume: Consume::Isp };
            let data = cluster.run_one(NodeId(0), read)?.data.unwrap_or_default();
            engine.consume(c, &data);
        }
        let (best, dist) = engine.best().expect("candidates were compared");
        let elapsed = cluster.now() - t0;
        println!(
            "query {qi}: {} candidates from {} items -> best item {best} (distance {dist}) in {elapsed}{}",
            candidates.len(),
            workload.items.len(),
            if best == *truth { "  [planted neighbor found]" } else { "" }
        );
        assert_eq!(best, *truth, "LSH + hamming must find the planted neighbor");
    }

    // Contrast with the RAM-cloud trap: the same scan in host software
    // needs the whole dataset in DRAM to be fast — the paper's Figure 17.
    let isp_rate = config.isp_nn_rate();
    let host8 = config.host_nn_rate(8);
    println!(
        "\nsustained comparison rates: in-store {:.0}K/s vs 8 host threads over DRAM {:.0}K/s",
        isp_rate / 1e3,
        host8 / 1e3
    );
    Ok(())
}
