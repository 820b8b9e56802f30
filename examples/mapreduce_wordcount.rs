//! BlueDBM-optimized MapReduce (the paper's Section 8 application):
//! word count with in-store map+combine, shuffling only combined tables
//! over the integrated network.
//!
//! Each node runs a combiner over its local shard of the corpus at flash
//! bandwidth; the per-node tables (a few hundred bytes) are merged at the
//! reducer. The corpus itself never crosses PCIe or the network.
//!
//! Run with: `cargo run --release --example mapreduce_wordcount`

use bluedbm::sim::fxhash::FxHashMap;

use bluedbm::core::node::Consume;
use bluedbm::core::{Cluster, NodeId, SystemConfig};
use bluedbm::isp::wordcount::WordCountEngine;
use bluedbm::isp::Accelerator;
use bluedbm::sim::rng::{Rng, Zipf};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::scaled_down();
    let mut cluster = Cluster::ring(4, &config)?;
    let page_bytes = config.flash.geometry.page_bytes;

    // A Zipf-weighted corpus (natural-language-ish word frequencies),
    // sharded page-aligned across the four nodes.
    let vocab: Vec<&str> = vec![
        "flash", "dram", "network", "storage", "query", "latency", "bandwidth", "node",
        "page", "accelerator", "controller", "traversal", "search", "appliance",
    ];
    let zipf = Zipf::new(vocab.len(), 1.0);
    let mut rng = Rng::new(99);
    let mut corpus = String::new();
    while corpus.len() < 24 * page_bytes {
        corpus.push_str(vocab[zipf.sample(&mut rng)]);
        corpus.push(' ');
    }
    let corpus = corpus.into_bytes();

    // Shard: node n gets every 4th chunk. Chunks end at word boundaries
    // so no token straddles two nodes (within a node, the combiner
    // handles page-straddling tokens itself).
    let mut chunks: Vec<&[u8]> = Vec::new();
    let mut start = 0usize;
    while start < corpus.len() {
        let mut end = (start + page_bytes).min(corpus.len());
        while end < corpus.len() && corpus[end - 1] != b' ' {
            end -= 1;
        }
        chunks.push(&corpus[start..end]);
        start = end;
    }
    let mut shard_addrs = vec![Vec::new(); 4];
    for (i, chunk) in chunks.iter().enumerate() {
        let node = i % 4;
        let mut page = chunk.to_vec();
        page.resize(page_bytes, b' '); // page padding is whitespace
        shard_addrs[node].push((cluster.preload_page(NodeId::from(node), &page)?, chunk.len()));
    }

    // Map + combine on every node, at that node's flash bandwidth.
    let mut merged: FxHashMap<String, u64> = FxHashMap::default();
    let mut shuffle_bytes = 0usize;
    for (node, shard) in shard_addrs.iter().enumerate() {
        let mut engine = WordCountEngine::new();
        let t0 = cluster.now();
        for (seq, &(addr, len)) in shard.iter().enumerate() {
            let read = cluster.read_page(NodeId::from(node), addr, Consume::Isp)?;
            engine.consume(seq as u64, &read.data[..len.max(1)]);
        }
        engine.finish();
        let elapsed = cluster.now() - t0;
        shuffle_bytes += engine.result_bytes();
        let table = engine.into_table();
        println!(
            "node {node}: combined {} distinct words from {} pages in {elapsed} (simulated)",
            table.len(),
            shard_addrs[node].len()
        );
        for (word, count) in table {
            *merged.entry(word).or_insert(0) += count;
        }
    }

    // Reduce: merge the four tiny tables.
    let mut result: Vec<(String, u64)> = merged.into_iter().collect();
    result.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("\ntop words across the cluster:");
    for (word, count) in result.iter().take(6) {
        println!("  {word:<12} {count}");
    }
    println!(
        "\nshuffle traffic: {shuffle_bytes} bytes vs {} bytes of corpus ({}x reduction)",
        corpus.len(),
        corpus.len() / shuffle_bytes.max(1)
    );

    // Zipf sanity: the most popular word dominates.
    assert_eq!(result[0].0, "flash");
    // Exact-count verification against a host-side pass.
    let mut host = WordCountEngine::new();
    host.consume(0, &corpus);
    host.finish();
    for (word, count) in &result {
        assert_eq!(host.count(word), *count, "word {word}");
    }
    println!("host-side verification passed");
    Ok(())
}
