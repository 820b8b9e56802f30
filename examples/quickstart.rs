//! Quickstart: build a small BlueDBM appliance, use the global address
//! space, and run an in-store search.
//!
//! Run with: `cargo run --example quickstart`

use bluedbm::core::{Cluster, NodeId, SystemConfig};
use bluedbm::isp::mp::MpMatcher;
use bluedbm::isp::Accelerator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-node appliance with paper-calibrated device models. The
    // scaled-down config keeps flash capacity small so examples run
    // instantly; all rates and latencies are the paper's.
    let config = SystemConfig::scaled_down();
    let mut cluster = Cluster::ring(4, &config)?;
    let page_bytes = config.flash.geometry.page_bytes;

    // 1. Write a page through the full simulated stack on node 0.
    let page = vec![0xAB; page_bytes];
    let addr = cluster.write_page_local(NodeId(0), &page)?;
    println!("wrote one page to {addr:?}");

    // 2. Read it back from node 2, two network hops away, straight into
    //    node 2's in-store processor (the ISP-F path).
    let read = cluster.read_page_remote(NodeId(2), addr)?;
    assert_eq!(read.data, page);
    println!(
        "remote in-store read: {} ({} hops of 0.48us each are a rounding error next to the 50us flash read)",
        read.latency,
        cluster.hops(NodeId(2), NodeId(0)).expect("a ring is connected"),
    );

    // 3. The same read into host memory pays PCIe on top.
    let host_read = cluster.read_page_host(NodeId(2), addr)?;
    println!("remote host read:     {} (adds the PCIe crossing)", host_read.latency);

    // 4. In-store string search: stream pages through a Morris-Pratt
    //    engine; only match offsets would cross back to the host.
    let mut haystack = vec![b'x'; 4 * page_bytes];
    let needle = b"bluedbm";
    haystack[100..107].copy_from_slice(needle);
    haystack[page_bytes - 3..page_bytes + 4].copy_from_slice(needle); // straddles pages
    let mut engine = MpMatcher::new(needle).expect("non-empty needle");
    let mut addrs = Vec::new();
    for chunk in haystack.chunks(page_bytes) {
        addrs.push(cluster.preload_page(NodeId(1), chunk)?);
    }
    for (i, a) in addrs.iter().enumerate() {
        let r = cluster.read_page_remote(NodeId(1), *a)?;
        engine.consume(i as u64, &r.data);
    }
    println!(
        "in-store grep found matches at {:?} ({} result bytes from {} scanned)",
        engine.matches(),
        engine.result_bytes(),
        haystack.len()
    );
    assert_eq!(engine.matches(), &[100, page_bytes as u64 - 3]);

    println!("simulated time elapsed: {}", cluster.now());
    Ok(())
}
