//! In-store grep over log files on a cluster (the paper's Section 7.3
//! workload and Figure 8 software flow).
//!
//! Each file is one `KvStore` value, paged onto the flash cards of the
//! node its name hashes to, whose in-simulation FTL maps and collects
//! them. A get streams the file's pages off flash into that node's
//! accelerator units; the Morris-Pratt engine consumes them page by page
//! and only match offsets come back to the host.
//!
//! Run with: `cargo run --release --example log_grep`

use bluedbm::core::baselines::{scan_cpu_utilization, sw_scan_bandwidth, Secondary};
use bluedbm::core::{Cluster, KvStore, SystemConfig};
use bluedbm::isp::mp::MpMatcher;
use bluedbm::isp::Accelerator;
use bluedbm::workloads::datagen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::paper();

    // A two-node cluster storing two log files with planted needles.
    let small = SystemConfig::scaled_down();
    let mut store = KvStore::new(Cluster::ring(2, &small)?);
    let page_bytes = small.flash.geometry.page_bytes;
    let needle = b"ERROR: flux capacitor";
    let corpus_a = datagen::corpus_with_needles(600_000, needle, 8, 1);
    let corpus_b = datagen::corpus_with_needles(400_000, needle, 5, 2);
    let files = ["logs/app.log", "logs/db.log"];
    store.put(files[0].as_bytes(), &corpus_a.text)?;
    store.put(files[1].as_bytes(), &corpus_b.text)?;
    println!("files on flash: {files:?}");

    // Figure 8 flow: each page goes from flash straight to an in-store
    // engine on the file's home node; only results return.
    let mut total_matches = 0;
    let mut scanned = 0u64;
    for file in files {
        let home = store.home_node(file.as_bytes());
        let text = store.get(home, file.as_bytes())?.ok_or("file not stored")?.value;
        let mut engine = MpMatcher::new(needle).expect("non-empty needle");
        for (i, page) in text.chunks(page_bytes).enumerate() {
            engine.consume(i as u64, page);
        }
        println!(
            "{file}: {} matches at {:?}... ({} bytes scanned, {} result bytes returned)",
            engine.matches().len(),
            &engine.matches()[..engine.matches().len().min(3)],
            engine.scanned(),
            engine.result_bytes()
        );
        total_matches += engine.matches().len();
        scanned += engine.scanned();
    }
    assert_eq!(total_matches, corpus_a.planted.len() + corpus_b.planted.len());
    store.assert_no_stranded_pages();
    store.cluster().assert_quiescent();

    // Figure 21's economics: one flash board sustains ~1.2 GB/s into the
    // MP engines at ~0% host CPU; software grep is device-bound and
    // burns cores.
    let board = config.flash.timing.bus_bandwidth.as_bytes_per_sec()
        * config.flash.geometry.buses as f64;
    let ssd = sw_scan_bandwidth(&config, Secondary::Ssd);
    let hdd = sw_scan_bandwidth(&config, Secondary::Disk);
    println!(
        "\nsearch bandwidth: in-store {:.2} GB/s (CPU ~0%), SW grep on SSD {:.2} GB/s (CPU {:.0}%), on HDD {:.2} GB/s (CPU {:.0}%)",
        board / 1e9,
        ssd / 1e9,
        scan_cpu_utilization(&config, ssd),
        hdd / 1e9,
        scan_cpu_utilization(&config, hdd),
    );
    println!(
        "scanned {scanned} bytes functionally; in-store result traffic was {:.4}% of that",
        100.0 * 8.0 * total_matches as f64 / scanned as f64
    );
    Ok(())
}
