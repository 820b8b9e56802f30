//! In-store grep over the RFS-style file system (the paper's Section
//! 7.3 workload and Figure 8 software flow).
//!
//! Files live on raw flash under the file namespace, whose pages the
//! card's FTL maps and collects. The application asks the FS for the
//! *physical addresses* of a file and
//! streams them through in-store Morris-Pratt engines; only match
//! offsets come back to the host.
//!
//! Run with: `cargo run --release --example log_grep`

use bluedbm::core::baselines::{scan_cpu_utilization, sw_scan_bandwidth, Secondary};
use bluedbm::core::SystemConfig;
use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::ftl::rfs::Rfs;
use bluedbm::isp::mp::MpMatcher;
use bluedbm::isp::Accelerator;
use bluedbm::workloads::datagen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::paper();

    // Format a flash card with the file system and store two log files
    // with planted needles.
    let mut fs = Rfs::format(FlashArray::new(FlashGeometry::small(), 99))?;
    let needle = b"ERROR: flux capacitor";
    let corpus_a = datagen::corpus_with_needles(600_000, needle, 8, 1);
    let corpus_b = datagen::corpus_with_needles(400_000, needle, 5, 2);
    fs.create("logs/app.log")?;
    fs.write("logs/app.log", &corpus_a.text)?;
    fs.create("logs/db.log")?;
    fs.write("logs/db.log", &corpus_b.text)?;
    println!("files on flash: {:?}", fs.list());

    // Figure 8 flow: (1) query the FS for physical locations, (2) hand
    // the address stream to the accelerator, (3) the engine reads pages
    // directly from flash, (4) only results return.
    let mut total_matches = 0;
    let mut scanned = 0u64;
    for file in fs.list() {
        let addrs = fs.physical_addrs(&file)?;
        let mut engine = MpMatcher::new(needle).expect("non-empty needle");
        for (i, ppa) in addrs.iter().enumerate() {
            let page = fs.array_mut().read(*ppa)?.data; // the low-latency ISP read
            engine.consume(i as u64, &page);
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
