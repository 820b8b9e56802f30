//! SQL query offload (the paper's first Section 8 application:
//! "SQL Database Acceleration by offloading query processing and
//! filtering to in-store processors").
//!
//! A table lives in the RFS-style file system on raw flash. The query
//!
//! ```sql
//! SELECT region, COUNT(*), SUM(amount) FROM sales
//! WHERE amount BETWEEN 500 AND 1000 GROUP BY region
//! ```
//!
//! is executed entirely in-store: the filter engine selects rows, the
//! aggregate engine folds them, and only the group table returns to the
//! host.
//!
//! Run with: `cargo run --release --example sql_offload`

use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::ftl::rfs::Rfs;
use bluedbm::isp::aggregate::AggregateEngine;
use bluedbm::isp::filter::FilterEngine;
use bluedbm::isp::Accelerator;
use bluedbm::sim::rng::Rng;

/// Row layout: [amount: u64][region: u64][payload: 16 bytes].
const RECORD: usize = 32;
const AMOUNT_OFF: usize = 0;
const REGION_OFF: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = FlashGeometry::small();
    let mut fs = Rfs::format(FlashArray::new(geom, 41))?;

    // Build and store a 20k-row sales table.
    let mut rng = Rng::new(7);
    const ROWS: usize = 20_000;
    let mut table = vec![0u8; ROWS * RECORD];
    for i in 0..ROWS {
        let at = i * RECORD;
        let amount = rng.below(2_000);
        let region = rng.below(6);
        table[at..at + 8].copy_from_slice(&amount.to_le_bytes());
        table[at + 8..at + 16].copy_from_slice(&region.to_le_bytes());
    }
    fs.create("db/sales")?;
    fs.write("db/sales", &table)?;
    println!(
        "stored db/sales: {ROWS} rows, {} bytes across {} flash pages",
        table.len(),
        fs.physical_addrs("db/sales")?.len()
    );

    // In-store execution: stream pages once, filter feeding aggregate.
    let mut filter = FilterEngine::new(RECORD, AMOUNT_OFF, 500..1001);
    let mut agg = AggregateEngine::new(RECORD, REGION_OFF, AMOUNT_OFF);
    let addrs = fs.physical_addrs("db/sales")?;
    let rows_per_page = geom.page_bytes / RECORD;
    for (i, ppa) in addrs.iter().enumerate() {
        let page = fs.array_mut().read(*ppa)?.data;
        filter.consume(i as u64, &page);
        // Push only matching rows into the aggregator (the engines
        // compose on-device; the host sees neither pages nor rows).
        let mut selected = Vec::new();
        for rec in page.chunks_exact(RECORD).take(rows_per_page) {
            let amount = u64::from_le_bytes(rec[..8].try_into().expect("amount"));
            if (500..1001).contains(&amount) {
                selected.extend_from_slice(rec);
            }
        }
        agg.consume(i as u64, &selected);
    }

    let selectivity = filter.selectivity();
    let result_bytes = agg.result_bytes();
    println!(
        "filter selected {} of {} rows ({:.1}%)",
        filter.matches().len(),
        filter.scanned(),
        selectivity * 100.0
    );
    println!("\nregion  count   sum(amount)");
    let mut checksum = (0u64, 0u64);
    for (region, g) in agg.into_table() {
        println!("{region:>6}  {:>6}  {:>10}", g.count, g.sum);
        checksum.0 += g.count;
        checksum.1 += g.sum;
    }
    println!(
        "\nresult traffic: {result_bytes} bytes vs {} bytes of table scanned ({}x reduction)",
        table.len(),
        table.len() / result_bytes.max(1)
    );

    // Verify against a plain host-side evaluation.
    let mut want = (0u64, 0u64);
    for i in 0..ROWS {
        let at = i * RECORD;
        let amount = u64::from_le_bytes(table[at..at + 8].try_into()?);
        if (500..1001).contains(&amount) {
            want.0 += 1;
            want.1 += amount;
        }
    }
    assert_eq!(checksum, want, "offloaded result must equal host evaluation");
    println!("host-side verification passed");
    Ok(())
}
