//! Cross-crate integration: the paper's Figure 8 software flow end to
//! end on one node — file system on raw flash, ECC under injected bit
//! errors, physical-address streams into every in-store engine.

use bluedbm::flash::array::ErrorModel;
use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::ftl::rfs::Rfs;
use bluedbm::isp::filter::FilterEngine;
use bluedbm::isp::hamming::HammingEngine;
use bluedbm::isp::lsh::{LshIndex, LshParams};
use bluedbm::isp::mp::MpMatcher;
use bluedbm::isp::Accelerator;
use bluedbm::workloads::datagen;

/// The full string-search pipeline: corpus -> RFS file -> physical
/// addresses -> MP engine, with wear-level bit errors injected and
/// corrected by SECDED along the way.
#[test]
fn grep_pipeline_survives_bit_errors() {
    let model = ErrorModel {
        base_ber: 2e-6, // a flip every few pages, all correctable
        ber_per_erase: 0.0,
        factory_bad_fraction: 0.0,
    };
    let array = FlashArray::with_error_model(FlashGeometry::small(), 7, model).unwrap();
    let mut fs = Rfs::format(array).expect("format");

    let needle = b"in-store-needle";
    let corpus = datagen::corpus_with_needles(300_000, needle, 12, 3);
    fs.create("corpus").expect("create");
    fs.write("corpus", &corpus.text).expect("write");

    let addrs = fs.physical_addrs("corpus").expect("addrs");
    let mut engine = MpMatcher::new(needle).expect("needle");
    for (i, ppa) in addrs.iter().enumerate() {
        let page = fs.array_mut().read(*ppa).expect("ECC absorbs the noise");
        engine.consume(i as u64, &page.data);
    }
    assert_eq!(engine.matches(), &corpus.planted[..]);
    assert!(
        fs.array().stats().corrected_words > 0,
        "the error model should actually have fired"
    );
}

/// LSH + hamming over files: items stored as one file each, candidates
/// resolved through the FS, distance computed on pages read back from
/// flash.
#[test]
fn nearest_neighbor_pipeline_over_filesystem() {
    let geom = FlashGeometry::small();
    let mut fs = Rfs::format(FlashArray::new(geom, 11)).expect("format");
    let item_bytes = geom.page_bytes;

    let mut rng = bluedbm::sim::rng::Rng::new(5);
    let mut index = LshIndex::new(item_bytes, LshParams::default());
    let mut items = Vec::new();
    for i in 0..64u64 {
        let mut item = vec![0u8; item_bytes];
        rng.fill_bytes(&mut item);
        let name = format!("item{i}");
        fs.create(&name).expect("create");
        fs.write(&name, &item).expect("write");
        index.insert(i, &item);
        items.push(item);
    }

    // Query: a 5-bit perturbation of item 23.
    let mut query = items[23].clone();
    for bit in [1usize, 900, 5000, 9000, 12000] {
        query[(bit / 8) % item_bytes] ^= 1 << (bit % 8);
    }
    let candidates = index.candidates(&query);
    assert!(candidates.contains(&23), "LSH recall");

    let mut engine = HammingEngine::new(query);
    for &c in &candidates {
        let page = fs.read_page(&format!("item{c}"), 0).expect("read");
        engine.consume(c, &page);
    }
    assert_eq!(engine.best().expect("compared").0, 23);
}

/// The filter (SQL-offload) engine over a table file: records written
/// through the FS, selection pushed to the engine, only ids returned.
#[test]
fn selection_pushdown_over_table_file() {
    let geom = FlashGeometry::small();
    let mut fs = Rfs::format(FlashArray::new(geom, 13)).expect("format");

    const RECORD: usize = 64;
    let records_per_page = geom.page_bytes / RECORD;
    let total = records_per_page * 20;
    let mut table = vec![0u8; total * RECORD];
    for i in 0..total {
        table[i * RECORD..i * RECORD + 8].copy_from_slice(&(i as u64).to_le_bytes());
    }
    fs.create("db/table").expect("create");
    fs.write("db/table", &table).expect("write");

    let lo = 100u64;
    let hi = 300u64;
    let mut engine = FilterEngine::new(RECORD, 0, lo..hi);
    for (i, ppa) in fs.physical_addrs("db/table").expect("addrs").iter().enumerate() {
        let page = fs.array_mut().read(*ppa).expect("read");
        engine.consume(i as u64, &page.data);
    }
    let want: Vec<u64> = (lo..hi).collect();
    assert_eq!(engine.matches(), &want[..]);
    assert_eq!(engine.scanned(), total as u64);
    // Result traffic is a fraction of the table (the offload argument).
    assert!(engine.result_bytes() < table.len() / 10);
}

/// Churn the file system hard (overwrites forcing garbage collection),
/// then verify the ISP still sees coherent physical address streams.
#[test]
fn cleaner_churn_keeps_physical_addresses_coherent() {
    let geom = FlashGeometry::tiny();
    let mut fs = Rfs::format(FlashArray::new(geom, 17)).expect("format");
    let needle = b"needle";
    fs.create("stable").expect("create");
    let corpus = datagen::corpus_with_needles(4_000, needle, 3, 9);
    fs.write("stable", &corpus.text).expect("write");

    fs.create("churn").expect("create");
    // Rewrite a 6-page blob 300 times: ~1800 page writes against a
    // 512-page card force the FTL to collect many times over.
    for round in 0..300u64 {
        let blob: Vec<u8> = datagen::random_pages(6, geom.page_bytes, round).concat();
        fs.write("churn", &blob).expect("rewrite");
    }
    assert!(fs.stats().gc_erases > 0, "collection must have run");

    // The stable file's extents may have been relocated, but the stream
    // must still be the file.
    let addrs = fs.physical_addrs("stable").expect("addrs");
    let mut engine = MpMatcher::new(needle).expect("needle");
    for (i, ppa) in addrs.iter().enumerate() {
        let page = fs.array_mut().read(*ppa).expect("read");
        engine.consume(i as u64, &page.data);
    }
    assert_eq!(engine.matches(), &corpus.planted[..]);
}
