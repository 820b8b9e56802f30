//! Cross-crate integration: the paper's Figure 8 software flow end to
//! end. Data is stored as `KvStore` values on a cluster, read back off
//! flash into the accelerator units and consumed page by page by every
//! in-store engine; ECC is checked under injected bit errors on a bare
//! array, since every cluster card is noise-free.

use bluedbm::core::{Cluster, KvStore, NodeId, SystemConfig};
use bluedbm::flash::array::ErrorModel;
use bluedbm::flash::{FlashArray, FlashGeometry};
use bluedbm::isp::filter::FilterEngine;
use bluedbm::isp::hamming::HammingEngine;
use bluedbm::isp::lsh::{LshIndex, LshParams};
use bluedbm::isp::mp::MpMatcher;
use bluedbm::isp::Accelerator;
use bluedbm::sim::rng::Rng;
use bluedbm::workloads::datagen;

/// A two-node ring of `config`, wrapped as a store.
fn store(config: &SystemConfig) -> KvStore {
    KvStore::new(Cluster::ring(2, config).expect("cluster"))
}

/// `key`'s value, read on its home node (flash → accelerator units).
fn get_local(store: &mut KvStore, key: &[u8]) -> Vec<u8> {
    let home = store.home_node(key);
    store.get(home, key).expect("read").expect("stored").value
}

/// Every op finished and every allocated page belongs to a value.
fn assert_clean(store: &KvStore) {
    store.assert_no_stranded_pages();
    store.cluster().assert_quiescent();
}

/// The string-search pipeline under wear-level bit errors: a corpus
/// programmed page by page into a noisy array and read back through
/// SECDED into the MP engine.
#[test]
fn grep_pipeline_survives_bit_errors() {
    let model = ErrorModel {
        base_ber: 2e-6, // a flip every few pages, all correctable
        ber_per_erase: 0.0,
        factory_bad_fraction: 0.0,
    };
    let geom = FlashGeometry::small();
    let mut array = FlashArray::with_error_model(geom, 7, model).unwrap();

    let needle = b"in-store-needle";
    let corpus = datagen::corpus_with_needles(300_000, needle, 12, 3);
    let mut page = vec![0u8; geom.page_bytes];
    let pages = corpus.text.len().div_ceil(geom.page_bytes);
    for (i, chunk) in corpus.text.chunks(geom.page_bytes).enumerate() {
        page.fill(0);
        page[..chunk.len()].copy_from_slice(chunk);
        array.program(geom.ppa_of(i), &page).expect("program");
    }

    let mut engine = MpMatcher::new(needle).expect("needle");
    for i in 0..pages {
        let page = array.read(geom.ppa_of(i)).expect("ECC absorbs the noise");
        engine.consume(i as u64, &page.data);
    }
    assert_eq!(engine.matches(), &corpus.planted[..]);
    assert!(
        array.stats().corrected_words > 0,
        "the error model should actually have fired"
    );
}

/// LSH + hamming over stored items: one value per item, candidates
/// fetched by key, distance computed on pages read back from flash.
#[test]
fn nearest_neighbor_pipeline_over_kv_store() {
    let config = SystemConfig::scaled_down();
    let mut store = store(&config);
    let item_bytes = config.flash.geometry.page_bytes;

    let mut rng = Rng::new(5);
    let mut index = LshIndex::new(item_bytes, LshParams::default());
    let mut items = Vec::new();
    for i in 0..64u64 {
        let mut item = vec![0u8; item_bytes];
        rng.fill_bytes(&mut item);
        store.put(format!("item{i}").as_bytes(), &item).expect("put");
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
        let page = get_local(&mut store, format!("item{c}").as_bytes());
        engine.consume(c, &page);
    }
    assert_eq!(engine.best().expect("compared").0, 23);
    assert_clean(&store);
}

/// The filter (SQL-offload) engine over a stored table: records put as
/// one value, selection pushed to the engine, only ids returned.
#[test]
fn selection_pushdown_over_table_file() {
    let config = SystemConfig::scaled_down();
    let mut store = store(&config);
    let page_bytes = config.flash.geometry.page_bytes;

    const RECORD: usize = 64;
    let total = page_bytes / RECORD * 20;
    let mut table = vec![0u8; total * RECORD];
    for i in 0..total {
        table[i * RECORD..i * RECORD + 8].copy_from_slice(&(i as u64).to_le_bytes());
    }
    store.put(b"db/table", &table).expect("put");

    let lo = 100u64;
    let hi = 300u64;
    let mut engine = FilterEngine::new(RECORD, 0, lo..hi);
    for (i, page) in get_local(&mut store, b"db/table").chunks(page_bytes).enumerate() {
        engine.consume(i as u64, page);
    }
    let want: Vec<u64> = (lo..hi).collect();
    assert_eq!(engine.matches(), &want[..]);
    assert_eq!(engine.scanned(), total as u64);
    // Result traffic is a fraction of the table (the offload argument).
    assert!(engine.result_bytes() < table.len() / 10);
    assert_clean(&store);
}

/// Churn one-page values over a cluster filled to about 60 %, so that
/// collection has to move live pages, then check that the stable value
/// written first, and every churned value, still read back whole.
#[test]
fn gc_churn_relocates_and_values_stay_readable() {
    let mut config = SystemConfig::scaled_down();
    config.flash.geometry = FlashGeometry::tiny();
    config.flash.cards_per_node = 1;
    let mut store = store(&config);
    let page_bytes = config.flash.geometry.page_bytes;

    let needle = b"needle";
    let corpus = datagen::corpus_with_needles(4_000, needle, 3, 9);
    store.put(b"stable", &corpus.text).expect("put");

    let capacity: u64 = (0..2u16)
        .map(|n| store.cluster().node_capacity_pages(NodeId(n)))
        .sum();
    let keys = capacity * 6 / 10;
    let key = |k: u64| format!("k{k}").into_bytes();
    let mut model: Vec<Vec<u8>> = (0..keys)
        .map(|k| datagen::random_pages(1, page_bytes, k).concat())
        .collect();
    for (k, value) in model.iter().enumerate() {
        store.submit_put(0, &key(k as u64), value);
    }
    assert!(store.drive().iter().all(|c| c.error.is_none()));

    // Three times the capacity in overwrites, 64 per round.
    let mut rng = Rng::new(17);
    for round in 0..3 * capacity / 64 {
        for i in 0..64 {
            let k = rng.below(keys);
            let value = datagen::random_pages(1, page_bytes, keys + round * 64 + i).concat();
            store.submit_put(0, &key(k), &value);
            model[k as usize] = value;
        }
        assert!(store.drive().iter().all(|c| c.error.is_none()));
    }
    let gc = store.cluster().gc_stats();
    assert!(gc.relocated > 0, "collection must have moved live pages: {gc:?}");

    // The stable value's pages may have been relocated, but the stream
    // must still be the value.
    let mut engine = MpMatcher::new(needle).expect("needle");
    for (i, page) in get_local(&mut store, b"stable").chunks(page_bytes).enumerate() {
        engine.consume(i as u64, page);
    }
    assert_eq!(engine.matches(), &corpus.planted[..]);
    for (k, want) in model.iter().enumerate() {
        assert_eq!(&get_local(&mut store, &key(k as u64)), want, "key {k}");
    }
    assert_clean(&store);
}
