//! Locality-sensitive hashing for hamming space (paper Section 7.1).
//!
//! "LSH hashes the dataset using multiple hash functions, so that similar
//! data is statistically likely to be hashed to similar buckets. When
//! querying, the query is hashed using the same hash functions, and only
//! the data in the matching buckets are actually compared."
//!
//! For hamming space the classic LSH family is **bit sampling**: each
//! hash function reads `bits_per_hash` fixed random bit positions of the
//! item. Two items at hamming distance `d` over `n` bits collide in one
//! table with probability `(1 - d/n)^bits_per_hash` — near-duplicates
//! collide almost surely, random pairs almost never.

use bluedbm_sim::fxhash::{FxHashMap, FxHashSet};

use bluedbm_sim::rng::Rng;

/// LSH configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LshParams {
    /// Number of hash tables (union of matches is the candidate set).
    pub(crate) tables: usize,
    /// Sampled bit positions per hash function.
    pub(crate) bits_per_hash: usize,
    /// Seed for choosing the sampled positions.
    pub(crate) seed: u64,
}

impl Default for LshParams {
    fn default() -> Self {
        LshParams {
            tables: 8,
            bits_per_hash: 16,
            seed: 0xB1DE_DB0A,
        }
    }
}

/// A bit-sampling LSH index over fixed-size items.
///
/// # Examples
///
/// ```rust
/// use bluedbm_isp::lsh::{LshIndex, LshParams};
///
/// let mut index = LshIndex::new(64, LshParams::default());
/// index.insert(0, &[0u8; 64]);
/// index.insert(1, &[0xFFu8; 64]);
/// let candidates = index.candidates(&[0u8; 64]);
/// assert!(candidates.contains(&0));
/// ```
#[derive(Clone, Debug)]
pub struct LshIndex {
    item_bytes: usize,
    /// Per table: the sampled bit positions.
    samples: Vec<Vec<u32>>,
    /// Per table: bucket -> item ids.
    tables: Vec<FxHashMap<u64, Vec<u64>>>,
    items: u64,
}

impl LshIndex {
    /// An empty index over items of `item_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `item_bytes == 0` or params are degenerate.
    pub fn new(item_bytes: usize, params: LshParams) -> Self {
        assert!(item_bytes > 0 && params.tables > 0 && params.bits_per_hash > 0);
        assert!(
            params.bits_per_hash <= 64,
            "bucket keys are packed into u64"
        );
        let mut rng = Rng::new(params.seed);
        let total_bits = (item_bytes * 8) as u64;
        let samples = (0..params.tables)
            .map(|_| {
                (0..params.bits_per_hash)
                    .map(|_| rng.below(total_bits) as u32)
                    .collect()
            })
            .collect();
        LshIndex {
            item_bytes,
            samples,
            tables: vec![FxHashMap::default(); params.tables],
            items: 0,
        }
    }

    fn bucket_of(&self, table: usize, item: &[u8]) -> u64 {
        let mut key = 0u64;
        for (i, &bit) in self.samples[table].iter().enumerate() {
            let byte = (bit / 8) as usize;
            let off = bit % 8;
            if item[byte] >> off & 1 == 1 {
                key |= 1 << i;
            }
        }
        key
    }

    /// Index an item under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is not exactly `item_bytes` long.
    pub fn insert(&mut self, id: u64, item: &[u8]) {
        assert_eq!(item.len(), self.item_bytes, "item size mismatch");
        for t in 0..self.samples.len() {
            let bucket = self.bucket_of(t, item);
            self.tables[t].entry(bucket).or_default().push(id);
        }
        self.items += 1;
    }

    /// Candidate ids whose buckets match the query in at least one table,
    /// deduplicated, in first-seen order. These are the items the
    /// in-store hamming engine then reads from flash.
    ///
    /// # Panics
    ///
    /// Panics if `query` is not exactly `item_bytes` long.
    pub fn candidates(&self, query: &[u8]) -> Vec<u64> {
        assert_eq!(query.len(), self.item_bytes, "query size mismatch");
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for t in 0..self.samples.len() {
            let bucket = self.bucket_of(t, query);
            if let Some(ids) = self.tables[t].get(&bucket) {
                for &id in ids {
                    if seen.insert(id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::hamming_distance;

    fn random_item(rng: &mut Rng, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        rng.fill_bytes(&mut v);
        v
    }

    fn flip_bits(item: &[u8], flips: usize, rng: &mut Rng) -> Vec<u8> {
        let mut out = item.to_vec();
        for _ in 0..flips {
            let bit = rng.below((item.len() * 8) as u64) as usize;
            out[bit / 8] ^= 1 << (bit % 8);
        }
        out
    }

    #[test]
    fn identical_items_always_collide() {
        let mut idx = LshIndex::new(128, LshParams::default());
        let mut rng = Rng::new(3);
        let item = random_item(&mut rng, 128);
        idx.insert(7, &item);
        assert_eq!(idx.candidates(&item), vec![7]);
    }

    #[test]
    fn near_duplicates_usually_collide_random_items_rarely() {
        let params = LshParams::default();
        let mut rng = Rng::new(4);
        const N: usize = 200;
        const ITEM: usize = 256;
        let mut idx = LshIndex::new(ITEM, params);
        let base: Vec<Vec<u8>> = (0..N).map(|_| random_item(&mut rng, ITEM)).collect();
        for (i, item) in base.iter().enumerate() {
            idx.insert(i as u64, item);
        }
        let mut near_hits = 0;
        let mut far_hits = 0;
        for (i, item) in base.iter().enumerate().take(50) {
            // Query with a 1% perturbed copy.
            let near = flip_bits(item, ITEM * 8 / 100, &mut rng);
            assert!(hamming_distance(item, &near) > 0);
            if idx.candidates(&near).contains(&(i as u64)) {
                near_hits += 1;
            }
            // And with a fresh random item.
            let far = random_item(&mut rng, ITEM);
            far_hits += idx.candidates(&far).len();
        }
        assert!(near_hits >= 45, "near-duplicate recall too low: {near_hits}/50");
        let avg_far = far_hits as f64 / 50.0;
        assert!(
            avg_far < N as f64 * 0.1,
            "random queries should hit few candidates: {avg_far}"
        );
    }

    #[test]
    fn candidates_deduplicate_across_tables() {
        let mut idx = LshIndex::new(16, LshParams::default());
        let item = vec![0xAAu8; 16];
        idx.insert(1, &item);
        // Same item in every table; candidate list must contain it once.
        assert_eq!(idx.candidates(&item), vec![1]);
    }

    #[test]
    fn bucket_scatter_is_the_papers_random_access_pattern() {
        // Figure 15: "data pointed to by the hash buckets are most likely
        // scattered across the dataset" — many distinct buckets.
        let mut idx = LshIndex::new(64, LshParams::default());
        let mut rng = Rng::new(5);
        for i in 0..500 {
            idx.insert(i, &random_item(&mut rng, 64));
        }
        assert!(idx.tables[0].len() > 100, "random data spreads over buckets");
        assert_eq!(idx.items, 500);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn insert_validates_size() {
        let mut idx = LshIndex::new(16, LshParams::default());
        idx.insert(0, &[0u8; 15]);
    }

    #[test]
    fn deterministic_across_instances() {
        let params = LshParams::default();
        let mut a = LshIndex::new(32, params);
        let mut b = LshIndex::new(32, params);
        let item = vec![0x5Au8; 32];
        a.insert(9, &item);
        b.insert(9, &item);
        assert_eq!(a.candidates(&item), b.candidates(&item));
    }
}
