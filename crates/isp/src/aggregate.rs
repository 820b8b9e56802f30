//! In-store group-by aggregation (the paper's "SQL Database
//! Acceleration" future-work item, and the operation Ibex/Netezza
//! offload near storage).
//!
//! Records of fixed width stream past the engine; a `u64` group key and
//! a `u64` value column are extracted per record, and a running
//! aggregate (count, sum, min, max) is kept per group. Only the compact
//! aggregate table returns to the host — the offload wins whenever the
//! number of groups is small compared to the number of records, which is
//! exactly the group-by shape.

use bluedbm_sim::fxhash::FxHashMap;

use crate::Accelerator;

/// Per-group running state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupState {
    /// Records seen in this group.
    pub count: u64,
    /// Sum of values.
    pub sum: u64,
    /// Minimum value (meaningful when `count > 0`).
    pub(crate) min: u64,
    /// Maximum value.
    pub(crate) max: u64,
}

impl GroupState {
    fn absorb(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }
}

/// Streaming group-by aggregation engine.
///
/// # Examples
///
/// ```rust
/// use bluedbm_isp::aggregate::AggregateEngine;
/// use bluedbm_isp::Accelerator;
///
/// // 16-byte records: key at offset 0, value at offset 8.
/// let mut e = AggregateEngine::new(16, 0, 8);
/// let mut page = Vec::new();
/// for (k, v) in [(1u64, 10u64), (2, 5), (1, 7)] {
///     page.extend_from_slice(&k.to_le_bytes());
///     page.extend_from_slice(&v.to_le_bytes());
/// }
/// e.consume(0, &page);
/// let table = e.into_table();
/// assert_eq!((table[0].0, table[0].1.sum), (1, 17));
/// assert_eq!((table[1].0, table[1].1.sum), (2, 5));
/// ```
#[derive(Clone, Debug)]
pub struct AggregateEngine {
    record_bytes: usize,
    key_offset: usize,
    value_offset: usize,
    groups: FxHashMap<u64, GroupState>,
}

impl AggregateEngine {
    /// Build an engine over `record_bytes`-wide records with the key and
    /// value columns at the given byte offsets.
    ///
    /// # Panics
    ///
    /// Panics if either column does not fit inside a record.
    pub fn new(record_bytes: usize, key_offset: usize, value_offset: usize) -> Self {
        assert!(key_offset + 8 <= record_bytes, "key must fit the record");
        assert!(
            value_offset + 8 <= record_bytes,
            "value must fit the record"
        );
        AggregateEngine {
            record_bytes,
            key_offset,
            value_offset,
            groups: FxHashMap::default(),
        }
    }

    /// The final aggregate table, sorted by key (what returns to the
    /// host).
    pub fn into_table(self) -> Vec<(u64, GroupState)> {
        let mut v: Vec<(u64, GroupState)> = self.groups.into_iter().collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

impl Accelerator for AggregateEngine {
    fn name(&self) -> &'static str {
        "group-by-aggregate"
    }

    fn consume(&mut self, _seq: u64, page: &[u8]) {
        for rec in page.chunks_exact(self.record_bytes) {
            let key = u64::from_le_bytes(
                rec[self.key_offset..self.key_offset + 8]
                    .try_into()
                    .expect("key slice"),
            );
            let value = u64::from_le_bytes(
                rec[self.value_offset..self.value_offset + 8]
                    .try_into()
                    .expect("value slice"),
            );
            self.groups.entry(key).or_default().absorb(value);
        }
    }

    fn result_bytes(&self) -> usize {
        // key + the four aggregates per group.
        self.groups.len() * 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::rng::Rng;

    fn page_of(rows: &[(u64, u64)]) -> Vec<u8> {
        let mut page = Vec::with_capacity(rows.len() * 16);
        for &(k, v) in rows {
            page.extend_from_slice(&k.to_le_bytes());
            page.extend_from_slice(&v.to_le_bytes());
        }
        page
    }

    #[test]
    fn all_aggregates_track_correctly() {
        let mut e = AggregateEngine::new(16, 0, 8);
        e.consume(0, &page_of(&[(7u64, 3u64), (7, 9), (7, 5), (8, 100)]));
        let g = |count, sum, min, max| GroupState { count, sum, min, max };
        assert_eq!(e.groups[&7], g(3, 17, 3, 9));
        assert_eq!(e.groups[&8], g(1, 100, 100, 100));
        assert!(!e.groups.contains_key(&9));
    }

    #[test]
    fn groups_accumulate_across_pages() {
        let mut e = AggregateEngine::new(16, 0, 8);
        e.consume(0, &page_of(&[(1, 1), (2, 2)]));
        e.consume(1, &page_of(&[(1, 10), (3, 3)]));
        assert_eq!(e.groups.len(), 3);
        assert_eq!(e.groups[&1].sum, 11);
    }

    #[test]
    fn table_is_sorted_and_result_traffic_compact() {
        let mut rng = Rng::new(1);
        let mut e = AggregateEngine::new(16, 0, 8);
        const RECORDS: usize = 4096;
        const GROUPS: u64 = 16;
        let rows: Vec<(u64, u64)> = (0..RECORDS)
            .map(|_| (rng.below(GROUPS), rng.below(1000)))
            .collect();
        for chunk in rows.chunks(256) {
            e.consume(0, &page_of(chunk));
        }
        assert!(e.result_bytes() < RECORDS * 16 / 10, "offload must compress");
        let table = e.into_table();
        assert_eq!(table.len(), GROUPS as usize);
        assert!(table.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
        let total: u64 = table.iter().map(|(_, g)| g.count).sum();
        assert_eq!(total, RECORDS as u64);
    }

    #[test]
    fn matches_reference_hashmap() {
        let mut rng = Rng::new(2);
        let rows: Vec<(u64, u64)> = (0..2000).map(|_| (rng.below(50), rng.next_u64() >> 32)).collect();
        let mut e = AggregateEngine::new(16, 0, 8);
        e.consume(0, &page_of(&rows));
        let mut want: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &(k, v) in &rows {
            want.entry(k).and_modify(|m| *m = (*m).max(v)).or_insert(v);
        }
        for (k, m) in want {
            assert_eq!(e.groups[&k].max, m, "group {k}");
        }
    }

    #[test]
    #[should_panic(expected = "value must fit")]
    fn offsets_validated() {
        let _ = AggregateEngine::new(16, 0, 12);
    }
}
