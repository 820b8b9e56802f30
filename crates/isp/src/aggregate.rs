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

/// Which aggregate to maintain per group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateOp {
    /// Count of records per group.
    Count,
    /// Sum of the value column.
    Sum,
    /// Minimum of the value column.
    Min,
    /// Maximum of the value column.
    Max,
}

/// Per-group running state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupState {
    /// Records seen in this group.
    pub count: u64,
    /// Sum of values.
    pub sum: u64,
    /// Minimum value (meaningful when `count > 0`).
    pub min: u64,
    /// Maximum value.
    pub max: u64,
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
/// use bluedbm_isp::aggregate::{AggregateEngine, AggregateOp};
/// use bluedbm_isp::Accelerator;
///
/// // 16-byte records: key at offset 0, value at offset 8.
/// let mut e = AggregateEngine::new(16, 0, 8, AggregateOp::Sum);
/// let mut page = Vec::new();
/// for (k, v) in [(1u64, 10u64), (2, 5), (1, 7)] {
///     page.extend_from_slice(&k.to_le_bytes());
///     page.extend_from_slice(&v.to_le_bytes());
/// }
/// e.consume(0, &page);
/// assert_eq!(e.group(1).unwrap().sum, 17);
/// assert_eq!(e.group(2).unwrap().sum, 5);
/// ```
#[derive(Clone, Debug)]
pub struct AggregateEngine {
    record_bytes: usize,
    key_offset: usize,
    value_offset: usize,
    op: AggregateOp,
    groups: FxHashMap<u64, GroupState>,
    scanned: u64,
}

impl AggregateEngine {
    /// Build an engine over `record_bytes`-wide records with the key and
    /// value columns at the given byte offsets.
    ///
    /// # Panics
    ///
    /// Panics if either column does not fit inside a record.
    pub fn new(
        record_bytes: usize,
        key_offset: usize,
        value_offset: usize,
        op: AggregateOp,
    ) -> Self {
        assert!(key_offset + 8 <= record_bytes, "key must fit the record");
        assert!(
            value_offset + 8 <= record_bytes,
            "value must fit the record"
        );
        AggregateEngine {
            record_bytes,
            key_offset,
            value_offset,
            op,
            groups: FxHashMap::default(),
            scanned: 0,
        }
    }

    /// The running state of one group.
    pub fn group(&self, key: u64) -> Option<&GroupState> {
        self.groups.get(&key)
    }

    /// The configured aggregate of one group, if seen.
    pub fn value(&self, key: u64) -> Option<u64> {
        self.groups.get(&key).map(|g| match self.op {
            AggregateOp::Count => g.count,
            AggregateOp::Sum => g.sum,
            AggregateOp::Min => g.min,
            AggregateOp::Max => g.max,
        })
    }

    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Records scanned.
    pub fn scanned(&self) -> u64 {
        self.scanned
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
            self.scanned += 1;
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
        let rows = [(7u64, 3u64), (7, 9), (7, 5), (8, 100)];
        for (op, want7) in [
            (AggregateOp::Count, 3u64),
            (AggregateOp::Sum, 17),
            (AggregateOp::Min, 3),
            (AggregateOp::Max, 9),
        ] {
            let mut e = AggregateEngine::new(16, 0, 8, op);
            e.consume(0, &page_of(&rows));
            assert_eq!(e.value(7), Some(want7), "{op:?}");
            assert_eq!(e.value(8), Some(if op == AggregateOp::Count { 1 } else { 100 }));
            assert_eq!(e.value(9), None);
        }
    }

    #[test]
    fn groups_accumulate_across_pages() {
        let mut e = AggregateEngine::new(16, 0, 8, AggregateOp::Sum);
        e.consume(0, &page_of(&[(1, 1), (2, 2)]));
        e.consume(1, &page_of(&[(1, 10), (3, 3)]));
        assert_eq!(e.group_count(), 3);
        assert_eq!(e.value(1), Some(11));
        assert_eq!(e.scanned(), 4);
    }

    #[test]
    fn table_is_sorted_and_result_traffic_compact() {
        let mut rng = Rng::new(1);
        let mut e = AggregateEngine::new(16, 0, 8, AggregateOp::Count);
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
        let mut e = AggregateEngine::new(16, 0, 8, AggregateOp::Max);
        e.consume(0, &page_of(&rows));
        let mut want: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &(k, v) in &rows {
            want.entry(k).and_modify(|m| *m = (*m).max(v)).or_insert(v);
        }
        for (k, m) in want {
            assert_eq!(e.value(k), Some(m), "group {k}");
        }
    }

    #[test]
    #[should_panic(expected = "value must fit")]
    fn offsets_validated() {
        let _ = AggregateEngine::new(16, 0, 12, AggregateOp::Sum);
    }
}
