//! The merged trace of a run: every sink's records in one total order.

use crate::record::{TraceCat, TraceRecord};
use crate::sink::TracePart;

/// A merged trace, sorted by the deterministic key `(at_ps, shard,
/// seq)`. This order — not emission interleaving — is what exporters
/// and digests see, which is why the merged trace of a run is
/// reproducible no matter how many worker threads captured it.
#[derive(Debug, Default, Clone)]
pub struct TraceDoc {
    records: Vec<TraceRecord>,
    dropped: u64,
}

impl TraceDoc {
    /// Merge per-sink harvests into one document.
    pub fn merge(parts: Vec<TracePart>) -> TraceDoc {
        let mut records = Vec::with_capacity(parts.iter().map(|p| p.records.len()).sum());
        let mut dropped = 0;
        for part in parts {
            dropped += part.dropped;
            records.extend(part.records);
        }
        records.sort_unstable_by_key(|r| (r.at_ps, r.shard, r.seq));
        TraceDoc { records, dropped }
    }

    /// Build directly from sorted records (binary decode path).
    pub(crate) fn from_sorted(records: Vec<TraceRecord>, dropped: u64) -> TraceDoc {
        TraceDoc { records, dropped }
    }

    /// The records, in merge order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Total records dropped at sink capacity across the run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records fall in `cat`.
    pub fn count(&self, cat: TraceCat) -> usize {
        self.records.iter().filter(|r| r.cat == cat).count()
    }

    /// XOR fold of [`TraceRecord::digest_full`] over every record whose
    /// category is in `mask`. Order-independent; pins bit-identity of
    /// the selected slice (reruns of one engine must agree exactly).
    pub fn digest_full(&self, mask: u32) -> u64 {
        self.fold(mask, TraceRecord::digest_full)
    }

    /// XOR fold of [`TraceRecord::digest_stable`] over every record
    /// whose category is in `mask`. With
    /// [`crate::STABLE_CATEGORIES`] this is the cross-engine digest:
    /// identical for Seq / Threads / Cooperative runs of
    /// the same workload.
    pub fn digest_stable(&self, mask: u32) -> u64 {
        self.fold(mask, TraceRecord::digest_stable)
    }

    fn fold(&self, mask: u32, f: impl Fn(&TraceRecord) -> u64) -> u64 {
        self.records
            .iter()
            .filter(|r| mask & r.cat.bit() != 0)
            .fold(0, |acc, r| acc ^ f(r))
    }

    /// Render as CSV (one header line, one line per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.records.len() * 48);
        out.push_str("at_ps,shard,seq,cat,kind,name,track,a,b\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                r.at_ps,
                r.shard,
                r.seq,
                r.cat.label(),
                r.kind.label(),
                r.name,
                r.track,
                r.a,
                r.b,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceKind;
    use crate::sink::TraceSink;
    use crate::TraceConfig;

    fn part(shard: u32, times: &[u64]) -> TracePart {
        let mut sink = TraceSink::new(TraceConfig::on(), shard);
        for &t in times {
            sink.at(t).instant(TraceCat::KvOp, "submit", 0, t, 0);
        }
        sink.take()
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq() {
        let doc = TraceDoc::merge(vec![part(1, &[5, 7]), part(0, &[5, 6])]);
        let key: Vec<(u64, u32)> = doc.records().iter().map(|r| (r.at_ps, r.shard)).collect();
        assert_eq!(key, vec![(5, 0), (5, 1), (6, 0), (7, 1)]);
    }

    #[test]
    fn digests_are_order_independent_across_sinks() {
        let a = TraceDoc::merge(vec![part(0, &[1, 2]), part(1, &[3])]);
        let b = TraceDoc::merge(vec![part(1, &[3]), part(0, &[1, 2])]);
        assert_eq!(a.digest_full(crate::ALL_CATEGORIES), b.digest_full(crate::ALL_CATEGORIES));
        assert_eq!(
            a.digest_stable(crate::STABLE_CATEGORIES),
            b.digest_stable(crate::STABLE_CATEGORIES)
        );
        assert_ne!(a.digest_full(crate::ALL_CATEGORIES), 0);
    }

    #[test]
    fn csv_shape() {
        let doc = TraceDoc::merge(vec![part(0, &[10])]);
        let csv = doc.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("at_ps,shard,seq,cat,kind,name,track,a,b"));
        assert_eq!(lines.next(), Some("10,0,0,kvop,instant,submit,0,10,0"));
        assert_eq!(lines.next(), None);
        assert_eq!(doc.count(TraceCat::KvOp), 1);
        assert_eq!(doc.count(TraceCat::Mailbox), 0);
        let _ = TraceKind::Instant;
    }
}
