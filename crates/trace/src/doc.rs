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

/// Whether `a` sorts after `b` in `(at_ps, shard, seq)` order. The
/// leading pair is packed into one `u128` so one compare orders both;
/// `seq` only decides between two harvests of one sink.
#[inline]
fn after(a: &TraceRecord, b: &TraceRecord) -> bool {
    let key = |r: &TraceRecord| (u128::from(r.at_ps) << 32) | u128::from(r.shard);
    let (ka, kb) = (key(a), key(b));
    ka > kb || (ka == kb && a.seq > b.seq)
}

/// Merge sorted `src` into sorted `dst`, back to front in `dst`'s own
/// buffer: the write cursor never falls behind `dst`'s read cursor, so
/// nothing unread is overwritten.
fn merge_into(dst: &mut Vec<TraceRecord>, src: &[TraceRecord]) {
    let mut i = dst.len();
    let mut j = src.len();
    // Grow to the merged length; every new slot is rewritten below.
    dst.extend_from_slice(src);
    while j > 0 {
        let b = src[j - 1];
        if i > 0 && after(&dst[i - 1], &b) {
            dst[i + j - 1] = dst[i - 1];
            i -= 1;
        } else {
            dst[i + j - 1] = b;
            j -= 1;
        }
    }
}

/// Put one sink's harvest in merge order (see [`TraceDoc::merge`]).
fn sort_run(run: &mut [TraceRecord]) {
    if !run.is_sorted_by_key(|r| r.at_ps) {
        run.sort_by_key(|r| r.at_ps);
    }
}

impl TraceDoc {
    /// Merge per-sink harvests into one document, in `(at_ps, shard,
    /// seq)` order.
    ///
    /// A part leaves its sink in that order unless a site stamped a
    /// record in the past (the KV driver's `finish`); only such a part
    /// is sorted, stably by `at_ps`, which keeps equal instants in
    /// emission (= `seq`) order. The other parts are then merged into
    /// the largest one's buffer, so no second full-size copy of the
    /// trace is ever resident.
    pub fn merge(parts: Vec<TracePart>) -> TraceDoc {
        let dropped = parts.iter().map(|p| p.dropped).sum();
        let mut runs: Vec<Vec<TraceRecord>> = parts.into_iter().map(|p| p.records).collect();
        let Some(largest) = (0..runs.len()).max_by_key(|&i| runs[i].len()) else {
            return TraceDoc::default();
        };
        let mut records = runs.swap_remove(largest);
        sort_run(&mut records);
        records.reserve_exact(runs.iter().map(Vec::len).sum());
        for mut run in runs {
            sort_run(&mut run);
            merge_into(&mut records, &run);
        }
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

    /// XOR fold of `TraceRecord::digest_full` over every record whose
    /// category is in `mask`. Order-independent; pins bit-identity of
    /// the selected slice (reruns of one engine must agree exactly).
    pub fn digest_full(&self, mask: u32) -> u64 {
        self.fold(mask, TraceRecord::digest_full)
    }

    /// XOR fold of `TraceRecord::digest_stable` over every record
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
                r.name.label(),
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
    use crate::record::{TraceKind, TraceName, DRIVER_SHARD};
    use crate::sink::TraceSink;
    use crate::TraceConfig;

    fn part(shard: u32, times: &[u64]) -> TracePart {
        let mut sink = TraceSink::new(TraceConfig::on(), shard);
        for &t in times {
            sink.at(t)
                .instant(TraceCat::KvOp, TraceName::Submit, 0, t, 0);
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

    /// `merge` is concat-and-sort, record for record. Parts come from
    /// four sinks (one the driver's), a sink may be harvested more than
    /// once (equal `(at_ps, shard)` across parts, told apart by `seq`),
    /// and a part's records are in time order or stamped in the past;
    /// instants repeat within and across parts, parts may be empty, and
    /// a sink of capacity 24 drops.
    #[test]
    fn merge_equals_concat_and_sort() {
        bluedbm_check::check("merge_equals_concat_and_sort", 256, |s| {
            let parts = s.vec(1..6, |s| (s.range(0usize..4), s.vec(0..40, |s| s.range(0u64..12)), s.bool()));
            let mut sinks: Vec<TraceSink> = [0, 1, 2, DRIVER_SHARD]
                .into_iter()
                .map(|shard| TraceSink::new(TraceConfig::on().with_capacity(24), shard))
                .collect();
            let mut taken = Vec::new();
            for (n, (sink, mut times, in_order)) in parts.into_iter().enumerate() {
                if in_order {
                    times.sort_unstable();
                }
                let sink = &mut sinks[sink];
                for (i, t) in times.into_iter().enumerate() {
                    sink.at(t).instant(TraceCat::KvOp, TraceName::Submit, n as u32, i as u64, 0);
                }
                taken.push(sink.take());
            }
            let mut want: Vec<TraceRecord> =
                taken.iter().flat_map(|p| p.records.iter().copied()).collect();
            want.sort_unstable_by_key(|r| (r.at_ps, r.shard, r.seq));
            let dropped: u64 = taken.iter().map(|p| p.dropped).sum();
            let doc = TraceDoc::merge(taken);
            assert_eq!(doc.records(), &want[..]);
            assert_eq!(doc.dropped(), dropped);
        });
    }
}
