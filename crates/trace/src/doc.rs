//! The trace of a run: every sink's records as sorted runs of bytes,
//! decoded and walked in one total order.

use std::io::{self, Write};

use crate::record::{stable_head, TraceCat, TraceRecord};
use crate::run::{Cursor, Run};
use crate::sink::TracePart;

/// A simulation's trace, held as the encoded sorted runs its sinks
/// handed over. Its order is the deterministic key `(at_ps, shard,
/// seq)` — not emission interleaving — which [`TraceDoc::records`]
/// merges the runs into as it decodes them. That order is what
/// exporters see, which is why the trace of a simulation is
/// reproducible no matter how many worker threads captured it; counts
/// and digests fold over the runs in any order.
#[derive(Debug, Default, Clone)]
pub struct TraceDoc {
    /// Non-empty runs, each sorted by `(at_ps, shard, seq)`.
    runs: Vec<Run>,
    dropped: u64,
}

/// The merge key: `(at_ps, shard)` packed into one `u128` so one
/// compare orders both; `seq` only decides between records of one sink
/// at one instant.
#[inline]
fn key(r: &TraceRecord) -> (u128, u64) {
    ((u128::from(r.at_ps) << 32) | u128::from(r.shard), r.seq)
}

impl TraceDoc {
    /// Gather per-sink harvests into one document. Each part is two
    /// runs already in `(at_ps, seq)` order (see [`crate::TraceSink`]),
    /// and a part's records share one shard, so each run is in
    /// `(at_ps, shard, seq)` order too: nothing is sorted, copied or
    /// decoded here, and empty runs are dropped.
    pub fn merge(parts: Vec<TracePart>) -> TraceDoc {
        let dropped = parts.iter().map(|p| p.dropped).sum();
        let runs = parts.into_iter().flat_map(|p| [p.in_order, p.late]).collect();
        TraceDoc::from_runs(runs, dropped)
    }

    /// Build from sorted runs (the binary decode path checks each
    /// first); empty runs are dropped.
    pub(crate) fn from_runs(mut runs: Vec<Run>, dropped: u64) -> TraceDoc {
        runs.retain(|run| run.len > 0);
        TraceDoc { runs, dropped }
    }

    /// The runs, in the order they were gathered.
    pub(crate) fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The records in `(at_ps, shard, seq)` order, decoded and merged
    /// from the runs as the iterator advances.
    pub fn records(&self) -> Records<'_> {
        Records {
            heads: self
                .runs
                .iter()
                .filter_map(|run| {
                    let mut cursor = run.records();
                    cursor.next().map(|head| (head, cursor))
                })
                .collect(),
        }
    }

    /// Every record, run after run: for folds that do not depend on
    /// order.
    pub(crate) fn unordered(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.runs.iter().flat_map(Run::records)
    }

    /// Total records dropped at sink capacity across the run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.len).sum()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The runs whose tag table holds some category in `mask`: the
    /// others hold no record a fold over `mask` needs, and are skipped
    /// undecoded.
    fn runs_holding(&self, mask: u32) -> impl Iterator<Item = &Run> {
        self.runs
            .iter()
            .filter(move |run| run.tags.iter().any(|&(cat, _, _)| mask & cat.bit() != 0))
    }

    /// Every record whose category is in `mask`.
    fn masked(&self, mask: u32) -> impl Iterator<Item = TraceRecord> + '_ {
        self.runs_holding(mask)
            .flat_map(Run::records)
            .filter(move |r| mask & r.cat.bit() != 0)
    }

    /// How many records fall in `cat`.
    pub fn count(&self, cat: TraceCat) -> usize {
        self.masked(cat.bit()).count()
    }

    /// XOR fold of `TraceRecord::digest_full` over every record whose
    /// category is in `mask`. Order-independent; pins bit-identity of
    /// the selected slice (reruns of one engine must agree exactly).
    pub fn digest_full(&self, mask: u32) -> u64 {
        self.masked(mask).fold(0, |acc, r| acc ^ r.digest_full())
    }

    /// XOR fold of `TraceRecord::digest_stable` over every record
    /// whose category is in `mask`. With
    /// [`crate::STABLE_CATEGORIES`] this is the cross-engine digest:
    /// identical for Seq / Threads / Cooperative runs of
    /// the same workload.
    pub fn digest_stable(&self, mask: u32) -> u64 {
        let mut acc = 0;
        for run in self.runs_holding(mask) {
            // A record's digest opens with its (cat, kind, name): hash
            // that once per tag, and `None` for a tag outside `mask`.
            let heads: Vec<Option<u64>> = run
                .tags
                .iter()
                .map(|&(cat, kind, name)| (mask & cat.bit() != 0).then(|| stable_head(cat, kind, name)))
                .collect();
            let mut records = run.records();
            while let Some((code, r)) = records.next_coded() {
                if let Some(head) = heads[code] {
                    acc ^= r.stable_tail(head);
                }
            }
        }
        acc
    }

    /// Write as CSV (one header line, one line per record), record by
    /// record as the merge walks.
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(b"at_ps,shard,seq,cat,kind,name,track,a,b\n")?;
        for r in self.records() {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                r.at_ps,
                r.shard,
                r.seq,
                r.cat.label(),
                r.kind.label(),
                r.name.label(),
                r.track,
                r.a,
                r.b,
            )?;
        }
        Ok(())
    }
}

/// A k-way merge of a [`TraceDoc`]'s runs, in `(at_ps, shard, seq)`
/// order ([`TraceDoc::records`]). A trace has a handful of runs (two
/// per sink at most), so each step scans the runs' decoded heads for
/// the least key.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    /// Each run's next record and the cursor past it; a run leaves when
    /// it is used up.
    heads: Vec<(TraceRecord, Cursor<'a>)>,
}

impl Iterator for Records<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let mut least = 0;
        for i in 1..self.heads.len() {
            if key(&self.heads[i].0) < key(&self.heads[least].0) {
                least = i;
            }
        }
        let (head, cursor) = self.heads.get_mut(least)?;
        let record = *head;
        match cursor.next() {
            Some(next) => *head = next,
            // `remove`, not `swap_remove`: runs keep their order, so a
            // key two runs share (two sinks given one shard id) comes
            // from the earlier run first.
            None => {
                self.heads.remove(least);
            }
        }
        Some(record)
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
        let key: Vec<(u64, u32)> = doc.records().map(|r| (r.at_ps, r.shard)).collect();
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
        let mut csv = Vec::new();
        doc.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
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
                taken.iter().flat_map(|p| p.in_order.records().chain(p.late.records())).collect();
            want.sort_unstable_by_key(|r| (r.at_ps, r.shard, r.seq));
            let dropped: u64 = taken.iter().map(|p| p.dropped).sum();
            let doc = TraceDoc::merge(taken);
            assert_eq!(doc.records().collect::<Vec<_>>(), want);
            assert_eq!(doc.dropped(), dropped);
            // The folds decode what the walk does (and skip the runs
            // that hold no category asked for).
            let fold = |f: fn(&TraceRecord) -> u64| want.iter().fold(0, |acc, r| acc ^ f(r));
            assert_eq!(doc.digest_full(crate::ALL_CATEGORIES), fold(TraceRecord::digest_full));
            assert_eq!(doc.digest_stable(crate::STABLE_CATEGORIES), fold(TraceRecord::digest_stable));
            assert_eq!(doc.digest_stable(TraceCat::Gc.bit()), 0);
            assert_eq!((doc.count(TraceCat::KvOp), doc.count(TraceCat::Gc)), (want.len(), 0));
        });
    }
}
