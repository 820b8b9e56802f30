//! The per-shard buffer trace records are written into.
//!
//! A sink keeps two runs. A record stamped no earlier than the last one
//! in the in-order run is encoded onto it as bytes (see `src/run.rs`);
//! that is every record of an engine shard, whose clock only moves
//! forward. A record stamped before it goes to the late run, kept as
//! [`TraceRecord`]s: in practice the KV driver's `finish`, stamped at
//! the op's end, which the driver's clock has passed.
//! [`TraceSink::take`] sorts the late run and encodes it too, so a
//! harvest is two sorted runs of bytes, and nothing is decoded or
//! merged until an exporter walks the trace in order
//! ([`crate::TraceDoc::records`]).

use crate::record::{TraceCat, TraceKind, TraceName, TraceRecord};
use crate::run::{Run, RunWriter};
use crate::TraceConfig;

/// One sink's harvest: its records as two encoded runs, each sorted by
/// `(at_ps, seq)`, plus how many it had to drop at capacity. Merged
/// into a [`crate::TraceDoc`].
#[derive(Debug, Default, Clone)]
pub struct TracePart {
    /// Records appended in time order, `seq` rising.
    pub(crate) in_order: Run,
    /// Records stamped before the in-order run's last one, sorted by
    /// `(at_ps, seq)` at harvest.
    pub(crate) late: Run,
    /// Records discarded because the buffer was full.
    pub(crate) dropped: u64,
}

/// A bounded trace buffer owned by one shard (or one driver loop).
///
/// Disabled is the default and costs one branch per entry point: the
/// buffer is unallocated and `on` is false. When full the sink drops
/// *new* records (counted in `dropped`) rather than evicting old ones;
/// the capacity counts the records of both runs, whatever their bytes.
#[derive(Debug, Default)]
pub struct TraceSink {
    on: bool,
    capacity: usize,
    seq: u64,
    dropped: u64,
    in_order: RunWriter,
    late: Vec<TraceRecord>,
}

impl TraceSink {
    /// A disabled sink (no buffer, every entry point a no-op).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A sink for `shard` per `cfg`; disabled config yields a disabled
    /// sink.
    pub fn new(cfg: TraceConfig, shard: u32) -> Self {
        if !cfg.enabled {
            return Self::disabled();
        }
        TraceSink {
            on: true,
            capacity: cfg.capacity as usize,
            seq: 0,
            dropped: 0,
            in_order: RunWriter::new(shard),
            late: Vec::new(),
        }
    }

    /// Bind the clock: returns a [`Tracer`] stamping `now_ps` on every
    /// record it emits. The hot-path shape — the simulator constructs
    /// one per dispatched event via `ctx.trace()`.
    #[inline]
    pub fn at(&mut self, now_ps: u64) -> Tracer<'_> {
        Tracer { at_ps: now_ps, sink: self }
    }

    /// Append one record. When tracing is off this is one predictable
    /// branch.
    #[inline]
    #[expect(clippy::too_many_arguments, reason = "mirrors TraceRecord's fields")]
    pub fn record(
        &mut self,
        at_ps: u64,
        cat: TraceCat,
        kind: TraceKind,
        name: TraceName,
        track: u32,
        a: u64,
        b: u64,
    ) {
        if !self.on {
            return;
        }
        self.push(at_ps, cat, kind, name, track, a, b);
    }

    #[inline(never)]
    #[expect(clippy::too_many_arguments, reason = "mirrors TraceRecord's fields")]
    fn push(
        &mut self,
        at_ps: u64,
        cat: TraceCat,
        kind: TraceKind,
        name: TraceName,
        track: u32,
        a: u64,
        b: u64,
    ) {
        if self.in_order.len() + self.late.len() >= self.capacity {
            self.dropped += 1;
            self.seq += 1;
            return;
        }
        let record = TraceRecord {
            at_ps,
            shard: self.in_order.shard(),
            seq: self.seq,
            cat,
            kind,
            name,
            track,
            a,
            b,
        };
        self.seq += 1;
        if at_ps < self.in_order.last_at() {
            self.late.push(record);
        } else {
            self.in_order.push(&record);
        }
    }

    /// Harvest the captured records, leaving the sink enabled and its
    /// sequence counter running (a second harvest continues, not
    /// restarts, the numbering). The late run is sorted here, in place
    /// (`seq` is unique within the sink, so the unstable sort by
    /// `(at_ps, seq)` gives the stable order), then encoded.
    pub fn take(&mut self) -> TracePart {
        let mut late = std::mem::take(&mut self.late);
        late.sort_unstable_by_key(|r| (r.at_ps, r.seq));
        let mut sorted = RunWriter::new(self.in_order.shard());
        for r in &late {
            sorted.push(r);
        }
        TracePart {
            in_order: self.in_order.finish(),
            late: sorted.finish(),
            dropped: std::mem::replace(&mut self.dropped, 0),
        }
    }
}

/// A borrowed `(clock, sink)` pair: the record-emission API
/// instrumentation sites actually call. Obtained from
/// [`TraceSink::at`] (or `ctx.trace()` inside a component handler).
pub struct Tracer<'a> {
    at_ps: u64,
    sink: &'a mut TraceSink,
}

impl Tracer<'_> {
    /// Open a span named `name` on `track`.
    #[inline]
    pub fn span_begin(&mut self, cat: TraceCat, name: TraceName, track: u32, a: u64, b: u64) {
        self.sink
            .record(self.at_ps, cat, TraceKind::SpanBegin, name, track, a, b);
    }

    /// Close the innermost span named `name` on `track`.
    #[inline]
    pub fn span_end(&mut self, cat: TraceCat, name: TraceName, track: u32, a: u64, b: u64) {
        self.sink
            .record(self.at_ps, cat, TraceKind::SpanEnd, name, track, a, b);
    }

    /// Emit a point event.
    #[inline]
    pub fn instant(&mut self, cat: TraceCat, name: TraceName, track: u32, a: u64, b: u64) {
        self.sink
            .record(self.at_ps, cat, TraceKind::Instant, name, track, a, b);
    }

    /// Sample a counter value.
    #[inline]
    pub fn counter(&mut self, cat: TraceCat, name: TraceName, track: u32, value: u64) {
        self.sink
            .record(self.at_ps, cat, TraceKind::Counter, name, track, value, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DRIVER_SHARD;
    use bluedbm_check::Source;

    fn enabled(capacity: u32) -> TraceSink {
        TraceSink::new(TraceConfig::on().with_capacity(capacity), 2)
    }

    /// `(at_ps, seq)` of each record of `run`.
    fn keys(run: &Run) -> Vec<(u64, u64)> {
        run.records().map(|r| (r.at_ps, r.seq)).collect()
    }

    #[test]
    fn disabled_sink_captures_nothing() {
        let mut s = TraceSink::disabled();
        s.at(5).instant(TraceCat::KvOp, TraceName::Submit, 0, 1, 2);
        assert!(s.in_order.len() == 0 && s.late.is_empty());
        let part = s.take();
        assert!(part.in_order.len == 0 && part.late.len == 0);
        assert!(part.in_order.bytes.capacity() == 0 && part.late.bytes.capacity() == 0);
    }

    #[test]
    fn capacity_drops_are_counted_not_evicted() {
        let mut s = enabled(2);
        for i in 0..5 {
            s.at(i).instant(TraceCat::KvOp, TraceName::Submit, 0, i, 0);
        }
        let part = s.take();
        let kept: Vec<u64> = part.in_order.records().map(|r| r.a).collect();
        assert_eq!(kept, [0, 1]);
        assert_eq!(part.dropped, 3);
    }

    #[test]
    fn capacity_counts_records_not_bytes() {
        // Three records with the widest payloads (one of them late),
        // then two narrow ones: the capacity holds three records.
        let mut s = enabled(3);
        for (t, big) in [(0, u64::MAX), (1 << 63, u64::MAX), (5, u64::MAX), (1 << 63, 0), (u64::MAX, 0)] {
            s.at(t).instant(TraceCat::Gc, TraceName::Move, u32::MAX, big, big);
        }
        let part = s.take();
        assert_eq!((part.in_order.len, part.late.len, part.dropped), (2, 1, 2));
    }

    #[test]
    fn take_keeps_sequence_running() {
        let mut s = enabled(64);
        s.at(1).instant(TraceCat::KvOp, TraceName::Submit, 0, 0, 0);
        let _ = s.take();
        s.at(2).instant(TraceCat::KvOp, TraceName::Gate, 0, 0, 0);
        let part = s.take();
        assert_eq!(keys(&part.in_order), [(2, 1)]);
    }

    #[test]
    fn a_record_stamped_in_the_past_goes_to_the_late_run() {
        let mut s = enabled(64);
        for t in [10, 20, 15, 20, 5, 30, 30, 25] {
            s.at(t).instant(TraceCat::KvOp, TraceName::Finish, 0, t, 0);
        }
        // One numbering across both runs: 15, 5 and 25 come after the
        // in-order run's last record, and take their place in `seq`.
        let keys_late: Vec<(u64, u64)> = s.late.iter().map(|r| (r.at_ps, r.seq)).collect();
        assert_eq!(keys_late, [(15, 2), (5, 4), (25, 7)]);
        let part = s.take();
        assert_eq!(keys(&part.in_order), [(10, 0), (20, 1), (20, 3), (30, 5), (30, 6)]);
    }

    #[test]
    fn capacity_counts_both_runs() {
        let mut s = enabled(4);
        for t in [10, 5, 20, 15, 30, 1] {
            s.at(t).instant(TraceCat::KvOp, TraceName::Finish, 0, t, 0);
        }
        let part = s.take();
        assert_eq!(keys(&part.in_order), [(10, 0), (20, 2)]);
        assert_eq!(keys(&part.late), [(5, 1), (15, 3)]);
        assert_eq!(part.dropped, 2);
    }

    #[test]
    fn take_sorts_the_late_run_and_keeps_numbering() {
        let mut s = enabled(64);
        for t in [50, 40, 10, 40, 60, 10] {
            s.at(t).instant(TraceCat::KvOp, TraceName::Finish, 0, t, 0);
        }
        let part = s.take();
        assert_eq!(keys(&part.in_order), [(50, 0), (60, 4)]);
        // Equal instants keep emission order.
        assert_eq!(keys(&part.late), [(10, 2), (10, 5), (40, 1), (40, 3)]);
        // The second harvest starts a fresh in-order run and numbers on.
        for t in [5, 3] {
            s.at(t).instant(TraceCat::KvOp, TraceName::Finish, 0, t, 0);
        }
        let part = s.take();
        assert_eq!(keys(&part.in_order), [(5, 6)]);
        assert_eq!(keys(&part.late), [(3, 7)]);
    }

    /// 0, the maximum, a small value or any value up to the maximum.
    fn edge(s: &mut Source, max: u64) -> u64 {
        match s.below(4) {
            0 => 0,
            1 => max,
            2 => s.below(8),
            _ => s.any_u64() & max,
        }
    }

    /// Every record a sink keeps decodes back exactly, with the `seq` it
    /// was given: the in-order run in push order, the late run sorted.
    /// Instants hit 0 and `u64::MAX` and step by 0, by more than 2^32
    /// and backwards; `track`, `a` and `b` hit their maxima; the shard
    /// may be the driver's; drops and late records leave gaps in a
    /// run's `seq`; and the sink is harvested up to three times.
    #[test]
    fn kept_records_decode_back_exactly() {
        const KINDS: [TraceKind; 4] = [TraceKind::SpanBegin, TraceKind::SpanEnd, TraceKind::Instant, TraceKind::Counter];
        bluedbm_check::check("kept_records_decode_back_exactly", 512, |s| {
            let shard = [0, 1, DRIVER_SHARD][s.below(3) as usize];
            let capacity = s.range(1usize..40);
            let mut sink = TraceSink::new(TraceConfig::on().with_capacity(capacity as u32), shard);
            let (mut seq, mut at) = (0, 0u64);
            for _ in 0..s.range(1usize..4) {
                let mut offered = Vec::new();
                for _ in 0..s.range(0usize..48) {
                    at = match s.below(6) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => at,
                        3 => at.saturating_add(s.range((1 << 32) + 1..1 << 40)),
                        4 => at.saturating_sub(s.below(1 << 20)),
                        _ => at.saturating_add(s.below(1 << 20)),
                    };
                    let r = TraceRecord {
                        at_ps: at,
                        shard,
                        seq,
                        cat: TraceCat::ALL[s.below(6) as usize],
                        kind: KINDS[s.below(4) as usize],
                        name: TraceName::ALL[s.below(13) as usize],
                        track: edge(s, u64::from(u32::MAX)) as u32,
                        a: edge(s, u64::MAX),
                        b: edge(s, u64::MAX),
                    };
                    sink.record(r.at_ps, r.cat, r.kind, r.name, r.track, r.a, r.b);
                    offered.push(r);
                    seq += 1;
                }
                // The first `capacity` are kept; each goes late when
                // stamped before the last record kept in order.
                let kept = &offered[..offered.len().min(capacity)];
                let (mut in_order, mut late, mut last) = (Vec::new(), Vec::new(), 0);
                for &r in kept {
                    if r.at_ps < last {
                        late.push(r);
                    } else {
                        last = r.at_ps;
                        in_order.push(r);
                    }
                }
                late.sort_unstable_by_key(|r| (r.at_ps, r.seq));
                let part = sink.take();
                assert_eq!(part.in_order.records().collect::<Vec<_>>(), in_order);
                assert_eq!(part.late.records().collect::<Vec<_>>(), late);
                assert_eq!((part.in_order.len, part.late.len), (in_order.len(), late.len()));
                assert_eq!(part.dropped, (offered.len() - kept.len()) as u64);
                part.in_order.check().unwrap();
                part.late.check().unwrap();
            }
        });
    }
}
