//! The per-shard buffer trace records are written into.
//!
//! A sink keeps two runs. A record stamped no earlier than the last one
//! in the in-order run is appended to it; that is every record of an
//! engine shard, whose clock only moves forward. A record stamped
//! before it goes to the late run: in practice the KV driver's
//! `finish`, stamped at the op's end, which the driver's clock has
//! passed. [`TraceSink::take`] sorts the late run in place, so a
//! harvest is two sorted runs, and nothing is merged until an exporter
//! walks the trace in order ([`crate::TraceDoc::records`]).

use crate::record::{TraceCat, TraceKind, TraceName, TraceRecord};
use crate::TraceConfig;

/// One sink's harvest: its records as two runs, each sorted by
/// `(at_ps, seq)`, plus how many it had to drop at capacity. Merged
/// into a [`crate::TraceDoc`].
#[derive(Debug, Default, Clone)]
pub struct TracePart {
    /// Records appended in time order, `seq` rising.
    pub(crate) in_order: Vec<TraceRecord>,
    /// Records stamped before the in-order run's last one, sorted by
    /// `(at_ps, seq)` at harvest.
    pub(crate) late: Vec<TraceRecord>,
    /// Records discarded because the buffer was full.
    pub(crate) dropped: u64,
}

/// A bounded trace buffer owned by one shard (or one driver loop).
///
/// Disabled is the default and costs one branch per entry point: the
/// buffer is unallocated and `on` is false. When full the sink drops
/// *new* records (counted in `dropped`) rather than evicting old ones;
/// the capacity counts both runs.
#[derive(Debug, Default)]
pub struct TraceSink {
    on: bool,
    shard: u32,
    capacity: usize,
    seq: u64,
    dropped: u64,
    in_order: Vec<TraceRecord>,
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
            shard,
            capacity: cfg.capacity as usize,
            seq: 0,
            dropped: 0,
            in_order: Vec::new(),
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
        let seq = self.seq;
        self.seq += 1;
        let run = match self.in_order.last() {
            Some(last) if at_ps < last.at_ps => &mut self.late,
            _ => &mut self.in_order,
        };
        run.push(TraceRecord {
            at_ps,
            shard: self.shard,
            seq,
            cat,
            kind,
            name,
            track,
            a,
            b,
        });
    }

    /// Harvest the captured records, leaving the sink enabled and its
    /// sequence counter running (a second harvest continues, not
    /// restarts, the numbering). The late run is sorted here, in place:
    /// `seq` is unique within the sink, so the unstable sort by
    /// `(at_ps, seq)` gives the stable order.
    pub fn take(&mut self) -> TracePart {
        let mut late = std::mem::take(&mut self.late);
        late.sort_unstable_by_key(|r| (r.at_ps, r.seq));
        TracePart {
            in_order: std::mem::take(&mut self.in_order),
            late,
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

    fn enabled(capacity: u32) -> TraceSink {
        TraceSink::new(TraceConfig::on().with_capacity(capacity), 2)
    }

    #[test]
    fn disabled_sink_captures_nothing() {
        let mut s = TraceSink::disabled();
        s.at(5).instant(TraceCat::KvOp, TraceName::Submit, 0, 1, 2);
        assert!(s.in_order.is_empty() && s.late.is_empty());
        let part = s.take();
        assert!(part.in_order.is_empty() && part.late.is_empty());
    }

    #[test]
    fn capacity_drops_are_counted_not_evicted() {
        let mut s = enabled(2);
        for i in 0..5 {
            s.at(i).instant(TraceCat::KvOp, TraceName::Submit, 0, i, 0);
        }
        let part = s.take();
        assert_eq!(part.in_order.len(), 2);
        assert_eq!(part.in_order[0].a, 0);
        assert_eq!(part.in_order[1].a, 1);
        assert_eq!(part.dropped, 3);
    }

    #[test]
    fn take_keeps_sequence_running() {
        let mut s = enabled(64);
        s.at(1).instant(TraceCat::KvOp, TraceName::Submit, 0, 0, 0);
        let _ = s.take();
        s.at(2).instant(TraceCat::KvOp, TraceName::Gate, 0, 0, 0);
        let part = s.take();
        assert_eq!(part.in_order[0].seq, 1);
    }

    /// `(at_ps, seq)` of each record of `run`.
    fn keys(run: &[TraceRecord]) -> Vec<(u64, u64)> {
        run.iter().map(|r| (r.at_ps, r.seq)).collect()
    }

    #[test]
    fn a_record_stamped_in_the_past_goes_to_the_late_run() {
        let mut s = enabled(64);
        for t in [10, 20, 15, 20, 5, 30, 30, 25] {
            s.at(t).instant(TraceCat::KvOp, TraceName::Finish, 0, t, 0);
        }
        // One numbering across both runs: 15, 5 and 25 come after the
        // in-order run's last record, and take their place in `seq`.
        assert_eq!(keys(&s.in_order), [(10, 0), (20, 1), (20, 3), (30, 5), (30, 6)]);
        assert_eq!(keys(&s.late), [(15, 2), (5, 4), (25, 7)]);
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
}
