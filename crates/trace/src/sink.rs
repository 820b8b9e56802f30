//! The per-shard ring buffer trace records are written into.

use crate::record::{TraceCat, TraceKind, TraceName, TraceRecord};
use crate::TraceConfig;

/// One sink's harvest: its records plus how many it had to drop at
/// capacity. Merged into a [`crate::TraceDoc`].
#[derive(Debug, Default, Clone)]
pub struct TracePart {
    /// Captured records, in emission order: one shard, `seq` rising.
    pub records: Vec<TraceRecord>,
    /// Records discarded because the buffer was full.
    pub(crate) dropped: u64,
}

/// A bounded trace buffer owned by one shard (or one driver loop).
///
/// Disabled is the default and costs one branch per entry point: the
/// buffer is unallocated and `on` is false. When full the sink drops
/// *new* records (counted in `dropped`) rather than evicting old ones.
#[derive(Debug, Default)]
pub struct TraceSink {
    on: bool,
    shard: u32,
    capacity: usize,
    seq: u64,
    dropped: u64,
    records: Vec<TraceRecord>,
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
            records: Vec::new(),
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
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            self.seq += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.records.push(TraceRecord {
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
    /// restarts, the numbering).
    pub fn take(&mut self) -> TracePart {
        TracePart {
            records: std::mem::take(&mut self.records),
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
        assert!(s.records.is_empty());
        assert_eq!(s.take().records.len(), 0);
    }

    #[test]
    fn capacity_drops_are_counted_not_evicted() {
        let mut s = enabled(2);
        for i in 0..5 {
            s.at(i).instant(TraceCat::KvOp, TraceName::Submit, 0, i, 0);
        }
        let part = s.take();
        assert_eq!(part.records.len(), 2);
        assert_eq!(part.records[0].a, 0);
        assert_eq!(part.records[1].a, 1);
        assert_eq!(part.dropped, 3);
    }

    #[test]
    fn take_keeps_sequence_running() {
        let mut s = enabled(64);
        s.at(1).instant(TraceCat::KvOp, TraceName::Submit, 0, 0, 0);
        let _ = s.take();
        s.at(2).instant(TraceCat::KvOp, TraceName::Gate, 0, 0, 0);
        let part = s.take();
        assert_eq!(part.records[0].seq, 1);
    }
}
