//! The trace record: a fixed-size, integer-only event. A sink stores
//! records encoded as bytes (`crate::run`); this is the form they are
//! pushed and decoded in.

/// Shard id used by sinks that live outside the simulator proper (the
/// KV driver loop). Sorts after every real shard in the merge key.
pub const DRIVER_SHARD: u32 = u32::MAX;

/// What subsystem a record belongs to.
///
/// The `u8` discriminant is part of the binary trace format: append new
/// variants, never renumber. Discriminant 2 is retired and stays unused.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceCat {
    /// Event dispatch in the kernel: one `event` record per delivered
    /// event, so this category's count equals the events delivered.
    Dispatch = 0,
    /// Cross-shard mailbox flushes in the sharded runtime.
    Mailbox = 1,
    /// Accelerator scheduler: grant / park / done.
    Accel = 3,
    /// Host read-buffer pool: park / resume.
    BufPool = 4,
    /// KV op lifecycle: submit → gate → start → finish.
    KvOp = 5,
    /// Flash garbage collection: victim selection, valid-page moves,
    /// block erases.
    Gc = 6,
}

/// Every category, in discriminant order.
impl TraceCat {
    /// All categories, in discriminant order.
    pub const ALL: [TraceCat; 6] = [
        TraceCat::Dispatch,
        TraceCat::Mailbox,
        TraceCat::Accel,
        TraceCat::BufPool,
        TraceCat::KvOp,
        TraceCat::Gc,
    ];

    /// This category's bit in a digest mask ([`ALL_CATEGORIES`],
    /// [`STABLE_CATEGORIES`], the argument of
    /// [`crate::TraceDoc::digest_full`]).
    #[inline]
    pub(crate) const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Stable lowercase label (CSV column, Chrome `cat` field).
    pub const fn label(self) -> &'static str {
        match self {
            TraceCat::Dispatch => "dispatch",
            TraceCat::Mailbox => "mailbox",
            TraceCat::Accel => "accel",
            TraceCat::BufPool => "bufpool",
            TraceCat::KvOp => "kvop",
            TraceCat::Gc => "gc",
        }
    }

    /// Decode a binary-format discriminant.
    pub(crate) const fn from_u8(v: u8) -> Option<TraceCat> {
        match v {
            0 => Some(TraceCat::Dispatch),
            1 => Some(TraceCat::Mailbox),
            3 => Some(TraceCat::Accel),
            4 => Some(TraceCat::BufPool),
            5 => Some(TraceCat::KvOp),
            6 => Some(TraceCat::Gc),
            _ => None,
        }
    }
}

/// Mask with every category bit set.
pub const ALL_CATEGORIES: u32 = {
    let mut mask = 0;
    let mut i = 0;
    while i < TraceCat::ALL.len() {
        mask |= TraceCat::ALL[i].bit();
        i += 1;
    }
    mask
};

/// Categories whose record multiset (names, tracks, payloads — not
/// timestamps) is arbitration-independent, i.e. identical across the
/// Seq / Threads / Cooperative engines for the same
/// workload. `Dispatch` carries same-instant timing that contention
/// redistributes; `Mailbox` describes engine-private structure;
/// `Accel`/`BufPool` payloads include queue waits and park decisions,
/// which the determinism contract explicitly leaves per-engine. `Gc`
/// qualifies because victim choice and migration order come from the
/// card FTL's policy, a pure function of the logical op sequence.
pub const STABLE_CATEGORIES: u32 = TraceCat::KvOp.bit() | TraceCat::Gc.bit();

/// What happened: the closed set of event names instrumentation sites
/// emit, one byte in the record.
///
/// The discriminant is *not* part of the binary format: files carry
/// each name's `label` in their string table, and
/// the digests hash the label bytes, so reordering variants changes
/// neither.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceName {
    /// `Dispatch`: one delivered event.
    Event,
    /// `Mailbox`: an outbox flushed to a peer shard.
    Flush,
    /// `Accel`: a job granted an accelerator unit (stamped when the job
    /// is booked, at submission; the payload is its wait).
    Grant,
    /// `Accel`: a job queued for a unit; `BufPool`: a page queued for a
    /// read buffer.
    Park,
    /// `Accel`: a job released its unit.
    Done,
    /// `BufPool`: a parked page got a read buffer.
    Resume,
    /// `KvOp`: the op entered the driver.
    Submit,
    /// `KvOp`: the op holds its key's gate.
    Gate,
    /// `KvOp`: the op's page commands were injected.
    Start,
    /// `KvOp`: the op completed.
    Finish,
    /// `Gc`: a victim block was chosen.
    Victim,
    /// `Gc`: one valid page was relocated.
    Move,
    /// `Gc`: the victim block was erased.
    Erase,
}

impl TraceName {
    /// Every name, in discriminant order.
    pub(crate) const ALL: [TraceName; 13] = [
        TraceName::Event,
        TraceName::Flush,
        TraceName::Grant,
        TraceName::Park,
        TraceName::Done,
        TraceName::Resume,
        TraceName::Submit,
        TraceName::Gate,
        TraceName::Start,
        TraceName::Finish,
        TraceName::Victim,
        TraceName::Move,
        TraceName::Erase,
    ];

    /// Stable lowercase label (CSV column, Chrome `name`, binary string
    /// table, digests).
    pub(crate) const fn label(self) -> &'static str {
        match self {
            TraceName::Event => "event",
            TraceName::Flush => "flush",
            TraceName::Grant => "grant",
            TraceName::Park => "park",
            TraceName::Done => "done",
            TraceName::Resume => "resume",
            TraceName::Submit => "submit",
            TraceName::Gate => "gate",
            TraceName::Start => "start",
            TraceName::Finish => "finish",
            TraceName::Victim => "victim",
            TraceName::Move => "move",
            TraceName::Erase => "erase",
        }
    }

    /// The name whose label is `label`.
    pub(crate) fn from_label(label: &str) -> Option<TraceName> {
        TraceName::ALL.into_iter().find(|n| n.label() == label)
    }
}

/// The shape of a record.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Opens a span on its track (Chrome `B`). Must be closed by a
    /// `SpanEnd` with the same name on the same track.
    SpanBegin = 0,
    /// Closes the innermost span (Chrome `E`).
    SpanEnd = 1,
    /// A point event (Chrome `i`).
    Instant = 2,
    /// A sampled counter value in `a` (Chrome `C`).
    Counter = 3,
}

impl TraceKind {
    /// Stable lowercase label for the CSV export.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            TraceKind::SpanBegin => "begin",
            TraceKind::SpanEnd => "end",
            TraceKind::Instant => "instant",
            TraceKind::Counter => "counter",
        }
    }

    /// Decode a binary-format discriminant.
    pub(crate) const fn from_u8(v: u8) -> Option<TraceKind> {
        match v {
            0 => Some(TraceKind::SpanBegin),
            1 => Some(TraceKind::SpanEnd),
            2 => Some(TraceKind::Instant),
            3 => Some(TraceKind::Counter),
            _ => None,
        }
    }
}

/// One trace event. Fixed-size and integer-only: no payload may derive
/// from host state, so a record stream is a pure function of the
/// simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated timestamp, picoseconds.
    pub at_ps: u64,
    /// Owning shard (or [`DRIVER_SHARD`]).
    pub(crate) shard: u32,
    /// Per-shard monotone sequence number; `(at_ps, shard, seq)` is the
    /// total merge order.
    pub(crate) seq: u64,
    /// Subsystem.
    pub cat: TraceCat,
    /// Shape.
    pub kind: TraceKind,
    /// Event name.
    pub name: TraceName,
    /// Secondary track key within the category's Chrome process: node
    /// id for `Accel`/`BufPool`, tenant for `KvOp`, destination shard
    /// for `Mailbox`, 0 otherwise.
    pub(crate) track: u32,
    /// First payload word (meaning is per-name; see the instrumentation
    /// site).
    pub a: u64,
    /// Second payload word.
    pub(crate) b: u64,
}

// Every push builds one, a late record waits in its sink as one, and
// every decode and merge step moves one by value: keep it at four u64s,
// two u32s and three bytes.
const _: () = assert!(std::mem::size_of::<TraceRecord>() <= 48);

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
pub(crate) fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// The opening of a record's stable digest
/// ([`crate::TraceDoc::digest_stable`]): FNV-1a over its `(cat, kind,
/// name)`, which a fold over many records of one tag computes once.
pub(crate) fn stable_head(cat: TraceCat, kind: TraceKind, name: TraceName) -> u64 {
    let h = fnv_u64(FNV_OFFSET, u64::from(cat as u8));
    let h = fnv_u64(h, u64::from(kind as u8));
    fnv_bytes(h, name.label().as_bytes())
}

impl TraceRecord {
    /// FNV-1a over every field. XOR-folding these across a trace pins
    /// bit-identity (reruns of the same engine must agree exactly).
    pub(crate) fn digest_full(&self) -> u64 {
        let h = fnv_u64(FNV_OFFSET, self.at_ps);
        let h = fnv_u64(h, u64::from(self.shard));
        let h = fnv_u64(h, self.seq);
        let h = fnv_u64(h, u64::from(self.cat as u8));
        let h = fnv_u64(h, u64::from(self.kind as u8));
        let h = fnv_bytes(h, self.name.label().as_bytes());
        let h = fnv_u64(h, u64::from(self.track));
        let h = fnv_u64(h, self.a);
        fnv_u64(h, self.b)
    }

    /// FNV-1a over the arbitration-independent fields only (no
    /// timestamp, shard or sequence number). XOR-folding these across
    /// the [`STABLE_CATEGORIES`] slice of a trace yields a value that
    /// must be identical across engines. ([`crate::TraceDoc`] folds it
    /// as [`stable_head`] once per tag and [`Self::stable_tail`] per
    /// record.)
    #[cfg(test)]
    pub(crate) fn digest_stable(&self) -> u64 {
        self.stable_tail(stable_head(self.cat, self.kind, self.name))
    }

    /// The stable digest resumed from the hash of the record's `(cat,
    /// kind, name)`, its [`stable_head`].
    #[inline]
    pub(crate) fn stable_tail(&self, head: u64) -> u64 {
        let h = fnv_u64(head, u64::from(self.track));
        let h = fnv_u64(h, self.a);
        fnv_u64(h, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ps: u64, seq: u64) -> TraceRecord {
        TraceRecord {
            at_ps,
            shard: 1,
            seq,
            cat: TraceCat::KvOp,
            kind: TraceKind::Instant,
            name: TraceName::Submit,
            track: 3,
            a: 42,
            b: 7,
        }
    }

    #[test]
    fn record_is_48_bytes() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 48);
    }

    #[test]
    fn name_labels_roundtrip_and_are_distinct() {
        for name in TraceName::ALL {
            assert_eq!(TraceName::from_label(name.label()), Some(name));
        }
        let mut labels: Vec<&str> = TraceName::ALL.iter().map(|n| n.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TraceName::ALL.len());
        assert_eq!(TraceName::from_label("window"), None);
    }

    #[test]
    fn digests_hash_the_label_bytes() {
        // Pinned on the parent, where `name` was the string "submit":
        // the enum must not move a single digest.
        assert_eq!(rec(10, 0).digest_full(), 0xd5b1_3ee8_7bc5_e6af);
        assert_eq!(rec(10, 0).digest_stable(), 0xdad5_e0bb_0d62_6b64);
    }

    #[test]
    fn cat_roundtrip_and_bits() {
        for cat in TraceCat::ALL {
            assert_eq!(TraceCat::from_u8(cat as u8), Some(cat));
            assert_eq!(ALL_CATEGORIES & cat.bit(), cat.bit());
        }
        assert_eq!(TraceCat::from_u8(2), None, "retired discriminant");
        assert_eq!(TraceCat::from_u8(200), None);
        assert_eq!(ALL_CATEGORIES.count_ones() as usize, TraceCat::ALL.len());
    }

    #[test]
    fn kind_roundtrip() {
        for kind in [
            TraceKind::SpanBegin,
            TraceKind::SpanEnd,
            TraceKind::Instant,
            TraceKind::Counter,
        ] {
            assert_eq!(TraceKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(TraceKind::from_u8(9), None);
    }

    #[test]
    fn stable_digest_ignores_timing_full_does_not() {
        let a = rec(10, 0);
        let b = rec(999, 5);
        assert_eq!(a.digest_stable(), b.digest_stable());
        assert_ne!(a.digest_full(), b.digest_full());
        let mut c = rec(10, 0);
        c.a = 43;
        assert_ne!(a.digest_stable(), c.digest_stable());
    }
}
