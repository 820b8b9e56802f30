//! A sorted run of trace records, held as bytes.
//!
//! A sink appends each record to its run as it is pushed, encoded
//! against the record before it, and a [`Cursor`] decodes the run in the
//! same order. The run's shard is stored once, beside the bytes, and
//! each distinct `(cat, kind, name)` is given a code in the run's tag
//! table in first-use order. One record (every integer a LEB128 varint):
//!
//! ```text
//! time   zigzag(at_ps − the previous record's at_ps), wrapping; the first
//!        record's is taken against 0
//! tag    code << 1 | 1 when a seq field follows
//! track
//! a
//! b
//! seq    zigzag(seq − (the previous record's seq + 1)), wrapping; present
//!        only when the seq bit is set (the first record's previous seq
//!        counts as −1)
//! ```
//!
//! A tag takes one byte while the run has fewer than 64 distinct tags,
//! which every run of a simulation does. An engine shard's `event`
//! record is about five bytes: two or three of time, then one each of
//! tag, track, `a` and `b`.

use crate::record::{TraceCat, TraceKind, TraceName, TraceRecord};

/// A run's `(cat, kind, name)`, which its tag code stands for.
pub(crate) type Tag = (TraceCat, TraceKind, TraceName);

/// One slot per `(cat, kind, name)`: category discriminants run
/// 0..=6, kinds 0..=3.
const TAG_SLOTS: usize = 7 * 4 * TraceName::ALL.len();

#[inline]
fn tag_slot(cat: TraceCat, kind: TraceKind, name: TraceName) -> usize {
    (cat as usize * 4 + kind as usize) * TraceName::ALL.len() + name as usize
}

#[inline]
fn zigzag(v: u64) -> u64 {
    (v << 1) ^ ((v as i64 >> 63) as u64)
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// A run of records from one shard, sorted by `(at_ps, seq)` and
/// encoded as the module docs lay out.
#[derive(Debug, Default, Clone)]
pub(crate) struct Run {
    /// The shard every record of the run carries.
    pub(crate) shard: u32,
    /// How many records the bytes hold.
    pub(crate) len: usize,
    /// Tag code → `(cat, kind, name)`.
    pub(crate) tags: Vec<Tag>,
    /// The encoded records.
    pub(crate) bytes: Vec<u8>,
}

impl Run {
    /// The records, decoded in run order.
    pub(crate) fn records(&self) -> Cursor<'_> {
        Cursor {
            run: self,
            pos: 0,
            left: self.len,
            at: 0,
            next_seq: 0,
        }
    }

    /// Check that the bytes hold exactly `len` well-formed records in
    /// `(at_ps, seq)` order, each tag in the table. A run read from a
    /// file must pass this before a [`crate::TraceDoc`] holds it.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut cursor = self.records();
        let mut prev = None;
        for i in 0..self.len {
            let r = cursor.next().ok_or_else(|| format!("record {i} is malformed"))?;
            let key = (r.at_ps, r.seq);
            if prev.is_some_and(|p| key < p) {
                return Err(format!("record {i}: out of merge order"));
            }
            prev = Some(key);
        }
        match self.bytes.len() - cursor.pos {
            0 => Ok(()),
            n => Err(format!("{n} bytes after the last record")),
        }
    }
}

/// Appends records to a [`Run`], each encoded against the one before.
#[derive(Debug, Default)]
pub(crate) struct RunWriter {
    run: Run,
    /// The last record's `at_ps` (0 before the first).
    last_at: u64,
    /// The `seq` that needs no seq field: the last record's plus one.
    next_seq: u64,
    /// Per [`tag_slot`], its code in `run.tags` plus one (0: unused).
    /// Allocated at the first record.
    codes: Vec<u16>,
}

impl RunWriter {
    /// An empty run of `shard`'s records; allocates nothing.
    pub(crate) fn new(shard: u32) -> Self {
        RunWriter {
            run: Run {
                shard,
                ..Run::default()
            },
            ..Self::default()
        }
    }

    /// The shard the run's records carry.
    #[inline]
    pub(crate) fn shard(&self) -> u32 {
        self.run.shard
    }

    /// Records appended so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.run.len
    }

    /// The last record's `at_ps` (0 when empty): a record stamped
    /// earlier would break the run's order.
    #[inline]
    pub(crate) fn last_at(&self) -> u64 {
        self.last_at
    }

    /// Append `r` (its `shard` is the run's). The caller keeps the run
    /// in `(at_ps, seq)` order; the encoding itself accepts any order.
    #[inline]
    pub(crate) fn push(&mut self, r: &TraceRecord) {
        let slot = tag_slot(r.cat, r.kind, r.name);
        let code = match self.codes.get(slot) {
            Some(&c) if c != 0 => c - 1,
            _ => self.new_code(slot, (r.cat, r.kind, r.name)),
        };
        let gap = r.seq.wrapping_sub(self.next_seq);
        let bytes = &mut self.run.bytes;
        put(bytes, zigzag(r.at_ps.wrapping_sub(self.last_at)));
        put(bytes, u64::from(code) << 1 | u64::from(gap != 0));
        put(bytes, u64::from(r.track));
        put(bytes, r.a);
        put(bytes, r.b);
        if gap != 0 {
            put(bytes, zigzag(gap));
        }
        self.run.len += 1;
        self.last_at = r.at_ps;
        self.next_seq = r.seq.wrapping_add(1);
    }

    /// Give `tag` the next code (allocating the slot table on first use).
    #[cold]
    #[inline(never)]
    fn new_code(&mut self, slot: usize, tag: Tag) -> u16 {
        if self.codes.is_empty() {
            self.codes = vec![0; TAG_SLOTS];
        }
        self.run.tags.push(tag);
        let code = self.run.tags.len() as u16;
        self.codes[slot] = code;
        code - 1
    }

    /// Hand over the run, leaving an empty one of the same shard.
    pub(crate) fn finish(&mut self) -> Run {
        self.last_at = 0;
        self.next_seq = 0;
        self.codes.fill(0);
        let empty = Run {
            shard: self.run.shard,
            ..Run::default()
        };
        std::mem::replace(&mut self.run, empty)
    }
}

/// Append `v` as a varint.
#[inline]
fn put(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

/// Decodes a [`Run`]'s records in order ([`Run::records`]). On bytes
/// that are no record (only a file can hold such) it ends early, which
/// [`Run::check`] reports.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    run: &'a Run,
    pos: usize,
    /// Records not yet decoded.
    left: usize,
    at: u64,
    next_seq: u64,
}

impl Cursor<'_> {
    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let bytes = &self.run.bytes;
        let first = *bytes.get(self.pos)?;
        self.pos += 1;
        if first < 0x80 {
            return Some(u64::from(first));
        }
        let mut v = u64::from(first & 0x7f);
        for shift in (7..64).step_by(7) {
            let byte = *bytes.get(self.pos)?;
            self.pos += 1;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && byte > 1 {
                return None;
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(v);
            }
        }
        None
    }

    /// The next record and its tag code (an index into the run's
    /// tag table).
    #[inline]
    pub(crate) fn next_coded(&mut self) -> Option<(usize, TraceRecord)> {
        if self.left == 0 {
            return None;
        }
        let next = self.read();
        self.left = if next.is_some() { self.left - 1 } else { 0 };
        next
    }

    #[inline]
    fn read(&mut self) -> Option<(usize, TraceRecord)> {
        let at = self.at.wrapping_add(unzigzag(self.varint()?));
        let tag = self.varint()?;
        let code = usize::try_from(tag >> 1).ok()?;
        let &(cat, kind, name) = self.run.tags.get(code)?;
        let track = u32::try_from(self.varint()?).ok()?;
        let a = self.varint()?;
        let b = self.varint()?;
        let seq = match tag & 1 {
            0 => self.next_seq,
            _ => self.next_seq.wrapping_add(unzigzag(self.varint()?)),
        };
        self.at = at;
        self.next_seq = seq.wrapping_add(1);
        let record = TraceRecord {
            at_ps: at,
            shard: self.run.shard,
            seq,
            cat,
            kind,
            name,
            track,
            a,
            b,
        };
        Some((code, record))
    }
}

impl Iterator for Cursor<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        self.next_coded().map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ps: u64, seq: u64, track: u32, a: u64, b: u64) -> TraceRecord {
        TraceRecord {
            at_ps,
            shard: 7,
            seq,
            cat: TraceCat::Dispatch,
            kind: TraceKind::Instant,
            name: TraceName::Event,
            track,
            a,
            b,
        }
    }

    #[test]
    fn an_event_record_takes_five_bytes() {
        let mut w = RunWriter::new(7);
        w.push(&rec(0, 0, 3, 1, 0));
        w.push(&rec(2_000, 1, 3, 1, 0));
        let run = w.finish();
        // 1 + 1 + 1 + 1 + 1, then 2 bytes of time (zigzag 4 000).
        assert_eq!(run.bytes.len(), 5 + 6);
        assert_eq!(run.tags, [(TraceCat::Dispatch, TraceKind::Instant, TraceName::Event)]);
        run.check().unwrap();
    }

    #[test]
    fn zigzag_round_trips_the_extremes() {
        for v in [0, 1, u64::MAX, 1 << 63, (1 << 63) - 1, 1 << 32] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(u64::MAX), 1, "a step of -1 is one small varint");
    }

    #[test]
    fn the_widest_record_round_trips() {
        let mut w = RunWriter::new(7);
        let big = rec(1 << 63, 1 << 63, u32::MAX, u64::MAX, u64::MAX);
        w.push(&big);
        let run = w.finish();
        // Ten bytes each for time, `a`, `b` and `seq`, five for
        // `track` and one for the tag.
        assert_eq!(run.bytes.len(), 46);
        assert_eq!(run.records().collect::<Vec<_>>(), [big]);
    }

    #[test]
    fn damaged_runs_fail_the_check() {
        let mut w = RunWriter::new(7);
        w.push(&rec(20, 0, 0, 0, 0));
        w.push(&rec(10, 1, 0, 0, 0));
        let backwards = w.finish();
        assert_eq!(backwards.check().unwrap_err(), "record 1: out of merge order");

        w.push(&rec(10, 0, 0, 0, 0));
        let mut run = w.finish();
        run.len = 2;
        assert_eq!(run.check().unwrap_err(), "record 1 is malformed");
        run.len = 1;
        run.bytes.push(0);
        assert_eq!(run.check().unwrap_err(), "1 bytes after the last record");
        run.bytes.pop();
        run.bytes[1] = 2; // tag code 1: the table has one entry
        assert_eq!(run.check().unwrap_err(), "record 0 is malformed");
        // A time varint past 64 bits (a tenth byte that continues, or
        // that holds more than bit 63), then a whole record's tag,
        // track, `a` and `b`.
        for time in [[0x80; 10], [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]] {
            let run = Run {
                shard: 0,
                len: 1,
                tags: run.tags.clone(),
                bytes: [&time[..], &[0, 0, 0, 0]].concat(),
            };
            assert_eq!(run.check().unwrap_err(), "record 0 is malformed");
        }
    }
}
