//! The binary on-disk trace format (`.bin`, consumed by `simtrace`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8  b"BDBMTRC1"
//! names      u32 count, then per name: u16 len + UTF-8 bytes
//! dropped    u64
//! records    u64 count, then per record:
//!            at_ps u64 | shard u32 | seq u64 | cat u8 | kind u8
//!            | name_idx u32 | track u32 | a u64 | b u64
//! ```
//!
//! Names are interned into a table of `TraceName::label`s, in first-use
//! order; the table is tiny (one entry per distinct name in the trace).

use crate::doc::TraceDoc;
use crate::record::{TraceCat, TraceKind, TraceName, TraceRecord};

/// File magic: format version 1.
pub const MAGIC: &[u8; 8] = b"BDBMTRC1";

/// One encoded record (see the module docs' layout).
const RECORD_BYTES: usize = 46;

/// Encode a trace, its records in merge order.
pub fn encode(doc: &TraceDoc) -> Vec<u8> {
    // The table lists names in first-use order; `slot` maps a name to
    // its table index.
    let mut names: Vec<TraceName> = Vec::new();
    let mut slot = [u32::MAX; TraceName::ALL.len()];
    for r in doc.records() {
        let s = &mut slot[r.name as usize];
        if *s == u32::MAX {
            *s = names.len() as u32;
            names.push(r.name);
        }
    }

    let mut out = Vec::with_capacity(64 + doc.len() * RECORD_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in &names {
        let bytes = name.label().as_bytes();
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    out.extend_from_slice(&doc.dropped().to_le_bytes());
    out.extend_from_slice(&(doc.len() as u64).to_le_bytes());
    for r in doc.records() {
        let idx = slot[r.name as usize];
        out.extend_from_slice(&r.at_ps.to_le_bytes());
        out.extend_from_slice(&r.shard.to_le_bytes());
        out.extend_from_slice(&r.seq.to_le_bytes());
        out.push(r.cat as u8);
        out.push(r.kind as u8);
        out.extend_from_slice(&idx.to_le_bytes());
        out.extend_from_slice(&r.track.to_le_bytes());
        out.extend_from_slice(&r.a.to_le_bytes());
        out.extend_from_slice(&r.b.to_le_bytes());
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated trace file at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode a trace file. A string-table entry that is not some
/// `TraceName::label` is an error.
pub fn decode(bytes: &[u8]) -> Result<TraceDoc, String> {
    let mut rd = Reader { bytes, pos: 0 };
    if rd.take(8)? != MAGIC {
        return Err("not a BlueDBM trace file (bad magic; expected BDBMTRC1)".to_string());
    }

    // The count is the file's claim: reserve no more than the bytes left
    // can hold (each name costs at least its u16 length).
    let name_count = rd.u32()? as usize;
    let room = (bytes.len() - rd.pos) / 2;
    let mut names: Vec<TraceName> = Vec::with_capacity(name_count.min(room));
    for _ in 0..name_count {
        let len = rd.u16()? as usize;
        let raw = rd.take(len)?;
        let name = std::str::from_utf8(raw)
            .ok()
            .and_then(TraceName::from_label)
            .ok_or_else(|| {
                format!(
                    "unknown name {:?} in string table",
                    String::from_utf8_lossy(raw)
                )
            })?;
        names.push(name);
    }

    let dropped = rd.u64()?;
    let count = rd.u64()? as usize;
    // As for the names: reserve what the bytes left can hold.
    let room = (bytes.len() - rd.pos) / RECORD_BYTES;
    let mut records: Vec<TraceRecord> = Vec::with_capacity(count.min(room));
    for i in 0..count {
        let at_ps = rd.u64()?;
        let shard = rd.u32()?;
        let seq = rd.u64()?;
        let cat = rd.u8()?;
        let kind = rd.u8()?;
        let name_idx = rd.u32()? as usize;
        let track = rd.u32()?;
        let a = rd.u64()?;
        let b = rd.u64()?;
        let cat = TraceCat::from_u8(cat).ok_or_else(|| format!("record {i}: bad category {cat}"))?;
        let kind = TraceKind::from_u8(kind).ok_or_else(|| format!("record {i}: bad kind {kind}"))?;
        let name = *names
            .get(name_idx)
            .ok_or_else(|| format!("record {i}: name index {name_idx} out of table"))?;
        // `TraceDoc` promises merge order; a file cannot be trusted to keep it.
        let prev = records.last().map(|p| (p.at_ps, p.shard, p.seq));
        if prev.is_some_and(|p| (at_ps, shard, seq) < p) {
            return Err(format!("record {i}: out of merge order"));
        }
        records.push(TraceRecord {
            at_ps,
            shard,
            seq,
            cat,
            kind,
            name,
            track,
            a,
            b,
        });
    }
    if rd.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the last record",
            bytes.len() - rd.pos
        ));
    }
    Ok(TraceDoc::from_sorted(records, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{fnv_bytes, FNV_OFFSET};
    use crate::sink::TraceSink;
    use crate::{TraceConfig, ALL_CATEGORIES, DRIVER_SHARD};

    /// Two parts: an engine shard's, and a driver's that stamps a record
    /// in the past and drops one at capacity.
    fn sample() -> TraceDoc {
        use TraceName::*;
        let mut sink = TraceSink::new(TraceConfig::on(), 1);
        sink.at(10).instant(TraceCat::KvOp, Submit, 3, 1, 2);
        sink.at(20).span_begin(TraceCat::Mailbox, Flush, 0, 5, 0);
        sink.at(30).span_end(TraceCat::Mailbox, Flush, 0, 5, 0);
        sink.at(30).counter(TraceCat::Accel, Grant, 2, 4);
        let mut driver = TraceSink::new(TraceConfig::on().with_capacity(2), DRIVER_SHARD);
        driver.at(30).instant(TraceCat::KvOp, Start, 3, 1, 0);
        driver.at(25).instant(TraceCat::KvOp, Finish, 3, 1, 4);
        driver.at(40).instant(TraceCat::KvOp, Submit, 3, 2, 0);
        TraceDoc::merge(vec![sink.take(), driver.take()])
    }

    #[test]
    fn encoding_is_pinned() {
        // Taken on the parent of the `TraceName` change, where names were
        // strings: the format did not move by a byte.
        let bytes = encode(&sample());
        assert_eq!(bytes.len(), 341);
        assert_eq!(fnv_bytes(FNV_OFFSET, &bytes), 0xe507_1214_4894_dd1b);
    }

    #[test]
    fn unknown_name_is_an_error() {
        let mut bytes = encode(&sample());
        // The first table entry, "submit", follows the magic, the name
        // count and its own u16 length.
        let at = 8 + 4 + 2;
        assert_eq!(&bytes[at..at + 6], b"submit");
        bytes[at..at + 6].copy_from_slice(b"sublet");
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("unknown name \"sublet\""), "{err}");
        bytes[at] = 0xff;
        assert!(decode(&bytes).unwrap_err().contains("unknown name"));
    }

    #[test]
    fn roundtrip_preserves_records_and_digest() {
        let doc = sample();
        let bytes = encode(&doc);
        let back = decode(&bytes).expect("decode");
        assert!(back.records().eq(doc.records()));
        assert_eq!(back.dropped(), doc.dropped());
        assert_eq!(back.digest_full(ALL_CATEGORIES), doc.digest_full(ALL_CATEGORIES));
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let doc = sample();
        let bytes = encode(&doc);
        assert!(decode(&bytes[..4]).is_err(), "truncated magic");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode(&bad).is_err(), "bad magic");
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 3);
        assert!(decode(&short).is_err(), "truncated record");
        let mut long = bytes;
        long.push(0);
        assert!(decode(&long).is_err(), "trailing garbage");
    }

    #[test]
    fn huge_name_count_is_an_error_not_an_allocation() {
        // 12 bytes: magic plus a name count no file this short can back.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("truncated trace file at byte 12"), "{err}");
    }

    #[test]
    fn records_out_of_merge_order_are_rejected() {
        let doc = sample();
        let mut bytes = encode(&doc);
        let first_record = bytes.len() - doc.len() * RECORD_BYTES;
        let (head, tail) = bytes[first_record..].split_at_mut(RECORD_BYTES);
        head.swap_with_slice(&mut tail[..RECORD_BYTES]);
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("record 1: out of merge order"), "{err}");
    }

    #[test]
    fn retired_category_byte_is_rejected() {
        // Discriminant 2 is retired (see `TraceCat`); a file that still
        // carries it must decode to an error, not a panic or a
        // mislabeled record.
        const CAT_OFFSET: usize = 8 + 4 + 8; // after at_ps, shard, seq
        let doc = sample();
        let mut bytes = encode(&doc);
        let first_record = bytes.len() - doc.len() * RECORD_BYTES;
        bytes[first_record + CAT_OFFSET] = 2;
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("record 0: bad category 2"), "{err}");
    }
}
