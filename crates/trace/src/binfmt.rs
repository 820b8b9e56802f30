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
//! Names are interned into a table so the fixed-size record body stays
//! fixed-size; the table is tiny (one entry per distinct `&'static str`
//! used at an instrumentation site).

use crate::doc::TraceDoc;
use crate::record::{TraceCat, TraceKind, TraceRecord};

/// File magic: format version 1.
pub const MAGIC: &[u8; 8] = b"BDBMTRC1";

/// Encode a merged trace.
pub fn encode(doc: &TraceDoc) -> Vec<u8> {
    // Interning table: linear scan is fine — instrumentation sites use
    // a few dozen distinct names at most (and a Vec keeps the table in
    // first-use order, deterministically).
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = Vec::with_capacity(64 + doc.len() * 46);
    out.extend_from_slice(MAGIC);

    let mut name_idx = Vec::with_capacity(doc.len());
    for r in doc.records() {
        let idx = match names.iter().position(|n| *n == r.name) {
            Some(i) => i,
            None => {
                names.push(r.name);
                names.len() - 1
            }
        };
        name_idx.push(idx as u32);
    }

    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in &names {
        let bytes = name.as_bytes();
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    out.extend_from_slice(&doc.dropped().to_le_bytes());
    out.extend_from_slice(&(doc.len() as u64).to_le_bytes());
    for (r, idx) in doc.records().iter().zip(name_idx) {
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

/// Decode a trace file.
///
/// Record names are interned by leaking one allocation per *distinct*
/// name (`TraceRecord.name` is `&'static str` for the capture hot
/// path's sake); the decoder is meant for the short-lived `simtrace`
/// CLI and tests, where a few dozen leaked strings are irrelevant.
pub fn decode(bytes: &[u8]) -> Result<TraceDoc, String> {
    let mut rd = Reader { bytes, pos: 0 };
    if rd.take(8)? != MAGIC {
        return Err("not a BlueDBM trace file (bad magic; expected BDBMTRC1)".to_string());
    }

    // The count is the file's claim: reserve no more than the bytes left
    // can hold (each name costs at least its u16 length).
    let name_count = rd.u32()? as usize;
    let room = (bytes.len() - rd.pos) / 2;
    let mut names: Vec<&'static str> = Vec::with_capacity(name_count.min(room));
    for _ in 0..name_count {
        let len = rd.u16()? as usize;
        let raw = rd.take(len)?;
        let s = std::str::from_utf8(raw).map_err(|e| format!("bad name in string table: {e}"))?;
        names.push(Box::leak(s.to_owned().into_boxed_str()));
    }

    let dropped = rd.u64()?;
    let count = rd.u64()? as usize;
    let mut records: Vec<TraceRecord> = Vec::with_capacity(count.min(1 << 24));
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
    use crate::sink::TraceSink;
    use crate::{TraceConfig, ALL_CATEGORIES};

    /// One encoded record (see the module docs' layout).
    const RECORD_BYTES: usize = 46;

    fn sample() -> TraceDoc {
        let mut sink = TraceSink::new(TraceConfig::on(), 1);
        sink.at(10).instant(TraceCat::KvOp, "submit", 3, 1, 2);
        sink.at(20).span_begin(TraceCat::Mailbox, "window", 0, 5, 0);
        sink.at(30).span_end(TraceCat::Mailbox, "window", 0, 5, 0);
        sink.at(30).counter(TraceCat::Accel, "busy", 2, 4);
        TraceDoc::merge(vec![sink.take()])
    }

    #[test]
    fn roundtrip_preserves_records_and_digest() {
        let doc = sample();
        let bytes = encode(&doc);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back.records(), doc.records());
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
