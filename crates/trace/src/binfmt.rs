//! The binary on-disk trace format (`.bin`, consumed by `simtrace`):
//! a header, then each of the trace's sorted runs as the sink encoded
//! it, so nothing is re-encoded on write or decoded on read beyond the
//! check every run read from a file must pass.
//!
//! Layout (fixed-width integers little-endian):
//!
//! ```text
//! magic      8  b"BDBMTRC2"
//! dropped    u64
//! runs       u32 count, then per run:
//!            shard u32 | records u64
//!            | tags u16 count, then per tag: cat u8 | kind u8
//!              | u8 len + the name's UTF-8 label
//!            | u64 len + the run's record bytes
//! ```
//!
//! A run's record bytes are laid out in `src/run.rs`: per record, a
//! zigzag time delta, a tag code into the run's table, `track`, `a`,
//! `b` and, where it does not follow on, `seq`, each a LEB128 varint.
//! Names travel as their `TraceName::label`, so reordering `TraceName`
//! moves no byte. Version 1 (`BDBMTRC1`: one 46-byte record after
//! another) is not read.

use std::io::{self, Write};

use crate::doc::TraceDoc;
use crate::record::{TraceCat, TraceKind, TraceName};
use crate::run::Run;

/// File magic: format version 2.
pub const MAGIC: &[u8; 8] = b"BDBMTRC2";

/// The magic of format version 1, named when a file carries it.
const MAGIC_V1: &[u8; 8] = b"BDBMTRC1";

/// Write a trace: the header, then each run's bytes as they are held.
pub fn write(doc: &TraceDoc, out: &mut impl Write) -> io::Result<()> {
    out.write_all(MAGIC)?;
    out.write_all(&doc.dropped().to_le_bytes())?;
    out.write_all(&(doc.runs().len() as u32).to_le_bytes())?;
    for run in doc.runs() {
        out.write_all(&run.shard.to_le_bytes())?;
        out.write_all(&(run.len as u64).to_le_bytes())?;
        out.write_all(&(run.tags.len() as u16).to_le_bytes())?;
        for &(cat, kind, name) in &run.tags {
            let label = name.label().as_bytes();
            out.write_all(&[cat as u8, kind as u8, label.len() as u8])?;
            out.write_all(label)?;
        }
        out.write_all(&(run.bytes.len() as u64).to_le_bytes())?;
        out.write_all(&run.bytes)?;
    }
    Ok(())
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64` that counts something held in memory.
    fn len(&mut self) -> Result<usize, String> {
        let at = self.pos;
        let n = self.array().map(u64::from_le_bytes)?;
        usize::try_from(n).map_err(|_| format!("length {n} at byte {at} does not fit in memory"))
    }
}

/// Decode a trace file, checking every run's records. A
/// tag whose category or kind is unknown, or whose label is not some
/// `TraceName::label`, is an error; so is a version-1 file.
pub fn decode(bytes: &[u8]) -> Result<TraceDoc, String> {
    let mut rd = Reader { bytes, pos: 0 };
    match rd.take(8)? {
        magic if magic == MAGIC => {}
        magic if magic == MAGIC_V1 => {
            return Err(
                "trace format version 1 (BDBMTRC1) is no longer read; this simtrace reads version 2 \
                 (BDBMTRC2): capture the trace again"
                    .to_string(),
            )
        }
        _ => return Err("not a BlueDBM trace file (bad magic; expected BDBMTRC2)".to_string()),
    }
    let dropped = rd.array().map(u64::from_le_bytes)?;
    // Counts are the file's claims: nothing is reserved for them, so a
    // claim the bytes cannot back fails on the missing bytes.
    let run_count = rd.u32()?;
    let mut runs = Vec::new();
    for k in 0..run_count {
        let shard = rd.u32()?;
        let len = rd.len()?;
        let mut tags = Vec::new();
        for _ in 0..rd.u16()? {
            let (cat, kind) = (rd.u8()?, rd.u8()?);
            let cat = TraceCat::from_u8(cat).ok_or_else(|| format!("run {k}: bad category {cat}"))?;
            let kind = TraceKind::from_u8(kind).ok_or_else(|| format!("run {k}: bad kind {kind}"))?;
            let label_len = usize::from(rd.u8()?);
            let raw = rd.take(label_len)?;
            let name = std::str::from_utf8(raw)
                .ok()
                .and_then(TraceName::from_label)
                .ok_or_else(|| format!("run {k}: unknown name {:?}", String::from_utf8_lossy(raw)))?;
            tags.push((cat, kind, name));
        }
        let byte_len = rd.len()?;
        let run = Run {
            shard,
            len,
            tags,
            bytes: rd.take(byte_len)?.to_vec(),
        };
        // `TraceDoc` promises well-formed runs in merge order; a file
        // cannot be trusted to keep either.
        run.check().map_err(|e| format!("run {k}: {e}"))?;
        runs.push(run);
    }
    if rd.pos != bytes.len() {
        return Err(format!("{} trailing bytes after the last run", bytes.len() - rd.pos));
    }
    Ok(TraceDoc::from_runs(runs, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{fnv_bytes, TraceRecord, FNV_OFFSET};
    use crate::run::RunWriter;
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

    fn encode(doc: &TraceDoc) -> Vec<u8> {
        let mut out = Vec::new();
        write(doc, &mut out).unwrap();
        out
    }

    /// Where the first run's first tag label starts: after the magic,
    /// `dropped`, the run count, the run's shard, its record count, its
    /// tag count and the tag's cat, kind and label length.
    const FIRST_LABEL: usize = 8 + 8 + 4 + 4 + 8 + 2 + 3;

    #[test]
    fn encoding_is_pinned() {
        // Taken when format 2 was introduced (format 1 wrote 341 bytes).
        let bytes = encode(&sample());
        assert_eq!(bytes.len(), 167);
        assert_eq!(fnv_bytes(FNV_OFFSET, &bytes), 0xad08_ee1b_65ef_138b);
    }

    #[test]
    fn unknown_name_is_an_error() {
        let mut bytes = encode(&sample());
        let at = FIRST_LABEL;
        assert_eq!(&bytes[at..at + 6], b"submit");
        bytes[at..at + 6].copy_from_slice(b"sublet");
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("run 0: unknown name \"sublet\""), "{err}");
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
        assert_eq!(encode(&back), bytes, "a decoded trace writes the bytes it was read from");
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let doc = sample();
        let bytes = encode(&doc);
        assert!(decode(&bytes[..4]).is_err(), "truncated magic");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode(&bad).unwrap_err().contains("bad magic"));
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 3);
        assert!(decode(&short).is_err(), "truncated run");
        let mut long = bytes;
        long.push(0);
        assert!(decode(&long).unwrap_err().contains("1 trailing bytes"));
    }

    #[test]
    fn a_version_1_file_is_named_and_refused() {
        let mut bytes = encode(&sample());
        bytes[..8].copy_from_slice(MAGIC_V1);
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("version 1 (BDBMTRC1)"), "{err}");
    }

    #[test]
    fn huge_run_count_is_an_error_not_an_allocation() {
        // 20 bytes: magic, `dropped` and a run count no file this short
        // can back.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.contains("truncated trace file at byte 20"), "{err}");
    }

    #[test]
    fn records_out_of_merge_order_are_rejected() {
        let rec = |at_ps, seq| TraceRecord {
            at_ps,
            shard: 0,
            seq,
            cat: TraceCat::Gc,
            kind: TraceKind::Instant,
            name: TraceName::Move,
            track: 0,
            a: 0,
            b: 0,
        };
        let mut w = RunWriter::new(0);
        w.push(&rec(20, 0));
        w.push(&rec(10, 1));
        let bytes = encode(&TraceDoc::from_runs(vec![w.finish()], 0));
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err, "run 0: record 1: out of merge order");
    }

    #[test]
    fn retired_category_byte_is_rejected() {
        // Discriminant 2 is retired (see `TraceCat`); a file that still
        // carries it must decode to an error, not a panic or a
        // mislabeled record.
        let mut bytes = encode(&sample());
        bytes[FIRST_LABEL - 3] = 2;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err, "run 0: bad category 2");
    }
}
