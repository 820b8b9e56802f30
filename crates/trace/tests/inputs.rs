//! `simtrace`'s three inputs under random and damaged data: a binary
//! trace (`binfmt::decode`), JSON text (`json::parse`) and a Chrome
//! export (`chrome::check_chrome_json`). Arbitrary bytes and byte
//! mutations of a valid encoding or export must each come back `Ok` or
//! `Err`, never as a panic, and every truncation must be an `Err`; a
//! valid trace round-trips exactly.

use std::ops::Range;

use bluedbm_check::{check, Source};
use bluedbm_trace::{binfmt, chrome, json, TraceCat, TraceConfig, TraceDoc, TraceKind, TraceName, TraceSink};

const NAMES: [TraceName; 6] = [
    TraceName::Flush,
    TraceName::Grant,
    TraceName::Park,
    TraceName::Submit,
    TraceName::Finish,
    TraceName::Move,
];

/// A random merged trace from `sinks` sinks (a count range) of up to
/// eight records each, which may drop at capacity. Spans open and close on one track, so the Chrome export of
/// a trace that dropped nothing is valid.
fn doc(s: &mut Source, sinks: Range<usize>) -> TraceDoc {
    let parts = s.vec(sinks, |s| {
        let mut sink = TraceSink::new(TraceConfig::on().with_capacity(s.range(1u32..64)), s.range(0u32..3));
        for _ in 0..s.range(0usize..8) {
            let cat = TraceCat::ALL[s.below(6) as usize];
            let name = NAMES[s.below(6) as usize];
            let (at, track, a) = (s.range(0u64..1 << 40), s.range(0u32..4), s.any_u64());
            match s.below(3) {
                0 => sink.at(at).instant(cat, name, track, a, s.any_u64()),
                1 => sink.at(at).counter(cat, name, track, a),
                _ => {
                    sink.at(at).span_begin(cat, name, track, a, 0);
                    sink.at(at + s.below(1000)).span_end(cat, name, track, a, 0);
                }
            }
        }
        sink.take()
    });
    TraceDoc::merge(parts)
}

/// `bytes` with one byte overwritten, at a drawn position.
fn mutate(s: &mut Source, mut bytes: Vec<u8>, alphabet: &[u8]) -> Vec<u8> {
    let at = s.below(bytes.len() as u64) as usize;
    bytes[at] = alphabet[s.below(alphabet.len() as u64) as usize];
    bytes
}

/// `export` run into a buffer.
fn bytes(export: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut out = Vec::new();
    export(&mut out).unwrap();
    out
}

#[test]
fn binary_traces_round_trip_and_damage_is_an_error() {
    let all_bytes: Vec<u8> = (0..=255).collect();
    check("binary_traces_round_trip_and_damage_is_an_error", 64, |s| {
        let doc = doc(s, 1..4);
        let encoded = bytes(|out| binfmt::write(&doc, out));
        let back = binfmt::decode(&encoded).expect("a valid encoding decodes");
        assert!(back.records().eq(doc.records()));
        assert_eq!(back.dropped(), doc.dropped());
        for end in 0..encoded.len() {
            assert!(binfmt::decode(&encoded[..end]).is_err(), "truncated at {end} decoded");
        }
        // One to four bytes overwritten, anywhere: in the header, a
        // run's tag table or its varint records.
        let mut damaged = encoded;
        for _ in 0..s.range(1usize..5) {
            damaged = mutate(s, damaged, &all_bytes);
        }
        if let Ok(back) = binfmt::decode(&damaged) {
            // Whatever decodes is a trace: it walks, folds and exports.
            let _ = (back.records().count(), back.digest_full(bluedbm_trace::ALL_CATEGORIES));
            let _ = bytes(|out| chrome::write_json(&back, out));
        }
    });
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    check("arbitrary_bytes_never_panic_the_decoder", 256, |s| {
        // Half the inputs get past the magic.
        let mut bytes = if s.bool() { binfmt::MAGIC.to_vec() } else { Vec::new() };
        bytes.extend(s.vec(0..200, |s| s.below(256) as u8));
        let _ = binfmt::decode(&bytes);
    });
}

/// The bytes JSON is made of, and a few it is not.
const JSON_BYTES: &[u8] = b"{}[],:\"\\/ -+.0123456789eEtrufalsn\n\tbx\x01";

#[test]
fn arbitrary_text_never_panics_the_json_reader() {
    check("arbitrary_text_never_panics_the_json_reader", 256, |s| {
        let text: Vec<u8> = s.vec(0..120, |s| JSON_BYTES[s.below(JSON_BYTES.len() as u64) as usize]);
        let _ = json::parse(&String::from_utf8_lossy(&text));
    });
}

#[test]
fn chrome_exports_validate_and_damage_is_an_error() {
    check("chrome_exports_validate_and_damage_is_an_error", 32, |s| {
        // One sink: checking every truncation is quadratic in the export.
        let doc = doc(s, 1..2);
        let export = String::from_utf8(bytes(|out| chrome::write_json(&doc, out))).unwrap();
        let report = chrome::check_chrome_json(&export);
        if doc.dropped() == 0 {
            let report = report.expect("a whole trace's export validates");
            let kinds = |kind| doc.records().filter(|r| r.kind == kind).count();
            assert_eq!(
                (report.spans, report.instants, report.counters),
                (kinds(TraceKind::SpanEnd), kinds(TraceKind::Instant), kinds(TraceKind::Counter))
            );
        }
        for end in 0..export.len() {
            assert!(chrome::check_chrome_json(&export[..end]).is_err(), "truncated at {end} validated");
        }
        let damaged = mutate(s, export.into_bytes(), JSON_BYTES);
        let _ = chrome::check_chrome_json(&String::from_utf8_lossy(&damaged));
    });
}

/// A shrunk input the chrome property above reported while it still
/// claimed every export valid: one span in a one-record sink, which
/// keeps the begin and drops the end. The check rejects the export as
/// unclosed: an error, as it must be, not a pass or a panic.
#[test]
fn a_span_cut_at_capacity_fails_the_check() {
    bluedbm_check::replay(&[0, 0, 1, 0, 0, 0, 0, 0, 2, 0], |s| {
        let doc = doc(s, 1..2);
        assert_eq!((doc.len(), doc.dropped()), (1, 1));
        let export = String::from_utf8(bytes(|out| chrome::write_json(&doc, out))).unwrap();
        let err = chrome::check_chrome_json(&export).unwrap_err();
        assert!(err.contains("unclosed span"), "{err}");
    });
}
