//! `simtrace` — convert and validate BlueDBM simulator traces.
//!
//! ```text
//! simtrace <trace.bin>                     summarize (records, categories, digests)
//! simtrace <trace.bin> --chrome out.json   export Chrome trace_event JSON (Perfetto)
//! simtrace <trace.bin> --csv out.csv       export CSV
//! simtrace --check <trace.json>            validate exported Chrome JSON
//! ```
//!
//! The input is a format-2 binary trace (`BDBMTRC2`, see
//! `bluedbm_trace::binfmt`); a format-1 file is refused with a message
//! naming its version. Exports stream to their files through a buffer;
//! `--check` validates a Chrome export.
//! Flags compose: one input may be exported to both formats in one run.
//! Exit status is non-zero on any parse or validation failure, and on a
//! trace that dropped records at capacity — a binary trace's summary and
//! exports are still written, and a Chrome file's check still printed,
//! but neither can stand for a whole run.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use bluedbm_trace::{binfmt, chrome, TraceCat, TraceDoc, ALL_CATEGORIES, STABLE_CATEGORIES};

fn usage() -> String {
    "usage: simtrace <trace.bin> [--chrome OUT.json] [--csv OUT.csv]\n\
     \x20      simtrace --check <trace.json>"
        .to_string()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(usage());
    }

    if args[0] == "--check" {
        let path = args.get(1).ok_or_else(usage)?;
        if args.len() > 2 {
            return Err(usage());
        }
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let check = chrome::check_chrome_json(&src).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: OK — {} events ({} spans, {} instants, {} counters), {} dropped",
            check.events, check.spans, check.instants, check.counters, check.dropped
        );
        return dropped_is_loud(check.dropped);
    }

    let input = &args[0];
    let mut chrome_out: Option<&str> = None;
    let mut csv_out: Option<&str> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome" => {
                chrome_out = Some(args.get(i + 1).ok_or_else(usage)?);
                i += 2;
            }
            "--csv" => {
                csv_out = Some(args.get(i + 1).ok_or_else(usage)?);
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }

    let bytes = std::fs::read(input).map_err(|e| format!("{input}: {e}"))?;
    let doc = binfmt::decode(&bytes).map_err(|e| format!("{input}: {e}"))?;
    drop(bytes);
    summarize(input, &doc);

    if let Some(path) = chrome_out {
        write_file(path, |out| chrome::write_json(&doc, out))?;
        println!("wrote {path}: {} records", doc.len());
    }
    if let Some(path) = csv_out {
        write_file(path, |out| doc.write_csv(out))?;
        println!("wrote {path}: {} rows", doc.len());
    }
    dropped_is_loud(doc.dropped())
}

/// Create `path` and stream `export` into it through a buffer.
fn write_file(path: &str, export: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BufWriter::new(file);
    export(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{path}: {e}"))
}

/// A trace that lost records at capacity fails the run.
fn dropped_is_loud(dropped: u64) -> Result<(), String> {
    if dropped > 0 {
        return Err(format!(
            "{dropped} records dropped at capacity: digests are not comparable"
        ));
    }
    Ok(())
}

fn summarize(input: &str, doc: &TraceDoc) {
    println!("{input}: {} records ({} dropped at capacity)", doc.len(), doc.dropped());
    for cat in TraceCat::ALL {
        let n = doc.count(cat);
        if n > 0 {
            println!("  {:>8}: {n}", cat.label());
        }
    }
    let mut walk = doc.records();
    if let Some(first) = walk.next() {
        let last = walk.last().unwrap_or(first);
        println!(
            "  span: {} ps .. {} ps ({:.3} ms simulated)",
            first.at_ps,
            last.at_ps,
            (last.at_ps - first.at_ps) as f64 / 1e9
        );
    }
    println!(
        "  digest: full {:#018x}  stable {:#018x}",
        doc.digest_full(ALL_CATEGORIES),
        doc.digest_stable(STABLE_CATEGORIES)
    );
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("simtrace: {msg}");
            ExitCode::FAILURE
        }
    }
}
