//! Chrome `trace_event` JSON export (loadable in Perfetto or
//! `chrome://tracing`) and the structural validator behind
//! `simtrace --check`.
//!
//! Track layout: three processes, one thread-track per entity.
//!
//! | pid | process       | tid                | categories |
//! |-----|---------------|--------------------|------------|
//! | 1   | `engine`      | shard              | `dispatch`, `mailbox` |
//! | 2   | `nodes`       | node (`track`)     | `accel`, `bufpool`, `gc` |
//! | 3   | `kv`          | tenant (`track`)   | `kvop` |
//!
//! Timestamps are microseconds (the `trace_event` unit) derived from
//! the picosecond simulated clock, so one simulated microsecond renders
//! as one timeline microsecond.
//!
//! The top-level `"otherData"` object carries the trace's `dropped`
//! count, so a file cut short at sink capacity says so on its own and
//! `simtrace --check` can fail on it.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Write};

use crate::doc::TraceDoc;
use crate::json::{self, escape, Json};
use crate::record::{TraceCat, TraceKind, TraceRecord};

const PID_ENGINE: u32 = 1;
const PID_NODES: u32 = 2;
const PID_KV: u32 = 3;

fn pid_of(cat: TraceCat) -> u32 {
    match cat {
        TraceCat::Dispatch | TraceCat::Mailbox => PID_ENGINE,
        TraceCat::Accel | TraceCat::BufPool | TraceCat::Gc => PID_NODES,
        TraceCat::KvOp => PID_KV,
    }
}

fn tid_of(r: &TraceRecord) -> u32 {
    match pid_of(r.cat) {
        PID_ENGINE => r.shard,
        _ => r.track,
    }
}

fn process_name(pid: u32) -> &'static str {
    match pid {
        PID_ENGINE => "engine",
        PID_NODES => "nodes",
        _ => "kv",
    }
}

fn thread_name(pid: u32, tid: u32) -> String {
    match pid {
        PID_ENGINE => {
            if tid == u32::MAX {
                "driver".to_string()
            } else {
                format!("shard {tid}")
            }
        }
        PID_NODES => format!("node {tid}"),
        _ => format!("tenant {tid}"),
    }
}

/// A picosecond instant as fractional microseconds, at full precision
/// (1 ps = 1e-6 µs).
struct Us(u64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

/// Write a trace as Chrome `trace_event` JSON, its records in merge
/// order, event by event as the merge walks.
pub fn write_json(doc: &TraceDoc, out: &mut impl Write) -> io::Result<()> {
    write!(
        out,
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{}}},\"traceEvents\":[",
        doc.dropped()
    )?;

    // Metadata first: name every process and thread-track in use.
    let tracks: BTreeSet<(u32, u32)> = doc.unordered().map(|r| (pid_of(r.cat), tid_of(&r))).collect();
    let mut pids: Vec<u32> = tracks.iter().map(|&(pid, _)| pid).collect();
    pids.dedup();

    // The separator before each event: none before the first.
    let mut sep = "";
    for pid in pids {
        write!(
            out,
            "{sep}{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            process_name(pid)
        )?;
        sep = ",";
    }
    for (pid, tid) in &tracks {
        write!(
            out,
            "{sep}{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&thread_name(*pid, *tid))
        )?;
        sep = ",";
    }

    for r in doc.records() {
        let pid = pid_of(r.cat);
        let tid = tid_of(&r);
        let ts = Us(r.at_ps);
        let name = r.name.label();
        let cat = r.cat.label();
        match r.kind {
            TraceKind::SpanBegin => write!(
                out,
                "{sep}{{\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"cat\":\"{cat}\",\
                 \"name\":\"{name}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                r.a, r.b
            ),
            TraceKind::SpanEnd => write!(
                out,
                "{sep}{{\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"cat\":\"{cat}\",\
                 \"name\":\"{name}\"}}"
            ),
            TraceKind::Instant => write!(
                out,
                "{sep}{{\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
                 \"cat\":\"{cat}\",\"name\":\"{name}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                r.a, r.b
            ),
            TraceKind::Counter => write!(
                out,
                "{sep}{{\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"{name}\",\"args\":{{\"value\":{}}}}}",
                r.a
            ),
        }?;
        sep = ",";
    }

    out.write_all(b"]}")
}

/// What `--check` verified about a Chrome trace file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Total events (metadata included).
    pub events: usize,
    /// Matched begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Records the trace dropped at sink capacity (`otherData.dropped`;
    /// 0 when absent).
    pub dropped: u64,
}

/// Structurally validate Chrome `trace_event` JSON: a `traceEvents`
/// array whose members carry the fields their phase requires, with
/// every `B` span closed by an `E` on the same `(pid, tid)` track, and
/// an `otherData.dropped`, if present, that is a count. A nonzero count
/// is reported, not rejected: the file is well formed, only incomplete.
pub fn check_chrome_json(src: &str) -> Result<ChromeCheck, String> {
    let root = json::parse(src)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("top level must be an object with a traceEvents array")?;

    let dropped = match root.get("otherData").and_then(|o| o.get("dropped")) {
        None => 0,
        Some(d) => d
            .as_f64()
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
            .ok_or("otherData.dropped must be a non-negative integer")? as u64,
    };
    let mut check = ChromeCheck {
        events: events.len(),
        dropped,
        ..ChromeCheck::default()
    };
    // Open-span depth per (pid, tid); linear scan over a Vec keeps the
    // validator deterministic and dependency-free.
    let mut depth: Vec<((i64, i64), usize)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let pid = ev.get("pid").and_then(Json::as_f64);
        let tid = ev.get("tid").and_then(Json::as_f64);
        let numeric = |v: Option<f64>, what: &str| {
            v.filter(|x| x.is_finite())
                .map(|x| x as i64)
                .ok_or_else(|| format!("event {i}: missing or non-numeric \"{what}\""))
        };
        match ph {
            "M" => {
                // Metadata: needs a name and a pid.
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without \"name\""))?;
                numeric(pid, "pid")?;
            }
            "B" | "E" | "i" | "C" => {
                let pid = numeric(pid, "pid")?;
                let tid = numeric(tid, "tid")?;
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_f64)
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| format!("event {i}: missing or negative \"ts\""))?;
                let _ = ts;
                if ph != "E" {
                    ev.get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("event {i}: \"{ph}\" without \"name\""))?;
                }
                let key = (pid, tid);
                match ph {
                    "B" => match depth.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, d)) => *d += 1,
                        None => depth.push((key, 1)),
                    },
                    "E" => {
                        let slot = depth
                            .iter_mut()
                            .find(|(k, d)| *k == key && *d > 0)
                            .ok_or_else(|| {
                                format!("event {i}: \"E\" with no open span on track {key:?}")
                            })?;
                        slot.1 -= 1;
                        check.spans += 1;
                    }
                    "i" => check.instants += 1,
                    _ => check.counters += 1,
                }
            }
            other => return Err(format!("event {i}: unknown phase \"{other}\"")),
        }
    }

    if let Some((key, d)) = depth.iter().find(|(_, d)| *d > 0) {
        return Err(format!("{d} unclosed span(s) on track {key:?}"));
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::TraceConfig;

    fn export(doc: &TraceDoc) -> String {
        let mut out = Vec::new();
        write_json(doc, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn sample() -> TraceDoc {
        use crate::record::TraceName::*;
        let mut sink = TraceSink::new(TraceConfig::on(), 0);
        sink.at(1_000_000)
            .span_begin(TraceCat::Mailbox, Flush, 0, 8, 0);
        sink.at(2_500_000)
            .span_end(TraceCat::Mailbox, Flush, 0, 8, 0);
        sink.at(2_500_000).instant(TraceCat::Accel, Grant, 3, 7, 0);
        sink.at(3_000_000).counter(TraceCat::Accel, Park, 3, 2);
        sink.at(3_000_000).instant(TraceCat::KvOp, Submit, 1, 42, 0);
        TraceDoc::merge(vec![sink.take()])
    }

    #[test]
    fn export_validates_and_counts() {
        let json = export(&sample());
        let check = check_chrome_json(&json).expect("valid chrome trace");
        // 3 tracks + 3 process metadata + 5 records.
        assert_eq!(check.spans, 1);
        assert_eq!(check.instants, 2);
        assert_eq!(check.counters, 1);
        assert!(check.events >= 5);
        assert_eq!(check.dropped, 0);
    }

    #[test]
    fn dropped_count_travels_in_other_data() {
        let mut sink = TraceSink::new(TraceConfig::on().with_capacity(1), 0);
        for t in 0..3 {
            sink.at(t)
                .instant(TraceCat::KvOp, crate::record::TraceName::Submit, 0, t, 0);
        }
        let json = export(&TraceDoc::merge(vec![sink.take()]));
        assert!(json.contains("\"otherData\":{\"dropped\":2}"), "{json}");
        assert_eq!(check_chrome_json(&json).unwrap().dropped, 2);
        let bad = r#"{"otherData":{"dropped":-1},"traceEvents":[]}"#;
        assert!(check_chrome_json(bad).unwrap_err().contains("dropped"));
    }

    #[test]
    fn ts_is_fractional_microseconds() {
        assert_eq!(Us(1_000_000).to_string(), "1.000000");
        assert_eq!(Us(1_234_567).to_string(), "1.234567");
        assert_eq!(Us(999).to_string(), "0.000999");
    }

    #[test]
    fn unbalanced_span_is_rejected() {
        let json = r#"{"traceEvents":[
            {"ph":"B","ts":1,"pid":1,"tid":0,"name":"w"}
        ]}"#;
        assert!(check_chrome_json(json).unwrap_err().contains("unclosed"));
        let json = r#"{"traceEvents":[
            {"ph":"E","ts":1,"pid":1,"tid":0}
        ]}"#;
        assert!(check_chrome_json(json).unwrap_err().contains("no open span"));
    }

    #[test]
    fn missing_fields_are_rejected() {
        assert!(check_chrome_json(r#"{"traceEvents":[{"ts":1}]}"#).is_err());
        assert!(check_chrome_json(r#"{"traceEvents":[{"ph":"i","pid":1,"tid":0,"name":"x"}]}"#)
            .is_err());
        assert!(check_chrome_json(r#"{"other":[]}"#).is_err());
    }
}
