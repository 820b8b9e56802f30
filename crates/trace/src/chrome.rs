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

fn ts_us(at_ps: u64) -> String {
    // Picoseconds → microseconds with full precision (1 ps = 1e-6 µs).
    format!("{}.{:06}", at_ps / 1_000_000, at_ps % 1_000_000)
}

/// Render a merged trace as Chrome `trace_event` JSON.
pub fn to_chrome_json(doc: &TraceDoc) -> String {
    let mut out = String::with_capacity(128 + doc.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

    // Metadata first: name every process and thread-track in use.
    let mut tracks: Vec<(u32, u32)> = doc.records().iter().map(|r| (pid_of(r.cat), tid_of(r))).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut pids: Vec<u32> = tracks.iter().map(|&(pid, _)| pid).collect();
    pids.dedup();

    let mut first = true;
    let mut push = |out: &mut String, event: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };

    for pid in pids {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                process_name(pid)
            ),
        );
    }
    for (pid, tid) in &tracks {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&thread_name(*pid, *tid))
            ),
        );
    }

    for r in doc.records() {
        let pid = pid_of(r.cat);
        let tid = tid_of(r);
        let ts = ts_us(r.at_ps);
        let name = escape(r.name);
        let cat = r.cat.label();
        let event = match r.kind {
            TraceKind::SpanBegin => format!(
                "{{\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"cat\":\"{cat}\",\
                 \"name\":\"{name}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                r.a, r.b
            ),
            TraceKind::SpanEnd => format!(
                "{{\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"cat\":\"{cat}\",\
                 \"name\":\"{name}\"}}"
            ),
            TraceKind::Instant => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
                 \"cat\":\"{cat}\",\"name\":\"{name}\",\"args\":{{\"a\":{},\"b\":{}}}}}",
                r.a, r.b
            ),
            TraceKind::Counter => format!(
                "{{\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"{name}\",\"args\":{{\"value\":{}}}}}",
                r.a
            ),
        };
        push(&mut out, event);
    }

    out.push_str("]}");
    out
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
}

/// Structurally validate Chrome `trace_event` JSON: a `traceEvents`
/// array whose members carry the fields their phase requires, with
/// every `B` span closed by an `E` on the same `(pid, tid)` track.
pub fn check_chrome_json(src: &str) -> Result<ChromeCheck, String> {
    let root = json::parse(src)?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("top level must be an object with a traceEvents array")?;

    let mut check = ChromeCheck {
        events: events.len(),
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

    fn sample() -> TraceDoc {
        let mut sink = TraceSink::new(TraceConfig::on(), 0);
        sink.at(1_000_000).span_begin(TraceCat::Mailbox, "window", 0, 8, 0);
        sink.at(2_500_000).span_end(TraceCat::Mailbox, "window", 0, 8, 0);
        sink.at(2_500_000).instant(TraceCat::Accel, "grant", 3, 7, 0);
        sink.at(3_000_000).counter(TraceCat::Accel, "busy", 3, 2);
        sink.at(3_000_000).instant(TraceCat::KvOp, "submit", 1, 42, 0);
        TraceDoc::merge(vec![sink.take()])
    }

    #[test]
    fn export_validates_and_counts() {
        let json = to_chrome_json(&sample());
        let check = check_chrome_json(&json).expect("valid chrome trace");
        // 3 tracks + 3 process metadata + 5 records.
        assert_eq!(check.spans, 1);
        assert_eq!(check.instants, 2);
        assert_eq!(check.counters, 1);
        assert!(check.events >= 5);
    }

    #[test]
    fn ts_is_fractional_microseconds() {
        assert_eq!(ts_us(1_000_000), "1.000000");
        assert_eq!(ts_us(1_234_567), "1.234567");
        assert_eq!(ts_us(999), "0.000999");
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
