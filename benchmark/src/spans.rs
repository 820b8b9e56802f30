//! Host-clock spans recorded from the benchmark's side of each call into
//! a layer. Kept in memory, written out at exit; a layer's self time is
//! its span minus the child spans inside it.
//!
//! The plain pass runs with recording off: `enter`/`exit` still read the
//! clock (the workloads need the durations) but store nothing.

use std::time::Instant;

/// The benchmark's only wall-clock source.
pub fn now() -> Instant {
    // detlint::allow(no-wallclock): the benchmark measures host time by design; nothing read here reaches simulated time
    Instant::now()
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

/// Token returned by [`Spans::enter`]; hand it back to [`Spans::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<u32>,
}

pub struct Spans {
    record: bool,
    origin: Instant,
    rep: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(record: bool) -> Self {
        Spans {
            record,
            origin: now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept (the layers pass).
    pub fn recording(&self) -> bool {
        self.record
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = now();
        let index = self.record.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(index);
            index
        });
        Open { start, index }
    }

    /// Close a span; returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            self.spans[index as usize].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (end - open.start).as_secs_f64()
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let value = f();
        (value, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name for repetition `rep`, seconds, in first-
    /// seen order.
    pub fn self_times(&self, rep: u32) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.rep != rep {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            ));
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer");
        let inner = s.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_s = s.exit(inner);
        let outer_s = s.exit(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.005);
        let own = s.self_times(0);
        assert_eq!(own.len(), 2);
        let total: f64 = own.iter().map(|(_, t)| t).sum();
        assert!(
            (total - outer_s).abs() < 1e-3,
            "self times partition the root span"
        );
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn plain_pass_keeps_nothing() {
        let mut s = Spans::new(false);
        let ((), secs) = s.time("x", || ());
        assert!(secs >= 0.0);
        assert!(s.spans().is_empty());
    }
}
