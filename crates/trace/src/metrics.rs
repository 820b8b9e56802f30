//! The unified metrics registry: a labeled snapshot tree absorbing the
//! per-subsystem stat structs (`RouterStats`, `SchedStats`,
//! `AgentStats`, `ShardStats`, `TenantStats`, …) into one JSON-ready
//! document.
//!
//! Entries keep insertion order in a `Vec` — no hash containers — so a
//! snapshot serializes identically on every run and engine.

use serde::Serialize;

use crate::json::escape;

/// A metric leaf value.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum MetricValue {
    /// An integer counter / gauge.
    Int(u64),
    /// A derived ratio or rate (reporting only — never fed back into
    /// simulated state).
    Float(f64),
    /// A label.
    Str(String),
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::Int(v)
    }
}

impl From<u32> for MetricValue {
    fn from(v: u32) -> Self {
        MetricValue::Int(u64::from(v))
    }
}

impl From<usize> for MetricValue {
    fn from(v: usize) -> Self {
        MetricValue::Int(v as u64)
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::Float(v)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Str(v.to_string())
    }
}

impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Str(v)
    }
}

impl MetricValue {
    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            MetricValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            MetricValue::Int(v) => out.push_str(&v.to_string()),
            MetricValue::Float(v) if v.is_finite() => out.push_str(&format!("{v}")),
            MetricValue::Float(_) => out.push_str("null"),
            MetricValue::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
        }
    }
}

#[derive(Clone, Debug, PartialEq, Serialize)]
enum MetricEntry {
    Leaf(MetricValue),
    Child(MetricsNode),
}

/// An interior node of the snapshot tree: ordered `name → leaf|subtree`
/// entries.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct MetricsNode {
    entries: Vec<(String, MetricEntry)>,
}

impl MetricsNode {
    /// An empty node.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set a leaf value, replacing any previous entry under `key`.
    pub fn set(&mut self, key: &str, value: impl Into<MetricValue>) -> &mut Self {
        let value = MetricEntry::Leaf(value.into());
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => self.entries.push((key.to_string(), value)),
        }
        self
    }

    /// Get-or-create a child subtree.
    pub fn child(&mut self, key: &str) -> &mut MetricsNode {
        let idx = match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                self.entries
                    .push((key.to_string(), MetricEntry::Child(MetricsNode::new())));
                self.entries.len() - 1
            }
        };
        match &mut self.entries[idx].1 {
            MetricEntry::Child(node) => node,
            entry => {
                *entry = MetricEntry::Child(MetricsNode::new());
                match entry {
                    MetricEntry::Child(node) => node,
                    MetricEntry::Leaf(_) => unreachable!(),
                }
            }
        }
    }

    /// Leaf lookup by `/`-separated path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        let mut node = self;
        let mut parts = path.split('/').peekable();
        while let Some(part) = parts.next() {
            let entry = node.entries.iter().find(|(k, _)| k == part).map(|(_, e)| e)?;
            match entry {
                MetricEntry::Leaf(v) => {
                    return if parts.peek().is_none() { Some(v) } else { None }
                }
                MetricEntry::Child(child) => node = child,
            }
        }
        None
    }

    /// Subtree lookup by `/`-separated path.
    pub fn node(&self, path: &str) -> Option<&MetricsNode> {
        let mut node = self;
        for part in path.split('/') {
            match node.entries.iter().find(|(k, _)| k == part).map(|(_, e)| e)? {
                MetricEntry::Child(child) => node = child,
                MetricEntry::Leaf(_) => return None,
            }
        }
        Some(node)
    }

    /// Child entry names, in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    fn write_json(&self, out: &mut String, pretty: bool, indent: usize) {
        if self.entries.is_empty() {
            out.push_str("{}");
            return;
        }
        out.push('{');
        for (i, (key, entry)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if pretty {
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
            }
            out.push('"');
            out.push_str(&escape(key));
            out.push_str(if pretty { "\": " } else { "\":" });
            match entry {
                MetricEntry::Leaf(v) => v.write_json(out),
                MetricEntry::Child(node) => node.write_json(out, pretty, indent + 1),
            }
        }
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
        }
        out.push('}');
    }
}

/// The mutable registry producers fill; [`snapshot`](Self::snapshot)
/// freezes it into a [`MetricsDoc`].
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    root: MetricsNode,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create a top-level scope (e.g. `"engine"`, `"node0"`,
    /// `"kv"`).
    pub fn scope(&mut self, name: &str) -> &mut MetricsNode {
        self.root.child(name)
    }

    /// Freeze the current contents into an immutable document.
    pub fn snapshot(&self) -> MetricsDoc {
        MetricsDoc {
            root: self.root.clone(),
        }
    }
}

/// An immutable metrics snapshot, serializable to JSON.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct MetricsDoc {
    root: MetricsNode,
}

impl MetricsDoc {
    /// Indented JSON for human eyes.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.root.write_json(&mut out, true, 0);
        out
    }

    /// Leaf lookup by `/`-separated path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        self.root.get(path)
    }

    /// Subtree lookup by `/`-separated path.
    pub fn node(&self, path: &str) -> Option<&MetricsNode> {
        self.root.node(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    impl MetricsDoc {
        /// Compact JSON.
        fn to_json(&self) -> String {
            let mut out = String::new();
            self.root.write_json(&mut out, false, 0);
            out
        }
    }

    #[test]
    fn tree_building_and_lookup() {
        let mut reg = MetricsRegistry::new();
        reg.scope("engine").set("shards", 4u64).set("mode", "threads");
        reg.scope("engine").child("shard0").set("rollbacks", 2u64);
        reg.scope("kv").child("latency").set("count", 10u64).set("p99_ps", 400u64);
        let doc = reg.snapshot();
        assert_eq!(doc.get("engine/shards").and_then(MetricValue::as_int), Some(4));
        assert_eq!(doc.get("engine/shard0/rollbacks").and_then(MetricValue::as_int), Some(2));
        assert_eq!(doc.get("kv/latency/p99_ps").and_then(MetricValue::as_int), Some(400));
        assert_eq!(doc.get("kv/latency/nope"), None);
        assert_eq!(doc.get("engine/shards/deeper"), None);
        assert!(doc.node("engine/shard0").is_some());
        assert_eq!(
            doc.node("engine").unwrap().keys().collect::<Vec<_>>(),
            vec!["shards", "mode", "shard0"]
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut reg = MetricsRegistry::new();
        reg.scope("a").set("x", 1u64).set("y", 2u64).set("x", 3u64);
        let doc = reg.snapshot();
        assert_eq!(doc.get("a/x").and_then(MetricValue::as_int), Some(3));
        assert_eq!(doc.node("a").unwrap().keys().collect::<Vec<_>>(), vec!["x", "y"]);
    }

    #[test]
    fn json_output_parses_and_is_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.scope("engine").set("mode", "seq").set("events", 123u64);
        reg.scope("engine").set("speedup", 1.5f64);
        let doc = reg.snapshot();
        let compact = doc.to_json();
        assert_eq!(
            compact,
            r#"{"engine":{"mode":"seq","events":123,"speedup":1.5}}"#
        );
        let parsed = json::parse(&doc.to_json_pretty()).expect("pretty JSON parses");
        assert_eq!(
            parsed.get("engine").and_then(|e| e.get("events")).and_then(json::Json::as_f64),
            Some(123.0)
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut reg = MetricsRegistry::new();
        reg.scope("s").set("bad", f64::NAN);
        assert_eq!(reg.snapshot().to_json(), r#"{"s":{"bad":null}}"#);
    }
}
