//! Observability layer for the BlueDBM simulator: deterministic event
//! tracing, a unified metrics registry, and timeline exporters.
//!
//! This crate is a leaf — it depends on nothing but the (marker-only)
//! serde shim — so the simulation kernel can depend on it without
//! widening its own dependency surface. Everything here obeys two
//! contracts:
//!
//! 1. **Determinism.** A [`TraceRecord`] carries only simulated state:
//!    the simulated timestamp in picoseconds, the owning shard, a
//!    per-shard sequence number, and integer payloads. Records are
//!    keyed `(at_ps, shard, seq)`, so the merged trace of a run is
//!    bit-identical across reruns of the same engine, and the
//!    arbitration-independent slice of it (see
//!    [`TraceDoc::digest_stable`]) is identical across *engines*.
//!    The one deliberately wall-clock-flavored module,
//!    [`wallclock`], never writes into the deterministic record.
//! 2. **Zero cost when disabled.** Every [`TraceSink`] entry point
//!    starts with an inlined `enabled` check against a plain bool; a
//!    disabled sink owns no buffer and the per-event overhead is one
//!    predictable branch.
//!
//! # Adding a trace category
//!
//! Categories are a closed enum so that the bitmask in
//! [`TraceConfig::categories`] and the binary format stay stable. To
//! add one:
//!
//! 1. Add a variant to [`TraceCat`] (append — the `u8` discriminant is
//!    part of the binary format), extend [`TraceCat::ALL`],
//!    [`TraceCat::label`] and [`TraceCat::from_u8`].
//! 2. Decide its Chrome track mapping in [`chrome`]: engine-side
//!    categories render one track per shard; node-side categories one
//!    track per node (the record's `track` field); KV categories one
//!    track per tenant.
//! 3. Emit records at the instrumentation site through
//!    [`Tracer`] (`ctx.trace().instant(cat, name, track, a, b)` from a
//!    component, or `sink.record(..)` from runtime code that knows the
//!    clock). Use `&'static str` names — they are interned into the
//!    binary string table.
//! 4. If the new category's payloads are arbitration-dependent (queue
//!    waits, park counts, engine-private bookkeeping), leave it out of
//!    [`record::STABLE_CATEGORIES`]; only categories whose record
//!    multiset is identical across engines belong in the cross-engine
//!    digest.
//!
//! The conformance suite (`tests/kv_conformance.rs` at the workspace
//! root) pins both digests; a new category that breaks either will
//! fail there, not silently skew a dashboard.

pub mod binfmt;
pub mod chrome;
pub mod doc;
pub mod json;
pub mod metrics;
pub mod record;
pub mod sink;
pub mod wallclock;

pub use doc::TraceDoc;
pub use metrics::{HistogramSummary, MetricValue, MetricsDoc, MetricsNode, MetricsRegistry};
pub use record::{TraceCat, TraceKind, TraceRecord, ALL_CATEGORIES, DRIVER_SHARD, STABLE_CATEGORIES};
pub use sink::{TracePart, TraceSink, Tracer};
pub use wallclock::{WallLane, WallLaneProfile, WallStamp};

/// Tracing configuration, carried inside the simulator config
/// (`SimConfig.trace` in `bluedbm-core`). `Copy` + `Eq` so the configs
/// that embed it stay `Copy` + `Eq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false every sink is a no-op and owns no
    /// buffer.
    pub enabled: bool,
    /// Bitmask of [`TraceCat`] bits to capture (see [`TraceCat::bit`]).
    pub categories: u32,
    /// Per-sink record capacity; once full, further records are
    /// *dropped and counted* (never silently, never by evicting older
    /// records).
    pub capacity: u32,
    /// Also collect per-lane wall-clock profiles ([`wallclock`]) on the
    /// threaded shard runtime. Strictly outside the deterministic
    /// record.
    pub wall_profile: bool,
}

impl TraceConfig {
    /// Default per-sink capacity: 2^18 records (~16 MiB per shard when
    /// saturated).
    pub const DEFAULT_CAPACITY: u32 = 1 << 18;

    /// Tracing disabled (the default).
    pub const fn off() -> Self {
        TraceConfig {
            enabled: false,
            categories: ALL_CATEGORIES,
            capacity: Self::DEFAULT_CAPACITY,
            wall_profile: false,
        }
    }

    /// Tracing enabled for every category at the default capacity.
    pub const fn on() -> Self {
        TraceConfig {
            enabled: true,
            ..Self::off()
        }
    }

    /// Replace the category mask.
    pub const fn with_categories(mut self, mask: u32) -> Self {
        self.categories = mask;
        self
    }

    /// Replace the per-sink capacity.
    pub const fn with_capacity(mut self, capacity: u32) -> Self {
        self.capacity = capacity;
        self
    }

    /// Enable or disable the wall-clock worker profiles.
    pub const fn with_wall_profile(mut self, on: bool) -> Self {
        self.wall_profile = on;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = TraceConfig::on()
            .with_categories(TraceCat::KvOp.bit() | TraceCat::Accel.bit())
            .with_capacity(1024)
            .with_wall_profile(true);
        assert!(cfg.enabled);
        assert_eq!(cfg.capacity, 1024);
        assert!(cfg.wall_profile);
        assert_eq!(cfg.categories.count_ones(), 2);
        assert_eq!(TraceConfig::default(), TraceConfig::off());
    }
}
