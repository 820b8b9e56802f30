//! # bluedbm-sim
//!
//! The discrete-event simulation (DES) substrate used by every hardware
//! model in the BlueDBM reproduction. The paper's artifact is an FPGA
//! system; this crate provides the clock, event queue, resource contention
//! primitives, statistics and deterministic randomness that let the rest of
//! the workspace model that hardware in software.
//!
//! The kernel is fully deterministic: events have a total order (time,
//! then insertion sequence), and all randomness flows from explicitly
//! seeded [`rng::Rng`] instances. Event tracing (the `bluedbm_trace`
//! sink reachable from [`Ctx::trace`]) is part of that contract — a
//! captured trace is bit-identical across reruns and engines, and a
//! disabled sink costs one predictable branch per entry point.
//!
//! ## Typed messages
//!
//! A [`Simulator<M>`] is generic over its **message type** `M`: one
//! concrete type (usually an enum) carrying every payload the components
//! of that simulation exchange. Messages travel inline through the event
//! queue — no `Box`, no `dyn Any`, no downcasting — so the per-event cost
//! is a slab write plus a 16-byte `(time, slot)` append to one bucket of
//! a monotone radix heap.
//! Components live in a flattened arena (one bounds-checked index per
//! fetch), and every runner delivers one event per [`Component::handle`]
//! call.
//!
//! The network crate defines a protocol enum for its own components
//! (`bluedbm_net::NetMsg<B>`) plus a protocol trait that any composed
//! message type implements. The workspace-wide composition lives in the
//! core crate's `Msg`, which also carries the variants of the core
//! crate's own components (the flash cards' two hops, the node agents);
//! network-only simulations (unit tests, microbenches, the credit-depth
//! ablation) instantiate the kernel over `NetMsg<B>`. The flash crate's
//! controller sends nothing: it is a timing model its client books.
//!
//! ## Page payloads travel by handle
//!
//! "Inline" is for *control* fields. Bulk payloads (flash pages) live in
//! the simulator-owned [`PageStore`] and cross the system as 8-byte,
//! generation-tagged [`PageRef`] handles: the producer allocates and
//! fills a page once (`ctx.pages().alloc_from(..)`), every hop moves
//! only the handle, and the single consumer frees it
//! (`ctx.pages().take(..)` to copy out, or `free`). Stale handles and
//! double frees panic immediately; leaks are caught by
//! [`PageStore::assert_quiescent`] at simulation end. This keeps message
//! enums cache-line-sized (the core crate's `Msg` asserts `<= 64` bytes at
//! compile time) and makes fixed buffer budgets — the paper's 128
//! host-interface page buffers, `bluedbm_host::BufferPool` — enforceable
//! as capacity views over the one shared store.
//!
//! Verbose **control blocks** (per-hop wire records, remote requests)
//! get the same treatment through the typed [`PoolStore`]
//! ([`Ctx::pools`]): intern once, move the 8-byte [`PoolRef`], the one
//! consumer takes the object back out — steady-state traffic on those
//! paths allocates nothing.
//!
//! ## Sharded parallel execution
//!
//! [`ShardedSimulator`] runs a partitioned component graph on N worker
//! threads under a conservative (lookahead-based) synchronization
//! protocol with per-pair mailboxes, deterministic barrier merges, and
//! per-shard store segments. Sharded runs are bit-for-bit repeatable
//! and observably identical to the sequential engine — see the
//! [`shard`] module docs for the partitioning rules, the lookahead
//! derivation, and the precise determinism contract. Message types opt
//! in via [`ShardMessage`].
//!
//! ### Adding a new message variant
//!
//! 1. Define the payload struct and add a variant for it to the enum of
//!    the components that exchange it: the network crate's `NetMsg<B>`
//!    for router traffic, otherwise the core crate's `Msg` itself (plus
//!    a `From<Payload>` impl for ergonomic `ctx.send(to, delay, payload)`
//!    call sites). Carry bulk data as a
//!    [`PageRef`] into the simulator's [`PageStore`], never as an inline
//!    `Vec<u8>`, and decide which component is the handle's one consumer
//!    (who frees it).
//! 2. Handle the variant in the receiving component's
//!    [`Component::handle`] `match`; unknown variants should `panic!` —
//!    they indicate mis-wiring, not a runtime condition.
//! 3. If the variant went into `NetMsg<B>`, add the corresponding arm to
//!    the `From`/`NetProtocol` impls of the core crate's `Msg`.
//!    `Msg` is **flat** (one discriminant level) and budgeted: the
//!    compile-time assertion in `crates/core/src/msg.rs` fails the build if
//!    the new variant pushes `size_of::<Msg>()` past 64 bytes — slim the
//!    variant (handles, interned cold metadata) rather than raising the
//!    budget.
//! 4. Nothing for the shard boundary, unless the variant is traffic
//!    between routers: a cluster pins every component of a node to
//!    that node's shard, so the [`ShardMessage`] impl of the core
//!    crate's `Msg` (`detach`/`attach`) relocates the payloads of router-to-router
//!    traffic only (`NetWire`, `NetCredit`) and panics on
//!    every other variant. A new router-to-router variant that carries
//!    a [`PageRef`] or [`PoolRef`] gets an arm there.
//!
//! ## Example
//!
//! ```rust
//! use bluedbm_sim::engine::{Component, Ctx, Simulator};
//! use bluedbm_sim::time::SimTime;
//!
//! /// The message protocol of this little simulation.
//! enum Msg {
//!     Ping,
//!     Pong { hops: u64 },
//! }
//!
//! /// A component that answers pings.
//! struct Counter { pings: u64 }
//!
//! impl Component<Msg> for Counter {
//!     fn handle(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
//!         match msg {
//!             Msg::Ping => {
//!                 self.pings += 1;
//!                 ctx.send_self(SimTime::us(1), Msg::Pong { hops: self.pings });
//!             }
//!             Msg::Pong { .. } => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let id = sim.add_component(Counter { pings: 0 });
//! sim.schedule(SimTime::us(5), id, Msg::Ping);
//! sim.schedule(SimTime::us(9), id, Msg::Ping);
//! sim.run();
//! assert_eq!(sim.component::<Counter>(id).unwrap().pings, 2);
//! assert_eq!(sim.now(), SimTime::us(10)); // last ping's pong
//! ```

mod affinity;
mod arena;
pub mod engine;
pub mod fxhash;
pub mod pagestore;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod shard;
mod slot;
pub mod stats;
pub mod time;

pub use engine::{Component, ComponentId, Ctx, Message, Simulator};
pub use pagestore::{PageRef, PageStore};
pub use pool::{Pool, PoolRef, PoolStore};
pub use resource::{MultiResource, SerialResource};
pub use rng::Rng;
pub use shard::{ExecMode, ShardLaneStats, ShardMessage, ShardStats, ShardedSimulator};
pub use stats::{Histogram, Throughput};
pub use time::{Bandwidth, SimTime};

// Re-exported so downstream crates can configure and harvest tracing
// without a direct `bluedbm_trace` dependency line.
pub use bluedbm_trace::{
    MetricsDoc, MetricsNode, MetricsRegistry, TraceCat, TraceConfig, TraceDoc, TraceName,
    TracePart, TraceSink, Tracer, WallLaneProfile, DRIVER_SHARD, STABLE_CATEGORIES,
};
