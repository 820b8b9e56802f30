//! Sharded parallel simulation: conservative (lookahead-windowed)
//! parallel DES over the typed kernel.
//!
//! A [`ShardedSimulator`] partitions an already-built component graph
//! across N **shards**. Each shard is a complete [`Simulator`] — its own
//! event queue, [`PageStore`] segment and [`PoolStore`] segment — and
//! runs on its own worker thread (the vendored `crossbeam` scoped
//! threads). The shards' arenas are index-aligned: every
//! [`ComponentId`] exists in every shard, but the component itself is
//! installed in exactly one (the others hold the vacant sentinel), so
//! model code built for the sequential engine runs unmodified.
//!
//! It is the one engine: one shard is the sequential kernel, unsplit.
//! A one-shard [`ShardedSimulator`] keeps the built [`Simulator`] whole
//! — no fresh arena, no mailboxes, no owner lookup on a send — and its
//! [`run`](ShardedSimulator::run) is [`Simulator::run`].
//!
//! ## The conservative window protocol
//!
//! Cross-shard messages ride per-pair **mailboxes** (one hand-off slot
//! per ordered shard pair) as `(time, seq, slot, msg)` entries.
//! Correctness rests on one property of the model: every direct message
//! from a component of one shard to a component of another takes at
//! least the **lookahead** `L` to arrive, asserted at the send site. For
//! the BlueDBM cluster `L` is the network's hop latency (0.48 µs): every
//! cross-node send (cable hop or credit return) pays at least one hop,
//! and a node's components all live on the node's shard. Execution
//! proceeds in coordinator-free rounds:
//!
//! 1. every worker mails its outgoing parcels, its local queue frontier,
//!    and the earliest parcel time per destination to every other
//!    worker, then receives the same;
//! 2. from the exchanged frontiers every worker computes — identically,
//!    with no coordinator — every shard's exact **post-merge horizon**
//!    `h_s` (its queue plus everything just mailed to it). If every
//!    `h_s` is empty, the run is over;
//! 3. otherwise each worker merges its incoming mail and executes local
//!    events strictly below its **safe bound**, the Chandy–Misra–Bryant
//!    estimate over exact horizons. Nothing is in flight after the
//!    merge, so shard `t`'s earliest possible next event is
//!
//!    ```text
//!    E_t = min(h_t, min_{r≠t} h_r + L)
//!    ```
//!
//!    (its own queued work, or the earliest reaction another shard's
//!    work could send it; a longer chain of reactions arrives no
//!    earlier), and the bound is `min_{s≠me} E_s + L`. On imbalanced
//!    phases the busy shard runs up to two lookaheads per round while
//!    idle shards just relay frontiers.
//!
//! ## The round path of a threaded run
//!
//! A round's exchange goes through one `Slot` per ordered shard pair
//! (`crate::slot`): a round stamp and two payload buffers. The sender
//! swaps its filled parcel vector into the buffer of the round, copies
//! its queue frontier and per-destination minima in beside it, and
//! publishes the round number in the stamp; the receiver waits for the
//! stamp and drains the buffer in place, so the vector goes back to the
//! sender empty two rounds later. After the first few rounds nothing on
//! this path calls the allocator, takes a contended lock or enters the
//! kernel — unless the wait runs long.
//!
//! How long a lane waits by spinning is a **probe budget** it adjusts
//! from what its own receives tell it: a receive that had to wait and
//! was answered inside the budget doubles it, up to about a window's
//! worth of peer work; a receive that ran the budget out parks (a
//! futex, and the publisher wakes it — the only time it pays for a
//! wake-up) and drops the budget to a floor that costs about what the
//! park itself does; a receive that found the round already published
//! changes nothing. A peer that is on a core and half a window behind
//! is therefore waited for by spinning, and a peer that is not running
//! (an oversubscribed host) costs one long spin before the lane goes
//! back to parking almost at once — and one probe in sixteen is a
//! `yield_now`, so even that spin gives the core to a peer that wants
//! it. The budget is counted in probes, never in elapsed time: there is
//! no clock read in the protocol, so the determinism lint's
//! `no-wallclock` rule holds without an exemption and nothing
//! host-timed can reach a decision that a result depends on (the
//! budget decides only *how* a lane waits for a round, never what the
//! round contains). With fewer cores than shards the budget is not
//! consulted at all: look once, then park.
//!
//! A worker that leaves — by return or by unwinding — closes its
//! outgoing slots, which fails every peer waiting on it (spinning or
//! parked) with a "peer lost" panic; [`ShardedSimulator::run`] then
//! re-raises the root cause, not the secondary.
//!
//! ## Execution modes
//!
//! The round is written once: staging a shard's outboxes, settling the
//! window (post-merge horizons, the `E_t` estimates, the safe bound)
//! and merging a shard's arrivals are each one function. Two drivers
//! call them and differ only in how an exchange travels:
//!
//! * the **threaded** driver runs one worker per shard and carries each
//!   exchange through the pair's `Slot`;
//! * the **cooperative** driver runs every shard on the calling thread
//!   and carries the exchanges in plain vectors, the shards taking turns
//!   to merge and run.
//!
//! So the two are bit-for-bit identical, and the suite pins that.
//! Which driver runs is an [`ExecMode`]. The default, [`ExecMode::Auto`],
//! picks the threads only when the host has a core per shard: on an
//! oversubscribed host the workers cannot overlap, every receive parks,
//! and the threads add one futex park/unpark per worker per round —
//! tens of microseconds times tens of thousands of rounds.
//! [`ExecMode::Threads`] forces the threads and also pins each worker to
//! its own core on Linux (`crate::affinity`) so the per-round spin
//! windows keep their cache affinity; [`ExecMode::Cooperative`] forces
//! the calling thread.
//!
//! ## Determinism and observational equivalence
//!
//! Within a shard, events keep the sequential engine's total `(time,
//! push order)` order. Incoming cross-shard events are merged at the
//! window barrier in the deterministic order `(arrival time, send time,
//! source shard, source seq)` — nothing depends on thread scheduling, so
//! a sharded run is **bit-for-bit repeatable**.
//!
//! Relative to the sequential engine, delivery order can differ in
//! exactly one place: several events delivered to the *same component*
//! at the *same simulated instant* from *different shards*. That is a
//! same-cycle arbitration race in the modelled hardware too; each engine
//! resolves it deterministically, but not necessarily identically (the
//! sequential engine uses its global push order, the merge uses send
//! time + source shard). The equivalence contract is therefore:
//!
//! * **uncontended timing is identical** — any message flow with no
//!   same-instant cross-shard rival delivers at exactly the sequential
//!   timestamps (serialized operations match down to the picosecond and
//!   the full latency histograms);
//! * **arbitration-independent observables are always identical** —
//!   event totals, every additive statistic (packets injected /
//!   forwarded / delivered, bytes, operation counts), per-operation
//!   results (data, errors), per-flow FIFO order, and store quiescence;
//! * under same-instant contention for a serial resource, *which*
//!   contender waits is an arbitration choice, so individual queueing
//!   delays may redistribute within the contended window (the sample
//!   counts still match; only the distribution's shape can shift by the
//!   serialization quantum).
//!
//! The cross-engine determinism suite (`tests/sharded.rs`) pins all
//! three down over random topologies × random partition maps.
//!
//! ## Payload handles cross shards by relocation
//!
//! Handles ([`crate::PageRef`], [`crate::PoolRef`]) are only meaningful
//! inside their owning shard's stores. When a message crosses shards,
//! the sending worker [`detach`](ShardMessage::detach)es every
//! store-backed payload into an owned crate that travels with the
//! mailbox entry, and the receiving worker
//! [`attach`](ShardMessage::attach)es it into its own stores, rewriting
//! the handles in place. For a flash page that is exactly the copy the
//! real network link would perform.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bluedbm_trace::{
    TraceCat, TraceConfig, TraceKind, TraceName, TracePart, WallLane, WallLaneProfile,
};

use crate::affinity;

use crate::engine::{Component, ComponentId, Message, Outbound, ShardEnv, Simulator, UNOWNED};
use crate::pagestore::PageStore;
use crate::pool::PoolStore;
use crate::slot::{Closed, Slot, Spin, SpinBudget};
use crate::time::SimTime;

/// A message type that can cross shard boundaries: `Send`, plus the
/// ability to detach its store-backed payloads (pages, pooled control
/// blocks) on the way out of one shard and re-attach them into another
/// shard's stores.
///
/// Implementations must be exact inverses: after `attach(detach(m))` on
/// fresh stores, the message must describe the same payload bytes (via
/// new, valid handles). Messages that never carry handles detach to
/// `()`.
pub trait ShardMessage: Message + Send {
    /// The owned form of the message's store-backed payloads while in
    /// transit between shards.
    type Detached: Send;

    /// Pull every store-backed payload out of the sending shard's
    /// stores. Handles left inside `self` are dangling until
    /// [`attach`](ShardMessage::attach) rewrites them.
    fn detach(&mut self, pages: &mut PageStore, pools: &mut PoolStore) -> Self::Detached;

    /// Install the detached payloads into the receiving shard's stores
    /// and rewrite the handles inside `self`.
    fn attach(&mut self, detached: Self::Detached, pages: &mut PageStore, pools: &mut PoolStore);
}

/// One cross-shard event in transit: the mailbox entry plus the detached
/// payloads.
struct Parcel<M: ShardMessage> {
    at: SimTime,
    sent_at: SimTime,
    seq: u64,
    to: ComponentId,
    msg: M,
    detached: M::Detached,
}

/// How [`ShardedSimulator::run`] executes its shards.
///
/// Every mode runs the one round of the [module docs](self#execution-modes)
/// and produces bit-identical results; the modes only choose how an
/// exchange travels — a `Slot` between worker threads, or a plain vector
/// on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One worker thread per shard when the host has a core for each
    /// worker; [`Cooperative`](ExecMode::Cooperative) rounds otherwise.
    /// On an oversubscribed host the threaded protocol spends its wall
    /// time on futex park/unpark context switches between workers that
    /// cannot run concurrently anyway — tens of microseconds per sync
    /// round, tens of thousands of rounds per busy workload.
    #[default]
    Auto,
    /// Always spawn one worker thread per shard.
    Threads,
    /// Always run the rounds on the calling thread, the shards taking
    /// turns, with plain vectors for mailboxes.
    Cooperative,
}

/// Per-shard execution statistics, accumulated across
/// [`ShardedSimulator::run`] calls and reported by
/// [`ShardedSimulator::shard_stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardLaneStats {
    /// Always 0; kept because `benchmark/src/layers.rs` reads it.
    pub rollbacks: u64,
    /// Exchange receives satisfied inside the spin window (threaded
    /// modes).
    pub spins: u64,
    /// Exchange receives that fell through to a blocking park.
    pub parks: u64,
}

/// Aggregate protocol statistics from
/// [`ShardedSimulator::shard_stats`]: the cumulative sync-round count
/// plus one [`ShardLaneStats`] per shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Synchronization rounds executed — identical on every worker by
    /// construction.
    pub sync_rounds: u64,
    /// Per-shard statistics, in shard order.
    pub shards: Vec<ShardLaneStats>,
}

/// One round's traffic from one shard to one other shard: the payload
/// of a [`Slot`] buffer, refilled in place round after round.
struct Exchange<M: ShardMessage> {
    parcels: Vec<Parcel<M>>,
    /// The sender's local queue frontier (earliest queued event).
    queue_next: Option<SimTime>,
    /// Earliest parcel time the sender mailed to every destination this
    /// round. Receivers fold these with the queue frontiers to compute
    /// every shard's exact post-merge horizon — which is what makes a
    /// single exchange phase enough for a sound reactive bound.
    out_mins: Vec<Option<SimTime>>,
}

impl<M: ShardMessage> Exchange<M> {
    fn empty(shards: usize) -> Self {
        Exchange {
            parcels: Vec::new(),
            queue_next: None,
            out_mins: vec![None; shards],
        }
    }
}

/// What one shard's worker carries besides its simulator: moved onto
/// the worker thread for a run and back afterwards.
#[derive(Default)]
struct Lane {
    stats: ShardLaneStats,
    /// Wall-clock spin/park/execute split. Strictly outside the
    /// deterministic record; counts only when
    /// [`TraceConfig::wall_profile`] is set.
    wall: WallLane,
    /// Kept across runs, so a run starts with what the last one learned.
    budget: SpinBudget,
}

/// N-shard conservative-parallel façade over [`Simulator`]. Build the
/// component graph on a sequential simulator first, then split it with
/// [`ShardedSimulator::from_simulator`] (one shard keeps it whole).
///
/// The driving API mirrors the sequential engine where it can:
/// [`schedule`](Self::schedule), [`run`](Self::run),
/// [`component`](Self::component) /
/// [`component_mut`](Self::component_mut) (routed to the owning shard
/// transparently), [`now`](Self::now) and
/// [`events_delivered`](Self::events_delivered) (aggregated).
pub struct ShardedSimulator<M: ShardMessage> {
    shards: Vec<Simulator<M>>,
    owner: Arc<Vec<u32>>,
    /// The minimum latency of any direct message between two shards:
    /// the window every execution bound rests on, asserted at the send
    /// site.
    lookahead: SimTime,
    /// Events the source simulator had already delivered before the
    /// split, so aggregate accounting stays continuous (0 on one shard,
    /// whose simulator keeps its own count).
    base_delivered: u64,
    /// Cumulative synchronization rounds across all [`run`](Self::run)
    /// calls — every worker executes the identical round count, so this
    /// is the protocol-overhead denominator (each round is one
    /// all-to-all exchange plus a window execution). Atomic so workers
    /// publish each round and the count is well-defined mid-run.
    sync_rounds: AtomicU64,
    /// Per-shard delivery counters published once per round by the
    /// workers, so [`events_delivered`](Self::events_delivered) stays
    /// well-defined while the shard simulators are out on their worker
    /// threads.
    delivered_live: Vec<AtomicU64>,
    /// Per-shard worker state (spin/park counts, wall profile, spin
    /// budget), moved onto the workers for a run and reassembled after
    /// it.
    lanes: Vec<Lane>,
    /// Where [`run`](Self::run) executes the rounds (never changes what
    /// they compute).
    exec: ExecMode,
    /// The trace configuration applied to every shard simulator (and
    /// the wall-profiling opt-in for the threaded workers).
    trace_cfg: TraceConfig,
}

impl<M: ShardMessage> ShardedSimulator<M> {
    /// Split a fully built (but idle) simulator into `shards` shards
    /// (one shard keeps it whole, see the [module docs](self)).
    /// `owner[i]` names the shard that owns component id `i`
    /// ([`u32::MAX`] for reserved-but-uninstalled ids); `lookahead` is
    /// the minimum latency of any direct message from a component of
    /// one shard to a component of another — for a cluster, the hop
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, the lookahead is zero on more than one
    /// shard, the simulator still has pending events or live store
    /// entries, `owner` does not cover every component, or an installed
    /// component is left unowned.
    pub fn from_simulator(
        sim: Simulator<M>,
        owner: Vec<u32>,
        shards: usize,
        lookahead: SimTime,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(
            shards == 1 || lookahead > SimTime::ZERO,
            "conservative sharding needs a positive lookahead"
        );
        assert!(sim.is_idle(), "split the simulator before scheduling events");
        assert_eq!(
            sim.pages.live_pages(),
            0,
            "split the simulator before staging pages"
        );
        assert_eq!(
            sim.pools.live_total(),
            0,
            "split the simulator before interning control blocks"
        );
        assert_eq!(
            owner.len(),
            sim.components.len(),
            "owner table must cover every component id"
        );
        for (idx, &own) in owner.iter().enumerate() {
            if sim.components.is_vacant(idx) {
                continue;
            }
            assert!(
                (own as usize) < shards,
                "installed component c{idx} assigned to nonexistent shard {own}"
            );
        }

        let owner = Arc::new(owner);
        let (parts, base_delivered) = if shards == 1 {
            // The sequential kernel, unsplit: no `ShardEnv`, so sends
            // never consult the owner table, and the simulator keeps its
            // own delivery count.
            (vec![sim], 0)
        } else {
            let base_delivered = sim.delivered;
            (Self::split(sim, &owner, shards, lookahead), base_delivered)
        };
        ShardedSimulator {
            shards: parts,
            owner,
            lookahead,
            base_delivered,
            sync_rounds: AtomicU64::new(0),
            delivered_live: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            lanes: (0..shards).map(|_| Lane::default()).collect(),
            exec: ExecMode::default(),
            trace_cfg: TraceConfig::off(),
        }
    }

    /// Move every component of `sim` into the shard `owner` names, in
    /// index-aligned arenas (the other shards hold the vacant sentinel
    /// there), and give each shard its [`ShardEnv`].
    fn split(
        sim: Simulator<M>,
        owner: &Arc<Vec<u32>>,
        shards: usize,
        lookahead: SimTime,
    ) -> Vec<Simulator<M>> {
        let base_now = sim.now;
        let mut parts: Vec<Simulator<M>> = (0..shards)
            .map(|me| {
                let mut part = Simulator::with_capacity(64);
                part.now = base_now;
                part.shard_env = Some(ShardEnv {
                    me: me as u32,
                    owner: Arc::clone(owner),
                    outboxes: (0..shards).map(|_| Vec::new()).collect(),
                    lookahead,
                    sent: 0,
                });
                part
            })
            .collect();
        for (idx, entry) in sim.components.into_boxes().into_iter().enumerate() {
            let own = owner[idx];
            let mut entry = Some(entry);
            for (s, part) in parts.iter_mut().enumerate() {
                let slot = if s as u32 == own {
                    part.components.add(entry.take().expect("moved once"))
                } else {
                    part.components.reserve()
                };
                debug_assert_eq!(slot, idx, "shard arenas must stay index-aligned");
            }
        }
        parts
    }

    /// Install (or disable) event tracing on every shard simulator.
    /// Each shard's records are stamped with its shard id; harvest the
    /// records with [`take_trace`](Self::take_trace). Also arms the
    /// wall-clock worker profilers when
    /// [`TraceConfig::wall_profile`] is set (threaded modes only).
    ///
    /// Replaces any existing sinks, discarding unharvested records.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.trace_cfg = cfg;
        for (me, shard) in self.shards.iter_mut().enumerate() {
            shard.set_trace(cfg, me as u32);
        }
        for lane in &mut self.lanes {
            lane.wall = WallLane::new(cfg.wall_profile);
        }
    }

    /// Harvest every shard's captured records, in shard order. A
    /// shard's clock only moves forward, so each part is one run in
    /// time order, held as the varint bytes the sink encoded at push;
    /// gather them with `bluedbm_trace::TraceDoc::merge`, which decodes
    /// and walks the runs in merge order only when exported. Sinks stay
    /// installed; sequence numbering keeps running.
    pub fn take_trace(&mut self) -> Vec<TracePart> {
        self.shards.iter_mut().map(Simulator::take_trace).collect()
    }

    /// The per-shard wall-clock profiles (spin/park/execute split),
    /// accumulated across [`run`](Self::run) calls. All-zero unless
    /// [`TraceConfig::wall_profile`] was set and a threaded mode ran.
    pub fn wall_profiles(&self) -> Vec<WallLaneProfile> {
        self.lanes.iter().map(|lane| lane.wall.profile()).collect()
    }

    /// Choose where [`run`](Self::run) executes the window protocol.
    /// Purely a scheduling decision — results are bit-identical across
    /// modes. The default, [`ExecMode::Auto`], spawns worker threads
    /// only when the host has a core per shard.
    pub fn set_exec_mode(&mut self, exec: ExecMode) {
        self.exec = exec;
    }

    /// The current [`ExecMode`].
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative window: the minimum latency any cross-shard
    /// message may have.
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// The shard owning component `id`, or `None` for a
    /// reserved-but-uninstalled id.
    pub(crate) fn owner_of(&self, id: ComponentId) -> Option<usize> {
        match self.owner.get(id.index()).copied() {
            Some(UNOWNED) | None => None,
            Some(s) => Some(s as usize),
        }
    }

    /// Current simulated time: the frontier of the furthest-advanced
    /// shard, which after [`run`](Self::run) is the timestamp of the
    /// globally last event — exactly the sequential engine's clock.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events delivered across all shards (plus any delivered
    /// before the split). Well-defined at any point in any exec mode:
    /// while a threaded run has the shard simulators out on their
    /// worker threads, this reads the per-round counters the workers
    /// publish, so the value is always a consistent
    /// through-some-round total.
    pub fn events_delivered(&self) -> u64 {
        if self.shards.is_empty() {
            // Mid-threaded-run: the simulators are on the workers.
            let live: u64 = self
                .delivered_live
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .sum();
            return self.base_delivered + live;
        }
        self.base_delivered + self.shards.iter().map(|s| s.events_delivered()).sum::<u64>()
    }

    /// Cumulative synchronization rounds executed by
    /// [`run`](Self::run): one all-to-all mailbox/horizon exchange per
    /// round, identical on every worker and across every [`ExecMode`].
    /// Published once per round, so the value is well-defined mid-run.
    /// Divide into wall time to see what the window protocol itself
    /// costs.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds.load(Ordering::Relaxed)
    }

    /// Per-shard execution statistics — spin/park tallies — plus the
    /// cumulative sync-round count. Counters accumulate across
    /// [`run`](Self::run) calls.
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats {
            sync_rounds: self.sync_rounds(),
            shards: self.lanes.iter().map(|lane| lane.stats.clone()).collect(),
        }
    }

    /// Typed shared access to a component's state, routed to its owning
    /// shard.
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> Option<&C> {
        self.shards[self.owner_of(id)?].component::<C>(id)
    }

    /// Typed exclusive access to a component's state.
    pub fn component_mut<C: Component<M>>(&mut self, id: ComponentId) -> Option<&mut C> {
        let shard = self.owner_of(id)?;
        self.shards[shard].component_mut::<C>(id)
    }

    /// The [`PageStore`] segment of one shard — payload staging must
    /// target the store of the shard that owns the consuming component.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn page_store(&self, shard: usize) -> &PageStore {
        self.shards[shard].page_store()
    }

    /// Exclusive access to one shard's [`PageStore`] segment.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn page_store_mut(&mut self, shard: usize) -> &mut PageStore {
        self.shards[shard].page_store_mut()
    }

    /// Leak audit over every shard's page and pool segments — the
    /// sharded analogue of
    /// [`PageStore::assert_quiescent`] +
    /// `PoolStore::assert_quiescent`.
    ///
    /// # Panics
    ///
    /// Panics if any shard still holds live pages or interned control
    /// blocks.
    pub fn assert_quiescent(&self) {
        for shard in &self.shards {
            shard.page_store().assert_quiescent();
            shard.pool_store().assert_quiescent();
        }
    }

    /// Schedule `msg` for delivery to `to` at `delay` from the global
    /// clock (external injection). The event is enqueued on the owning
    /// shard exactly as [`Simulator::schedule`] enqueues it — after
    /// every event already pending at its instant; external injection
    /// happens between runs, so no lookahead constraint applies.
    ///
    /// # Panics
    ///
    /// Panics if `to` was never installed.
    pub fn schedule<T: Into<M>>(&mut self, delay: SimTime, to: ComponentId, msg: T) {
        let at = self.now() + delay;
        let shard = self
            .owner_of(to)
            .unwrap_or_else(|| panic!("message scheduled to uninstalled component {to:?}"));
        self.shards[shard].schedule_at(at, to, msg.into());
    }

    /// Run to global quiescence: execute the window protocol — on
    /// worker threads or cooperatively, per the [`ExecMode`] — until no
    /// shard knows of any pending event. [`ExecMode::Threads`] pins
    /// each worker to its own core on Linux; [`ExecMode::Auto`] leaves
    /// placement to the OS.
    ///
    /// # Panics
    ///
    /// Re-raises the first root-cause panic of any shard worker
    /// (component panics, lookahead violations, stale handles).
    pub fn run(&mut self) {
        let n = self.shards.len();
        if n == 1 {
            // One shard is the sequential kernel, unsplit.
            self.shards[0].run();
            return;
        }
        // Spin-probe for exchanges only when the host has a core per
        // worker; on oversubscribed hosts probing burns the very
        // timeslice the peer needs, so workers park immediately.
        let cores_per_shard = affinity::host_cores() >= n;
        let threads = match self.exec {
            ExecMode::Threads => true,
            ExecMode::Cooperative => false,
            ExecMode::Auto => cores_per_shard,
        };
        if !threads {
            run_cooperative(
                &mut self.shards,
                self.lookahead,
                &self.sync_rounds,
                &self.delivered_live,
            );
            return;
        }
        // Only the explicitly threaded mode pins: Auto picked threads
        // because the host happens to have the cores, not because the
        // user asked for a fixed thread layout.
        let pin = self.exec == ExecMode::Threads;
        // One slot per ordered pair, `fabric[src * n + dst]` (the
        // diagonal is never touched).
        let fabric: Vec<Slot<Exchange<M>>> = (0..n * n)
            .map(|_| Slot::new(Exchange::empty(n), Exchange::empty(n)))
            .collect();
        let fabric = &fabric[..];
        let sims: Vec<Simulator<M>> = self.shards.drain(..).collect();
        let lanes: Vec<Lane> = std::mem::take(&mut self.lanes);
        let lookahead = self.lookahead;
        let spin = cores_per_shard;
        let rounds_base = self.sync_rounds.load(Ordering::Relaxed);
        let rounds_ctr = &self.sync_rounds;
        let delivered_live = &self.delivered_live;
        let result = crossbeam::scope(|scope| {
            let handles: Vec<_> = sims
                .into_iter()
                .zip(lanes)
                .enumerate()
                .map(|(me, (sim, lane))| {
                    let cfg = WorkerCfg { me, shards: n, spin, pin, rounds_base };
                    let shared = SharedCounters {
                        rounds: rounds_ctr,
                        delivered: &delivered_live[me],
                    };
                    scope.spawn(move |_| worker(cfg, shared, sim, lane, fabric, lookahead))
                })
                .collect();
            let mut joined = Vec::with_capacity(n);
            let mut panics = Vec::new();
            for handle in handles {
                match handle.join() {
                    Ok(pair) => joined.push(pair),
                    Err(payload) => panics.push(payload),
                }
            }
            (joined, panics)
        });
        match result {
            Ok((joined, panics)) => {
                if let Some(payload) = pick_root_cause(panics) {
                    std::panic::resume_unwind(payload);
                }
                (self.shards, self.lanes) = joined.into_iter().unzip();
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// A worker that dies because a *peer* closed its slots panics with this
/// marker, so the coordinator can surface the root cause instead.
const PEER_LOST: &str = "mailbox peer shard terminated";

/// Prefer a payload that is not the secondary "peer lost" panic.
fn pick_root_cause(
    mut panics: Vec<Box<dyn Any + Send + 'static>>,
) -> Option<Box<dyn Any + Send + 'static>> {
    if panics.is_empty() {
        return None;
    }
    let is_secondary = |p: &Box<dyn Any + Send + 'static>| {
        p.downcast_ref::<String>().is_some_and(|s| s.contains(PEER_LOST))
            || p.downcast_ref::<&str>().is_some_and(|s| s.contains(PEER_LOST))
    };
    let root = panics
        .iter()
        .position(|p| !is_secondary(p))
        .unwrap_or(0);
    Some(panics.swap_remove(root))
}

fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Wait for `round` on `slot`: spin under the lane's budget, park when
/// it runs out. On an oversubscribed host (`spin == false` — fewer cores
/// than shards) a waiting peer cannot be making progress while we burn
/// its timeslice, so the budget is not consulted: look once, then park
/// and let the scheduler run the peer.
fn recv<T>(slot: &Slot<T>, round: u64, spin: bool, lane: &mut Lane) -> Result<(), Closed> {
    let spin_stamp = lane.wall.stamp();
    let limit = if spin { lane.budget.limit() } else { 0 };
    let outcome = slot.spin(round, limit)?;
    lane.wall.add_spin(spin_stamp);
    if spin {
        lane.budget.record(outcome);
    }
    match outcome {
        Spin::Ready(_) => {
            lane.stats.spins += 1;
            Ok(())
        }
        Spin::Exhausted => {
            lane.stats.parks += 1;
            let park_stamp = lane.wall.stamp();
            let woken = slot.park(round);
            lane.wall.add_park(park_stamp);
            woken
        }
    }
}

/// Per-worker configuration, fixed for the whole run.
struct WorkerCfg {
    me: usize,
    shards: usize,
    spin: bool,
    pin: bool,
    rounds_base: u64,
}

/// Counters a worker publishes once per round so the façade's
/// [`ShardedSimulator::sync_rounds`] and
/// [`ShardedSimulator::events_delivered`] stay well-defined mid-run.
#[derive(Clone, Copy)]
struct SharedCounters<'a> {
    rounds: &'a AtomicU64,
    delivered: &'a AtomicU64,
}

/// Closes a worker's outgoing slots when it leaves — by return or by
/// unwinding — so no peer is left waiting on a lane that will never
/// publish again.
struct CloseOnExit<'a, T>(&'a [Slot<T>]);

impl<T> Drop for CloseOnExit<'_, T> {
    fn drop(&mut self) {
        self.0.iter().for_each(Slot::close);
    }
}

/// Drain the shard's outboxes into per-destination parcel batches,
/// record the earliest parcel time per destination in `out_mins`, and
/// return the shard's queue frontier.
fn stage_exchange<M: ShardMessage>(
    sim: &mut Simulator<M>,
    me: usize,
    outgoing: &mut [Vec<Parcel<M>>],
    out_mins: &mut [Option<SimTime>],
) -> Option<SimTime> {
    out_mins.fill(None);
    for (dst, batch) in outgoing.iter_mut().enumerate() {
        if dst == me {
            continue;
        }
        let env = sim.shard_env.as_mut().expect("shard env installed");
        let mut raw: Vec<Outbound<M>> = std::mem::take(&mut env.outboxes[dst]);
        let flushed = raw.len() as u64;
        for mut out in raw.drain(..) {
            out_mins[dst] = min_opt(out_mins[dst], Some(out.at));
            let detached = out.msg.detach(&mut sim.pages, &mut sim.pools);
            batch.push(Parcel {
                at: out.at,
                sent_at: out.sent_at,
                seq: out.seq,
                to: out.to,
                msg: out.msg,
                detached,
            });
        }
        sim.shard_env.as_mut().expect("shard env installed").outboxes[dst] = raw;
        if flushed > 0 {
            let now_ps = sim.now.as_ps();
            sim.trace.record(
                now_ps,
                TraceCat::Mailbox,
                TraceKind::Instant,
                TraceName::Flush,
                dst as u32,
                flushed,
                0,
            );
        }
    }
    sim.queues.next_at()
}

/// Settle one round's window from what every shard staged: its queue
/// frontier `queue_nexts[s]` and the earliest parcel it mailed to each
/// destination, `out_mins[s * n + t]`. Fills `earliest` with every
/// shard's estimate `E_t` and returns `false` when every post-merge
/// horizon is empty — the run is over.
///
/// Every threaded worker runs this identical computation on identical
/// tables, so no coordinator is needed.
fn settle_window(
    queue_nexts: &[Option<SimTime>],
    out_mins: &[Option<SimTime>],
    lookahead: SimTime,
    earliest: &mut [Option<SimTime>],
) -> bool {
    let n = earliest.len();
    // Every shard's exact *post-merge* horizon: its queue plus every
    // parcel just mailed to it. After the merge nothing is in flight,
    // which is what makes the reactive estimate below sound.
    for (t, horizon) in earliest.iter_mut().enumerate() {
        let mailed = (0..n)
            .filter(|&r| r != t)
            .filter_map(|r| out_mins[r * n + t])
            .min();
        *horizon = min_opt(queue_nexts[t], mailed);
    }
    let Some(first) = earliest.iter().flatten().min().copied() else {
        return false;
    };
    // Shard `t`'s earliest possible next event,
    //
    //   E_t = min(h_t, min_{r != t} h_r + L)
    //
    // — its own queued work, or a reaction to another shard's; a chain
    // of reactions pays `L` per link and never arrives earlier. The
    // `r = t` term `h_t + L` never wins against `h_t`, so the minimum
    // may run over every shard: `E_t = min(h_t, first + L)`.
    let reach = first + lookahead;
    for e in earliest.iter_mut() {
        *e = Some(e.map_or(reach, |h| h.min(reach)));
    }
    true
}

/// Shard `me`'s execution bound from the settled estimates:
/// `min_{s != me} E_s + L`. Everything strictly below it is already in
/// `me`'s queues. A settled window gives every shard an estimate, so
/// this is `None` only without another shard.
fn safe_bound(earliest: &[Option<SimTime>], lookahead: SimTime, me: usize) -> Option<SimTime> {
    (0..earliest.len())
        .filter(|&s| s != me)
        .filter_map(|s| earliest[s])
        .min()
        .map(|e| e + lookahead)
}

/// Merge one round's incoming `(source shard, parcel)` pairs into shard
/// `me`, draining `arrivals`.
///
/// Deterministic merge order: arrival instant, then send instant (the
/// sequential engine's tiebreak — its push order follows send time),
/// then source shard, then the source's own send order. No two parcels
/// share (source, seq), so the key is total and the unstable sort —
/// which, unlike the stable one, needs no scratch allocation — yields
/// one order.
fn merge_arrivals<M: ShardMessage>(
    sim: &mut Simulator<M>,
    me: usize,
    arrivals: &mut Vec<(usize, Parcel<M>)>,
    lookahead: SimTime,
) {
    arrivals.sort_unstable_by_key(|(src, p)| (p.at, p.sent_at, *src, p.seq));
    for (src, mut parcel) in arrivals.drain(..) {
        // The send site already asserts this (`Ctx::send`); keep a
        // second line of defense at the merge so a future bypass of
        // that path still can't deliver a parcel that breaks the
        // window bound the estimates rely on.
        debug_assert!(
            parcel.at >= parcel.sent_at + lookahead,
            "lookahead violation at merge: shard {src} -> shard {me} parcel arrives \
             at {:?} but was sent at {:?}, below the lookahead {lookahead:?}",
            parcel.at,
            parcel.sent_at,
        );
        parcel
            .msg
            .attach(parcel.detached, &mut sim.pages, &mut sim.pools);
        sim.push_arrival(parcel.at, parcel.to, parcel.msg);
    }
}

/// One shard's worker loop: exchange mailboxes + horizons with every
/// peer, agree (identically, with no coordinator) on the next window,
/// execute it, and repeat until the global horizon is empty. Returns
/// the shard simulator (so the façade can be reassembled) and the
/// shard's lane state.
fn worker<M: ShardMessage>(
    cfg: WorkerCfg,
    shared: SharedCounters<'_>,
    mut sim: Simulator<M>,
    mut lane: Lane,
    fabric: &[Slot<Exchange<M>>],
    lookahead: SimTime,
) -> (Simulator<M>, Lane) {
    let WorkerCfg { me, shards: n, spin, pin, rounds_base } = cfg;
    if pin {
        // Pure performance (cache affinity across the per-round spin
        // windows); failure means "run unpinned", never an error.
        let _ = affinity::pin_to_core(me);
    }
    let _close = CloseOnExit(&fabric[me * n..(me + 1) * n]);
    // Exchanges made, which is also the slot round stamp: one per sync
    // round plus the terminating all-empty one.
    let mut exchange = 0u64;
    // Round-persistent merge and horizon buffers: allocated once, reused
    // every round (the protocol runs thousands of rounds on busy
    // workloads, so per-round allocation is pure overhead). A parcel
    // vector handed to a slot comes back empty two rounds later.
    let mut outgoing: Vec<Vec<Parcel<M>>> = (0..n).map(|_| Vec::new()).collect();
    let mut queue_nexts: Vec<Option<SimTime>> = vec![None; n];
    // `out_mins[s * n + t]`: earliest parcel shard `s` mailed to `t`.
    let mut out_mins: Vec<Option<SimTime>> = vec![None; n * n];
    let mut arrivals: Vec<(usize, Parcel<M>)> = Vec::new();
    // `earliest[t]` is the fixed-point estimate `E_t` (see module doc).
    let mut earliest: Vec<Option<SimTime>> = vec![None; n];
    loop {
        exchange += 1;
        // Drain the outboxes (empty in round one, but external
        // injections sit in the queues and set the frontier) and publish
        // the exchange. Publishing never waits, so the all-to-all cannot
        // deadlock.
        let my_mins = me * n..(me + 1) * n;
        let queue_next = stage_exchange(&mut sim, me, &mut outgoing, &mut out_mins[my_mins.clone()]);
        queue_nexts[me] = queue_next;
        for dst in (0..n).filter(|&dst| dst != me) {
            fabric[me * n + dst].publish(exchange, |ex| {
                std::mem::swap(&mut ex.parcels, &mut outgoing[dst]);
                ex.queue_next = queue_next;
                ex.out_mins.copy_from_slice(&out_mins[my_mins.clone()]);
            });
            debug_assert!(outgoing[dst].is_empty(), "the consumer drains what it takes");
        }
        // Receive every peer's exchange.
        for src in (0..n).filter(|&src| src != me) {
            let slot = &fabric[src * n + me];
            recv(slot, exchange, spin, &mut lane)
                .unwrap_or_else(|Closed| panic!("shard {me}: {PEER_LOST} (shard {src})"));
            slot.take(exchange, |ex| {
                queue_nexts[src] = ex.queue_next;
                out_mins[src * n..(src + 1) * n].copy_from_slice(&ex.out_mins);
                arrivals.extend(ex.parcels.drain(..).map(|p| (src, p)));
            });
        }
        if !settle_window(&queue_nexts, &out_mins, lookahead, &mut earliest) {
            return (sim, lane);
        }
        shared.rounds.fetch_max(rounds_base + exchange, Ordering::Relaxed);
        merge_arrivals(&mut sim, me, &mut arrivals, lookahead);
        if let Some(bound) = safe_bound(&earliest, lookahead, me) {
            let stamp = lane.wall.stamp();
            sim.run_before(bound);
            lane.wall.add_execute(stamp);
        }
        shared.delivered.store(sim.events_delivered(), Ordering::Relaxed);
    }
}

/// The same rounds as [`worker`], driven on the calling thread: every
/// shard stages its exchange into plain vectors, the window is settled
/// once for all of them, and the shards take turns merging and running
/// to their bounds. Staging, settling and merging are the functions the
/// threaded worker calls, so every delivery is bit-identical to a
/// threaded run.
///
/// Rounds and per-shard deliveries are published to the façade's
/// counters as they happen, exactly like the threaded workers, so
/// `sync_rounds()` / `events_delivered()` have the same mid-run
/// semantics in every mode.
fn run_cooperative<M: ShardMessage>(
    sims: &mut [Simulator<M>],
    lookahead: SimTime,
    rounds_ctr: &AtomicU64,
    delivered_live: &[AtomicU64],
) {
    let n = sims.len();
    // The worker's round-persistent tables, held once for all shards;
    // `outgoing[src][dst]` stands in for the slot from `src` to `dst`.
    let mut outgoing: Vec<Vec<Vec<Parcel<M>>>> =
        (0..n).map(|_| (0..n).map(|_| Vec::new()).collect()).collect();
    let mut queue_nexts: Vec<Option<SimTime>> = vec![None; n];
    let mut out_mins: Vec<Option<SimTime>> = vec![None; n * n];
    let mut arrivals: Vec<(usize, Parcel<M>)> = Vec::new();
    let mut earliest: Vec<Option<SimTime>> = vec![None; n];
    loop {
        // Every shard stages before any shard merges, as in the
        // threaded all-to-all.
        for (src, sim) in sims.iter_mut().enumerate() {
            let mins = &mut out_mins[src * n..(src + 1) * n];
            queue_nexts[src] = stage_exchange(sim, src, &mut outgoing[src], mins);
        }
        if !settle_window(&queue_nexts, &out_mins, lookahead, &mut earliest) {
            return;
        }
        rounds_ctr.fetch_add(1, Ordering::Relaxed);
        for (me, sim) in sims.iter_mut().enumerate() {
            for (src, from_src) in outgoing.iter_mut().enumerate().filter(|&(src, _)| src != me) {
                arrivals.extend(from_src[me].drain(..).map(|p| (src, p)));
            }
            merge_arrivals(sim, me, &mut arrivals, lookahead);
            if let Some(bound) = safe_bound(&earliest, lookahead, me) {
                sim.run_before(bound);
            }
            delivered_live[me].store(sim.events_delivered(), Ordering::Relaxed);
        }
    }
}

impl<M: ShardMessage> fmt::Debug for ShardedSimulator<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSimulator")
            .field("shards", &self.shards.len())
            .field("components", &self.owner.len())
            .field("lookahead", &self.lookahead)
            .field("now", &self.now())
            .field("delivered", &self.events_delivered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;
    use crate::pagestore::PageRef;

    const HOP: SimTime = SimTime::us(1);

    /// Test protocol: a counter bounce with a fixed latency, plus a
    /// page-carrying shape to exercise relocation.
    enum TMsg {
        Val(u64),
        Page(PageRef),
    }

    impl ShardMessage for TMsg {
        type Detached = Option<Vec<u8>>;

        fn detach(&mut self, pages: &mut PageStore, _pools: &mut PoolStore) -> Option<Vec<u8>> {
            match self {
                TMsg::Val(_) => None,
                TMsg::Page(page) => Some(pages.take(*page)),
            }
        }

        fn attach(
            &mut self,
            detached: Option<Vec<u8>>,
            pages: &mut PageStore,
            _pools: &mut PoolStore,
        ) {
            if let TMsg::Page(page) = self {
                *page = pages.alloc_from(&detached.expect("page luggage"));
            }
        }
    }

    /// Bounces `Val(n)` to `peer` with `delay` until `n` hits zero,
    /// logging `(now, n)`.
    struct Bouncer {
        peer: ComponentId,
        delay: SimTime,
        log: Vec<(SimTime, u64)>,
    }

    impl Component<TMsg> for Bouncer {
        fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
            let TMsg::Val(n) = msg else { panic!("Val expected") };
            self.log.push((ctx.now(), n));
            if n > 0 {
                ctx.send(self.peer, self.delay, TMsg::Val(n - 1));
            }
        }
    }

    fn bounce_world() -> (Simulator<TMsg>, ComponentId, ComponentId) {
        let mut sim = Simulator::new();
        let a = sim.reserve();
        let b = sim.reserve();
        sim.install(a, Bouncer { peer: b, delay: HOP, log: vec![] });
        sim.install(b, Bouncer { peer: a, delay: HOP * 3, log: vec![] });
        (sim, a, b)
    }

    #[test]
    fn sharded_matches_sequential_bounce() {
        let (mut seq, a, b) = bounce_world();
        seq.schedule(SimTime::ZERO, a, TMsg::Val(100));
        seq.run();

        let (sim, a2, b2) = bounce_world();
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
        sharded.schedule(SimTime::ZERO, a2, TMsg::Val(100));
        sharded.run();

        assert_eq!(sharded.events_delivered(), seq.events_delivered());
        assert_eq!(sharded.now(), seq.now());
        assert_eq!(
            sharded.component::<Bouncer>(a2).unwrap().log,
            seq.component::<Bouncer>(a).unwrap().log,
        );
        assert_eq!(
            sharded.component::<Bouncer>(b2).unwrap().log,
            seq.component::<Bouncer>(b).unwrap().log,
        );
    }

    #[test]
    fn sharded_runs_are_repeatable() {
        let run = || {
            let (sim, a, b) = bounce_world();
            let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
            sharded.schedule(SimTime::ZERO, a, TMsg::Val(57));
            sharded.run();
            (
                sharded.events_delivered(),
                sharded.now(),
                sharded.component::<Bouncer>(a).unwrap().log.clone(),
                sharded.component::<Bouncer>(b).unwrap().log.clone(),
            )
        };
        assert_eq!(run(), run());
    }

    /// Sink that records every `Val` in delivery order.
    struct Sink {
        got: Vec<(SimTime, u64)>,
    }

    impl Component<TMsg> for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
            let TMsg::Val(n) = msg else { panic!("Val expected") };
            self.got.push((ctx.now(), n));
        }
    }

    /// Fires a burst of `Val`s at `sink` with per-message delays on
    /// arrival of a kick.
    struct Burster {
        sink: ComponentId,
        shots: Vec<(SimTime, u64)>,
    }

    impl Component<TMsg> for Burster {
        fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, _msg: TMsg) {
            for &(delay, v) in &self.shots {
                ctx.send(self.sink, delay, TMsg::Val(v));
            }
        }
    }

    #[test]
    fn simultaneous_cross_shard_arrivals_merge_deterministically() {
        // Shards 1 and 2 each mail the shard-0 sink two events arriving
        // at the same instant; a same-instant *local* burst joins them.
        // Merge order at t=2us must be: local events first (sent at
        // t=2us... no — sent at 0 with delay 2us) — everything is sent
        // at t=0, so the (arrival, send time) key ties across all five
        // and the deterministic tiebreak is (source shard, send order),
        // with the sink's own shard-0 events keeping their local order
        // ahead of barrier-merged mail.
        let mut sim = Simulator::new();
        let sink = sim.reserve();
        let b1 = sim.add_component(Burster {
            sink,
            shots: vec![(HOP * 2, 10), (HOP * 2, 11)],
        });
        let b2 = sim.add_component(Burster {
            sink,
            shots: vec![(HOP * 2, 20), (HOP * 2, 21)],
        });
        let b0 = sim.add_component(Burster {
            sink,
            shots: vec![(HOP * 2, 1), (HOP * 2, 2)],
        });
        sim.install(sink, Sink { got: vec![] });
        // sink id 0 -> shard 0, b1 -> shard 1, b2 -> shard 2, b0 -> shard 0.
        let mut sharded =
            ShardedSimulator::from_simulator(sim, vec![0, 1, 2, 0], 3, HOP);
        sharded.schedule(SimTime::ZERO, b1, TMsg::Val(0));
        sharded.schedule(SimTime::ZERO, b2, TMsg::Val(0));
        sharded.schedule(SimTime::ZERO, b0, TMsg::Val(0));
        sharded.run();
        let got = &sharded.component::<Sink>(sink).unwrap().got;
        let values: Vec<u64> = got.iter().map(|&(_, v)| v).collect();
        // Local (shard 0) events keep their pre-merge queue position;
        // mailbox arrivals follow in (source shard, send order) order.
        assert_eq!(values, vec![1, 2, 10, 11, 20, 21]);
        assert!(got.iter().all(|&(at, _)| at == HOP * 2));
    }

    #[test]
    fn arrival_at_a_pending_instant_is_delivered_after_it() {
        // A merged arrival joins the one queue like any send: at the
        // instant being executed (events already at the head) and at a
        // later instant still pending, it follows what is queued there.
        let mut sim = Simulator::new();
        let sink = sim.add_component(Sink { got: vec![] });
        sim.schedule(HOP, sink, TMsg::Val(1));
        sim.schedule(HOP, sink, TMsg::Val(2));
        sim.schedule(HOP * 3, sink, TMsg::Val(3));
        assert!(sim.step());
        assert_eq!(sim.now(), HOP);
        sim.push_arrival(HOP, sink, TMsg::Val(10));
        sim.push_arrival(HOP * 3, sink, TMsg::Val(30));
        sim.schedule(HOP * 2, sink, TMsg::Val(31));
        sim.run();
        let got = &sim.component::<Sink>(sink).unwrap().got;
        assert_eq!(
            got,
            &[(HOP, 1), (HOP, 2), (HOP, 10), (HOP * 3, 3), (HOP * 3, 30), (HOP * 3, 31)]
        );
    }

    #[test]
    fn zero_delay_self_loop_stays_in_shard() {
        // Zero-delay sends *within* a shard are legal under any
        // lookahead — only cross-shard messages owe the window bound.
        struct SelfLoop {
            left: u64,
            done_to: ComponentId,
        }
        impl Component<TMsg> for SelfLoop {
            fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
                let TMsg::Val(n) = msg else { panic!("Val expected") };
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send_self(SimTime::ZERO, TMsg::Val(n + 1));
                } else {
                    ctx.send(self.done_to, HOP, TMsg::Val(n));
                }
            }
        }
        let mut sim = Simulator::new();
        let sink = sim.reserve();
        let looper = sim.add_component(SelfLoop { left: 500, done_to: sink });
        sim.install(sink, Sink { got: vec![] });
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![1, 0], 2, HOP);
        sharded.schedule(SimTime::ZERO, looper, TMsg::Val(0));
        sharded.run();
        let got = &sharded.component::<Sink>(sink).unwrap().got;
        assert_eq!(got, &vec![(HOP, 500)]);
        assert_eq!(sharded.events_delivered(), 502);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn cross_shard_send_below_lookahead_panics() {
        let mut sim = Simulator::new();
        let sink = sim.reserve();
        let b = sim.add_component(Burster {
            sink,
            shots: vec![(SimTime::ZERO, 1)], // zero-delay *cross-shard* send
        });
        sim.install(sink, Sink { got: vec![] });
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
        sharded.schedule(SimTime::ZERO, b, TMsg::Val(0));
        sharded.run();
    }

    #[test]
    fn pages_relocate_across_shards() {
        /// Allocates a page in its own shard and mails the handle.
        struct Producer {
            to: ComponentId,
        }
        impl Component<TMsg> for Producer {
            fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, _msg: TMsg) {
                let page = ctx.pages().alloc_from(b"cross-shard page payload");
                ctx.send(self.to, HOP, TMsg::Page(page));
            }
        }
        /// Consumes the relocated page from its own shard's store.
        struct Consumer {
            seen: Vec<Vec<u8>>,
        }
        impl Component<TMsg> for Consumer {
            fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
                let TMsg::Page(page) = msg else { panic!("Page expected") };
                self.seen.push(ctx.pages().take(page));
            }
        }
        for exec in [ExecMode::Auto, ExecMode::Threads, ExecMode::Cooperative] {
            let mut sim = Simulator::new();
            let consumer = sim.reserve();
            let producer = sim.add_component(Producer { to: consumer });
            sim.install(consumer, Consumer { seen: vec![] });
            let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
            sharded.set_exec_mode(exec);
            sharded.schedule(SimTime::ZERO, producer, TMsg::Val(0));
            sharded.run();
            assert_eq!(
                sharded.component::<Consumer>(consumer).unwrap().seen,
                vec![b"cross-shard page payload".to_vec()],
                "{exec:?}"
            );
            // The producing shard's segment was drained by detach, the
            // consuming shard's by the consumer: globally quiescent.
            sharded.assert_quiescent();
        }
    }

    #[test]
    fn scheduling_between_runs_continues_the_clock() {
        let (sim, a, b) = bounce_world();
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
        sharded.schedule(SimTime::ZERO, a, TMsg::Val(3));
        sharded.run();
        let after_first = sharded.now();
        assert!(after_first > SimTime::ZERO);
        sharded.schedule(SimTime::ZERO, b, TMsg::Val(2));
        sharded.run();
        assert!(sharded.now() > after_first);
        assert_eq!(sharded.events_delivered(), 4 + 3);
        let _ = (a, b);
    }

    #[test]
    #[should_panic(expected = "uninstalled component")]
    fn cross_shard_send_to_vacant_slot_panics() {
        let mut sim = Simulator::new();
        let vacant = sim.reserve();
        let b = sim.add_component(Burster {
            sink: vacant,
            shots: vec![(HOP, 1)],
        });
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![UNOWNED, 0], 2, HOP);
        sharded.schedule(SimTime::ZERO, b, TMsg::Val(0));
        sharded.run();
    }

    /// Three-party bounce over three shards: a -> b -> c -> a with
    /// distinct latencies, every one at least `HOP`.
    fn triangle_world() -> (Simulator<TMsg>, [ComponentId; 3]) {
        let mut sim = Simulator::new();
        let a = sim.reserve();
        let b = sim.reserve();
        let c = sim.reserve();
        sim.install(a, Bouncer { peer: b, delay: HOP, log: vec![] });
        sim.install(b, Bouncer { peer: c, delay: HOP * 4, log: vec![] });
        sim.install(c, Bouncer { peer: a, delay: HOP * 2, log: vec![] });
        (sim, [a, b, c])
    }

    #[test]
    fn unequal_link_latencies_match_sequential() {
        let (mut seq, [a, b, c]) = triangle_world();
        seq.schedule(SimTime::ZERO, a, TMsg::Val(60));
        seq.run();

        // The lookahead is the shortest link; the longer ones deliver
        // later than a window, which the bound must allow for.
        let (sim, [a2, b2, c2]) = triangle_world();
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1, 2], 3, HOP);
        assert_eq!(sharded.lookahead(), HOP);
        sharded.schedule(SimTime::ZERO, a2, TMsg::Val(60));
        sharded.run();

        assert_eq!(sharded.events_delivered(), seq.events_delivered());
        assert_eq!(sharded.now(), seq.now());
        for (s, q) in [(a2, a), (b2, b), (c2, c)] {
            assert_eq!(
                sharded.component::<Bouncer>(s).unwrap().log,
                seq.component::<Bouncer>(q).unwrap().log,
            );
        }
    }

    /// A one-shot send two hops long from shard 1 to shard 0, under a
    /// lookahead of three hops, in `exec` mode.
    fn send_below_the_lookahead(exec: ExecMode) {
        let mut sim = Simulator::new();
        let sink = sim.reserve();
        let b = sim.add_component(Burster {
            sink,
            shots: vec![(HOP * 2, 1)],
        });
        sim.install(sink, Sink { got: vec![] });
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP * 3);
        sharded.set_exec_mode(exec);
        sharded.schedule(SimTime::ZERO, b, TMsg::Val(0));
        sharded.run();
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn nonzero_send_below_the_lookahead_panics() {
        send_below_the_lookahead(ExecMode::Threads);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn nonzero_send_below_the_lookahead_panics_cooperative() {
        // The check must hold in both exec modes (send-site assert,
        // backed by the merge-phase debug assertion that names the
        // offending shard pair).
        send_below_the_lookahead(ExecMode::Cooperative);
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_rejected() {
        let (sim, _) = triangle_world();
        let _ = ShardedSimulator::from_simulator(sim, vec![0, 1, 2], 3, SimTime::ZERO);
    }

    #[test]
    fn threaded_and_cooperative_modes_are_bit_identical() {
        // Same world, same injection, opposite ExecMode forced: every
        // observable — delivery logs with timestamps, event totals,
        // clock, round count — must match exactly, because the modes
        // only move the identical rounds between threads.
        let run = |exec: ExecMode| {
            let (sim, [a, b, c]) = triangle_world();
            let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1, 2], 3, HOP);
            sharded.set_exec_mode(exec);
            assert_eq!(sharded.exec_mode(), exec);
            // Long enough that the slots' two buffers and the recycled
            // parcel vectors go round thousands of times.
            sharded.schedule(SimTime::ZERO, a, TMsg::Val(12_000));
            sharded.run();
            assert!(sharded.sync_rounds() >= 10_000, "{} rounds", sharded.sync_rounds());
            (
                sharded.events_delivered(),
                sharded.now(),
                sharded.sync_rounds(),
                [a, b, c].map(|id| sharded.component::<Bouncer>(id).unwrap().log.clone()),
            )
        };
        assert_eq!(run(ExecMode::Threads), run(ExecMode::Cooperative));
    }

    #[test]
    fn every_exchange_received_is_a_spin_or_a_park() {
        // What the benchmark's `sim.shard.spins` / `.parks` rely on: per
        // lane they add up to the exchanges received — one per sync
        // round plus the terminating all-empty one of each run() call,
        // from every peer.
        let (sim, [a, b, _]) = triangle_world();
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1, 2], 3, HOP);
        sharded.set_exec_mode(ExecMode::Threads);
        sharded.schedule(SimTime::ZERO, a, TMsg::Val(200));
        sharded.run();
        sharded.schedule(SimTime::ZERO, b, TMsg::Val(90));
        sharded.run();
        let stats = sharded.shard_stats();
        assert_eq!(stats.shards.len(), 3);
        for (lane, s) in stats.shards.iter().enumerate() {
            assert_eq!(s.spins + s.parks, (stats.sync_rounds + 2) * 2, "lane {lane}: {s:?}");
        }
    }

    /// Run `body` on a thread of its own and fail — instead of hanging
    /// CI — if it has not finished in ten seconds. A panic in `body` is
    /// re-raised with its original payload.
    fn within_ten_seconds(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)));
        });
        match finished.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(_) => panic!("hung: a dying shard left its peer waiting"),
        }
    }

    /// A bounce between shard 0 and shard 1 whose shard-1 end panics
    /// mid-run, with shard 0's spin budget pinned so that it can only be
    /// waiting the one way.
    fn peer_dies_mid_run(shard0_probes: u32) {
        struct Bomb {
            peer: ComponentId,
        }
        impl Component<TMsg> for Bomb {
            fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
                let TMsg::Val(n) = msg else { panic!("Val expected") };
                assert!(n > 40, "boom on shard 1");
                ctx.send(self.peer, HOP, TMsg::Val(n - 1));
            }
        }
        within_ten_seconds(move || {
            let mut sim = Simulator::new();
            let a = sim.reserve();
            let b = sim.reserve();
            sim.install(a, Bouncer { peer: b, delay: HOP, log: vec![] });
            sim.install(b, Bomb { peer: a });
            let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
            sharded.set_exec_mode(ExecMode::Threads);
            sharded.lanes[0].budget = SpinBudget::pinned(shard0_probes);
            sharded.schedule(SimTime::ZERO, a, TMsg::Val(100));
            sharded.run();
        });
    }

    #[test]
    #[should_panic(expected = "boom on shard 1")]
    fn peer_panic_reaches_a_spinning_waiter_as_the_root_cause() {
        peer_dies_mid_run(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "boom on shard 1")]
    fn peer_panic_reaches_a_parked_waiter_as_the_root_cause() {
        peer_dies_mid_run(0);
    }

    #[test]
    fn cooperative_mode_relocates_pages_and_stays_quiescent() {
        let (sim, a, _) = bounce_world();
        let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
        sharded.set_exec_mode(ExecMode::Cooperative);
        sharded.schedule(SimTime::ZERO, a, TMsg::Val(25));
        sharded.run();
        assert_eq!(sharded.events_delivered(), 26);
        sharded.assert_quiescent();
    }

    #[test]
    fn counters_agree_across_exec_modes_and_successive_runs() {
        // `sync_rounds()` / `events_delivered()` are published per round
        // in every mode, accumulate across run() calls, and agree across
        // modes on the same workload.
        let observe = |exec: ExecMode| {
            let (sim, a, b) = bounce_world();
            let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
            sharded.set_exec_mode(exec);
            sharded.schedule(SimTime::ZERO, a, TMsg::Val(30));
            sharded.run();
            let mid = (sharded.sync_rounds(), sharded.events_delivered());
            sharded.schedule(SimTime::ZERO, b, TMsg::Val(11));
            sharded.run();
            let end = (sharded.sync_rounds(), sharded.events_delivered());
            assert!(
                end.0 > mid.0 && end.1 > mid.1,
                "{exec:?}: counters must accumulate across runs ({mid:?} -> {end:?})"
            );
            (mid, end)
        };
        let base = observe(ExecMode::Cooperative);
        assert_eq!(observe(ExecMode::Threads), base);
        assert_eq!(observe(ExecMode::Auto), base);
    }

    #[test]
    fn non_clone_message_and_component_match_sequential() {
        // Neither the message nor the component is `Clone`: nothing in
        // the sharded runtime copies either.
        struct Baton {
            left: u64,
            trail: Vec<u32>,
        }
        impl ShardMessage for Baton {
            type Detached = ();
            fn detach(&mut self, _: &mut PageStore, _: &mut PoolStore) {}
            fn attach(&mut self, (): (), _: &mut PageStore, _: &mut PoolStore) {}
        }
        struct Runner {
            peer: ComponentId,
            delay: SimTime,
            seen: Vec<(SimTime, Vec<u32>)>,
        }
        impl Component<Baton> for Runner {
            fn handle(&mut self, ctx: &mut Ctx<'_, Baton>, mut baton: Baton) {
                self.seen.push((ctx.now(), baton.trail.clone()));
                if baton.left > 0 {
                    baton.left -= 1;
                    baton.trail.push(ctx.self_id().index() as u32);
                    ctx.send(self.peer, self.delay, baton);
                }
            }
        }
        let world = || {
            let mut sim = Simulator::new();
            let a = sim.reserve();
            let b = sim.reserve();
            sim.install(a, Runner { peer: b, delay: HOP, seen: vec![] });
            sim.install(b, Runner { peer: a, delay: HOP * 2, seen: vec![] });
            (sim, a, b)
        };
        let start = || Baton { left: 40, trail: vec![] };
        let (mut seq, a, b) = world();
        seq.schedule(SimTime::ZERO, a, start());
        seq.run();
        for exec in [ExecMode::Threads, ExecMode::Cooperative] {
            let (sim, a2, b2) = world();
            let mut sharded = ShardedSimulator::from_simulator(sim, vec![0, 1], 2, HOP);
            sharded.set_exec_mode(exec);
            sharded.schedule(SimTime::ZERO, a2, start());
            sharded.run();
            assert_eq!(sharded.events_delivered(), seq.events_delivered(), "{exec:?}");
            assert_eq!(sharded.now(), seq.now(), "{exec:?}");
            for (s, q) in [(a2, a), (b2, b)] {
                assert_eq!(
                    sharded.component::<Runner>(s).unwrap().seen,
                    seq.component::<Runner>(q).unwrap().seen,
                    "{exec:?}"
                );
            }
        }
    }

    #[test]
    fn single_shard_degenerates_to_sequential() {
        // One shard is the sequential kernel, unsplit: every delivery,
        // every trace record and the page store's high-water mark match
        // a plain `Simulator` driven the same way.
        struct Stager {
            to: ComponentId,
        }
        impl Component<TMsg> for Stager {
            fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
                let TMsg::Val(n) = msg else { panic!("Val expected") };
                let page = ctx.pages().alloc_from(&n.to_le_bytes());
                ctx.send(self.to, HOP, TMsg::Page(page));
            }
        }
        struct Taker {
            seen: Vec<(SimTime, Vec<u8>)>,
        }
        impl Component<TMsg> for Taker {
            fn handle(&mut self, ctx: &mut Ctx<'_, TMsg>, msg: TMsg) {
                let TMsg::Page(page) = msg else { panic!("Page expected") };
                let now = ctx.now();
                self.seen.push((now, ctx.pages().take(page)));
            }
        }
        let world = || {
            let (mut sim, a, b) = bounce_world();
            let taker = sim.reserve();
            let stager = sim.add_component(Stager { to: taker });
            sim.install(taker, Taker { seen: vec![] });
            (sim, [a, b, stager, taker])
        };
        // A bounce plus a same-instant burst of four pages in flight at
        // once, injected twice with a run in between.
        let shots = |[a, _, stager, _]: [ComponentId; 4]| {
            [(a, 9), (stager, 0), (stager, 1), (stager, 2), (stager, 3)]
        };

        let (mut seq, ids) = world();
        seq.set_trace(TraceConfig::on(), 0);
        let (sim, ids2) = world();
        let mut one = ShardedSimulator::from_simulator(sim, vec![0; 4], 1, HOP);
        one.set_trace(TraceConfig::on());
        assert!(one.shards[0].shard_env.is_none(), "one shard needs no ShardEnv");
        for _ in 0..2 {
            for (to, n) in shots(ids) {
                seq.schedule(SimTime::ZERO, to, TMsg::Val(n));
            }
            for (to, n) in shots(ids2) {
                one.schedule(SimTime::ZERO, to, TMsg::Val(n));
            }
            seq.run();
            one.run();
        }

        assert_eq!(one.events_delivered(), seq.events_delivered());
        assert_eq!(one.now(), seq.now());
        assert_eq!(one.sync_rounds(), 0);
        let [a, b, _, taker] = ids;
        let [a2, b2, _, taker2] = ids2;
        for (s, q) in [(a2, a), (b2, b)] {
            assert_eq!(
                one.component::<Bouncer>(s).unwrap().log,
                seq.component::<Bouncer>(q).unwrap().log,
            );
        }
        let seen = &seq.component::<Taker>(taker).unwrap().seen;
        assert_eq!(seen.len(), 8);
        assert_eq!(&one.component::<Taker>(taker2).unwrap().seen, seen);
        let seq_trace = bluedbm_trace::TraceDoc::merge(vec![seq.take_trace()]);
        let one_trace = bluedbm_trace::TraceDoc::merge(one.take_trace());
        assert!(!seq_trace.is_empty());
        assert_eq!(one_trace.len(), seq_trace.len());
        assert_eq!(one_trace.digest_full(u32::MAX), seq_trace.digest_full(u32::MAX));
        assert_eq!(seq.page_store().peak_live(), 4);
        assert_eq!(one.page_store(0).peak_live(), seq.page_store().peak_live());
        one.assert_quiescent();
    }
}
