//! The discrete-event engine: typed messages, components and the event
//! queue.
//!
//! Hardware blocks (flash controllers, network switches, DMA engines, ...)
//! are modelled as [`Component`]s registered with a [`Simulator`]. They
//! communicate exclusively by scheduling messages to each other's
//! [`ComponentId`]s with a non-negative delay; the engine delivers messages
//! in a total order (time, then scheduling sequence), which makes every run
//! deterministic.
//!
//! ## The typed message kernel
//!
//! A simulation is instantiated over one concrete message type `M`
//! (typically an enum composing every protocol in the model — see
//! `bluedbm_core::Msg` for the workspace-wide instance). Messages travel
//! **inline**: no per-message heap allocation, no `Box<dyn Any>`, no
//! downcast on delivery — a component receives `M` by value and matches on
//! it. This is the hot path of every experiment, so its layout is tuned:
//!
//! * pending events live in a **slab arena** (`Vec` + free list) that is
//!   reused for the whole run, and the priority queue itself is a
//!   **four-ary index heap** of small `(time, seq, slot)` entries — a
//!   64-bit time, a 64-bit sequence number and a 32-bit slot index, 24
//!   bytes per entry after alignment — so sifting moves those fixed-size
//!   entries, never payloads, and the shallower 4-ary tree halves the
//!   pointer-chasing depth of a binary heap. Keys compare as one `u128`
//!   (`time << 64 | seq`) and the smallest of four children is picked
//!   with conditional moves, because with 10⁴ events pending (the
//!   1024-node mesh) every pop descends ≈ 7 levels and "which child" is
//!   a branch no predictor wins;
//! * **same-instant sends** (`delay == 0`, the dominant pattern in
//!   command-forwarding chains) bypass the heap entirely through a FIFO
//!   fast queue: because a handler's sends always carry the newest
//!   sequence numbers at the current instant, appending to that queue
//!   keeps it globally sorted by `(time, seq)` and the dispatcher only
//!   has to compare its head with the heap root;
//! * components live in a **flattened arena** (the private `arena`
//!   module):
//!   every slot always holds an installed component (reserved slots hold
//!   a panicking sentinel), so the dispatcher's component fetch is a
//!   single bounds-checked index — no `Option` discriminant, no
//!   move-out/move-back around the handler call;
//! * [`Simulator::run`] and [`Simulator::run_until`] use **batched
//!   dispatch**: when consecutive queue heads target the same component
//!   at the same instant (a command-forwarding *train*), the whole train
//!   is drained in one borrow of that component — one arena fetch and one
//!   virtual call per train instead of per event. Components opt into
//!   train-level processing via [`Component::handle_batch`]; the default
//!   implementation falls back to per-message [`Component::handle`], so
//!   batching is transparent to existing models and never changes
//!   delivery order;
//! * bulk payloads (flash pages) live in the simulator-owned
//!   [`PageStore`] and cross the system as 8-byte
//!   [`PageRef`](crate::PageRef) handles, so messages stay
//!   cache-line-sized — [`Ctx::pages`] is the component-side window into
//!   the store, and [`ComponentId`] is a `u32` for the same reason.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use bluedbm_trace::{TraceCat, TraceConfig, TraceKind, TracePart, TraceSink, Tracer};

use crate::arena::ComponentArena;
use crate::pagestore::PageStore;
use crate::pool::PoolStore;
use crate::time::SimTime;

/// Marker for types usable as a simulation's message type. Blanket-implemented
/// for every sized `'static` type, so plain structs and enums qualify as-is.
pub trait Message: Sized + 'static {}

impl<T: Sized + 'static> Message for T {}

/// Handle to a component registered with a [`Simulator`].
///
/// Ids are small dense integers, assigned in registration order, so they
/// can be stored freely in routing tables and config structures. Stored
/// as a `u32` so queue entries stay compact — four billion components is
/// far past any simulation this kernel will host.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// The raw index (useful for building lookup tables keyed by id).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn from_index(index: usize) -> Self {
        ComponentId(u32::try_from(index).expect("component count fits u32"))
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A hardware block in a simulation over message type `M`.
///
/// Implementors receive every message addressed to them via
/// [`Component::handle`] and respond by scheduling further messages through
/// the [`Ctx`]. The `Any` supertrait enables typed access to component
/// state after (or during) a run via [`Simulator::component`]; the `Send`
/// supertrait lets the sharded runtime (see [`crate::shard`]) move whole
/// shards onto worker threads — components are still only ever touched by
/// one thread at a time, so this costs implementors nothing beyond not
/// holding `Rc`s.
pub trait Component<M: Message>: Any + Send {
    /// Process one message delivered at `ctx.now()`.
    ///
    /// Message variants a component is not wired for indicate a wiring
    /// bug, not a runtime condition, so models here `panic!` loudly on
    /// them.
    fn handle(&mut self, ctx: &mut Ctx<'_, M>, msg: M);

    /// Opt-in hook for **batched dispatch**: process a train of messages
    /// all delivered to this component at `ctx.now()`, in delivery order.
    ///
    /// The dispatcher calls this (instead of per-message [`handle`])
    /// whenever consecutive queue heads target the same component at the
    /// same instant, so hot components can hoist per-message overhead
    /// (the `match` on the protocol enum, field reloads) out of the inner
    /// loop. [`Batch::next`] yields messages lazily, straight off the
    /// event queues — there is no intermediate train buffer — so
    /// zero-delay self-sends emitted *while* draining join the running
    /// train when they are globally next. Implementations must process
    /// messages in yield order; they may stop early — whatever they leave
    /// stays queued and is dispatched normally, so semantics never depend
    /// on how much of the train a component consumes.
    ///
    /// The default implementation is exactly the per-message fallback,
    /// which makes batching behaviourally invisible to components that do
    /// not opt in.
    ///
    /// [`handle`]: Component::handle
    fn handle_batch(&mut self, ctx: &mut Ctx<'_, M>, batch: &mut Batch<M>) {
        while let Some(msg) = batch.next(ctx) {
            self.handle(ctx, msg);
        }
    }
}

/// A train of same-instant messages addressed to one component, handed to
/// [`Component::handle_batch`]. [`next`](Batch::next) lazily pops the
/// globally next event off the queues for as long as it continues the
/// train (same instant, same component), so a train is consumed with zero
/// buffering or copying.
pub struct Batch<M: Message> {
    to: ComponentId,
    /// The already-popped event that opened the train.
    head: Option<M>,
    /// Fast-queue events already verified to continue the train: while
    /// this run lasts, [`next`](Batch::next) is a bare `pop_front` — the
    /// train-match comparison is amortized to one scan per run.
    run: usize,
    /// Messages yielded so far (the dispatcher's delivery accounting).
    taken: u64,
}

impl<M: Message> Batch<M> {
    /// The next message of the train, or `None` once the globally next
    /// event no longer continues it. Takes the `Ctx` because the train is
    /// read straight off the queues the context also schedules into.
    #[inline]
    pub fn next(&mut self, ctx: &mut Ctx<'_, M>) -> Option<M> {
        if let Some(m) = self.head.take() {
            self.taken += 1;
            return Some(m);
        }
        if self.run > 0 {
            // Pre-verified by the last scan: pop without re-comparing.
            self.run -= 1;
            self.taken += 1;
            let f = ctx.queues.fast.pop_front().expect("scanned run entry");
            return Some(f.msg);
        }
        self.run = ctx.queues.scan_fast_run(ctx.now, self.to);
        if self.run > 0 {
            self.run -= 1;
            self.taken += 1;
            let f = ctx.queues.fast.pop_front().expect("scanned run entry");
            return Some(f.msg);
        }
        // No fast run: the train continues only if the heap root matches.
        let msg = ctx.queues.pop_heap_if(ctx.now, self.to);
        self.taken += msg.is_some() as u64;
        msg
    }
}

/// Total delivery order: time first, then scheduling sequence. `seq` is
/// unique per event, so the order is total and runs are deterministic.
///
/// The derived lexicographic `Ord` **is** the queue order (this type
/// replaces the old `Scheduled` struct whose manual `Ord`/`PartialEq`
/// pair disagreed about which fields participate).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct EventKey {
    at: SimTime,
    seq: u64,
}

impl EventKey {
    /// The key as one integer, `at` in the high half: integer order on
    /// it is exactly the derived lexicographic order, and comparing two
    /// is one subtract-with-borrow instead of two dependent branches —
    /// what the queue's hot compares use.
    #[inline]
    fn packed(self) -> u128 {
        (u128::from(self.at.as_ps()) << 64) | u128::from(self.seq)
    }
}

/// One entry of the four-ary index heap: the order key plus the arena
/// slot holding the payload. Payloads never move during sifting.
#[derive(Clone, Copy)]
struct HeapEntry {
    key: EventKey,
    slot: u32,
}

/// Arena slot: either a pending event's payload or a free-list link.
enum Slot<M> {
    Free { next: u32 },
    Full { to: ComponentId, msg: M },
}

/// Same-instant event held in the heap-bypass FIFO.
struct FastEvent<M> {
    key: EventKey,
    to: ComponentId,
    msg: M,
}

const NO_SLOT: u32 = u32::MAX;

/// The event queues: the four-ary index heap + payload arena for future
/// events, and the FIFO fast queue for same-instant ones. Split out of
/// [`Simulator`] so a running handler's [`Ctx`] can push events directly
/// (the queues and the component arena are disjoint `Simulator` fields,
/// so the executing component's `&mut` borrow never aliases them) — each
/// send is a single inline move, with no intermediate outbox copy.
pub(crate) struct Queues<M> {
    /// Four-ary min-heap of `(key, slot)` entries.
    heap: Vec<HeapEntry>,
    /// Payload arena; freed slots chain through `free_head`.
    slots: Vec<Slot<M>>,
    free_head: u32,
    /// Same-instant sends, globally sorted by `(at, seq)` by construction.
    fast: VecDeque<FastEvent<M>>,
    pub(crate) seq: u64,
}

impl<M: Message> Queues<M> {
    fn with_capacity(events: usize) -> Self {
        Queues {
            heap: Vec::with_capacity(events),
            slots: Vec::with_capacity(events),
            free_head: NO_SLOT,
            fast: VecDeque::with_capacity(events.min(256)),
            seq: 0,
        }
    }

    #[inline]
    fn alloc_slot(&mut self, to: ComponentId, msg: M) -> u32 {
        let head = self.free_head;
        if head == NO_SLOT {
            self.slots.push(Slot::Full { to, msg });
            (self.slots.len() - 1) as u32
        } else {
            match self.slots[head as usize] {
                Slot::Free { next } => self.free_head = next,
                Slot::Full { .. } => unreachable!("free list points at a full slot"),
            }
            self.slots[head as usize] = Slot::Full { to, msg };
            head
        }
    }

    #[inline]
    fn take_slot(&mut self, slot: u32) -> (ComponentId, M) {
        let prev = std::mem::replace(
            &mut self.slots[slot as usize],
            Slot::Free {
                next: self.free_head,
            },
        );
        self.free_head = slot;
        match prev {
            Slot::Full { to, msg } => (to, msg),
            Slot::Free { .. } => unreachable!("heap entry points at a free slot"),
        }
    }

    /// Enqueue one event. `now` is the current instant: events landing
    /// exactly on it take the heap-bypass FIFO (their keys are strictly
    /// larger than anything already queued at `now`, so appending
    /// preserves the fast queue's global `(at, seq)` order).
    #[inline]
    fn push(&mut self, now: SimTime, at: SimTime, to: ComponentId, msg: M) {
        if at == now {
            let key = EventKey { at, seq: self.seq };
            self.seq += 1;
            self.fast.push_back(FastEvent { key, to, msg });
        } else {
            self.push_heap(at, to, msg);
        }
    }

    /// Enqueue one event straight into the index heap, bypassing the
    /// same-instant FIFO. Used for cross-shard arrivals, which are merged
    /// at a window barrier: the fast queue's append-only ordering
    /// argument assumes sends happen at the current instant, which does
    /// not hold for them.
    #[inline]
    pub(crate) fn push_heap(&mut self, at: SimTime, to: ComponentId, msg: M) {
        let key = EventKey { at, seq: self.seq };
        self.seq += 1;
        let slot = self.alloc_slot(to, msg);
        self.heap.push(HeapEntry { key, slot });
        let last = self.heap.len() - 1;
        sift_up(&mut self.heap, last);
    }

    /// Pop the globally next event, if any: the smaller of the fast-queue
    /// head and the heap root.
    #[inline]
    fn pop_next(&mut self) -> Option<(EventKey, ComponentId, M)> {
        let take_fast = match (self.fast.front(), self.heap.first()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(f), Some(h)) => f.key.packed() <= h.key.packed(),
        };
        if take_fast {
            let f = self.fast.pop_front().expect("checked non-empty");
            Some((f.key, f.to, f.msg))
        } else {
            let e = pop_root(&mut self.heap).expect("checked non-empty");
            let (to, msg) = self.take_slot(e.slot);
            Some((e.key, to, msg))
        }
    }

    /// Destination of the event stored in `slot` (which must be full).
    #[inline]
    fn slot_target(&self, slot: u32) -> ComponentId {
        match self.slots[slot as usize] {
            Slot::Full { to, .. } => to,
            Slot::Free { .. } => unreachable!("heap entry points at a free slot"),
        }
    }

    /// `true` if the globally next event is addressed to `to` at exactly
    /// `at` — the train-extension test of the batched dispatcher.
    #[inline]
    fn next_matches(&self, at: SimTime, to: ComponentId) -> bool {
        match (self.fast.front(), self.heap.first()) {
            (None, None) => false,
            (Some(f), None) => f.key.at == at && f.to == to,
            (None, Some(h)) => h.key.at == at && self.slot_target(h.slot) == to,
            (Some(f), Some(h)) => {
                if f.key.packed() <= h.key.packed() {
                    f.key.at == at && f.to == to
                } else {
                    h.key.at == at && self.slot_target(h.slot) == to
                }
            }
        }
    }

    /// Count the prefix of fast-queue events that continue the `(at,
    /// to)` train: addressed to `to` and globally next, i.e. ordered
    /// before the heap root. Fast-queue entries all sit at the current
    /// instant, so only a heap root at the same instant (with an older
    /// sequence number) can order ahead of them.
    fn scan_fast_run(&self, at: SimTime, to: ComponentId) -> usize {
        let seq_limit = match self.heap.first() {
            Some(h) => {
                debug_assert!(h.key.at >= at, "heap root precedes the current instant");
                if h.key.at == at {
                    h.key.seq
                } else {
                    u64::MAX
                }
            }
            None => u64::MAX,
        };
        self.fast
            .iter()
            .take_while(|f| f.to == to && f.key.seq < seq_limit && f.key.at == at)
            .count()
    }

    /// Pop the heap root only if it is globally next and continues the
    /// `(at, to)` train. Callers drain the matching fast run first; a
    /// fast-queue head that is still pending here either precedes the
    /// root (train over) or follows it (root may continue the train).
    fn pop_heap_if(&mut self, at: SimTime, to: ComponentId) -> Option<M> {
        let h = self.heap.first()?;
        if h.key.at != at || self.slot_target(h.slot) != to {
            return None;
        }
        if let Some(f) = self.fast.front() {
            if f.key.packed() < h.key.packed() {
                return None;
            }
        }
        let e = pop_root(&mut self.heap).expect("checked non-empty");
        let (_, msg) = self.take_slot(e.slot);
        Some(msg)
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        match (self.fast.front(), self.heap.first()) {
            (None, None) => None,
            (Some(f), None) => Some(f.key.at),
            (None, Some(h)) => Some(h.key.at),
            (Some(f), Some(h)) => Some(f.key.at.min(h.key.at)),
        }
    }
}

/// Sentinel in a shard-ownership table for component ids that were
/// reserved but never installed (sends to them panic, mirroring the
/// sequential engine's delivery-time panic).
pub(crate) const UNOWNED: u32 = u32::MAX;

/// One cross-shard send, parked in the sending shard's outbox until the
/// next window barrier. `(at, seq, to, msg)` is the mailbox entry the
/// receiving shard merges on; `sent_at` refines same-instant merges so
/// they follow send order, like the sequential engine's global sequence.
pub(crate) struct Outbound<M> {
    pub(crate) at: SimTime,
    pub(crate) sent_at: SimTime,
    pub(crate) seq: u64,
    pub(crate) to: ComponentId,
    pub(crate) msg: M,
}

/// The sharded runtime's per-shard view: who owns every component id,
/// which shard this is, the outgoing mailboxes, and the lookahead
/// promise. Present only on shard member simulators (see
/// [`crate::shard::ShardedSimulator`]); `None` on a plain [`Simulator`],
/// whose send path then never pays more than one branch.
pub(crate) struct ShardEnv<M> {
    pub(crate) me: u32,
    pub(crate) owner: Arc<Vec<u32>>,
    /// Outgoing mailbox per destination shard (the self slot stays empty).
    pub(crate) outboxes: Vec<Vec<Outbound<M>>>,
    /// This shard's row of the per-pair lookahead matrix: the model's
    /// promise that a message to shard `r` takes at least
    /// `lookahead_to[r]` to arrive. The conservative execution bounds
    /// rest on it, so it is asserted at the send site.
    pub(crate) lookahead_to: Arc<[SimTime]>,
}

/// Execution context passed to [`Component::handle`].
///
/// Lets the running component read the clock and schedule messages. Sends
/// are sequenced after every event already queued at the current instant,
/// so a handler never receives its own same-instant sends before the
/// dispatcher has finished the surrounding event.
pub struct Ctx<'a, M: Message> {
    now: SimTime,
    self_id: ComponentId,
    queues: &'a mut Queues<M>,
    pages: &'a mut PageStore,
    pools: &'a mut PoolStore,
    shard: Option<&'a mut ShardEnv<M>>,
    trace: &'a mut TraceSink,
}

impl<M: Message> Ctx<'_, M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently executing.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// The trace emission handle, clock-bound to the current instant.
    /// One branch and a no-op unless tracing was enabled on the
    /// simulator (see [`Simulator::set_trace`]).
    #[inline]
    pub fn trace(&mut self) -> Tracer<'_> {
        self.trace.at(self.now.as_ps())
    }

    /// The simulator-owned [`PageStore`]: allocate payload pages here and
    /// send the returned [`crate::PageRef`] handles through messages
    /// instead of inline byte buffers. See the [`crate::pagestore`] docs
    /// for the ownership discipline (every page must eventually be freed
    /// by its consumer).
    #[inline]
    pub fn pages(&mut self) -> &mut PageStore {
        self.pages
    }

    /// The simulator-owned control-block [`PoolStore`]: intern verbose
    /// control objects (per-hop wire records, remote requests) here and
    /// send the 8-byte [`crate::PoolRef`] instead of a `Box`. See the
    /// [`crate::pool`] docs for the ownership discipline (exactly one
    /// consumer [`take`](crate::pool::Pool::take)s each block).
    #[inline]
    pub fn pools(&mut self) -> &mut PoolStore {
        self.pools
    }

    /// Schedule `msg` for delivery to `to` after `delay` (zero is allowed;
    /// same-instant messages are delivered in send order).
    ///
    /// Under the sharded runtime a send to a component owned by another
    /// shard is diverted into that shard's mailbox instead of the local
    /// queues; it must be delayed by at least the per-pair lookahead for
    /// that destination shard (the conservative contract every execution
    /// bound rests on), which is asserted here.
    #[inline]
    pub fn send<T: Into<M>>(&mut self, to: ComponentId, delay: SimTime, msg: T) {
        let at = self.now + delay;
        if let Some(env) = self.shard.as_deref_mut() {
            let dst = env.owner[to.index()];
            if dst != env.me {
                assert!(
                    dst != UNOWNED,
                    "message sent to uninstalled component {to:?}"
                );
                assert!(
                    delay >= env.lookahead_to[dst as usize],
                    "lookahead violation: shard {} sent to {to:?} (shard {dst}) with \
                     delay {delay}, below the pair lookahead {}; cross-shard paths \
                     must have latency >= their pair's lookahead",
                    env.me,
                    env.lookahead_to[dst as usize],
                );
                let seq = self.queues.seq;
                self.queues.seq += 1;
                env.outboxes[dst as usize].push(Outbound {
                    at,
                    sent_at: self.now,
                    seq,
                    to,
                    msg: msg.into(),
                });
                return;
            }
        }
        self.queues.push(self.now, at, to, msg.into());
    }

    /// Schedule a message back to the executing component — the idiom for
    /// modelling internal latency (e.g. "finish this NAND read in 50 µs").
    #[inline]
    pub fn send_self<T: Into<M>>(&mut self, delay: SimTime, msg: T) {
        let id = self.self_id;
        self.send(id, delay, msg);
    }
}

/// The event-driven simulator over message type `M`.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulator<M: Message> {
    pub(crate) now: SimTime,
    pub(crate) delivered: u64,
    pub(crate) queues: Queues<M>,
    pub(crate) components: ComponentArena<M>,
    pub(crate) pages: PageStore,
    pub(crate) pools: PoolStore,
    /// Set only when this simulator is one shard of a
    /// [`crate::shard::ShardedSimulator`].
    pub(crate) shard_env: Option<ShardEnv<M>>,
    /// This simulator's trace sink; disabled (and unallocated) by
    /// default, so the dispatch hot path pays one predictable branch.
    pub(crate) trace: TraceSink,
}

impl<M: Message> Default for Simulator<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Simulator<M> {
    /// An empty simulator at time zero.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// An empty simulator with room for `events` pending events before
    /// any queue reallocation.
    pub fn with_capacity(events: usize) -> Self {
        Simulator {
            now: SimTime::ZERO,
            delivered: 0,
            queues: Queues::with_capacity(events),
            components: ComponentArena::new(),
            pages: PageStore::new(),
            pools: PoolStore::new(),
            shard_env: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Shared access to the simulator-owned [`PageStore`] (leak audits,
    /// occupancy introspection).
    #[inline]
    pub fn page_store(&self) -> &PageStore {
        &self.pages
    }

    /// Exclusive access to the [`PageStore`] — how experiment drivers
    /// stage page payloads before injecting messages, and harvest them
    /// after a run.
    #[inline]
    pub fn page_store_mut(&mut self) -> &mut PageStore {
        &mut self.pages
    }

    /// Shared access to the simulator-owned control-block [`PoolStore`]
    /// (leak audits, occupancy introspection).
    #[inline]
    pub fn pool_store(&self) -> &PoolStore {
        &self.pools
    }

    /// Exclusive access to the [`PoolStore`] — how experiment drivers
    /// stage interned control blocks before injecting messages.
    #[inline]
    pub fn pool_store_mut(&mut self) -> &mut PoolStore {
        &mut self.pools
    }

    /// Install (or disable) event tracing per `cfg`. Records are stamped
    /// with `shard` — `0` for a standalone simulator; the sharded
    /// runtime passes each member's shard id, and driver-side sinks use
    /// [`bluedbm_trace::DRIVER_SHARD`].
    ///
    /// Replaces any existing sink, discarding unharvested records.
    pub fn set_trace(&mut self, cfg: TraceConfig, shard: u32) {
        self.trace = TraceSink::new(cfg, shard);
    }

    /// Shared access to the trace sink (enabled/capture introspection).
    #[inline]
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Exclusive access to the trace sink — how experiment drivers emit
    /// records from outside a component handler.
    #[inline]
    pub fn trace_sink_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Harvest the records captured so far (the sink stays installed and
    /// its sequence numbering keeps running).
    pub fn take_trace(&mut self) -> TracePart {
        self.trace.take()
    }

    /// Size in bytes of one fast-queue entry (the same-instant FIFO's
    /// element: key + target + inline message). Recorded into the bench
    /// trajectory so payload-slimming regressions are visible.
    #[inline]
    pub fn fast_queue_entry_bytes() -> usize {
        std::mem::size_of::<FastEvent<M>>()
    }

    /// Size in bytes of one index-heap entry (`(time, seq, slot)`).
    #[inline]
    pub fn heap_entry_bytes() -> usize {
        std::mem::size_of::<HeapEntry>()
    }

    /// Current simulated time (the timestamp of the last delivered event,
    /// or the `until` argument of the last bounded run).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    #[inline]
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of registered components (installed + reserved slots).
    #[inline]
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of slots whose component is actually installed (a dense
    /// arena sweep; reserved-but-empty slots are excluded).
    pub fn installed_components(&self) -> usize {
        self.components.installed_count()
    }

    /// Events currently pending (heap plus fast queue).
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.queues.heap.len() + self.queues.fast.len()
    }

    /// Size of the payload arena (slots ever allocated, free or full).
    /// Stays flat under steady-state load thanks to the free list; exposed
    /// for capacity introspection and the kernel's own regression tests.
    #[inline]
    pub fn arena_slots(&self) -> usize {
        self.queues.slots.len()
    }

    /// Register a component and return its id.
    pub fn add_component<C: Component<M>>(&mut self, component: C) -> ComponentId {
        ComponentId::from_index(self.components.add(Box::new(component)))
    }

    /// Reserve an id without installing a component yet.
    ///
    /// Component graphs are frequently cyclic (a switch needs the link's
    /// id, the link needs the switch's); reserving ids first breaks the
    /// cycle. Sending to a reserved-but-uninstalled id panics at delivery.
    pub fn reserve(&mut self) -> ComponentId {
        ComponentId::from_index(self.components.reserve())
    }

    /// Install a component into a previously [`reserve`](Self::reserve)d slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied.
    pub fn install<C: Component<M>>(&mut self, id: ComponentId, component: C) {
        self.components.install(id.index(), Box::new(component));
    }

    /// Typed shared access to a component's state.
    ///
    /// Returns `None` if `id` holds no component or the concrete type is
    /// not `C`. This is how experiment drivers read statistics out of
    /// models after a run.
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> Option<&C> {
        let c = self.components.get(id.index())?;
        (c as &dyn Any).downcast_ref::<C>()
    }

    /// Typed exclusive access to a component's state.
    pub fn component_mut<C: Component<M>>(&mut self, id: ComponentId) -> Option<&mut C> {
        let c = self.components.get_mut_checked(id.index())?;
        (c as &mut dyn Any).downcast_mut::<C>()
    }

    /// Schedule `msg` for delivery to `to` at `delay` from now (external
    /// injection; components use [`Ctx::send`]).
    ///
    /// Shares [`Ctx::send`]'s insertion path — the fast-queue append is
    /// safe here too, because any events still pending in the fast queue
    /// sit at the current instant and this send's sequence number is
    /// newer than theirs.
    #[inline]
    pub fn schedule<T: Into<M>>(&mut self, delay: SimTime, to: ComponentId, msg: T) {
        self.schedule_at(self.now + delay, to, msg.into());
    }

    /// [`schedule`](Self::schedule) at an absolute instant no earlier
    /// than the clock — how the sharded runtime injects at its global
    /// clock, which a member shard's own clock may trail.
    #[inline]
    pub(crate) fn schedule_at(&mut self, at: SimTime, to: ComponentId, msg: M) {
        debug_assert!(at >= self.now, "injection predates the clock: at={at} now={}", self.now);
        self.queues.push(self.now, at, to, msg);
    }

    /// Run one handler; its sends land in the queues directly. The
    /// component fetch is a single bounds-checked arena index; reserved
    /// slots hold a sentinel whose handler raises the
    /// uninstalled-component panic.
    fn dispatch(&mut self, at: SimTime, to: ComponentId, msg: M) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.delivered += 1;

        self.trace.record(
            at.as_ps(),
            TraceCat::Dispatch,
            TraceKind::Instant,
            "event",
            to.index() as u32,
            1,
            0,
        );
        let component = self.components.get_mut(to.index());
        let mut ctx = Ctx {
            now: at,
            self_id: to,
            queues: &mut self.queues,
            pages: &mut self.pages,
            pools: &mut self.pools,
            shard: self.shard_env.as_mut(),
            trace: &mut self.trace,
        };
        component.handle(&mut ctx, msg);
    }

    /// Deliver one event and, when the following queue heads continue at
    /// the same instant toward the same component, the whole train behind
    /// it in a single borrow of that component.
    ///
    /// Batching never reorders anything: [`Batch::next`] yields exactly
    /// the maximal prefix of the global `(time, seq)` order addressed to
    /// one component. Messages a handler sends *while* draining carry
    /// newer sequence numbers, so they sort after everything already
    /// queued at this instant — when they end up globally next they join
    /// the train, in the same place per-event dispatch would deliver
    /// them.
    fn dispatch_train(&mut self, at: SimTime, to: ComponentId, msg: M) {
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;

        let component = self.components.get_mut(to.index());
        let mut ctx = Ctx {
            now: at,
            self_id: to,
            queues: &mut self.queues,
            pages: &mut self.pages,
            pools: &mut self.pools,
            shard: self.shard_env.as_mut(),
            trace: &mut self.trace,
        };
        if !ctx.queues.next_matches(at, to) {
            // Singleton event: plain per-message dispatch.
            self.delivered += 1;
            ctx.trace
                .record(at.as_ps(), TraceCat::Dispatch, TraceKind::Instant, "event", to.index() as u32, 1, 0);
            component.handle(&mut ctx, msg);
            return;
        }

        let mut batch = Batch {
            to,
            head: Some(msg),
            run: 0,
            taken: 0,
        };
        ctx.trace
            .record(at.as_ps(), TraceCat::Dispatch, TraceKind::Instant, "train", to.index() as u32, 0, 0);
        component.handle_batch(&mut ctx, &mut batch);
        self.delivered += batch.taken;
        // A batch handler may stop before taking even the head; deliver
        // it per-message then (anything else it skipped is still queued
        // and simply dispatches as the next train). No event is ever
        // dropped.
        if let Some(rest) = batch.head.take() {
            self.delivered += 1;
            component.handle(&mut ctx, rest);
        }
    }

    /// Deliver the next event, if any. Returns `false` when the queue is
    /// empty.
    ///
    /// Always delivers exactly one event (no train batching), which is
    /// what makes [`run_limited`](Self::run_limited)'s event accounting
    /// precise; the bulk runners below batch instead. Both paths produce
    /// identical delivery order and totals.
    ///
    /// # Panics
    ///
    /// Panics if the event targets a reserved slot that was never
    /// [`install`](Self::install)ed.
    pub fn step(&mut self) -> bool {
        match self.queues.pop_next() {
            Some((key, to, msg)) => {
                self.dispatch(key.at, to, msg);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue is empty, draining same-component
    /// same-instant trains in one component borrow each.
    pub fn run(&mut self) {
        while let Some((key, to, msg)) = self.queues.pop_next() {
            self.dispatch_train(key.at, to, msg);
        }
    }

    /// Run until the queue is empty or the next event is after `until`;
    /// then advance the clock to exactly `until`.
    ///
    /// Events scheduled at exactly `until` are delivered. The bound is
    /// enforced with a single O(1) head comparison per train — the heap
    /// is not re-searched between deliveries, and every event of a train
    /// shares the head's timestamp, so the bound holds for all of it.
    pub fn run_until(&mut self, until: SimTime) {
        while self.queues.next_at().is_some_and(|at| at <= until) {
            let (key, to, msg) = self.queues.pop_next().expect("next_at saw an event");
            self.dispatch_train(key.at, to, msg);
        }
        debug_assert!(self.now <= until);
        self.now = until;
    }

    /// Run every event strictly before `end`, draining trains as
    /// [`run`](Self::run) does, and leave the clock at the last delivered
    /// event. The sharded runtime's window executor: the strict bound is
    /// what makes the conservative window `[start, end)` half-open, so an
    /// event at exactly `end` waits for the next window (after the
    /// mailbox barrier that may deliver cross-shard events at `end`).
    pub(crate) fn run_before(&mut self, end: SimTime) {
        while self.queues.next_at().is_some_and(|at| at < end) {
            let (key, to, msg) = self.queues.pop_next().expect("next_at saw an event");
            self.dispatch_train(key.at, to, msg);
        }
    }

    /// Enqueue one cross-shard arrival (already payload-attached) under a
    /// fresh local sequence number. Arrivals always go through the index
    /// heap: the fast queue's append-only ordering argument assumes sends
    /// happen at the current instant, which barrier-merged arrivals
    /// violate.
    pub(crate) fn push_arrival(&mut self, at: SimTime, to: ComponentId, msg: M) {
        debug_assert!(
            at >= self.now,
            "arrival predates the shard clock: at={at} now={} to={to:?}",
            self.now
        );
        self.queues.push_heap(at, to, msg);
    }

    /// Run until the queue empties or `max_events` more events have been
    /// delivered. Returns the number actually delivered — a guard against
    /// accidental livelock in model development.
    pub fn run_limited(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// `true` if no events remain.
    pub fn is_idle(&self) -> bool {
        self.queues.heap.is_empty() && self.queues.fast.is_empty()
    }
}

/// Restore the heap property upward from `i` (4-ary: parent of `i` is
/// `(i - 1) / 4`). Moves a hole instead of swapping: one store per level
/// plus the final placement.
#[inline]
fn sift_up(heap: &mut [HeapEntry], mut i: usize) {
    let entry = heap[i];
    let key = entry.key.packed();
    while i > 0 {
        let parent = (i - 1) / 4;
        if key < heap[parent].key.packed() {
            heap[i] = heap[parent];
            i = parent;
        } else {
            break;
        }
    }
    heap[i] = entry;
}

/// Restore the heap property downward from the root after placing `entry`
/// there conceptually (children of `i` are `4i + 1 ..= 4i + 4`).
///
/// With thousands of events pending every pop walks the full depth, and
/// which child is smallest is a coin toss the branch predictor loses. So
/// a full group of four is reduced by a two-round tournament of selects
/// over the packed keys — conditional moves, no data-dependent branch —
/// and the only branch left per level is "keep descending", taken until
/// the last level or two. Only the one partial group at the heap's edge
/// takes the plain scan.
#[inline]
fn sift_down(heap: &mut [HeapEntry], entry: HeapEntry) {
    let len = heap.len();
    let key = entry.key.packed();
    let mut i = 0;
    loop {
        let first = 4 * i + 1;
        let (min, min_key) = if let Some(group) = heap.get(first..first + 4) {
            let k: [u128; 4] = std::array::from_fn(|c| group[c].key.packed());
            let (a, ka) = if k[1] < k[0] { (1, k[1]) } else { (0, k[0]) };
            let (b, kb) = if k[3] < k[2] { (3, k[3]) } else { (2, k[2]) };
            if kb < ka {
                (first + b, kb)
            } else {
                (first + a, ka)
            }
        } else if first < len {
            let mut min = first;
            let mut min_key = heap[first].key.packed();
            for (c, e) in heap.iter().enumerate().skip(first + 1) {
                let k = e.key.packed();
                if k < min_key {
                    (min, min_key) = (c, k);
                }
            }
            (min, min_key)
        } else {
            break;
        };
        if min_key < key {
            heap[i] = heap[min];
            i = min;
        } else {
            break;
        }
    }
    heap[i] = entry;
}

/// Pop the minimum entry of the 4-ary heap.
#[inline]
fn pop_root(heap: &mut Vec<HeapEntry>) -> Option<HeapEntry> {
    let last = heap.pop()?;
    if heap.is_empty() {
        return Some(last);
    }
    let root = heap[0];
    sift_down(heap, last);
    Some(root)
}

impl<M: Message> fmt::Debug for Simulator<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("components", &self.components.len())
            .field("installed", &self.components.installed_count())
            .field("pending_events", &self.pending_events())
            .field("delivered", &self.delivered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        received: Vec<(SimTime, u32)>,
        reply_to: Option<ComponentId>,
        reply_delay: SimTime,
    }

    impl Echo {
        fn sink() -> Self {
            Echo {
                received: vec![],
                reply_to: None,
                reply_delay: SimTime::ns(100),
            }
        }

        fn replying(to: ComponentId) -> Self {
            Echo {
                received: vec![],
                reply_to: Some(to),
                reply_delay: SimTime::ns(100),
            }
        }
    }

    struct Num(u32);

    impl Component<Num> for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_, Num>, msg: Num) {
            let Num(n) = msg;
            self.received.push((ctx.now(), n));
            if let Some(to) = self.reply_to {
                ctx.send(to, self.reply_delay, Num(n + 1));
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut sim = Simulator::new();
        let id = sim.add_component(Echo::sink());
        sim.schedule(SimTime::us(3), id, Num(3));
        sim.schedule(SimTime::us(1), id, Num(1));
        sim.schedule(SimTime::us(2), id, Num(2));
        sim.run();
        let echo = sim.component::<Echo>(id).unwrap();
        let values: Vec<u32> = echo.received.iter().map(|&(_, n)| n).collect();
        assert_eq!(values, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::us(3));
        assert_eq!(sim.events_delivered(), 3);
    }

    #[test]
    fn same_instant_fifo_order() {
        let mut sim = Simulator::new();
        let id = sim.add_component(Echo::sink());
        for n in 0..10 {
            sim.schedule(SimTime::us(5), id, Num(n));
        }
        sim.run();
        let echo = sim.component::<Echo>(id).unwrap();
        let values: Vec<u32> = echo.received.iter().map(|&(_, n)| n).collect();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_fifo_order_under_fast_path() {
        // A fan-out chain built from zero-delay sends: one component
        // relays each message to a sink at delay zero, twice. The fast
        // queue must interleave with heap events without reordering any
        // same-instant FIFO.
        struct Relay {
            to: ComponentId,
        }
        impl Component<Num> for Relay {
            fn handle(&mut self, ctx: &mut Ctx<'_, Num>, Num(n): Num) {
                ctx.send(self.to, SimTime::ZERO, Num(2 * n));
                ctx.send(self.to, SimTime::ZERO, Num(2 * n + 1));
            }
        }
        let mut sim = Simulator::new();
        let sink = sim.reserve();
        let relay = sim.add_component(Relay { to: sink });
        sim.install(sink, Echo::sink());
        for n in 0..8 {
            // Mix of instants: four at t=1us, four at t=2us.
            sim.schedule(SimTime::us(1 + u64::from(n) % 2), relay, Num(n));
        }
        sim.run();
        let echo = sim.component::<Echo>(sink).unwrap();
        let values: Vec<u32> = echo.received.iter().map(|&(_, n)| n).collect();
        // t=1us carries inputs 0,2,4,6 in schedule order; t=2us carries
        // 1,3,5,7. Each input n fans out to (2n, 2n+1) in send order.
        assert_eq!(
            values,
            vec![0, 1, 4, 5, 8, 9, 12, 13, 2, 3, 6, 7, 10, 11, 14, 15]
        );
        // All instants visited in order.
        assert!(echo.received.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn deterministic_across_runs() {
        // Same wiring and inputs => identical event count and final
        // clock, run twice from scratch.
        fn run_once() -> (u64, SimTime) {
            let mut sim = Simulator::new();
            let a = sim.reserve();
            let b = sim.reserve();
            sim.install(a, Echo::replying(b));
            let mut eb = Echo::replying(a);
            eb.reply_delay = SimTime::ns(70);
            sim.install(b, eb);
            for n in 0..5 {
                sim.schedule(SimTime::ns(u64::from(n) * 13), a, Num(n));
            }
            sim.run_limited(5_000);
            (sim.events_delivered(), sim.now())
        }
        let first = run_once();
        let second = run_once();
        assert_eq!(first, second);
        assert_eq!(first.0, 5_000);
    }

    #[test]
    fn arena_free_list_reuses_slots() {
        // A two-party ping-pong keeps at most one event in flight, so the
        // arena must stay at a single slot no matter how many events pass
        // through the heap.
        let mut sim = Simulator::new();
        let a = sim.reserve();
        let b = sim.reserve();
        sim.install(a, Echo::replying(b));
        sim.install(b, Echo::replying(a));
        sim.schedule(SimTime::ZERO, a, Num(0));
        let delivered = sim.run_limited(10_000);
        assert_eq!(delivered, 10_000);
        assert_eq!(
            sim.arena_slots(),
            1,
            "steady one-in-flight load must not grow the arena"
        );
    }

    #[test]
    fn ping_pong_between_components() {
        let mut sim = Simulator::new();
        let a = sim.reserve();
        let b = sim.reserve();
        sim.install(a, Echo::replying(b));
        sim.install(b, Echo::sink());
        sim.schedule(SimTime::ZERO, a, Num(7));
        sim.run();
        assert_eq!(
            sim.component::<Echo>(a).unwrap().received,
            vec![(SimTime::ZERO, 7)]
        );
        assert_eq!(
            sim.component::<Echo>(b).unwrap().received,
            vec![(SimTime::ns(100), 8)]
        );
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Simulator::new();
        let id = sim.add_component(Echo::sink());
        sim.schedule(SimTime::us(1), id, Num(1));
        sim.schedule(SimTime::us(10), id, Num(2));
        sim.run_until(SimTime::us(5));
        assert_eq!(sim.now(), SimTime::us(5));
        assert_eq!(sim.component::<Echo>(id).unwrap().received.len(), 1);
        assert!(!sim.is_idle());
        sim.run();
        assert_eq!(sim.component::<Echo>(id).unwrap().received.len(), 2);
    }

    #[test]
    fn run_until_delivers_events_at_boundary() {
        let mut sim = Simulator::new();
        let id = sim.add_component(Echo::sink());
        sim.schedule(SimTime::us(5), id, Num(1));
        sim.run_until(SimTime::us(5));
        assert_eq!(sim.component::<Echo>(id).unwrap().received.len(), 1);
    }

    #[test]
    fn run_limited_bounds_work() {
        // Two components ping-ponging forever.
        let mut sim = Simulator::new();
        let a = sim.reserve();
        let b = sim.reserve();
        sim.install(a, Echo::replying(b));
        sim.install(b, Echo::replying(a));
        sim.schedule(SimTime::ZERO, a, Num(0));
        let delivered = sim.run_limited(101);
        assert_eq!(delivered, 101);
        assert!(!sim.is_idle());
    }

    #[test]
    fn typed_access_rejects_wrong_type() {
        struct Other;
        impl Component<Num> for Other {
            fn handle(&mut self, _ctx: &mut Ctx<'_, Num>, _msg: Num) {}
        }
        let mut sim = Simulator::<Num>::new();
        let id = sim.add_component(Other);
        assert!(sim.component::<Echo>(id).is_none());
        assert!(sim.component::<Other>(id).is_some());
        assert!(sim.component_mut::<Other>(id).is_some());
    }

    #[test]
    #[should_panic(expected = "uninstalled component")]
    fn sending_to_reserved_slot_panics() {
        let mut sim = Simulator::<Num>::new();
        let id = sim.reserve();
        sim.schedule(SimTime::ZERO, id, Num(0));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let mut sim = Simulator::<Num>::new();
        let id = sim.add_component(Echo::sink());
        sim.install(id, Echo::sink());
    }

    /// Records how each message reached it: via a train batch or a
    /// per-message dispatch.
    struct BatchProbe {
        log: Vec<(u32, bool)>,
        batches: u64,
        /// Max messages to consume per `handle_batch` call (`usize::MAX`
        /// = all of them).
        consume_limit: usize,
    }

    impl BatchProbe {
        fn new() -> Self {
            BatchProbe {
                log: vec![],
                batches: 0,
                consume_limit: usize::MAX,
            }
        }
    }

    impl Component<Num> for BatchProbe {
        fn handle(&mut self, _ctx: &mut Ctx<'_, Num>, Num(n): Num) {
            self.log.push((n, false));
        }

        fn handle_batch(&mut self, ctx: &mut Ctx<'_, Num>, batch: &mut Batch<Num>) {
            self.batches += 1;
            for _ in 0..self.consume_limit {
                match batch.next(ctx) {
                    Some(Num(n)) => self.log.push((n, true)),
                    None => break,
                }
            }
        }
    }

    #[test]
    fn same_instant_trains_arrive_as_one_batch() {
        let mut sim = Simulator::new();
        let a = sim.add_component(BatchProbe::new());
        let b = sim.add_component(BatchProbe::new());
        // Global order at t=1us: a, a, b, a — the first two form a train,
        // the b interleave breaks it, the last a is a singleton.
        sim.schedule(SimTime::us(1), a, Num(0));
        sim.schedule(SimTime::us(1), a, Num(1));
        sim.schedule(SimTime::us(1), b, Num(2));
        sim.schedule(SimTime::us(1), a, Num(3));
        sim.run();
        let pa = sim.component::<BatchProbe>(a).unwrap();
        assert_eq!(pa.log, vec![(0, true), (1, true), (3, false)]);
        assert_eq!(pa.batches, 1);
        let pb = sim.component::<BatchProbe>(b).unwrap();
        assert_eq!(pb.log, vec![(2, false)]);
        assert_eq!(sim.events_delivered(), 4);
    }

    #[test]
    fn partially_consumed_batch_leaves_the_rest_queued() {
        let mut sim = Simulator::new();
        let mut probe = BatchProbe::new();
        probe.consume_limit = 2;
        let id = sim.add_component(probe);
        for n in 0..5 {
            sim.schedule(SimTime::us(1), id, Num(n));
        }
        sim.run();
        let p = sim.component::<BatchProbe>(id).unwrap();
        // The handler takes two per call; what it leaves stays queued, so
        // the five events arrive as trains of 2 + 2 and a singleton — in
        // the original order, with nothing dropped.
        assert_eq!(
            p.log,
            vec![(0, true), (1, true), (2, true), (3, true), (4, false)]
        );
        assert_eq!(p.batches, 2);
        assert_eq!(sim.events_delivered(), 5);
    }

    #[test]
    fn batch_handler_taking_nothing_still_delivers_everything() {
        let mut sim = Simulator::new();
        let mut probe = BatchProbe::new();
        probe.consume_limit = 0;
        let id = sim.add_component(probe);
        for n in 0..3 {
            sim.schedule(SimTime::us(1), id, Num(n));
        }
        sim.run();
        let p = sim.component::<BatchProbe>(id).unwrap();
        // The refusing batch handler forces the per-message fallback for
        // every train head; order and totals are untouched.
        assert_eq!(p.log, vec![(0, false), (1, false), (2, false)]);
        assert_eq!(sim.events_delivered(), 3);
    }

    #[test]
    fn zero_delay_sends_during_a_batch_join_the_running_train() {
        // A component that, while draining a train, emits one zero-delay
        // self-send per scheduled message: the emissions sort after
        // everything already queued at this instant — exactly where
        // per-event dispatch would deliver them — and, being globally
        // next when the original train runs dry, extend the same batch.
        struct Echoing {
            seen: Vec<u32>,
            trains: Vec<usize>,
            budget: u32,
        }
        impl Component<Num> for Echoing {
            fn handle(&mut self, ctx: &mut Ctx<'_, Num>, Num(n): Num) {
                self.seen.push(n);
                if self.budget > 0 {
                    self.budget -= 1;
                    ctx.send_self(SimTime::ZERO, Num(100 + n));
                }
                self.trains.push(1);
            }

            fn handle_batch(&mut self, ctx: &mut Ctx<'_, Num>, batch: &mut Batch<Num>) {
                let mut train = 0;
                while let Some(Num(n)) = batch.next(ctx) {
                    train += 1;
                    self.seen.push(n);
                    if self.budget > 0 {
                        self.budget -= 1;
                        ctx.send_self(SimTime::ZERO, Num(100 + n));
                    }
                }
                self.trains.push(train);
            }
        }
        let mut sim = Simulator::new();
        let id = sim.add_component(Echoing {
            seen: vec![],
            trains: vec![],
            budget: 3,
        });
        for n in 0..3 {
            sim.schedule(SimTime::ZERO, id, Num(n));
        }
        sim.run();
        let e = sim.component::<Echoing>(id).unwrap();
        assert_eq!(e.seen, vec![0, 1, 2, 100, 101, 102]);
        assert_eq!(e.trains, vec![6], "echoes extend the same train");
        assert_eq!(sim.events_delivered(), 6);
    }

    #[test]
    fn step_and_run_deliver_identically() {
        // The per-event path (step) and the batched path (run) must agree
        // on order, count and final clock for a workload mixing trains,
        // interleaves and zero-delay fan-out.
        fn build() -> (Simulator<Num>, ComponentId) {
            struct Relay {
                to: ComponentId,
            }
            impl Component<Num> for Relay {
                fn handle(&mut self, ctx: &mut Ctx<'_, Num>, Num(n): Num) {
                    ctx.send(self.to, SimTime::ZERO, Num(2 * n));
                    ctx.send(self.to, SimTime::ZERO, Num(2 * n + 1));
                }
            }
            let mut sim = Simulator::new();
            let sink = sim.reserve();
            let relay = sim.add_component(Relay { to: sink });
            sim.install(sink, Echo::sink());
            for n in 0..12 {
                sim.schedule(SimTime::ns(u64::from(n % 3) * 10), relay, Num(n));
            }
            (sim, sink)
        }
        let (mut batched, sink_b) = build();
        batched.run();
        let (mut stepped, sink_s) = build();
        while stepped.step() {}
        assert_eq!(
            batched.component::<Echo>(sink_b).unwrap().received,
            stepped.component::<Echo>(sink_s).unwrap().received,
        );
        assert_eq!(batched.events_delivered(), stepped.events_delivered());
        assert_eq!(batched.now(), stepped.now());
    }

    #[test]
    fn run_until_batches_trains_only_within_bound() {
        let mut sim = Simulator::new();
        let id = sim.add_component(BatchProbe::new());
        for n in 0..4 {
            sim.schedule(SimTime::us(1), id, Num(n));
        }
        for n in 4..6 {
            sim.schedule(SimTime::us(9), id, Num(n));
        }
        sim.run_until(SimTime::us(5));
        let p = sim.component::<BatchProbe>(id).unwrap();
        assert_eq!(p.log, vec![(0, true), (1, true), (2, true), (3, true)]);
        assert_eq!(sim.now(), SimTime::us(5));
        sim.run();
        let p = sim.component::<BatchProbe>(id).unwrap();
        assert_eq!(p.log.len(), 6);
        assert_eq!(p.batches, 2);
    }

    #[test]
    fn pages_travel_by_handle_between_components() {
        use crate::pagestore::PageRef;

        struct PageMsg(PageRef);

        /// Allocates a page, fills it, ships the handle.
        struct Producer {
            to: ComponentId,
        }
        impl Component<PageMsg> for Producer {
            fn handle(&mut self, ctx: &mut Ctx<'_, PageMsg>, PageMsg(kick): PageMsg) {
                ctx.pages().free(kick);
                let page = ctx.pages().alloc_from(b"payload bytes");
                ctx.send(self.to, SimTime::us(1), PageMsg(page));
            }
        }

        /// Consumes (copies out + frees) every page it receives.
        struct Consumer {
            seen: Vec<Vec<u8>>,
        }
        impl Component<PageMsg> for Consumer {
            fn handle(&mut self, ctx: &mut Ctx<'_, PageMsg>, PageMsg(page): PageMsg) {
                self.seen.push(ctx.pages().take(page));
            }
        }

        let mut sim = Simulator::new();
        let consumer = sim.reserve();
        let producer = sim.add_component(Producer { to: consumer });
        sim.install(consumer, Consumer { seen: vec![] });
        let kick = sim.page_store_mut().alloc(1);
        sim.schedule(SimTime::ZERO, producer, PageMsg(kick));
        sim.run();
        assert_eq!(
            sim.component::<Consumer>(consumer).unwrap().seen,
            vec![b"payload bytes".to_vec()]
        );
        sim.page_store().assert_quiescent();
    }

    #[test]
    fn entry_size_accessors_report_compact_layouts() {
        // A zero-sized message: the fast-queue entry is the fixed
        // overhead alone (16-byte key + 4-byte target, padded).
        assert_eq!(Simulator::<()>::heap_entry_bytes(), 24);
        assert!(Simulator::<()>::fast_queue_entry_bytes() <= 24);
    }

    #[test]
    fn packed_key_orders_exactly_as_the_derived_ord() {
        // Depth and interleaving are covered by the differential test in
        // `tests/props.rs` (`event_queue_matches_btreemap_model_at_depth`);
        // this pins the one thing it cannot reach: the extremes, where a
        // packing that dropped or overlapped a bit would first show.
        let edges = [0, 1, 2, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let keys: Vec<EventKey> = edges
            .iter()
            .flat_map(|&at| edges.iter().map(move |&seq| EventKey { at: SimTime::ps(at), seq }))
            .collect();
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), a.packed().cmp(&b.packed()), "{a:?} vs {b:?}");
            }
        }
        let max = EventKey { at: SimTime::ps(u64::MAX), seq: u64::MAX };
        assert_eq!(max.packed(), u128::MAX);
    }
}
