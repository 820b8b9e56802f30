//! The discrete-event engine: typed messages, components and the event
//! queue.
//!
//! Hardware blocks (flash controllers, network switches, DMA engines, ...)
//! are modelled as [`Component`]s registered with a [`Simulator`]. They
//! communicate exclusively by scheduling messages to each other's
//! [`ComponentId`]s with a non-negative delay; the engine delivers messages
//! in a total order (time, then scheduling order), which makes every run
//! deterministic.
//!
//! ## The typed message kernel
//!
//! A simulation is instantiated over one concrete message type `M`
//! (typically an enum composing every protocol in the model — see
//! the core crate's `Msg` for the workspace-wide instance). Messages travel
//! **inline**: no per-message heap allocation, no `Box<dyn Any>`, no
//! downcast on delivery — a component receives `M` by value and matches on
//! it. This is the hot path of every experiment, so its layout is tuned:
//!
//! * pending events live in a **slab arena** (`Vec` + free list) that is
//!   reused for the whole run, and the priority queue itself is one
//!   **monotone radix heap** (Ahuja, Mehlhorn, Orlin & Tarjan 1990) of
//!   16-byte `(time, slot)` entries, so ordering work moves those, never
//!   payloads (see *The event queue* below);
//! * components live in a **flattened arena** (the private `arena`
//!   module):
//!   every slot always holds an installed component (reserved slots hold
//!   a panicking sentinel), so the dispatcher's component fetch is a
//!   single bounds-checked index — no `Option` discriminant, no
//!   move-out/move-back around the handler call;
//! * there is one delivery path: [`Simulator::step`] pops the globally
//!   next event, fetches its component and calls [`Component::handle`]
//!   once, and every other runner ([`Simulator::run`],
//!   [`Simulator::run_until`], the sharded runtime's window executor) is
//!   a loop over it;
//! * bulk payloads (flash pages) live in the simulator-owned
//!   [`PageStore`] and cross the system as 8-byte
//!   [`PageRef`](crate::PageRef) handles, so messages stay
//!   cache-line-sized — [`Ctx::pages`] is the component-side window into
//!   the store, and [`ComponentId`] is a `u32` for the same reason.
//!
//! ## The event queue
//!
//! DES pops are monotone: no event is ever scheduled before the one being
//! executed. The radix heap is built on exactly that property. It keeps
//! `last`, the instant of the last pop, and 65 buckets:
//!
//! * **bucket 0** is a FIFO of the events at exactly `last`;
//! * **bucket `b` ≥ 1** holds the events whose `at ^ last` has its
//!   highest set bit at `b - 1`, so every event in bucket `b` is earlier
//!   than every event in bucket `b + 1`.
//!
//! A push files its entry by that one XOR and appends it. A per-bucket
//! minimum plus an occupancy mask make `next_at` O(1) and
//! read-only: a peek that advanced `last` would misfile events injected
//! later between the clock and the next event. A pop takes the head of
//! bucket 0; when it is empty, `last` moves to the minimum of the lowest
//! occupied bucket, and that bucket is redistributed, in order, into the
//! buckets below it. Each entry moves at most 64 times over its life,
//! and at a shared instant (command-forwarding chains send at delay
//! zero) a push and a pop are one append and one cursor step.
//!
//! **Why the order is (time, push order).** Every push lands at or after
//! the clock, and the clock is at or after `last` (`run_until` never
//! moves it backwards), so no entry is ever filed below `last`. A push
//! appends, and redistribution only fills buckets that are empty (they
//! lie below the lowest occupied one) and walks its source front to
//! back. So every bucket stays in push order, two events at one instant
//! always share a bucket, and pops come out in (time, push order): the
//! total order every digest, event count and trace in the workspace is
//! pinned in.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use bluedbm_trace::{TraceCat, TraceConfig, TraceKind, TraceName, TracePart, TraceSink, Tracer};

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
}

/// One queue entry: the event's instant in picoseconds plus the arena
/// slot holding its payload. Payloads never move between buckets.
#[derive(Clone, Copy)]
struct Entry {
    at: u64,
    slot: u32,
}

/// Arena slot: either a pending event's payload or a free-list link.
enum Slot<M> {
    Free { next: u32 },
    Full { to: ComponentId, msg: M },
}

const NO_SLOT: u32 = u32::MAX;

/// Bucket 0 plus one bucket per bit of a `u64` instant.
const BUCKETS: usize = 65;

/// The bucket an event at `at` belongs in while the last pop was at
/// `last`: 0 for `at == last`, else one past the highest bit where the
/// two differ.
#[inline]
fn bucket(at: u64, last: u64) -> usize {
    (u64::BITS - (at ^ last).leading_zeros()) as usize
}

/// The event queue: the radix heap of the [module docs](self#the-event-queue)
/// over a payload arena. Split out of [`Simulator`] so a running
/// handler's [`Ctx`] can push events directly (the queue and the
/// component arena are disjoint `Simulator` fields, so the executing
/// component's `&mut` borrow never aliases them) — each send is a single
/// inline move, with no intermediate outbox copy.
pub(crate) struct Queues<M> {
    /// Bucket 0 (read from `head`) and buckets 1–64, each in push order.
    buckets: [Vec<Entry>; BUCKETS],
    /// Smallest `at` per bucket, `u64::MAX` where the bucket is empty.
    mins: [u64; BUCKETS],
    /// Bit `b` set iff bucket `b` holds an entry.
    occupied: u128,
    /// Read cursor of bucket 0. Consumed entries stay until bucket 0
    /// drains, so it holds at most the events of one instant.
    head: usize,
    /// Instant of the last pop, in picoseconds.
    last: u64,
    /// Payload arena; freed slots chain through `free_head`.
    slots: Vec<Slot<M>>,
    free_head: u32,
}

impl<M: Message> Queues<M> {
    fn with_capacity(events: usize) -> Self {
        Queues {
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; BUCKETS],
            occupied: 0,
            head: 0,
            last: 0,
            slots: Vec::with_capacity(events),
            free_head: NO_SLOT,
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
            Slot::Free { .. } => unreachable!("queue entry points at a free slot"),
        }
    }

    /// Append `entry` to the bucket its instant belongs in.
    #[inline]
    fn file(&mut self, entry: Entry) {
        let b = bucket(entry.at, self.last);
        self.buckets[b].push(entry);
        self.mins[b] = self.mins[b].min(entry.at);
        self.occupied |= 1 << b;
    }

    /// Enqueue one event at `at`, which must not precede the last pop
    /// (the clock never does, so every send and injection qualifies).
    #[inline]
    fn push(&mut self, at: SimTime, to: ComponentId, msg: M) {
        let at = at.as_ps();
        debug_assert!(
            at >= self.last,
            "event at {at} ps predates the last pop at {} ps",
            self.last
        );
        let slot = self.alloc_slot(to, msg);
        self.file(Entry { at, slot });
    }

    /// Pop the next event in (time, push order), if any.
    #[inline]
    fn pop_next(&mut self) -> Option<(SimTime, ComponentId, M)> {
        if self.occupied & 1 == 0 && !self.advance() {
            return None;
        }
        let now = &mut self.buckets[0];
        let slot = now[self.head].slot;
        self.head += 1;
        if self.head == now.len() {
            now.clear();
            self.head = 0;
            self.mins[0] = u64::MAX;
            self.occupied &= !1;
        }
        let (to, msg) = self.take_slot(slot);
        Some((SimTime::ps(self.last), to, msg))
    }

    /// Bucket 0 is empty: move `last` to the minimum of the lowest
    /// occupied bucket and redistribute that bucket, front to back, into
    /// the empty buckets below it. Returns `false` if nothing is pending.
    fn advance(&mut self) -> bool {
        let b = self.occupied.trailing_zeros() as usize;
        if b >= BUCKETS {
            return false;
        }
        self.last = self.mins[b];
        self.mins[b] = u64::MAX;
        self.occupied &= !(1 << b);
        let mut moving = std::mem::take(&mut self.buckets[b]);
        for &entry in &moving {
            self.file(entry);
        }
        moving.clear();
        self.buckets[b] = moving;
        true
    }

    /// Timestamp of the next pending event, if any. Read-only: `last`
    /// moves only when that event is popped.
    #[inline]
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        let b = self.occupied.trailing_zeros() as usize;
        self.mins.get(b).map(|&at| SimTime::ps(at))
    }

    /// Events pending.
    fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum::<usize>() - self.head
    }
}

/// Sentinel in a shard-ownership table for component ids that were
/// reserved but never installed (sends to them panic, mirroring the
/// sequential engine's delivery-time panic).
pub(crate) const UNOWNED: u32 = u32::MAX;

/// One cross-shard send, parked in the sending shard's outbox until the
/// next window barrier. `(at, seq, to, msg)` is the mailbox entry the
/// receiving shard merges on; `sent_at` refines same-instant merges so
/// they follow send order, like the sequential engine's push order.
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
    /// The next [`Outbound::seq`]: this shard's cross-shard send order.
    pub(crate) sent: u64,
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
    /// simulator (see `Simulator::set_trace`).
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
                env.outboxes[dst as usize].push(Outbound {
                    at,
                    sent_at: self.now,
                    seq: env.sent,
                    to,
                    msg: msg.into(),
                });
                env.sent += 1;
                return;
            }
        }
        self.queues.push(at, to, msg.into());
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
    pub(crate) fn with_capacity(events: usize) -> Self {
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
    pub(crate) fn pool_store(&self) -> &PoolStore {
        &self.pools
    }

    /// Install (or disable) event tracing per `cfg`. Records are stamped
    /// with `shard` — `0` for a standalone simulator; the sharded
    /// runtime passes each member's shard id, and driver-side sinks use
    /// [`bluedbm_trace::DRIVER_SHARD`].
    ///
    /// Replaces any existing sink, discarding unharvested records.
    pub(crate) fn set_trace(&mut self, cfg: TraceConfig, shard: u32) {
        self.trace = TraceSink::new(cfg, shard);
    }

    /// Harvest the records captured so far (the sink stays installed and
    /// its sequence numbering keeps running).
    pub(crate) fn take_trace(&mut self) -> TracePart {
        self.trace.take()
    }

    /// Size in bytes of one event-queue entry (`(time, slot)`), the
    /// unit the queue's ordering work moves.
    #[inline]
    pub fn queue_entry_bytes() -> usize {
        std::mem::size_of::<Entry>()
    }

    /// Size in bytes of one payload-arena slot (target + inline
    /// message, or a free-list link): what each pending event holds
    /// besides its queue entry.
    #[inline]
    pub fn arena_slot_bytes() -> usize {
        std::mem::size_of::<Slot<M>>()
    }

    /// Current simulated time (the timestamp of the last delivered event,
    /// or the `until` argument of the last bounded run that reached
    /// past it).
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

    /// Events currently pending.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.queues.len()
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
    /// Shares [`Ctx::send`]'s insertion path: it is delivered after
    /// every event already pending at its instant.
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
        self.queues.push(at, to, msg);
    }

    /// Deliver the next event, if any: the one path from the queues to a
    /// handler, which every runner below loops over. Returns `false` when
    /// the queue is empty.
    ///
    /// The handler's sends land in the queues directly. The component
    /// fetch is a single bounds-checked arena index; reserved slots hold
    /// a sentinel whose handler raises the uninstalled-component panic.
    ///
    /// # Panics
    ///
    /// Panics if the event targets a reserved slot that was never
    /// [`install`](Self::install)ed.
    pub fn step(&mut self) -> bool {
        let Some((at, to, msg)) = self.queues.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.delivered += 1;

        self.trace.record(
            at.as_ps(),
            TraceCat::Dispatch,
            TraceKind::Instant,
            TraceName::Event,
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
        true
    }

    /// Run until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the queue is empty or the next event is after `until`;
    /// then advance the clock to `until`.
    ///
    /// Events scheduled at exactly `until` are delivered. The bound is
    /// one O(1) peek per event. An `until` before the clock delivers
    /// nothing and leaves the clock and the queue as they are: the clock
    /// never runs backwards.
    pub fn run_until(&mut self, until: SimTime) {
        while self.queues.next_at().is_some_and(|at| at <= until) {
            self.step();
        }
        self.now = self.now.max(until);
    }

    /// Run every event strictly before `end` and leave the clock at the
    /// last delivered event. The sharded runtime's window executor: the
    /// strict bound is what makes the conservative window `[start, end)`
    /// half-open, so an event at exactly `end` waits for the next window
    /// (after the mailbox barrier that may deliver cross-shard events at
    /// `end`).
    pub(crate) fn run_before(&mut self, end: SimTime) {
        while self.queues.next_at().is_some_and(|at| at < end) {
            self.step();
        }
    }

    /// Enqueue one cross-shard arrival (already payload-attached): it
    /// is delivered after every event already pending at its instant.
    pub(crate) fn push_arrival(&mut self, at: SimTime, to: ComponentId, msg: M) {
        debug_assert!(
            at >= self.now,
            "arrival predates the shard clock: at={at} now={} to={to:?}",
            self.now
        );
        self.queues.push(at, to, msg);
    }

    /// `true` if no events remain.
    pub(crate) fn is_idle(&self) -> bool {
        self.queues.occupied == 0
    }
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

    impl<M: Message> Simulator<M> {
        /// Run until the queue empties or `max_events` more events have
        /// been delivered; returns the number delivered.
        fn run_limited(&mut self, max_events: u64) -> u64 {
            let mut n = 0;
            while n < max_events && self.step() {
                n += 1;
            }
            n
        }
    }

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
    fn same_instant_fifo_order_under_zero_delay_fan_out() {
        // A fan-out chain built from zero-delay sends: one component
        // relays each message to a sink at delay zero, twice. The sends
        // at the current instant must interleave with events pending at
        // later instants without reordering any same-instant FIFO.
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
            sim.queues.slots.len(),
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

    /// Logs every delivery and answers each of its first `budget`
    /// messages with a zero-delay self-send of `100 + n`.
    struct SelfEcho {
        seen: Vec<u32>,
        budget: u32,
    }

    impl Component<Num> for SelfEcho {
        fn handle(&mut self, ctx: &mut Ctx<'_, Num>, Num(n): Num) {
            self.seen.push(n);
            if self.budget > 0 {
                self.budget -= 1;
                ctx.send_self(SimTime::ZERO, Num(100 + n));
            }
        }
    }

    #[test]
    fn zero_delay_self_sends_follow_everything_queued_at_the_instant() {
        // The echoes carry newer sequence numbers than the three
        // scheduled messages, so they are delivered after all of them.
        let mut sim = Simulator::new();
        let id = sim.add_component(SelfEcho {
            seen: vec![],
            budget: 3,
        });
        for n in 0..3 {
            sim.schedule(SimTime::ZERO, id, Num(n));
        }
        sim.run();
        let e = sim.component::<SelfEcho>(id).unwrap();
        assert_eq!(e.seen, vec![0, 1, 2, 100, 101, 102]);
        assert_eq!(sim.events_delivered(), 6);
    }

    #[test]
    fn every_delivery_records_one_dispatch_event() {
        // Runs of same-instant events to one component, broken by
        // interleaves to another, plus zero-delay self-sends: each
        // delivery still leaves exactly one record.
        fn traced(drive: fn(&mut Simulator<Num>)) -> (Vec<bluedbm_trace::TraceRecord>, u64) {
            let mut sim = Simulator::new();
            sim.set_trace(TraceConfig::on(), 0);
            let a = sim.add_component(SelfEcho {
                seen: vec![],
                budget: 4,
            });
            let b = sim.add_component(SelfEcho {
                seen: vec![],
                budget: 1,
            });
            let at_1us = [(a, 0), (a, 1), (b, 2), (a, 3), (a, 4)];
            let at_2us = [(a, 5), (a, 6)];
            for (to, n) in at_1us {
                sim.schedule(SimTime::us(1), to, Num(n));
            }
            for (to, n) in at_2us {
                sim.schedule(SimTime::us(2), to, Num(n));
            }
            drive(&mut sim);
            let doc = bluedbm_trace::TraceDoc::merge(vec![sim.take_trace()]);
            (doc.records().collect::<Vec<_>>(), sim.events_delivered())
        }
        let (run, delivered) = traced(|sim| sim.run());
        assert_eq!(delivered, 12);
        assert_eq!(run.len() as u64, delivered, "one record per event");
        assert!(run
            .iter()
            .all(|r| r.cat == TraceCat::Dispatch && r.name == TraceName::Event && r.a == 1));
        // Same order as the stepping loop, record for record.
        let (stepped, _) = traced(|sim| while sim.step() {});
        assert_eq!(run, stepped);
    }

    #[test]
    fn step_and_run_deliver_identically() {
        // Stepping by hand and `run` must agree on order, count and final
        // clock for a workload mixing same-instant runs, interleaves and
        // zero-delay fan-out.
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
        let (mut ran, sink_r) = build();
        ran.run();
        let (mut stepped, sink_s) = build();
        while stepped.step() {}
        assert_eq!(
            ran.component::<Echo>(sink_r).unwrap().received,
            stepped.component::<Echo>(sink_s).unwrap().received,
        );
        assert_eq!(ran.events_delivered(), stepped.events_delivered());
        assert_eq!(ran.now(), stepped.now());
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
    fn queue_entries_are_sixteen_bytes() {
        // A 64-bit instant and a 32-bit arena slot, padded: whatever the
        // message type, ordering work moves these and nothing larger.
        assert_eq!(Simulator::<()>::queue_entry_bytes(), 16);
        assert_eq!(Simulator::<[u8; 256]>::queue_entry_bytes(), 16);
    }

    #[test]
    fn run_until_before_the_clock_leaves_clock_and_queue_alone() {
        let mut sim = Simulator::new();
        let id = sim.add_component(Echo::sink());
        sim.schedule(SimTime::us(1), id, Num(1));
        sim.schedule(SimTime::us(7), id, Num(2));
        sim.run_until(SimTime::us(5));
        sim.run_until(SimTime::us(2));
        assert_eq!(sim.now(), SimTime::us(5));
        assert_eq!(sim.pending_events(), 1);
        sim.schedule(SimTime::ZERO, id, Num(3));
        sim.run();
        assert_eq!(
            sim.component::<Echo>(id).unwrap().received,
            vec![
                (SimTime::us(1), 1),
                (SimTime::us(5), 3),
                (SimTime::us(7), 2)
            ]
        );
        assert_eq!(sim.now(), SimTime::us(7));
    }

    #[test]
    fn queue_orders_the_key_extremes() {
        // Depth and interleaving are covered by the differential tests in
        // `tests/props.rs`; this pins the edges of the 64-bit key, where
        // a bucket index off by one would first show: `u64::MAX` against
        // `last = 0` is bucket 64, the top one.
        assert_eq!(bucket(u64::MAX, 0), 64);
        assert_eq!(bucket(1 << 63, 0), 64);
        assert_eq!(bucket(1, 0), 1);
        assert_eq!(bucket(7, 7), 0);
        let edges = [0, 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let mut sim = Simulator::new();
        let id = sim.add_component(Echo::sink());
        // Two events per instant, pushed latest first, so both the time
        // order and the same-instant push order are exercised.
        for (n, &at) in edges.iter().rev().enumerate() {
            sim.schedule(SimTime::ps(at), id, Num(2 * n as u32));
            sim.schedule(SimTime::ps(at), id, Num(2 * n as u32 + 1));
        }
        assert_eq!(sim.queues.next_at(), Some(SimTime::ZERO));
        let mut expected = Vec::new();
        for (n, &at) in edges.iter().rev().enumerate().rev() {
            expected.push((SimTime::ps(at), 2 * n as u32));
            expected.push((SimTime::ps(at), 2 * n as u32 + 1));
        }
        sim.run();
        assert_eq!(sim.component::<Echo>(id).unwrap().received, expected);
        assert!(sim.is_idle());
        assert_eq!(sim.queues.next_at(), None);
    }
}
