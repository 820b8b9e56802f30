//! A concurrent, multi-tenant key-value workload engine over the global
//! address space.
//!
//! BlueDBM grew out of the authors' "scalable multi-access flash store
//! for Big Data analytics" (their FPGA'14 system, the paper's reference
//! 20); this module provides that store as an **event-driven, op-level
//! async API** on top of [`Cluster`]: values are paged onto whichever
//! node the key hashes to, any node can read any key, and many tenants'
//! operations from many reader nodes are in flight through the
//! simulation simultaneously.
//!
//! ## The async model
//!
//! [`KvStore::submit_put`] / [`KvStore::submit_get`] /
//! [`KvStore::submit_delete`] enqueue operations and return op ids
//! without running the simulation; [`KvStore::drive`] runs the cluster's
//! event queues (on either execution engine — the sequential kernel or
//! the sharded parallel runtime, per `config.sim.shards`) until every
//! in-flight operation has completed, harvesting [`KvCompletion`]
//! records. Consistency is **per-key FIFO**: each key carries a
//! readers-writer gate, so concurrent gets share the key while puts and
//! deletes are exclusive, and every operation observes exactly the state
//! left by the last conflicting operation *submitted* before it —
//! submission order is the linearization order, independent of how the
//! engines interleave the underlying events. Ops on different keys
//! proceed fully concurrently.
//!
//! Get payloads are consumed with [`Consume::Accel`]: each page must
//! stream through one of the node's shared accelerator units, which the
//! node's agent books under the FIFO policy of paper Section 4
//! (`crate::scheduler::AccelUnits`), so competing tenants queue against
//! `config.accel.units` and the per-node queue waits are visible via
//! [`Cluster::sched_stats`].
//!
//! ## Flash extents and the leak audit
//!
//! Values own flash pages. [`KvStore::submit_delete`] and overwriting
//! puts release the previous extent back to the cluster's per-node free
//! pool (`Cluster::free_page`), where the card's FTL unmaps the pages
//! and later puts reallocate them; the per-key gates guarantee no reader
//! holds the extent when it is freed, and an overwrite retires the old
//! extent only once its replacement is durable (a failed put leaves the
//! previous value intact). `KvStore::stranded_pages` /
//! [`KvStore::assert_no_stranded_pages`] audit the directory against the
//! cluster's allocation counter, so a code path that drops an extent
//! without freeing it (what `delete` used to do) is caught the way
//! `PageStore::assert_quiescent` catches leaked payload handles.
//!
//! ## Backpressure
//!
//! In-flight flash work is bounded by a per-home-node window
//! (`DEFAULT_WINDOW` page commands): an op's page commands are injected only
//! when its home node has room (an oversized op is admitted alone), and
//! further ready ops wait driver-side. This bounds how much work the
//! driver injects per home node at once. It does not guard the flash
//! tags: each card's line in its node agent holds any command past the
//! card's 128 tags.
//!
//! ## Driver state
//!
//! The driver's own bookkeeping is sized for a working set that does not
//! fit in a hash map of heap-allocated keys:
//!
//! * **Key table.** A key's bytes are hashed once, at submit, when the
//!   crate-private `KeyTable` interns them into a byte arena and names
//!   them by a `u32` id; gates, in-flight ops and ready-queue entries
//!   carry the id. A key keeps its id while it has a value or a busy
//!   gate and gives it back (for reuse) the moment it has neither, so
//!   churn over fresh keys grows nothing.
//! * **Record layout.** Each id's record is 12 bytes beside its 8-byte
//!   arena span: an 8-byte extent — one `(node, card, logical page)`
//!   packed inline for a one-page value, or an index into a side table
//!   of page lists for multi-page values — and the byte count of the
//!   last page. A key's gate is allocated only while ops hold or await
//!   it, and found through a map that holds only those keys. A stored
//!   one-page value costs no heap allocation of its own.
//! * **Payload arena.** A put's value is copied once, at submit, onto
//!   the end of one driver-owned byte arena, and the op keeps its offset
//!   and length; injection chunks the pages straight out of the arena.
//!   The arena is emptied with the op table at the end of every drive
//!   and keeps its capacity, so a steady stream of puts allocates
//!   nothing per op.
//! * **No per-op copies out.** A completion carries no key (callers map
//!   op id → key at submit), and a one-page get's value *is* the page
//!   its read returned; only a multi-page get reassembles into a buffer.
//! * **Per-round dense tables.** Op ids are handed out consecutively and
//!   a `drive()` returns only when every submitted op has completed
//!   (*drain to empty*), so the op table is a `Vec` indexed by
//!   `id - base` that is cleared, and `base` advanced, at the end of
//!   each drive. The cluster likewise numbers submitted commands
//!   consecutively, only this store submits to its cluster, and a
//!   round's [`Cluster::drive`] completes every command the round
//!   submitted before the next `pump` submits more (*quiesce per round*).
//!   [`Cluster::drive`] places each completion at its op id's offset
//!   from the first op since the last drive — no sort — so the round's
//!   completions come back in the order `pump` submitted them, and the
//!   command → (op, page) table is a plain `Vec` read by position,
//!   cleared every round. A lost or extra completion changes the
//!   round's length, which `drive` asserts.
//!
//! # Examples
//!
//! ```rust
//! use bluedbm_core::kvstore::KvStore;
//! use bluedbm_core::{Cluster, NodeId, SystemConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::scaled_down();
//! let cluster = Cluster::ring(4, &config)?;
//! let mut store = KvStore::new(cluster);
//!
//! // Blocking convenience API (drives the simulation per call).
//! store.put(b"user:42", b"a value that spans flash pages")?;
//! let got = store.get(NodeId(2), b"user:42")?.expect("stored");
//! assert_eq!(got.value, b"a value that spans flash pages");
//! assert_eq!(store.get(NodeId(2), b"user:43")?, None);
//!
//! // Async API: two tenants' ops in flight concurrently.
//! let a = store.submit_put(0, b"t0:k", b"alpha");
//! let b = store.submit_put(1, b"t1:k", b"beta");
//! let g = store.submit_get(1, NodeId(3), b"user:42");
//! let done = store.drive();
//! assert_eq!(done.len(), 3);
//! assert!(done.iter().any(|c| c.op == a && c.error.is_none()));
//! assert!(done.iter().any(|c| c.op == b && c.error.is_none()));
//! let got = done.iter().find(|c| c.op == g).unwrap();
//! assert_eq!(got.value.as_deref(), Some(&b"a value that spans flash pages"[..]));
//! store.assert_no_stranded_pages();
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;

use bluedbm_sim::fxhash::FxHashMap;

use bluedbm_net::topology::NodeId;
use bluedbm_sim::time::SimTime;
use bluedbm_sim::{
    Histogram, MetricsDoc, MetricsRegistry, TraceCat, TraceName, TracePart, TraceSink, DRIVER_SHARD,
};

use crate::cluster::{Cluster, ClusterError, GlobalPageAddr, PageOp};
use crate::keytable::KeyTable;
use crate::node::{Completed, Consume};

/// Default per-home-node cap on in-flight page commands.
const DEFAULT_WINDOW: usize = 512;

/// Operation id returned by the `submit_*` calls.
pub(crate) type KvOpId = u64;

/// Tenant (application instance) id, for accounting and fairness
/// observation — tenants share the directory namespace; generators keep
/// them apart by key prefix.
pub type TenantId = u16;

/// Index-addressed storage with slot reuse: key gates and multi-page
/// extents live here and are named by `u32` from the key records.
#[derive(Debug, Default)]
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Slab<T> {
    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(at) => {
                self.items[at as usize] = item;
                at
            }
            None => {
                let at = u32::try_from(self.items.len()).expect("fewer than 2^32 slab entries");
                self.items.push(item);
                at
            }
        }
    }

    fn remove(&mut self, at: u32) -> T {
        self.free.push(at);
        std::mem::take(&mut self.items[at as usize])
    }
}

/// Where a value's pages live, in eight bytes: a tag in the top byte
/// over either one packed page address — node (16 bits), card (8),
/// logical page on the card (32) — or an index into the store's table
/// of multi-page extents. Stored as two `u32` halves (high, low), so a
/// key record needs only 4-byte alignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Extent([u32; 2]);

/// [`Extent`], decoded.
enum ExtentKind {
    /// The key holds no value.
    Absent,
    /// A stored value of zero pages (the empty value).
    Empty,
    /// One page, packed.
    One(u64),
    /// Index into `KvStore::extents`.
    Many(u32),
}

impl Extent {
    const TAG_SHIFT: u32 = 56;
    const ABSENT: Extent = Extent::from_bits(0);
    const EMPTY: Extent = Extent::from_bits(1 << Self::TAG_SHIFT);

    const fn from_bits(bits: u64) -> Self {
        Extent([(bits >> 32) as u32, bits as u32])
    }

    fn bits(self) -> u64 {
        u64::from(self.0[0]) << 32 | u64::from(self.0[1])
    }

    fn one(packed: u64) -> Self {
        Extent::from_bits(2 << Self::TAG_SHIFT | packed)
    }

    fn many(at: u32) -> Self {
        Extent::from_bits(3 << Self::TAG_SHIFT | u64::from(at))
    }

    fn decode(self) -> ExtentKind {
        let bits = self.bits();
        match bits >> Self::TAG_SHIFT {
            0 => ExtentKind::Absent,
            1 => ExtentKind::Empty,
            2 => ExtentKind::One(bits & ((1 << Self::TAG_SHIFT) - 1)),
            _ => ExtentKind::Many(bits as u32),
        }
    }

    fn is_present(self) -> bool {
        self != Extent::ABSENT
    }
}

fn pack(addr: GlobalPageAddr) -> u64 {
    u64::from(addr.node.0) << 40 | u64::from(addr.card) << 32 | u64::from(addr.lpn)
}

fn unpack(packed: u64) -> GlobalPageAddr {
    GlobalPageAddr {
        node: NodeId((packed >> 40) as u16),
        card: (packed >> 32) as u8,
        lpn: packed as u32,
    }
}

/// The pages of an extent, borrowed or unpacked on the spot.
enum ExtentPages<'a> {
    One(GlobalPageAddr),
    Many(&'a [GlobalPageAddr]),
}

impl ExtentPages<'_> {
    fn as_slice(&self) -> &[GlobalPageAddr] {
        match self {
            ExtentPages::One(addr) => std::slice::from_ref(addr),
            ExtentPages::Many(addrs) => addrs,
        }
    }
}

/// The pages of `extent`, in value order (free function so callers can
/// keep borrowing the store's other fields).
fn extent_pages(extents: &Slab<Vec<GlobalPageAddr>>, extent: Extent) -> ExtentPages<'_> {
    match extent.decode() {
        ExtentKind::Absent | ExtentKind::Empty => ExtentPages::Many(&[]),
        ExtentKind::One(packed) => ExtentPages::One(unpack(packed)),
        ExtentKind::Many(at) => ExtentPages::Many(&extents.items[at as usize]),
    }
}

/// `extent` with `addr` appended as its last page.
fn push_page(extents: &mut Slab<Vec<GlobalPageAddr>>, extent: Extent, addr: GlobalPageAddr) -> Extent {
    match extent.decode() {
        ExtentKind::One(first) => Extent::many(extents.insert(vec![unpack(first), addr])),
        ExtentKind::Many(at) => {
            extents.items[at as usize].push(addr);
            extent
        }
        ExtentKind::Absent | ExtentKind::Empty => Extent::one(pack(addr)),
    }
}

fn page_count(extents: &Slab<Vec<GlobalPageAddr>>, extent: Extent) -> usize {
    match extent.decode() {
        ExtentKind::Absent | ExtentKind::Empty => 0,
        ExtentKind::One(_) => 1,
        ExtentKind::Many(at) => extents.items[at as usize].len(),
    }
}

/// Per-key driver state, stored inline in the key table's entry (12
/// bytes, 4-aligned: with the key's arena span, 20 bytes per key).
#[derive(Debug, Default)]
struct KeyState {
    extent: Extent,
    /// Value bytes in the extent's last page (the rest is zero padding).
    tail: u32,
}

/// A blocking-get result: the value plus the simulated time the
/// operation took from injection to accelerator completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetResult {
    /// The stored bytes.
    pub value: Vec<u8>,
    /// Simulated wall time spent (pages stream concurrently).
    pub(crate) elapsed: SimTime,
}

/// What kind of operation a completion reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOpKind {
    /// Store / overwrite a value.
    Put,
    /// Fetch a value.
    Get,
    /// Remove a key (and free its extent).
    Delete,
}

/// One finished KV operation. It names its op by the id `submit_*`
/// returned and carries no copy of the key: a caller that needs the key
/// maps op id → key at submission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvCompletion {
    /// The id `submit_*` returned.
    pub op: KvOpId,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Operation kind.
    pub kind: KvOpKind,
    /// The value read (successful gets of present keys only).
    pub value: Option<Vec<u8>>,
    /// Whether the key existed: hit/miss for gets and deletes, always
    /// `true` for puts.
    pub found: bool,
    /// Failure, if any (allocation or flash errors).
    pub error: Option<ClusterError>,
    /// When the op was submitted.
    pub submitted: SimTime,
    /// When its key gate was acquired and its commands injected.
    pub(crate) started: SimTime,
    /// When the last page command (or accelerator job) finished.
    pub finished: SimTime,
}

/// Per-tenant accounting, updated as operations complete.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Puts completed.
    pub puts: u64,
    /// Gets completed.
    pub gets: u64,
    /// Deletes completed.
    pub deletes: u64,
    /// Gets that found their key.
    pub get_hits: u64,
    /// Gets of absent keys.
    pub get_misses: u64,
    /// Operations that failed.
    pub errors: u64,
    /// Sum of key-gate waits.
    pub total_gate_wait: SimTime,
    /// Largest single key-gate wait.
    pub max_gate_wait: SimTime,
    /// End-to-end (submit → finish) op latency distribution;
    /// `latency.percentile(0.99)` is the tenant's p99.
    pub latency: Histogram,
}

impl TenantStats {
    /// Write every counter (and the latency percentiles) into a metrics
    /// `node` (see [`bluedbm_sim::MetricsRegistry`]).
    pub(crate) fn fill_metrics(&self, node: &mut bluedbm_sim::MetricsNode) {
        node.set("puts", self.puts);
        node.set("gets", self.gets);
        node.set("deletes", self.deletes);
        node.set("get_hits", self.get_hits);
        node.set("get_misses", self.get_misses);
        node.set("errors", self.errors);
        node.set("total_gate_wait_ps", self.total_gate_wait.as_ps());
        node.set("max_gate_wait_ps", self.max_gate_wait.as_ps());
        self.latency.fill_metrics(node.child("latency"));
    }
}

/// Readers-writer gate over one key, FIFO so no tenant starves.
#[derive(Debug, Default)]
struct KeyGate {
    readers: usize,
    writer: bool,
    waiting: VecDeque<KvOpId>,
}

impl KeyGate {
    fn admits(&self, exclusive: bool) -> bool {
        if exclusive {
            !self.writer && self.readers == 0
        } else {
            !self.writer
        }
    }

    fn acquire(&mut self, exclusive: bool) {
        if exclusive {
            self.writer = true;
        } else {
            self.readers += 1;
        }
    }

    fn idle(&self) -> bool {
        self.readers == 0 && !self.writer && self.waiting.is_empty()
    }
}

/// The kind-specific state of one in-flight operation.
#[derive(Debug)]
enum OpBody {
    Put {
        /// Where the payload starts in `KvStore::payloads`, which holds
        /// it until injection chunks it onto flash.
        at: usize,
        /// The pages its writes were given, in value order, as they
        /// complete; moved into the key record at successful completion,
        /// freed on failure.
        extent: Extent,
        /// True value length.
        len: usize,
    },
    Get {
        reader: NodeId,
        /// The value: a one-page value's page itself, or a page-granular
        /// reassembly buffer filled by completion index.
        buf: Vec<u8>,
        /// True value length (the last page is zero-padded on flash).
        len: usize,
    },
    Delete,
}

impl OpBody {
    fn kind(&self) -> KvOpKind {
        match self {
            OpBody::Put { .. } => KvOpKind::Put,
            OpBody::Get { .. } => KvOpKind::Get,
            OpBody::Delete => KvOpKind::Delete,
        }
    }

    /// Puts and deletes hold the key exclusively; gets share it.
    fn exclusive(&self) -> bool {
        !matches!(self, OpBody::Get { .. })
    }
}

/// One submitted, not-yet-completed operation.
#[derive(Debug)]
struct InFlight {
    tenant: TenantId,
    /// The key's id in `KvStore::keys` (live while the op holds or
    /// awaits the key's gate, i.e. for the op's whole life).
    key: u32,
    /// The key's gate in `KvStore::gates`, live as long as the op.
    gate: u32,
    body: OpBody,
    /// Page commands still outstanding in the simulation.
    outstanding: usize,
    error: Option<ClusterError>,
    found: bool,
    submitted: SimTime,
    started: SimTime,
    /// Latest page-command (or accelerator-job) end time seen so far —
    /// the op's true finish time, independent of when the drive round
    /// quiesces.
    last_end: SimTime,
    /// Node whose window this op's page commands occupy.
    home: NodeId,
}

/// A gate-holding op awaiting injection, with what the window check
/// needs — fixed once the gate is held, so deferral never recomputes it.
#[derive(Debug)]
struct Ready {
    op: KvOpId,
    home: NodeId,
    /// Page commands the op will inject.
    pages: usize,
}

/// Cluster-backed concurrent key-value store. See the [module
/// docs](self) for the consistency and backpressure model.
pub struct KvStore {
    cluster: Cluster,
    /// Every key holding a value or a busy gate, interned.
    keys: KeyTable<KeyState>,
    /// Keys holding a value.
    stored: usize,
    /// Flash pages referenced by the key records (incremental, so the
    /// stranded-extent audit is O(1) at million-key scale).
    directory_pages: u64,
    /// Page lists of multi-page values ([`ExtentKind::Many`]).
    extents: Slab<Vec<GlobalPageAddr>>,
    gates: Slab<KeyGate>,
    /// Key id → its gate in `gates`, only for keys whose gate some op
    /// holds or awaits (at most one drive's ops), not per stored key.
    gate_of: FxHashMap<u32, u32>,
    /// In-flight ops; op `id` is `ops[id - ops_base]` (`None` once
    /// finalized). Emptied at the end of every [`KvStore::drive`].
    ops: Vec<Option<InFlight>>,
    ops_base: KvOpId,
    live_ops: usize,
    /// One round's page commands, in submission order: the round's
    /// `i`-th cluster completion is page `page_ops[i].1` of KV op
    /// `page_ops[i].0`. Cleared every round.
    page_ops: Vec<(KvOpId, u32)>,
    /// Put payloads, back to back, until their ops are injected.
    /// Emptied with the op table at the end of every [`KvStore::drive`].
    payloads: Vec<u8>,
    /// Gate-holding ops awaiting injection (window backpressure).
    ready: VecDeque<Ready>,
    /// Scratch for [`KvStore::pump`]: ops the window turned away.
    deferred: VecDeque<Ready>,
    /// In-flight page commands per home node.
    inflight: Vec<usize>,
    window: usize,
    next_op: KvOpId,
    finished: Vec<KvCompletion>,
    tenants: FxHashMap<TenantId, TenantStats>,
    page_bytes: usize,
    /// Driver-side trace sink ([`DRIVER_SHARD`]): KV op lifecycle
    /// records live here, beside — not inside — the engine's per-shard
    /// sinks. Disabled (free) unless `config.sim.trace` enables the
    /// [`TraceCat::KvOp`] category.
    trace: TraceSink,
}

fn op_slot(ops: &mut [Option<InFlight>], base: KvOpId, id: KvOpId) -> &mut InFlight {
    ops[(id - base) as usize].as_mut().expect("op in flight")
}

impl KvStore {
    /// Wrap a cluster as a key-value store.
    pub fn new(cluster: Cluster) -> Self {
        let nodes = cluster.node_count();
        let page_bytes = cluster.config().flash.geometry.page_bytes;
        let trace = TraceSink::new(cluster.config().sim.trace, DRIVER_SHARD);
        KvStore {
            cluster,
            keys: KeyTable::new(),
            stored: 0,
            directory_pages: 0,
            extents: Slab::default(),
            gates: Slab::default(),
            gate_of: FxHashMap::default(),
            ops: Vec::new(),
            ops_base: 0,
            live_ops: 0,
            page_ops: Vec::new(),
            payloads: Vec::new(),
            ready: VecDeque::new(),
            deferred: VecDeque::new(),
            inflight: vec![0; nodes],
            window: DEFAULT_WINDOW,
            next_op: 0,
            finished: Vec::new(),
            tenants: FxHashMap::default(),
            page_bytes,
            trace,
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.stored
    }

    /// `true` if no keys are stored (public beside [`len`](Self::len),
    /// as clippy's `len_without_is_empty` asks).
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// `true` if `key` is present.
    #[cfg(test)]
    fn contains(&self, key: &[u8]) -> bool {
        self.keys
            .find(key)
            .is_some_and(|id| self.keys.get(id).extent.is_present())
    }

    /// The node a key's value is placed on (FNV-1a over the key, modulo
    /// cluster size — deterministic, so a restarted client agrees).
    pub fn home_node(&self, key: &[u8]) -> NodeId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        NodeId::from((h % self.cluster.node_count() as u64) as usize)
    }

    /// Access the underlying cluster (stats, simulated clock, audits).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Accounting for `tenant` (zeros if it never completed an op).
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantStats {
        self.tenants.get(&tenant).cloned().unwrap_or_default()
    }

    /// Harvest every trace buffer: the cluster's per-shard engine sinks
    /// plus the KV driver's own [`DRIVER_SHARD`] sink. Each part is two
    /// sorted runs, each held as the varint bytes its sink encoded; the
    /// driver's second run holds its `finish` records, stamped at each
    /// op's end, which its clock has passed, and sorted and encoded
    /// here. Gather the parts with [`bluedbm_sim::TraceDoc::merge`],
    /// which copies, sorts and decodes nothing; the runs are decoded and
    /// merged only while an exporter or a digest walks them. Taking
    /// empties the buffers but keeps every sink's sequence running, so
    /// a later harvest's records follow this one's.
    pub fn take_trace(&mut self) -> Vec<TracePart> {
        let mut parts = self.cluster.take_trace();
        parts.push(self.trace.take());
        parts
    }

    /// Write the KV layer's statistics into `reg`: a `kv` scope with
    /// totals plus one `tenant<T>` subtree per tenant (counters and the
    /// end-to-end latency percentiles).
    #[expect(clippy::disallowed_methods, reason = "the tenants are sorted before use")]
    pub(crate) fn fill_metrics(&self, reg: &mut MetricsRegistry) {
        let kv = reg.scope("kv");
        kv.set("keys", self.stored);
        kv.set("in_flight", self.live_ops);
        kv.set("window", self.window);
        kv.set("directory_pages", self.directory_pages);
        let mut tenants: Vec<&TenantId> = self.tenants.keys().collect();
        tenants.sort_unstable();
        for &tenant in tenants {
            let node = kv.child(&format!("tenant{tenant}"));
            self.tenants[&tenant].fill_metrics(node);
        }
    }

    /// A complete [`MetricsDoc`] snapshot: the cluster inventory
    /// (`Cluster::fill_metrics`) plus the KV scope above.
    pub fn metrics(&self) -> MetricsDoc {
        let mut reg = MetricsRegistry::new();
        self.cluster.fill_metrics(&mut reg);
        self.fill_metrics(&mut reg);
        reg.snapshot()
    }

    /// Flash pages allocated through this store's cluster but referenced
    /// by neither the directory nor an in-flight put — stranded extents.
    /// Zero unless something dropped pages without freeing them (or
    /// pages were allocated behind the store's back, e.g. via
    /// [`Cluster::preload_page`], which this audit intentionally
    /// counts).
    ///
    /// # Panics
    ///
    /// Panics if called with operations still in flight (the audit is
    /// only meaningful at quiescence — [`KvStore::drive`] first).
    pub(crate) fn stranded_pages(&self) -> u64 {
        assert!(
            self.live_ops == 0,
            "stranded-page audit requires quiescence; drive() first"
        );
        self.cluster
            .flash_pages_in_use()
            .checked_sub(self.directory_pages)
            .expect("directory references more pages than are allocated")
    }

    /// Panic unless every allocated flash page is referenced by the
    /// directory — the KV twin of `PageStore::assert_quiescent`.
    ///
    /// # Panics
    ///
    /// Panics on stranded pages or in-flight operations.
    pub fn assert_no_stranded_pages(&self) {
        let stranded = self.stranded_pages();
        assert_eq!(stranded, 0, "{stranded} flash pages stranded (allocated but unreferenced)");
    }

    // ------------------------------------------------------------------
    // Submission.
    // ------------------------------------------------------------------

    /// Submit a put: store `value` under `key`, replacing any previous
    /// value. The old extent is freed only once the new one is durable
    /// (a failed put leaves the previous value intact), so an overwrite
    /// transiently occupies both extents' space. Returns immediately;
    /// the write happens when [`KvStore::drive`] runs the simulation.
    pub fn submit_put(&mut self, tenant: TenantId, key: &[u8], value: &[u8]) -> KvOpId {
        let at = self.payloads.len();
        self.payloads.extend_from_slice(value);
        self.submit(
            tenant,
            key,
            OpBody::Put {
                at,
                extent: Extent::EMPTY,
                len: value.len(),
            },
        )
    }

    /// Submit a get of `key` read from `reader` (any node).
    pub fn submit_get(&mut self, tenant: TenantId, reader: NodeId, key: &[u8]) -> KvOpId {
        self.submit(
            tenant,
            key,
            OpBody::Get {
                reader,
                buf: Vec::new(),
                len: 0,
            },
        )
    }

    /// Submit a delete of `key`; its extent returns to the free pool.
    pub fn submit_delete(&mut self, tenant: TenantId, key: &[u8]) -> KvOpId {
        self.submit(tenant, key, OpBody::Delete)
    }

    fn submit(&mut self, tenant: TenantId, key: &[u8], body: OpBody) -> KvOpId {
        let id = self.next_op;
        self.next_op += 1;
        let exclusive = body.exclusive();
        let kind_code = body.kind() as u64;
        let now = self.cluster.now();
        self.trace
            .at(now.as_ps())
            .instant(TraceCat::KvOp, TraceName::Submit, u32::from(tenant), id, kind_code);
        // The one place key bytes are hashed: everything downstream
        // names the key by id.
        let key_id = self.keys.intern(key);
        let gates = &mut self.gates;
        let at = *self.gate_of.entry(key_id).or_insert_with(|| gates.insert(KeyGate::default()));
        debug_assert_eq!(id - self.ops_base, self.ops.len() as u64);
        self.ops.push(Some(InFlight {
            tenant,
            key: key_id,
            gate: at,
            body,
            outstanding: 0,
            error: None,
            found: false,
            submitted: now,
            started: SimTime::ZERO,
            last_end: SimTime::ZERO,
            home: self.home_node(key),
        }));
        self.live_ops += 1;
        let gate = &mut self.gates.items[at as usize];
        if gate.waiting.is_empty() && gate.admits(exclusive) {
            gate.acquire(exclusive);
            self.admit(id);
        } else {
            gate.waiting.push_back(id);
        }
        id
    }

    /// `id` now holds its key's gate: record that and queue it for
    /// injection.
    fn admit(&mut self, id: KvOpId) {
        let op = op_slot(&mut self.ops, self.ops_base, id);
        let pages = match &op.body {
            OpBody::Put { len, .. } => len.div_ceil(self.page_bytes),
            // Holding the gate pins the record: no put or delete of
            // this key can complete before this get has.
            OpBody::Get { .. } => page_count(&self.extents, self.keys.get(op.key).extent),
            OpBody::Delete => 0,
        };
        let now_ps = self.cluster.now().as_ps();
        self.trace
            .at(now_ps)
            .instant(TraceCat::KvOp, TraceName::Gate, u32::from(op.tenant), id, 0);
        self.ready.push_back(Ready {
            op: id,
            home: op.home,
            pages,
        });
    }

    // ------------------------------------------------------------------
    // The drive loop.
    // ------------------------------------------------------------------

    /// Run the simulation until every submitted operation has completed,
    /// returning their completions (in completion order, deterministic
    /// for a given submission sequence). Interleaves windowed injection
    /// rounds with [`Cluster::drive`]s; on the sharded engine each round
    /// executes across all worker shards.
    pub fn drive(&mut self) -> Vec<KvCompletion> {
        // `poll` hands the vector away, so size it for every op this
        // drive finishes rather than regrow it from empty.
        self.finished.reserve(self.live_ops);
        loop {
            self.pump();
            if self.live_ops == 0 {
                break;
            }
            assert!(
                !self.page_ops.is_empty(),
                "KV engine stalled: {} ops pending but nothing in flight",
                self.live_ops
            );
            // In cluster-op order: the injection order of gate-released
            // successors (and therefore every observable downstream) is
            // independent of which node's completions drain first. Only
            // this store submits to its cluster, so the round's
            // completions line up one for one with `page_ops`.
            let batch = self.cluster.drive();
            assert_eq!(
                batch.len(),
                self.page_ops.len(),
                "a quiescent cluster has completed every injected command"
            );
            for (i, c) in batch.into_iter().enumerate() {
                let (id, page) = self.page_ops[i];
                self.feed(id, page, c);
            }
            self.page_ops.clear();
        }
        // Every op has completed, so nothing refers into the op table
        // or the payload arena.
        self.ops.clear();
        self.ops_base = self.next_op;
        self.payloads.clear();
        self.poll()
    }

    /// Drain completions recorded so far without running the simulation.
    pub(crate) fn poll(&mut self) -> Vec<KvCompletion> {
        std::mem::take(&mut self.finished)
    }

    /// Inject every gate-holding op whose home-node window has room. An
    /// op larger than the whole window is admitted once its node is
    /// idle, so oversized values make progress instead of deadlocking.
    fn pump(&mut self) {
        while let Some(ready) = self.ready.pop_front() {
            let used = self.inflight[ready.home.index()];
            if used == 0 || used + ready.pages <= self.window {
                self.inject(ready.op);
            } else {
                self.deferred.push_back(ready);
            }
        }
        std::mem::swap(&mut self.ready, &mut self.deferred);
    }

    fn inject(&mut self, id: KvOpId) {
        let now = self.cluster.now();
        let op = op_slot(&mut self.ops, self.ops_base, id);
        op.started = now;
        let (tenant, key, home) = (op.tenant, op.key, op.home);
        self.trace.at(now.as_ps()).instant(
            TraceCat::KvOp,
            TraceName::Start,
            u32::from(tenant),
            id,
            home.index() as u64,
        );
        match &mut op.body {
            OpBody::Put { at, len, .. } => {
                let (at, len) = (*at, *len);
                self.inject_put(id, home, at, len);
            }
            OpBody::Get { reader, .. } => {
                let reader = *reader;
                self.inject_get(id, key, home, reader);
            }
            OpBody::Delete => {
                let extent = std::mem::take(&mut self.keys.get_mut(key).extent);
                if extent.is_present() {
                    self.stored -= 1;
                    self.directory_pages -= page_count(&self.extents, extent) as u64;
                    self.free_extent(extent);
                }
                op_slot(&mut self.ops, self.ops_base, id).found = extent.is_present();
                self.finalize(id);
            }
        }
    }

    fn inject_put(&mut self, id: KvOpId, home: NodeId, at: usize, len: usize) {
        // The old extent (if any) stays in the key record until the
        // replacement is durable — see `finalize` — so an overwrite
        // transiently occupies both extents. A write refused for want of
        // a page completes at once with the error, which fails the put.
        let mut count = 0;
        for chunk in self.payloads[at..at + len].chunks(self.page_bytes) {
            self.cluster.submit(home, PageOp::Write(chunk));
            self.page_ops.push((id, count as u32));
            count += 1;
        }
        self.inflight[home.index()] += count;
        let op = op_slot(&mut self.ops, self.ops_base, id);
        op.found = true;
        op.outstanding = count;
        if count == 0 {
            self.finalize(id);
        }
    }

    fn inject_get(&mut self, id: KvOpId, key: u32, home: NodeId, reader: NodeId) {
        let state = self.keys.get(key);
        let (extent, tail) = (state.extent, state.tail as usize);
        if !extent.is_present() {
            op_slot(&mut self.ops, self.ops_base, id).found = false;
            self.finalize(id);
            return;
        }
        let mut count = 0;
        for &addr in extent_pages(&self.extents, extent).as_slice() {
            let read = PageOp::Read { addr, consume: Consume::Accel };
            self.cluster.submit(reader, read);
            self.page_ops.push((id, count as u32));
            count += 1;
        }
        self.inflight[home.index()] += count;
        let page_bytes = self.page_bytes;
        let op = op_slot(&mut self.ops, self.ops_base, id);
        op.found = true;
        op.outstanding = count;
        let OpBody::Get { buf, len, .. } = &mut op.body else {
            unreachable!()
        };
        *len = count.saturating_sub(1) * page_bytes + tail;
        // A one-page value is its page, handed over at completion.
        if count > 1 {
            *buf = vec![0; count * page_bytes];
        }
        if count == 0 {
            self.finalize(id);
        }
    }

    /// Return every page of `extent` to the cluster's free pool.
    fn free_extent(&mut self, extent: Extent) {
        for &addr in extent_pages(&self.extents, extent).as_slice() {
            self.cluster
                .free_page(addr)
                .expect("extents hold valid addresses");
        }
        if let ExtentKind::Many(at) = extent.decode() {
            self.extents.remove(at);
        }
    }

    /// Apply one harvested cluster completion, page `page` of op `id`.
    fn feed(&mut self, id: KvOpId, page: u32, c: Completed) {
        let page_bytes = self.page_bytes;
        let op = op_slot(&mut self.ops, self.ops_base, id);
        self.inflight[op.home.index()] -= 1;
        op.last_end = op.last_end.max(c.end);
        match (&mut op.body, c.addr, c.data) {
            (OpBody::Put { extent, .. }, Some(addr), _) => {
                // Cluster ops complete in op-id order, so a put's pages
                // arrive in value order.
                debug_assert_eq!(page_count(&self.extents, *extent), page as usize);
                *extent = push_page(&mut self.extents, *extent, addr);
            }
            // A one-page get has no buffer: its page becomes the value.
            (OpBody::Get { buf, .. }, _, Some(data)) if buf.is_empty() => *buf = data,
            (OpBody::Get { buf, .. }, _, Some(data)) => {
                buf[page as usize * page_bytes..][..page_bytes].copy_from_slice(&data);
            }
            _ => {}
        }
        if let Some(e) = c.error {
            op.error.get_or_insert(e);
        }
        op.outstanding -= 1;
        if op.outstanding == 0 {
            self.finalize(id);
        }
    }

    /// All page commands done: publish the result, update accounting,
    /// release the key gate and start its waiting successors.
    fn finalize(&mut self, id: KvOpId) {
        let op = self.ops[(id - self.ops_base) as usize]
            .take()
            .expect("finalizing a live op");
        self.live_ops -= 1;
        // Ops with no page commands (deletes, misses, empty values)
        // finish the instant they start.
        let finished = op.last_end.max(op.started);
        let kind = op.body.kind();
        let exclusive = op.body.exclusive();
        let value = match op.body {
            OpBody::Put { extent, len, .. } => {
                if op.error.is_none() {
                    // The new extent is durable: publish it and only now
                    // retire the one it replaces, so a failed put never
                    // destroys the previous value.
                    let pages = page_count(&self.extents, extent);
                    self.directory_pages += pages as u64;
                    let state = self.keys.get_mut(op.key);
                    let old = std::mem::replace(&mut state.extent, extent);
                    let tail = len - pages.saturating_sub(1) * self.page_bytes;
                    state.tail = u32::try_from(tail).expect("page size fits u32");
                    if old.is_present() {
                        self.directory_pages -= page_count(&self.extents, old) as u64;
                        self.free_extent(old);
                    } else {
                        self.stored += 1;
                    }
                } else {
                    // A failed put stores nothing; return what it had
                    // already claimed (written pages are trimmed). The
                    // previous extent, if any, is untouched.
                    self.free_extent(extent);
                }
                None
            }
            OpBody::Get { mut buf, len, .. } => {
                if op.error.is_none() && op.found {
                    buf.truncate(len);
                    Some(buf)
                } else {
                    None
                }
            }
            OpBody::Delete => None,
        };

        let stats = self.tenants.entry(op.tenant).or_default();
        match kind {
            KvOpKind::Put => stats.puts += 1,
            KvOpKind::Get => {
                stats.gets += 1;
                if op.found {
                    stats.get_hits += 1;
                } else {
                    stats.get_misses += 1;
                }
            }
            KvOpKind::Delete => stats.deletes += 1,
        }
        if op.error.is_some() {
            stats.errors += 1;
        }
        let wait = op.started - op.submitted;
        stats.total_gate_wait += wait;
        stats.max_gate_wait = stats.max_gate_wait.max(wait);
        let latency = finished - op.submitted;
        stats.latency.record(latency);
        // b packs the arbitration-independent observables only: the
        // latency itself shifts with when the driver's submit round
        // quiesced, which redistributes across engines (see
        // `KvRunSummary::sim_time`), and would break the stable
        // cross-engine trace digest.
        let flags =
            ((kind as u64) << 2) | (u64::from(op.found) << 1) | u64::from(op.error.is_some());
        self.trace.at(finished.as_ps()).instant(
            TraceCat::KvOp,
            TraceName::Finish,
            u32::from(op.tenant),
            id,
            flags,
        );

        self.release_gate(op.key, op.gate, exclusive);
        self.finished.push(KvCompletion {
            op: id,
            tenant: op.tenant,
            kind,
            value,
            found: op.found,
            error: op.error,
            submitted: op.submitted,
            started: op.started,
            finished,
        });
    }

    /// Release one hold on `key`'s gate (`at` in `gates`) and admit
    /// waiting successors in FIFO order: a run of consecutive readers,
    /// or one writer. A key left with neither gate nor value gives its id
    /// back.
    fn release_gate(&mut self, key: u32, at: u32, exclusive: bool) {
        let gate = &mut self.gates.items[at as usize];
        if exclusive {
            gate.writer = false;
        } else {
            gate.readers -= 1;
        }
        loop {
            let gate = &mut self.gates.items[at as usize];
            let Some(&front) = gate.waiting.front() else {
                break;
            };
            let exclusive = op_slot(&mut self.ops, self.ops_base, front)
                .body
                .exclusive();
            if !gate.admits(exclusive) {
                break;
            }
            gate.waiting.pop_front();
            gate.acquire(exclusive);
            self.admit(front);
            if exclusive {
                break;
            }
        }
        if self.gates.items[at as usize].idle() {
            self.gates.remove(at);
            self.gate_of.remove(&key);
            if !self.keys.get(key).extent.is_present() {
                self.keys.remove(key);
            }
        }
    }

    // ------------------------------------------------------------------
    // Blocking convenience API (single-tenant; drives the simulation).
    // ------------------------------------------------------------------

    fn drive_blocking(&mut self, id: KvOpId) -> KvCompletion {
        let mut done = self.drive();
        let pos = done
            .iter()
            .position(|c| c.op == id)
            .expect("driven op completes");
        let c = done.remove(pos);
        // Preserve any concurrently-finished async completions for poll().
        self.finished.extend(done);
        c
    }

    /// Store `value` under `key`, replacing (and freeing) any previous
    /// extent. Drives the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash failures.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), ClusterError> {
        let id = self.submit_put(0, key, value);
        match self.drive_blocking(id).error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Fetch `key`'s value from the perspective of `reader` (any node):
    /// `None` when the key is absent. Drives the simulation to
    /// completion.
    ///
    /// # Errors
    ///
    /// The failure of a read of one of the value's pages.
    pub fn get(&mut self, reader: NodeId, key: &[u8]) -> Result<Option<GetResult>, ClusterError> {
        let id = self.submit_get(0, reader, key);
        let c = self.drive_blocking(id);
        if let Some(e) = c.error {
            return Err(e);
        }
        let elapsed = c.finished - c.started;
        Ok(c.value.map(|value| GetResult { value, elapsed }))
    }

    /// Remove `key`, returning whether it was present. The extent goes
    /// back to the free pool. Drives the simulation to completion.
    #[cfg(test)]
    fn delete(&mut self, key: &[u8]) -> bool {
        let id = self.submit_delete(0, key);
        self.drive_blocking(id).found
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("keys", &self.stored)
            .field("nodes", &self.cluster.node_count())
            .field("in_flight", &self.live_ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn store(nodes: usize) -> KvStore {
        let config = SystemConfig::scaled_down();
        KvStore::new(Cluster::ring(nodes, &config).expect("cluster"))
    }

    #[test]
    fn put_get_round_trip_multi_page() {
        let mut s = store(4);
        let page = s.cluster().config().flash.geometry.page_bytes;
        let value: Vec<u8> = (0..3 * page + 123).map(|i| i as u8).collect();
        s.put(b"big", &value).unwrap();
        for reader in 0..4u16 {
            let got = s.get(NodeId(reader), b"big").unwrap().unwrap();
            assert_eq!(got.value, value, "reader {reader}");
            assert!(got.elapsed >= SimTime::us(50), "flash was touched");
        }
        s.assert_no_stranded_pages();
        s.cluster().assert_quiescent();
    }

    #[test]
    fn put_get_round_trip_one_page_with_a_short_tail() {
        // A one-page get hands its page over as the value: the zero
        // padding past the tail must not come with it.
        let mut s = store(4);
        let page = s.cluster().config().flash.geometry.page_bytes;
        let value: Vec<u8> = (0..page - 5).map(|i| i as u8 | 1).collect();
        s.put(b"one", &value).unwrap();
        for reader in 0..4u16 {
            let got = s.get(NodeId(reader), b"one").unwrap().unwrap();
            assert_eq!(got.value, value, "reader {reader}");
        }
        s.assert_no_stranded_pages();
        s.cluster().assert_quiescent();
    }

    #[test]
    fn keys_spread_across_nodes() {
        let s = store(4);
        let mut homes = bluedbm_sim::fxhash::FxHashSet::default();
        for i in 0..64 {
            homes.insert(s.home_node(format!("key{i}").as_bytes()));
        }
        assert!(homes.len() >= 3, "hashing should use most nodes: {homes:?}");
    }

    #[test]
    fn overwrite_returns_latest_and_delete_removes() {
        let mut s = store(2);
        s.put(b"k", b"first").unwrap();
        s.put(b"k", b"second value").unwrap();
        assert_eq!(s.get(NodeId(0), b"k").unwrap().unwrap().value, b"second value");
        assert!(s.delete(b"k"));
        assert!(!s.delete(b"k"));
        assert_eq!(s.get(NodeId(0), b"k"), Ok(None));
        assert!(s.is_empty());
        // Overwrite and delete both returned their extents.
        assert_eq!(s.cluster().flash_pages_in_use(), 0);
        s.assert_no_stranded_pages();
    }

    #[test]
    fn empty_value_and_missing_key() {
        let mut s = store(2);
        s.put(b"empty", b"").unwrap();
        assert_eq!(s.get(NodeId(1), b"empty").unwrap().unwrap().value, b"");
        assert_eq!(s.get(NodeId(1), b"never"), Ok(None));
        assert_eq!(s.len(), 1);
        assert!(s.contains(b"empty"));
    }

    #[test]
    fn placement_is_deterministic() {
        let a = store(4);
        let b = store(4);
        for key in [b"alpha".as_slice(), b"beta", b"gamma"] {
            assert_eq!(a.home_node(key), b.home_node(key));
        }
    }

    #[test]
    fn remote_get_costs_only_the_network() {
        let mut s = store(4);
        let page = s.cluster().config().flash.geometry.page_bytes;
        s.put(b"k", &vec![7u8; page]).unwrap();
        let home = s.home_node(b"k");
        let local = s.get(home, b"k").unwrap().unwrap().elapsed;
        let far = NodeId::from((home.index() + 2) % 4);
        let remote = s.get(far, b"k").unwrap().unwrap().elapsed;
        assert!(remote > local);
        assert!(remote < local + SimTime::us(25), "near-uniform access");
    }

    #[test]
    fn concurrent_tenants_make_progress_in_one_drive() {
        let mut s = store(4);
        let page = s.cluster().config().flash.geometry.page_bytes;
        let mut put_ids = Vec::new();
        for tenant in 0..6u16 {
            for k in 0..4u32 {
                let key = format!("t{tenant}/k{k}");
                let value = vec![tenant as u8 ^ k as u8; page / 2];
                put_ids.push((s.submit_put(tenant, key.as_bytes(), &value), value));
            }
        }
        let done = s.drive();
        assert_eq!(done.len(), put_ids.len());
        assert!(done.iter().all(|c| c.error.is_none()));
        // Now everyone reads everyone's keys from their own node.
        let mut gets = Vec::new();
        for tenant in 0..6u16 {
            for k in 0..4u32 {
                let key = format!("t{tenant}/k{k}");
                let reader = NodeId::from(tenant as usize % 4);
                gets.push((s.submit_get(tenant, reader, key.as_bytes()), tenant, k));
            }
        }
        let done = s.drive();
        assert_eq!(done.len(), gets.len());
        for (id, tenant, k) in gets {
            let c = done.iter().find(|c| c.op == id).unwrap();
            assert!(c.found && c.error.is_none());
            assert_eq!(
                c.value.as_deref().unwrap(),
                vec![tenant as u8 ^ k as u8; page / 2]
            );
        }
        // Every get went through the accelerator schedulers.
        let jobs: u64 = (0..4u16)
            .map(|n| s.cluster().sched_stats(NodeId(n)).completed)
            .sum();
        assert_eq!(jobs, 24, "one accel job per read page");
        let t0 = s.tenant_stats(0);
        assert_eq!((t0.puts, t0.gets, t0.get_hits), (4, 4, 4));
        s.assert_no_stranded_pages();
        s.cluster().assert_quiescent();
    }

    #[test]
    fn same_key_ops_linearize_in_submission_order() {
        let mut s = store(2);
        let g0 = s.submit_get(0, NodeId(0), b"k"); // before any put: miss
        let p1 = s.submit_put(1, b"k", b"one");
        let g1 = s.submit_get(0, NodeId(1), b"k"); // sees "one"
        let p2 = s.submit_put(2, b"k", b"two");
        let g2 = s.submit_get(1, NodeId(0), b"k"); // sees "two"
        let d = s.submit_delete(0, b"k");
        let g3 = s.submit_get(2, NodeId(1), b"k"); // after delete: miss
        let done = s.drive();
        let find = |id| done.iter().find(|c| c.op == id).unwrap();
        assert!(!find(g0).found);
        assert!(find(p1).error.is_none());
        assert_eq!(find(g1).value.as_deref(), Some(&b"one"[..]));
        assert_eq!(find(g2).value.as_deref(), Some(&b"two"[..]));
        assert!(find(d).found);
        assert!(!find(g3).found);
        assert!(find(p2).error.is_none());
        s.assert_no_stranded_pages();
        s.cluster().assert_quiescent();
    }

    #[test]
    fn deleted_extents_are_reused_by_later_puts() {
        let mut s = store(2);
        let page = s.cluster().config().flash.geometry.page_bytes;
        s.put(b"a", &vec![1; 2 * page]).unwrap();
        let used_before = s.cluster().flash_pages_in_use();
        assert_eq!(used_before, 2);
        assert!(s.delete(b"a"));
        assert_eq!(s.cluster().flash_pages_in_use(), 0);
        // The freed pages satisfy the next allocation on that node.
        s.put(b"a", &vec![2; 2 * page]).unwrap();
        assert_eq!(s.cluster().flash_pages_in_use(), 2);
        assert_eq!(s.get(NodeId(0), b"a").unwrap().unwrap().value, vec![2; 2 * page]);
        s.assert_no_stranded_pages();
    }

    #[test]
    fn windowed_injection_completes_more_ops_than_the_window() {
        let mut s = store(2);
        s.window = 4;
        let page = s.cluster().config().flash.geometry.page_bytes;
        let keys: Vec<String> = (0..32).map(|i| format!("w{i}")).collect();
        for (i, key) in keys.iter().enumerate() {
            s.submit_put(0, key.as_bytes(), &vec![i as u8; page]);
        }
        let done = s.drive();
        assert_eq!(done.len(), 32);
        assert!(done.iter().all(|c| c.error.is_none()));
        for key in &keys {
            assert!(s.contains(key.as_bytes()));
        }
        s.assert_no_stranded_pages();
        s.cluster().assert_quiescent();
    }

    #[test]
    fn oversized_value_is_admitted_when_node_idle() {
        let mut s = store(2);
        s.window = 2;
        let page = s.cluster().config().flash.geometry.page_bytes;
        // 6 pages > window of 2: must still complete.
        let value = vec![9u8; 6 * page];
        s.put(b"huge", &value).unwrap();
        assert_eq!(s.get(NodeId(1), b"huge").unwrap().unwrap().value, value);
        s.assert_no_stranded_pages();
    }

    #[test]
    fn failed_overwrite_preserves_the_previous_value() {
        // Fill the home node so the overwrite's allocation fails: the
        // old extent must survive (it is only retired once the new one
        // is durable).
        let mut config = SystemConfig::scaled_down();
        config.flash.geometry = bluedbm_flash::FlashGeometry::tiny();
        let mut s = KvStore::new(Cluster::ring(2, &config).unwrap());
        let page = config.flash.geometry.page_bytes;
        s.put(b"k", &vec![1u8; page]).unwrap();
        let home = s.home_node(b"k");
        // Exhaust the node behind the store's back.
        let mut hogged = Vec::new();
        while let Ok(addr) = s.cluster.alloc_page(home) {
            hogged.push(addr);
        }
        let err = s.put(b"k", &vec![2u8; page]).unwrap_err();
        assert!(matches!(err, ClusterError::DeviceFull(n) if n == home));
        assert_eq!(s.get(NodeId(0), b"k").unwrap().unwrap().value, vec![1u8; page]);
        for addr in hogged {
            s.cluster.free_page(addr).unwrap();
        }
        s.assert_no_stranded_pages();
    }

    #[test]
    fn completion_times_are_per_op_not_per_round() {
        // A short get and a long multi-page put in the same drive round
        // must not share the round's quiescent clock as their finish
        // time.
        let mut s = store(2);
        let page = s.cluster().config().flash.geometry.page_bytes;
        s.put(b"short", &vec![1u8; page]).unwrap();
        let g = s.submit_get(0, s.home_node(b"short"), b"short");
        let p = s.submit_put(1, b"long", &vec![2u8; 12 * page]);
        let done = s.drive();
        let get = done.iter().find(|c| c.op == g).unwrap();
        let put = done.iter().find(|c| c.op == p).unwrap();
        // Local 1-page get: tR + bus + accel streaming, well under the
        // 12-page program train the put pays.
        assert!(get.finished < put.finished, "get {get:?} put {put:?}");
        let elapsed = get.finished - get.started;
        assert!(
            elapsed >= SimTime::us(50) && elapsed < SimTime::us(150),
            "get latency {elapsed} should be one flash read + accel"
        );
    }

    #[test]
    fn packed_addresses_round_trip_at_the_field_edges() {
        for (node, card, lpn) in [(0, 0, 0), (u16::MAX, u8::MAX, u32::MAX), (0x0102, 3, 1)] {
            let addr = GlobalPageAddr {
                node: NodeId(node),
                card,
                lpn,
            };
            let packed = pack(addr);
            assert_eq!(unpack(packed), addr);
            assert!(matches!(Extent::one(packed).decode(), ExtentKind::One(p) if p == packed));
        }
        assert!(!Extent::ABSENT.is_present() && Extent::EMPTY.is_present());
        // Two `u32` halves: a key record is 12 bytes at 4-byte alignment.
        assert_eq!((size_of::<KeyState>(), align_of::<KeyState>()), (12, 4));
        assert!(matches!(
            Extent::many(u32::MAX).decode(),
            ExtentKind::Many(u32::MAX)
        ));
    }

    #[test]
    fn key_churn_leaves_no_driver_state_behind() {
        // Fresh keys put, read (hit and miss) and deleted, one- and
        // multi-page: ids, gates and extent lists are all recycled, so
        // the tables end no larger than one batch needed.
        let mut s = store(2);
        let page = s.cluster().config().flash.geometry.page_bytes;
        for round in 0..50u32 {
            let keys: Vec<String> = (0..16).map(|k| format!("r{round}/k{k}")).collect();
            for (k, key) in keys.iter().enumerate() {
                let pages = 1 + k % 3;
                s.submit_put(0, key.as_bytes(), &vec![k as u8; pages * page - 7]);
                s.submit_get(1, NodeId(1), key.as_bytes());
                s.submit_get(1, NodeId(0), format!("never/{round}/{k}").as_bytes());
                s.submit_delete(0, key.as_bytes());
            }
            let done = s.drive();
            assert_eq!(done.len(), 64);
            assert!(done.iter().all(|c| c.error.is_none()));
            let hits = done.iter().filter(|c| c.value.is_some()).count();
            assert_eq!(hits, 16);
        }
        assert!(s.is_empty());
        assert_eq!(s.keys.len(), 0, "every key id was given back");
        assert!(s.gates.items.len() <= 32, "{} gates", s.gates.items.len());
        assert!(s.gate_of.is_empty(), "{} keys still map to a gate", s.gate_of.len());
        assert_eq!(s.gates.free.len(), s.gates.items.len());
        assert!(s.extents.items.len() <= 16);
        assert_eq!(s.extents.free.len(), s.extents.items.len());
        assert!(s.ops.is_empty() && s.page_ops.is_empty() && s.payloads.is_empty());
        s.assert_no_stranded_pages();
        s.cluster().assert_quiescent();
    }

    #[test]
    fn stranded_page_audit_catches_unreferenced_extents() {
        let mut s = store(2);
        s.put(b"k", b"value").unwrap();
        s.assert_no_stranded_pages();
        // What the pre-async `delete` used to do: drop the directory
        // entry without freeing the extent. Model it by allocating a
        // page behind the directory's back.
        let _ = s.cluster.alloc_page(NodeId(0)).unwrap();
        assert_eq!(s.stranded_pages(), 1, "the audit must catch the leak");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.assert_no_stranded_pages()
        }));
        assert!(r.is_err(), "assert_no_stranded_pages must panic on a leak");
    }
}
