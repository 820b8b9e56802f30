//! Flash lifecycle accounting and the collection cursor.
//!
//! Each card's [`bluedbm_ftl::Ftl`] runs in its node's agent
//! (`crate::node` describes how a write's step stops the card and how the
//! agent executes the rounds as simulated reads, programs and erases).
//! Rounds execute strictly in policy order, one command in flight at a
//! time (`GcJob` is the cursor), so the `TraceCat::Gc` records are
//! arbitration-independent: victim choice, move order and erase order are
//! pure functions of the logical op sequence, and the category takes part
//! in the stable cross-engine trace digest.

use bluedbm_ftl::GcRound;
use bluedbm_sim::MetricsNode;

/// One logical-space lifecycle operation, as recorded by the cluster's
/// conformance log (`config.gc.log`). Replaying the per-card log
/// op-for-op against a fresh offline [`bluedbm_ftl::Ftl`] must
/// reproduce the card's mapping table, victim sequence, erase counts
/// and write amplification exactly — that replay is the GC conformance
/// suite's oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LifecycleOp {
    /// A host write of logical page `lba`.
    Write(u64),
    /// A host trim (free) of logical page `lba`.
    Trim(u64),
}

/// Cluster-wide flash lifecycle accounting, aggregated over every
/// card's `Ftl` by [`crate::cluster::Cluster::gc_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcStats {
    /// Pages written by hosts (foreground programs).
    pub host_writes: u64,
    /// Pages programmed by GC relocation (background programs).
    pub gc_writes: u64,
    /// Victim blocks erased.
    pub erases: u64,
    /// Valid pages relocated.
    pub relocated: u64,
    /// Largest erase-count spread of any card ([`bluedbm_ftl::Ftl::wear_spread`]).
    pub wear_spread: u64,
}

impl GcStats {
    /// Write amplification: flash programs per host program (1.0 before
    /// any host write).
    pub fn wa(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_writes) as f64 / self.host_writes as f64
        }
    }

    /// Write every counter (and the derived WA ratio) into a metrics
    /// `node` (see [`bluedbm_sim::MetricsRegistry`]).
    pub(crate) fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("host_writes", self.host_writes);
        node.set("gc_writes", self.gc_writes);
        node.set("erases", self.erases);
        node.set("relocated", self.relocated);
        node.set("wear_spread", self.wear_spread);
        node.set("wa", self.wa());
    }
}

/// Cumulative per-node collection statistics: what this node's agent
/// has executed as simulated traffic (rounds a preload applies
/// functionally are not counted here — see the card's `Ftl` stats for
/// policy totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcTrafficStats {
    /// Jobs (watermark triggers) executed.
    pub(crate) jobs: u64,
    /// Collection rounds completed.
    pub(crate) rounds: u64,
    /// Valid-page relocations performed (read + program pairs).
    pub moves: u64,
    /// Block erases issued.
    pub erases: u64,
}

impl GcTrafficStats {
    /// Write every counter into a metrics `node`.
    pub(crate) fn fill_metrics(&self, node: &mut MetricsNode) {
        node.set("jobs", self.jobs);
        node.set("rounds", self.rounds);
        node.set("moves", self.moves);
        node.set("erases", self.erases);
    }
}

/// A collection in progress on one card: a cursor over the rounds one
/// `Ftl` step decided. One command is in flight at a time, so the cursor
/// says which completion comes next: move `mv`'s read, then its program,
/// then the next move, and after the round's last move its erase.
#[derive(Debug)]
pub(crate) struct GcJob {
    /// The rounds, in policy order.
    pub(crate) rounds: Vec<GcRound>,
    /// The round in progress.
    pub(crate) round: usize,
    /// The move in progress within it (its erase once past the last).
    pub(crate) mv: usize,
}
