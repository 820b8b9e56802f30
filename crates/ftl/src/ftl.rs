//! The driver-side page-level FTL.
//!
//! BlueDBM's flash hardware is raw; for compatibility with unmodified
//! software the driver implements the full translation layer (paper
//! Section 4). This FTL does:
//!
//! * **logical-to-physical mapping** at page granularity;
//! * **write allocation** round-robin across every (bus, chip) plane so
//!   sequential logical writes exploit the card's full chip parallelism —
//!   this is why the raw interface "exposes all degrees of parallelism of
//!   the device";
//! * **greedy garbage collection**: below a free-block watermark, the
//!   plane's block with the fewest valid pages is compacted;
//! * **static wear leveling**: when the erase-count spread exceeds a
//!   threshold, GC prefers the *coldest* block so long-lived data rotates
//!   onto worn blocks;
//! * **TRIM** and write-amplification accounting.
//!
//! # Policy and card
//!
//! An [`Ftl`] is the policy alone: it keeps its own books per block
//! (valid pages, erase count, free/open/closed/bad) and never touches
//! NAND. [`Ftl::new`] reads the card's geometry, factory-bad map and
//! erase counts from a [`FlashArray`] once and keeps none of it.
//!
//! * [`Ftl::step_write`] places one host write: it returns a
//!   [`StepOutcome`] — the physical destination of the host page plus
//!   every [`GcRound`] (victim block, valid-page relocations in policy
//!   order, wear-leveling flag) that ran to make room.
//!   [`StepOutcome::apply`] carries a step out on an array; the cluster
//!   instead executes the rounds as timed bus/chip commands so GC
//!   pressure lands on foreground latency.
//! * [`Ftl::step_trim`] drops a mapping and reports which physical page
//!   the trimmed logical page occupied.
//! * [`Ftl::physical_of`], [`Ftl::is_programmed`], [`Ftl::erase_count`]
//!   and [`Ftl::wear_spread`] read the books, so a card that applied
//!   every step can be checked against them page for page.
//!
//! Victim selection and relocation order are pure functions of the
//! logical op sequence (no randomness, no wall clock, no dependence on
//! simulated timing), which is what makes the cluster's per-card mirror
//! usable as a cross-engine determinism oracle: the conformance suite
//! replays a card's op log into a fresh twin and checks that mappings,
//! victim sequence, erase counts and write amplification all agree bit
//! for bit.
//!
//! # Table encoding
//!
//! Both mapping tables hold `u32` entries with **0 = unmapped**: an
//! `l2p` entry holds the linear physical page `+ 1`, a `p2l` entry the
//! logical page `+ 1`. Four bytes per entry instead of an `Option<Ppa>`'s
//! sixteen; the `+ 1` is why [`Ftl::new`] refuses geometries past
//! [`FlashGeometry::MAX_PAGES`].
//!
//! Neither map exists up front. Both are cut into tables of
//! `pages_per_block` entries (rounded up to a power of two, so an entry
//! is found by a shift and a mask), made on demand at the end of one
//! arena and named by a `u32` index. `p2l` has one table per physical
//! block, made the first time the block is opened and kept across its
//! erases (GC has zeroed every entry by then), as the card's
//! `FlashArray` keeps its per-block slot tables; the block's books hold
//! its index. `l2p` has one table per chunk of logical pages, made on
//! the first write mapped into the chunk; its index vector grows only as
//! far as the highest chunk made. A table not made yet reads as all
//! unmapped. So an `Ftl` costs host memory for the blocks it has opened
//! and the logical ranges it has written, not for its card's capacity:
//! [`Ftl::new`] over a 512 Ki-page paper card requests 43 KiB — the
//! per-block books (16 B a block, with a 32-bit erase count) and the
//! planes' free lists — where both whole maps took 3.8 MB.
//!
//! One arena rather than a heap allocation per table: a boxed table
//! costs a pointer load and an allocator header each, and measured
//! 20–30 % slower `step_write` churn than whole maps, against a few
//! percent for the arena. A `u32` index rather than a pointer: a
//! per-block pointer vector costs 16 bytes for every block up to the
//! highest opened, and blocks are numbered plane by plane, so a card's
//! first writes already reach its last plane.

use std::borrow::Borrow;
use std::collections::VecDeque;

use bluedbm_flash::array::FlashArray;
use bluedbm_flash::error::FlashError;
use bluedbm_flash::geometry::{FlashGeometry, Ppa};

use crate::error::FtlError;

/// GC triggers when a plane's free-block queue drops to this size. At
/// least 1, so GC always has a destination block.
const GC_WATERMARK: usize = 1;

/// FTL tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtlConfig {
    /// Fraction of physical capacity withheld from the logical space
    /// (over-provisioning), in `[0, 1)`. Typical SSDs use 7%; the GC
    /// ablation bench sweeps this.
    pub over_provision: f64,
    /// Wear-leveling kicks in when the erase-count spread exceeds this.
    pub wear_threshold: u64,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            over_provision: 0.12,
            wear_threshold: 32,
        }
    }
}

/// Cumulative FTL statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FtlStats {
    /// Pages written by the host.
    pub host_writes: u64,
    /// Pages programmed to flash (host + GC relocation).
    pub flash_writes: u64,
    /// GC victim blocks erased.
    pub gc_erases: u64,
    /// Valid pages relocated by GC.
    pub gc_moves: u64,
    /// Wear-leveling victim selections.
    pub(crate) wear_swaps: u64,
    /// TRIM commands processed.
    pub trims: u64,
}

impl FtlStats {
    /// Write amplification factor: flash writes per host write (1.0 when
    /// no host writes have happened).
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.flash_writes as f64 / self.host_writes as f64
        }
    }
}

/// One garbage-collection round decided by [`Ftl::step_write`]: which
/// block was compacted and every valid-page relocation compaction
/// forced, in policy order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcRound {
    /// The erased victim block, addressed at page 0.
    pub victim: Ppa,
    /// Valid-page relocations `(from, to)` in the order the policy
    /// issued them.
    pub moves: Vec<(Ppa, Ppa)>,
    /// Whether the victim was picked under wear-leveling pressure
    /// (coldest block) rather than by fewest-valid-pages.
    pub wear_leveling: bool,
}

/// What one host write did: where the page landed and which GC rounds
/// ran, in order, to make room for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Physical destination of the host page.
    pub target: Ppa,
    /// GC rounds that ran before the host program (usually empty).
    pub gc: Vec<GcRound>,
}

impl StepOutcome {
    /// Carry this step out on `array`: for each GC round, copy its moves
    /// (read, then program the copy) and then erase its victim; last,
    /// program `page` at the target.
    ///
    /// # Errors
    ///
    /// The first [`FlashError`] any of those operations returns.
    pub fn apply(&self, array: &mut FlashArray, page: &[u8]) -> Result<(), FlashError> {
        for round in &self.gc {
            for &(src, dst) in &round.moves {
                let data = array.read(src)?.data;
                array.program(dst, &data)?;
            }
            array.erase(round.victim)?;
        }
        array.program(self.target, page)
    }
}

/// Where a block stands in the allocation cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockState {
    /// Erased and queued in its plane's free list.
    Free,
    /// Its plane's active block: pages below the plane's cursor are
    /// allocated.
    Open,
    /// Every page allocated since the last erase: a GC candidate.
    Closed,
    /// Factory-marked bad; never allocated, never erased.
    Bad,
}

/// "No table made yet" in [`Ftl::l2p`] and [`Block::p2l`].
const NO_TABLE: u32 = u32::MAX;

/// Both maps' tables, `1 << shift` entries each, made on demand at the
/// end of one arena and named by their index in it.
#[derive(Debug)]
struct Tables {
    shift: u32,
    arena: Vec<u32>,
}

impl Tables {
    /// A new all-unmapped table's index.
    fn make(&mut self) -> u32 {
        let end = self.arena.len();
        self.arena.resize(end + (1 << self.shift), 0);
        (end >> self.shift) as u32
    }

    /// Entry `i` of `table`; a table not made yet ([`NO_TABLE`]) reads as
    /// all unmapped.
    fn get(&self, table: u32, i: usize) -> u32 {
        if table == NO_TABLE {
            return 0;
        }
        self.arena[(table as usize) << self.shift | i]
    }

    fn entry(&mut self, table: u32, i: usize) -> &mut u32 {
        &mut self.arena[(table as usize) << self.shift | i]
    }

    fn table(&mut self, table: u32) -> &mut [u32] {
        &mut self.arena[(table as usize) << self.shift..][..1 << self.shift]
    }
}

/// The FTL's books on one linear block.
#[derive(Clone, Copy, Debug)]
struct Block {
    erases: u32,
    valid: u32,
    /// This block's `p2l` table in [`Ftl::tables`], made the first time
    /// the block is opened ([`NO_TABLE`] until then).
    p2l: u32,
    state: BlockState,
}

/// Per-(bus, chip) allocation state.
#[derive(Clone, Debug)]
struct Plane {
    bus: u16,
    chip: u16,
    free: VecDeque<u32>,
    /// Currently open block and its next page to allocate.
    active: Option<(u32, u32)>,
}

/// The page-level FTL. See the [crate-level documentation](crate) for an
/// example.
#[derive(Debug)]
pub struct Ftl {
    geom: FlashGeometry,
    config: FtlConfig,
    /// Logical page -> linear physical page `+ 1` (0 = unmapped): per
    /// chunk of `1 << tables.shift` logical pages, its table in `tables`,
    /// made on the first write mapped into the chunk; grown only as far
    /// as the highest chunk made.
    l2p: Vec<u32>,
    /// The `l2p` chunks' and the blocks' `p2l` tables (a block's entries
    /// hold its pages' logical page `+ 1`, 0 = unmapped; for GC
    /// relocation).
    tables: Tables,
    /// Per linear block.
    blocks: Vec<Block>,
    planes: Vec<Plane>,
    next_plane: usize,
    capacity: u64,
    stats: FtlStats,
}

impl Ftl {
    /// Build an FTL for the card `array` describes: its geometry, its
    /// factory-bad blocks and the erase counts its blocks already carry.
    /// The array is only read.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::InvalidConfig`] unless `over_provision` is in
    /// `[0, 1)`,
    /// [`FtlError::GeometryTooLarge`] if the array has more pages than
    /// the `u32` tables can index, and [`FtlError::NoSpace`] if the
    /// geometry is too small to hold any logical pages after
    /// over-provisioning, or a plane has no good blocks above the GC
    /// reserve.
    pub fn new(array: impl Borrow<FlashArray>, config: FtlConfig) -> Result<Self, FtlError> {
        if !(0.0..1.0).contains(&config.over_provision) {
            return Err(FtlError::InvalidConfig("over-provision must be in [0, 1)"));
        }
        let array = array.borrow();
        let geom = array.geometry();
        if geom.checked_total_pages().is_none() {
            return Err(FtlError::GeometryTooLarge);
        }
        let blocks: Vec<Block> = geom
            .blocks()
            .map(|b| Block {
                erases: array.erase_count(b),
                valid: 0,
                p2l: NO_TABLE,
                state: if array.is_bad(b) {
                    BlockState::Bad
                } else {
                    BlockState::Free
                },
            })
            .collect();
        let mut planes = Vec::with_capacity(geom.total_chips());
        for plane in 0..geom.total_chips() {
            let first_block = plane * geom.blocks_per_chip;
            // Sized once: a plane never holds more free blocks than it has.
            let mut free = VecDeque::with_capacity(geom.blocks_per_chip);
            free.extend(
                (0..geom.blocks_per_chip as u32)
                    .filter(|&b| blocks[first_block + b as usize].state == BlockState::Free),
            );
            if free.len() <= GC_WATERMARK {
                return Err(FtlError::NoSpace);
            }
            planes.push(Plane {
                bus: (plane / geom.chips_per_bus) as u16,
                chip: (plane % geom.chips_per_bus) as u16,
                free,
                active: None,
            });
        }
        let good_pages: u64 = planes
            .iter()
            .map(|p| p.free.len() as u64 * geom.pages_per_block as u64)
            .sum();
        // Keep the watermark reserve out of the exported space too.
        let reserve: u64 =
            planes.len() as u64 * GC_WATERMARK as u64 * geom.pages_per_block as u64;
        let capacity =
            ((good_pages as f64 * (1.0 - config.over_provision)) as u64).saturating_sub(reserve);
        if capacity == 0 {
            return Err(FtlError::NoSpace);
        }
        Ok(Ftl {
            geom,
            config,
            l2p: Vec::new(),
            tables: Tables {
                shift: geom.pages_per_block.next_power_of_two().trailing_zeros(),
                arena: Vec::new(),
            },
            blocks,
            planes,
            next_plane: 0,
            capacity,
            stats: FtlStats::default(),
        })
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    /// Statistics so far.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    fn check_lba(&self, lba: u64) -> Result<(), FtlError> {
        if lba >= self.capacity {
            Err(FtlError::LbaOutOfRange {
                lba,
                capacity: self.capacity,
            })
        } else {
            Ok(())
        }
    }

    /// Index of the (bus, chip) plane holding `ppa`.
    fn plane_of(&self, ppa: Ppa) -> usize {
        ppa.bus as usize * self.geom.chips_per_bus + ppa.chip as usize
    }

    fn linear_block(&self, ppa: Ppa) -> usize {
        self.plane_of(ppa) * self.geom.blocks_per_chip + ppa.block as usize
    }

    /// Erase cycles the block containing `ppa` has endured (the count it
    /// started with plus every erase the policy decided since).
    ///
    /// # Panics
    ///
    /// Panics if `ppa` lies outside the geometry.
    pub fn erase_count(&self, ppa: Ppa) -> u32 {
        self.blocks[self.linear_block(ppa)].erases
    }

    /// `true` if `ppa` was allocated since its block's last erase — what
    /// a card that applied every step holds as programmed, valid or
    /// stale. `false` outside the geometry.
    pub fn is_programmed(&self, ppa: Ppa) -> bool {
        if !self.geom.contains(ppa) {
            return false;
        }
        match self.blocks[self.linear_block(ppa)].state {
            BlockState::Closed => true,
            BlockState::Open => matches!(
                self.planes[self.plane_of(ppa)].active,
                Some((block, next)) if block == ppa.block && ppa.page < next
            ),
            BlockState::Free | BlockState::Bad => false,
        }
    }

    /// Highest erase count of any block minus the lowest of any good
    /// block: the spread wear leveling holds down.
    pub fn wear_spread(&self) -> u64 {
        let max = self.blocks.iter().map(|b| b.erases).max().unwrap_or(0);
        let min = self
            .blocks
            .iter()
            .filter(|b| b.state != BlockState::Bad)
            .map(|b| b.erases)
            .min()
            .unwrap_or(0);
        u64::from(max - min)
    }

    /// Pop a destination page in plane `pi`, opening a new block if
    /// needed. Returns `None` when the plane is out of free blocks.
    fn alloc_in_plane(&mut self, pi: usize) -> Option<Ppa> {
        let pages_per_block = self.geom.pages_per_block as u32;
        let first_block = pi * self.geom.blocks_per_chip;
        let plane = &mut self.planes[pi];
        if plane.active.is_none() {
            let block = plane.free.pop_front()?;
            plane.active = Some((block, 0));
            let books = &mut self.blocks[first_block + block as usize];
            books.state = BlockState::Open;
            if books.p2l == NO_TABLE {
                books.p2l = self.tables.make();
            }
        }
        let (block, page) = plane.active.expect("just ensured");
        let ppa = Ppa::new(plane.bus, plane.chip, block, page);
        plane.active = if page + 1 == pages_per_block {
            self.blocks[first_block + block as usize].state = BlockState::Closed;
            None
        } else {
            Some((block, page + 1))
        };
        Some(ppa)
    }

    /// Place one host write of logical page `lba`: allocate its
    /// destination, running garbage collection and wear leveling when
    /// the plane is out of room, and map `lba` there.
    ///
    /// Returns where the host page landed and every GC round that ran to
    /// make room, in order, for the caller to carry out on the card
    /// ([`StepOutcome::apply`], or as timed commands).
    ///
    /// # Errors
    ///
    /// * [`FtlError::LbaOutOfRange`] on a bad address.
    /// * [`FtlError::NoSpace`] when GC cannot reclaim a destination.
    pub fn step_write(&mut self, lba: u64) -> Result<StepOutcome, FtlError> {
        self.check_lba(lba)?;
        self.stats.host_writes += 1;
        let pi = self.next_plane;
        self.next_plane = (self.next_plane + 1) % self.planes.len();
        let mut gc = Vec::new();
        let target = self.alloc_for_host(pi, &mut gc)?;
        self.stats.flash_writes += 1;
        let old = self.map(lba, target);
        self.unmap_physical(old);
        Ok(StepOutcome { target, gc })
    }

    /// Drop the mapping for `lba` (TRIM), freeing its page for GC, and
    /// report which physical page it occupied (`None` if it was never
    /// written or already trimmed).
    ///
    /// # Errors
    ///
    /// [`FtlError::LbaOutOfRange`] on a bad address.
    pub fn step_trim(&mut self, lba: u64) -> Result<Option<Ppa>, FtlError> {
        self.check_lba(lba)?;
        let old = self.physical_of(lba);
        self.invalidate(lba);
        self.stats.trims += 1;
        Ok(old)
    }

    /// Point `lba` at the freshly allocated `ppa` and return its previous
    /// `l2p` entry, whose physical page the caller still has to release.
    fn map(&mut self, lba: u64, ppa: Ppa) -> u32 {
        // Both fit: `new` bounded the geometry, `check_lba` the lba.
        let block = self.linear_block(ppa);
        let linear = block * self.geom.pages_per_block + ppa.page as usize;
        let (chunk, at) = self.l2p_index(lba);
        if chunk >= self.l2p.len() {
            self.l2p.resize(chunk + 1, NO_TABLE);
        }
        if self.l2p[chunk] == NO_TABLE {
            self.l2p[chunk] = self.tables.make();
        }
        let old = std::mem::replace(self.tables.entry(self.l2p[chunk], at), linear as u32 + 1);
        let books = &mut self.blocks[block];
        books.valid += 1;
        *self.tables.entry(books.p2l, ppa.page as usize) = lba as u32 + 1;
        old
    }

    fn invalidate(&mut self, lba: u64) {
        let (chunk, at) = self.l2p_index(lba);
        let table = self.l2p.get(chunk).copied().unwrap_or(NO_TABLE);
        if table != NO_TABLE {
            let old = std::mem::take(self.tables.entry(table, at));
            self.unmap_physical(old);
        }
    }

    /// Release the physical page an `l2p` entry named (nothing for 0).
    fn unmap_physical(&mut self, entry: u32) {
        if entry != 0 {
            let per = self.geom.pages_per_block;
            let linear = entry as usize - 1;
            let books = &mut self.blocks[linear / per];
            books.valid -= 1;
            *self.tables.entry(books.p2l, linear % per) = 0;
        }
    }

    /// The `l2p` entry of `lba`: 0 when unmapped, also when its chunk
    /// was never written or it lies past the table.
    fn l2p_at(&self, lba: u64) -> u32 {
        let (chunk, at) = self.l2p_index(lba);
        self.tables.get(self.l2p.get(chunk).copied().unwrap_or(NO_TABLE), at)
    }

    /// `lba`'s `l2p` chunk and its entry in that chunk.
    #[inline]
    fn l2p_index(&self, lba: u64) -> (usize, usize) {
        let lba = lba as usize;
        (lba >> self.tables.shift, lba & ((1 << self.tables.shift) - 1))
    }

    /// The `p2l` entry of a linear page: 0 when unmapped, also when its
    /// block was never opened.
    #[cfg(test)]
    fn p2l_at(&self, linear: usize) -> u32 {
        let per = self.geom.pages_per_block;
        self.tables.get(self.blocks[linear / per].p2l, linear % per)
    }

    /// The current physical location of a logical page (the query the
    /// BlueDBM software stack uses to feed in-store processors).
    pub fn physical_of(&self, lba: u64) -> Option<Ppa> {
        let entry = self.l2p_at(lba);
        (entry != 0).then(|| self.geom.ppa_of(entry as usize - 1))
    }

    /// Allocate a destination page for a host write in plane `pi`,
    /// running the garbage collector when the plane is out of room and
    /// appending each round it runs to `gc`.
    ///
    /// Invariant: [`GC_WATERMARK`] free blocks stay reserved as GC
    /// destinations; host writes use the open block or pop free blocks
    /// above the reserve. Each [`Self::collect_one`] reclaims a positive
    /// number of pages, so the loop terminates.
    fn alloc_for_host(&mut self, pi: usize, gc: &mut Vec<GcRound>) -> Result<Ppa, FtlError> {
        // Preferred plane first, then spill to any other plane: a single
        // plane can jam with 100%-valid blocks while the device still has
        // room elsewhere.
        let n = self.planes.len();
        for offset in 0..n {
            let p = (pi + offset) % n;
            loop {
                if self.planes[p].active.is_some()
                    || self.planes[p].free.len() > GC_WATERMARK
                {
                    if let Some(ppa) = self.alloc_in_plane(p) {
                        return Ok(ppa);
                    }
                    break;
                }
                match self.collect_one(p)? {
                    Some(round) => gc.push(round),
                    None => break,
                }
            }
        }
        Err(FtlError::NoSpace)
    }

    /// Compact the best victim block in plane `pi`. Returns `None` when
    /// no victim would free anything.
    fn collect_one(&mut self, pi: usize) -> Result<Option<GcRound>, FtlError> {
        let pages_per_block = self.geom.pages_per_block as u32;
        let first_block = pi * self.geom.blocks_per_chip;
        let (bus, chip) = (self.planes[pi].bus, self.planes[pi].chip);
        let wear_leveling = self.wear_spread() > self.config.wear_threshold;

        // Victim: fewest valid pages; under wear pressure, coldest block.
        let mut best: Option<(u32, u32, u32)> = None; // (block, valid, wear)
        for block in 0..self.geom.blocks_per_chip as u32 {
            let books = self.blocks[first_block + block as usize];
            if books.state != BlockState::Closed {
                continue;
            }
            let (v, wear) = (books.valid, books.erases);
            if v == pages_per_block && !wear_leveling {
                // Full of valid data: only interesting for wear leveling.
                continue;
            }
            let better = match best {
                None => true,
                Some((_, bv, bw)) => {
                    if wear_leveling {
                        wear < bw || (wear == bw && v < bv)
                    } else {
                        v < bv || (v == bv && wear < bw)
                    }
                }
            };
            if better {
                best = Some((block, v, wear));
            }
        }
        let Some((victim, _, _)) = best else {
            return Ok(None);
        };
        if wear_leveling {
            self.stats.wear_swaps += 1;
        }
        let mut round = GcRound {
            victim: Ppa::new(bus, chip, victim, 0),
            moves: Vec::new(),
            wear_leveling,
        };

        // Relocate valid pages *within the plane*: the per-plane reserve
        // block guarantees a destination, and staying local avoids
        // cross-plane GC ping-pong (a victim always has fewer valid pages
        // than one whole block, so reclamation is net-positive).
        // Closed, so opened once: the victim has its table.
        let table = self.blocks[first_block + victim as usize].p2l;
        for page in 0..pages_per_block {
            let src = Ppa::new(bus, chip, victim, page);
            let Some(lba) = self.tables.get(table, page as usize).checked_sub(1).map(u64::from) else {
                continue;
            };
            let dst = self.alloc_in_plane(pi).ok_or(FtlError::NoSpace)?;
            self.stats.flash_writes += 1;
            self.stats.gc_moves += 1;
            let old = self.map(lba, dst);
            debug_assert_eq!(old as usize, self.geom.linear_of(src) + 1);
            round.moves.push((src, dst));
        }
        // Every valid page moved: the victim's books and table empty at once.
        self.tables.table(table).fill(0);
        let books = &mut self.blocks[first_block + victim as usize];
        debug_assert_eq!(books.valid as usize, round.moves.len());
        books.valid = 0;
        books.erases += 1;
        books.state = BlockState::Free;
        self.stats.gc_erases += 1;
        self.planes[pi].free.push_back(victim);
        Ok(Some(round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_flash::array::ErrorModel;
    use bluedbm_sim::rng::Rng;

    fn make(geom: FlashGeometry) -> Ftl {
        Ftl::new(FlashArray::new(geom, 7), FtlConfig::default()).unwrap()
    }

    /// A policy and the array it drives, as an offline user pairs them.
    struct Card {
        ftl: Ftl,
        array: FlashArray,
    }

    impl Card {
        fn new(array: FlashArray, config: FtlConfig) -> Self {
            Card {
                ftl: Ftl::new(&array, config).unwrap(),
                array,
            }
        }

        fn tiny() -> Self {
            Card::new(FlashArray::new(FlashGeometry::tiny(), 7), FtlConfig::default())
        }

        fn page(&self, tag: u64) -> Vec<u8> {
            let mut p = vec![0u8; self.array.geometry().page_bytes];
            p[..8].copy_from_slice(&tag.to_le_bytes());
            p
        }

        fn write(&mut self, lba: u64, tag: u64) {
            let data = self.page(tag);
            let step = self.ftl.step_write(lba).unwrap();
            step.apply(&mut self.array, &data).unwrap();
        }

        /// `lba` is mapped and reads back the page tagged `tag`.
        fn holds(&mut self, lba: u64, tag: u64) -> bool {
            let ppa = self.ftl.physical_of(lba).expect("mapped");
            self.array.read(ppa).unwrap().data == self.page(tag)
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut card = Card::tiny();
        for lba in 0..10 {
            card.write(lba, lba);
        }
        for lba in 0..10 {
            assert!(card.holds(lba, lba));
        }
        assert_eq!(card.ftl.stats().host_writes, 10);
        assert_eq!(card.ftl.stats().waf(), 1.0, "no GC yet, WAF is 1");
    }

    #[test]
    fn unwritten_lbas_are_unmapped_and_out_of_range_lbas_fail() {
        let mut ftl = make(FlashGeometry::tiny());
        assert_eq!(ftl.physical_of(0), None);
        let cap = ftl.capacity_pages();
        assert!(matches!(
            ftl.step_write(cap),
            Err(FtlError::LbaOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.step_trim(cap),
            Err(FtlError::LbaOutOfRange { .. })
        ));
    }

    #[test]
    fn sequential_writes_spread_across_planes() {
        let mut ftl = make(FlashGeometry::tiny());
        let n = ftl.planes.len() as u64;
        for lba in 0..n {
            ftl.step_write(lba).unwrap();
        }
        let mut seen: bluedbm_sim::fxhash::FxHashSet<(u16, u16)> = Default::default();
        for lba in 0..n {
            let ppa = ftl.physical_of(lba).unwrap();
            seen.insert((ppa.bus, ppa.chip));
        }
        assert_eq!(seen.len(), n as usize, "round-robin hits every plane");
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_preserve_data() {
        let mut card = Card::tiny();
        let cap = card.ftl.capacity_pages();
        // Fill the whole logical space, then overwrite it several times.
        let mut expect: Vec<u64> = vec![0; cap as usize];
        let mut stamp = 1u64;
        for round in 0..6 {
            for lba in 0..cap {
                card.write(lba, stamp);
                expect[lba as usize] = stamp;
                stamp += 1;
            }
            // Spot check inside the loop too.
            if round == 3 {
                assert!(card.holds(0, expect[0]));
            }
        }
        for lba in 0..cap {
            assert!(card.holds(lba, expect[lba as usize]), "lba {lba}");
        }
        let s = card.ftl.stats();
        assert!(s.gc_erases > 0, "GC must have run");
        // Sequential overwrites are the GC-friendly case: victims are
        // mostly fully invalid, so WAF stays close to 1.
        assert!(s.waf() >= 1.0);
        assert!(s.waf() < 2.0, "WAF should stay low: {}", s.waf());
    }

    #[test]
    fn trim_invalidates_and_frees_space() {
        let mut card = Card::tiny();
        let cap = card.ftl.capacity_pages();
        for lba in 0..cap {
            card.write(lba, lba);
        }
        for lba in 0..cap {
            card.ftl.step_trim(lba).unwrap();
        }
        assert_eq!(card.ftl.physical_of(0), None);
        assert_eq!(card.ftl.stats().trims, cap);
        // Everything is invalid: rewriting the space must succeed and GC
        // must not need to move a single page.
        let moves_before = card.ftl.stats().gc_moves;
        for lba in 0..cap {
            card.write(lba, 1000 + lba);
        }
        assert_eq!(card.ftl.stats().gc_moves, moves_before, "trimmed GC is free");
    }

    #[test]
    fn wear_leveling_bounds_the_spread() {
        let config = FtlConfig {
            wear_threshold: 8,
            ..FtlConfig::default()
        };
        let mut card = Card::new(FlashArray::new(FlashGeometry::tiny(), 7), config);
        let cap = card.ftl.capacity_pages();
        // Cold data: fill 3/4 of the space once and never touch it again.
        let cold = cap * 3 / 4;
        for lba in 0..cold {
            card.write(lba, lba);
        }
        // Hot data: hammer the rest.
        for stamp in 0..cap * 30 {
            let lba = cold + (stamp % (cap - cold));
            card.write(lba, stamp);
        }
        let spread = card.ftl.wear_spread();
        assert!(
            spread <= 3 * config.wear_threshold,
            "wear spread {spread} should be bounded near the threshold"
        );
        assert!(card.ftl.stats().wear_swaps > 0, "wear leveling must have fired");
        // Cold data must have survived all that shuffling.
        for lba in (0..cold).step_by(7) {
            assert!(card.holds(lba, lba));
        }
    }

    /// The wear-leveling victim comparator has two arms: a strictly
    /// colder block wins outright, and on an exact wear tie the block
    /// with fewer valid pages wins. Construct both cases explicitly.
    #[test]
    fn wear_tie_break_prefers_fewer_valid_pages() {
        let geom = FlashGeometry::tiny();
        let config = FtlConfig {
            wear_threshold: 1,
            ..FtlConfig::default()
        };
        // Logical pages currently mapped into plane-0 `block`.
        fn in_block(ftl: &Ftl, block: u32) -> Vec<u64> {
            (0..128)
                .filter(|&lba| {
                    let p = ftl.physical_of(lba).unwrap();
                    (p.bus, p.chip, p.block) == (0, 0, block)
                })
                .collect()
        }
        // 128 round-robin writes fill exactly blocks 0 and 1 of each of
        // the four planes, so plane 0 has two closed candidate blocks.
        fn fill(mut array: FlashArray, config: FtlConfig) -> Ftl {
            // Pre-wear a block in another plane so the array-wide spread
            // exceeds the threshold and wear leveling is active.
            for _ in 0..5 {
                array.erase(Ppa::new(1, 1, 7, 0)).unwrap();
            }
            let mut ftl = Ftl::new(array, config).unwrap();
            for lba in 0..128 {
                ftl.step_write(lba).unwrap();
            }
            ftl
        }

        // Exact tie: blocks 0 and 1 both have erase count 0; block 1 has
        // fewer valid pages and must win the tie.
        let mut ftl = fill(FlashArray::new(geom, 7), config);
        let (b0, b1) = (in_block(&ftl, 0), in_block(&ftl, 1));
        assert_eq!((b0.len(), b1.len()), (16, 16));
        ftl.step_trim(b0[0]).unwrap(); // block 0: 15 valid
        for &lba in &b1[..4] {
            ftl.step_trim(lba).unwrap(); // block 1: 12 valid
        }
        let round = ftl.collect_one(0).unwrap().unwrap();
        assert!(round.wear_leveling);
        assert_eq!(
            round.victim,
            Ppa::new(0, 0, 1, 0),
            "wear tie must break toward the emptier block"
        );
        assert_eq!(round.moves.len(), 12);
        assert_eq!(ftl.stats().wear_swaps, 1);

        // Strictly colder wins even against a much emptier warmer block:
        // block 1 is pre-worn and nearly empty, block 0 is cold and
        // fully valid — the cold block is still the victim.
        let mut array = FlashArray::new(geom, 7);
        for _ in 0..2 {
            array.erase(Ppa::new(0, 0, 1, 0)).unwrap();
        }
        let mut ftl = fill(array, config);
        let b1 = in_block(&ftl, 1);
        for &lba in &b1[..14] {
            ftl.step_trim(lba).unwrap(); // block 1: 2 valid, block 0: 16 valid
        }
        let round = ftl.collect_one(0).unwrap().unwrap();
        assert!(round.wear_leveling);
        assert_eq!(
            round.victim,
            Ppa::new(0, 0, 0, 0),
            "the colder block wins outright"
        );
        assert_eq!(round.moves.len(), 16);
    }

    /// The books against a data-carrying array: churn with factory-bad
    /// blocks, pre-worn blocks, trims and active wear leveling, every
    /// step applied to the array. At each checkpoint the books must say
    /// exactly what the NAND holds — programmed pages and erase counts —
    /// and every mapped page must read back its model bytes.
    #[test]
    fn books_match_a_real_array_under_churn() {
        let geom = FlashGeometry::small();
        let model = ErrorModel {
            factory_bad_fraction: 0.1,
            ..ErrorModel::none()
        };
        let mut array = FlashArray::with_error_model(geom, 21, model).unwrap();
        let good = array.good_blocks();
        assert!(good.len() < geom.total_blocks(), "some blocks start bad");
        for (i, &block) in good.iter().enumerate().step_by(5) {
            for _ in 0..i % 7 + 1 {
                array.erase(block).unwrap(); // pre-worn
            }
        }
        let config = FtlConfig {
            wear_threshold: 4,
            ..FtlConfig::default()
        };
        let mut card = Card::new(array, config);
        let cap = card.ftl.capacity_pages();
        let mut rng = Rng::new(42);
        let mut expect: Vec<Option<u64>> = vec![None; cap as usize];
        let check = |card: &mut Card, expect: &[Option<u64>]| {
            for linear in 0..geom.total_pages() {
                let ppa = geom.ppa_of(linear);
                assert_eq!(
                    card.ftl.is_programmed(ppa),
                    card.array.is_programmed(ppa),
                    "page {linear}"
                );
            }
            for block in geom.blocks() {
                assert_eq!(card.ftl.erase_count(block), card.array.erase_count(block));
            }
            for (lba, &tag) in expect.iter().enumerate() {
                match tag {
                    Some(tag) => assert!(card.holds(lba as u64, tag), "lba {lba}"),
                    None => assert_eq!(card.ftl.physical_of(lba as u64), None),
                }
            }
        };
        for stamp in 0..cap * 4 {
            let lba = rng.below(cap);
            if rng.below(8) == 0 {
                card.ftl.step_trim(lba).unwrap();
                expect[lba as usize] = None;
            } else {
                card.write(lba, stamp);
                expect[lba as usize] = Some(stamp);
            }
            if stamp % (cap / 2) == 0 {
                check(&mut card, &expect);
            }
        }
        check(&mut card, &expect);
        let stats = card.ftl.stats();
        assert!(stats.gc_moves > 0 && stats.trims > 0, "{stats:?}");
        assert!(stats.wear_swaps > 0, "wear leveling must have fired: {stats:?}");
    }

    /// The `+ 1` table encoding at its edges: lba 0, the last lba and
    /// linear physical page 0 survive `step_write`, `step_trim`,
    /// `physical_of` and GC relocation, checked against a plain map
    /// stepped from the reported outcomes.
    #[test]
    fn table_encoding_round_trips_at_the_edges() {
        use std::collections::{BTreeMap, BTreeSet};
        /// lba -> where the outcomes so far say it lives, plus every lba
        /// GC has relocated.
        #[derive(Default)]
        struct Model {
            at: BTreeMap<u64, Ppa>,
            relocated: BTreeSet<u64>,
        }
        fn write(ftl: &mut Ftl, model: &mut Model, lba: u64) -> Ppa {
            let out = ftl.step_write(lba).unwrap();
            for (src, dst) in out.gc.iter().flat_map(|r| &r.moves) {
                let from = model.at.iter().find(|(_, p)| *p == src);
                let (&moved, _) = from.expect("GC moves valid pages only");
                model.at.insert(moved, *dst);
                model.relocated.insert(moved);
            }
            model.at.insert(lba, out.target);
            for (&l, &p) in &model.at {
                assert_eq!(ftl.physical_of(l), Some(p), "lba {l}");
            }
            out.target
        }
        let mut ftl = make(FlashGeometry::tiny());
        let geom = FlashGeometry::tiny();
        let last = ftl.capacity_pages() - 1;
        let mut model = Model::default();
        // The very first program lands on linear page 0; give it to the
        // last lba so both edges share one entry pair.
        let first = write(&mut ftl, &mut model, last);
        assert_eq!(geom.linear_of(first), 0);
        assert_eq!(ftl.p2l_at(0), last as u32 + 1);
        write(&mut ftl, &mut model, 0);
        assert_ne!(ftl.l2p_at(0), 0);
        // Trim reports and clears; an unmapped entry reads as absent.
        assert_eq!(ftl.step_trim(last).unwrap(), Some(first));
        assert_eq!((ftl.physical_of(last), ftl.p2l_at(0)), (None, 0));
        assert_eq!(ftl.step_trim(last).unwrap(), None);
        model.at.remove(&last);
        write(&mut ftl, &mut model, last);
        assert_eq!(ftl.physical_of(last + 1), None, "past the table");
        // Churn everything but the two edge lbas until GC has moved both.
        for round in 0.. {
            assert!(round < 64, "GC never relocated the cold edge lbas");
            for lba in 1..last {
                write(&mut ftl, &mut model, lba);
            }
            if model.relocated.contains(&0) && model.relocated.contains(&last) {
                break;
            }
        }
        // Linear page 0 was erased and reprogrammed along the way.
        assert!(ftl.erase_count(first) > 0);
        assert_eq!(model.at.len() as u64, last + 1);
    }

    /// An erased victim joins the back of its plane's free queue: the
    /// next block the plane opens is the one that waited longest, not
    /// the one GC just erased, so erases rotate over every free block.
    #[test]
    fn a_plane_opens_its_oldest_free_block_after_gc() {
        let mut ftl = make(FlashGeometry::tiny());
        let cap = ftl.capacity_pages();
        for lba in 0..cap {
            ftl.step_write(lba).unwrap();
        }
        // Empty plane 0's block 0, so the first GC round there moves
        // nothing and leaves two free blocks: the reserve and the victim.
        let first = Ppa::new(0, 0, 0, 0);
        for lba in 0..cap {
            if ftl.physical_of(lba).is_some_and(|p| Ppa { page: 0, ..p } == first) {
                ftl.step_trim(lba).unwrap();
            }
        }
        assert_eq!(ftl.planes[0].free, [7]);
        for lba in (0..cap).cycle() {
            if ftl.physical_of(lba).is_none() {
                continue;
            }
            let out = ftl.step_write(lba).unwrap();
            let Some(round) = out.gc.iter().find(|r| (r.victim.bus, r.victim.chip) == (0, 0)) else {
                continue;
            };
            assert_eq!((round.victim, round.moves.len()), (first, 0));
            assert_eq!(out.target, Ppa::new(0, 0, 7, 0), "the reserve block opens first");
            assert_eq!(ftl.planes[0].free, [0]);
            break;
        }
    }

    #[test]
    fn step_trim_reports_the_old_mapping() {
        let mut ftl = make(FlashGeometry::tiny());
        assert_eq!(ftl.step_trim(3).unwrap(), None);
        let out = ftl.step_write(3).unwrap();
        assert!(out.gc.is_empty());
        assert_eq!(ftl.step_trim(3).unwrap(), Some(out.target));
        assert_eq!(ftl.physical_of(3), None);
    }

    #[test]
    fn capacity_accounts_for_reserves() {
        let ftl = make(FlashGeometry::tiny());
        let geom = FlashGeometry::tiny();
        let total = geom.total_pages() as u64;
        assert!(ftl.capacity_pages() < total);
        assert!(ftl.capacity_pages() > total / 2);
    }

    #[test]
    fn over_provisioning_reduces_waf() {
        let run = |op: f64| -> f64 {
            let config = FtlConfig {
                over_provision: op,
                ..FtlConfig::default()
            };
            let mut ftl = Ftl::new(FlashArray::new(FlashGeometry::small(), 7), config).unwrap();
            let cap = ftl.capacity_pages();
            let mut rng = Rng::new(5);
            for lba in 0..cap {
                ftl.step_write(lba).unwrap();
            }
            for _ in 0..cap * 3 {
                ftl.step_write(rng.below(cap)).unwrap();
            }
            ftl.stats().waf()
        };
        let tight = run(0.06);
        let roomy = run(0.30);
        assert!(
            roomy < tight,
            "more over-provisioning must lower WAF: {roomy} vs {tight}"
        );
    }
}
