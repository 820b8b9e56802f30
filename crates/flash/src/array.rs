//! Functional NAND array: what the flash chips actually store.
//!
//! This is the synchronous truth layer under the DES controller. It
//! enforces real NAND semantics — program-once-then-erase, whole-block
//! erases, per-block wear counters — stores real bytes, and, when its
//! [`ErrorModel`] can flip bits, injects wear-dependent bit errors and
//! runs every page through the SECDED codec from [`crate::ecc`]. A
//! noise-free array (both error rates zero, as on every cluster card)
//! models the controller's error-free logical interface directly: it
//! stores page bytes alone and reads them back by copy.
//!
//! ## Storage layout
//!
//! Pages (followed by their OOB parity on a noisy array) live in one
//! fixed-stride **slab** per card: a programmed page owns one slot,
//! found through its block's slot table (allocated on the block's first
//! program), and `erase` hands the block's slots back to a free list for
//! the next program anywhere on the card. A page is programmed exactly
//! when it holds a slot. The slab grows a chunk at a time and never
//! moves, so a card costs its written pages × page bytes (× (page +
//! OOB) bytes when noisy) plus one slot table per block it has
//! programmed — no per-page heap allocation, no hashing.

use bluedbm_sim::rng::Rng;

use crate::ecc;
use crate::error::FlashError;
use crate::geometry::{FlashGeometry, Ppa};

/// Bit-error injection parameters.
///
/// The raw bit error rate grows linearly with a block's erase count,
/// which is the first-order behaviour of real NAND wear.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorModel {
    /// Probability that any given stored bit reads back flipped, at zero
    /// wear.
    pub base_ber: f64,
    /// Additional bit error probability per erase cycle of wear.
    pub ber_per_erase: f64,
    /// Fraction of blocks factory-marked bad.
    pub factory_bad_fraction: f64,
}

impl ErrorModel {
    /// No injected errors, no bad blocks — the deterministic default used
    /// by most tests and by the performance experiments.
    pub const fn none() -> Self {
        ErrorModel {
            base_ber: 0.0,
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        }
    }

    /// `true` if this model can ever flip a stored bit: either error
    /// rate is nonzero. Factory-bad blocks flip none.
    fn flips_bits(&self) -> bool {
        self.base_ber != 0.0 || self.ber_per_erase != 0.0
    }
}

impl Default for ErrorModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Result of a successful page read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadResult {
    /// The page contents after ECC correction.
    pub data: Vec<u8>,
    /// Codewords in which a single-bit error was corrected on this read.
    pub(crate) corrected_words: u32,
}

/// "This page is not programmed" in a block's slot table.
const NO_SLOT: u32 = u32::MAX;

/// Slab chunks are at most this many bytes (a power-of-two number of
/// slots): big enough that chunk bookkeeping vanishes, small enough that
/// a card with two written pages stays cheap. A power-of-two stride (a
/// noise-free card's page) fills its chunk exactly.
const CHUNK_BYTES: usize = 8 * 1024;

/// Fixed-stride page storage. Slot `s` is
/// `chunks[s >> shift][(s & mask) * stride..][..stride]`; chunks are
/// appended, never reallocated, so growth copies nothing.
#[derive(Debug)]
struct Slab {
    stride: usize,
    /// log2 of the slots per chunk.
    shift: u32,
    chunks: Vec<Box<[u8]>>,
    /// Slots ever handed out (the high-water mark).
    len: u32,
    /// Recycled slots, reused most-recent-first.
    free: Vec<u32>,
}

impl Slab {
    fn new(stride: usize) -> Self {
        let per_chunk = (CHUNK_BYTES / stride.max(1)).max(1);
        Slab {
            stride,
            shift: per_chunk.ilog2(),
            chunks: Vec::new(),
            len: 0,
            free: Vec::new(),
        }
    }

    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.len;
        if (slot >> self.shift) as usize == self.chunks.len() {
            self.chunks
                .push(vec![0u8; self.stride << self.shift].into_boxed_slice());
        }
        self.len += 1;
        slot
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    fn range(&self, slot: u32) -> (usize, usize) {
        let within = (slot & ((1 << self.shift) - 1)) as usize;
        ((slot >> self.shift) as usize, within * self.stride)
    }

    fn get(&self, slot: u32) -> &[u8] {
        let (chunk, at) = self.range(slot);
        &self.chunks[chunk][at..at + self.stride]
    }

    fn get_mut(&mut self, slot: u32) -> &mut [u8] {
        let (chunk, at) = self.range(slot);
        &mut self.chunks[chunk][at..at + self.stride]
    }
}

#[derive(Clone, Debug, Default)]
struct BlockState {
    erase_count: u64,
    bad: bool,
    /// Slab slot of each programmed page ([`NO_SLOT`] otherwise);
    /// `None` until the block's first program.
    slots: Option<Box<[u32]>>,
}

/// Cumulative operation counters for one array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Pages programmed.
    pub(crate) programs: u64,
    /// Pages read.
    pub reads: u64,
    /// Blocks erased.
    pub(crate) erases: u64,
    /// Total single-bit corrections performed by ECC.
    pub corrected_words: u64,
    /// Reads that failed with an uncorrectable ECC error.
    pub(crate) uncorrectable: u64,
}

/// One flash card's worth of NAND.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    /// Stored pages, one slot per programmed page: page data alone, or
    /// page data + OOB parity when `noisy`.
    slab: Slab,
    /// Per-block wear/bad/slot-table state, keyed by linear block id.
    blocks: Vec<BlockState>,
    rng: Rng,
    error_model: ErrorModel,
    /// The error model can flip bits, so pages are stored and read as
    /// SECDED codewords. Decided once, at construction.
    noisy: bool,
    stats: ArrayStats,
}

impl FlashArray {
    /// A fresh array with no injected errors.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` has more than `FlashGeometry::MAX_PAGES`
    /// pages; [`FlashArray::with_error_model`] returns that as an error.
    pub fn new(geometry: FlashGeometry, seed: u64) -> Self {
        Self::with_error_model(geometry, seed, ErrorModel::none())
            .expect("geometry within FlashGeometry::MAX_PAGES")
    }

    /// A fresh array with the given error model; factory-bad blocks are
    /// chosen deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// [`FlashError::GeometryTooLarge`] if `geometry` has more than
    /// `FlashGeometry::MAX_PAGES` pages (slot and page indices are
    /// `u32`).
    pub fn with_error_model(
        geometry: FlashGeometry,
        seed: u64,
        error_model: ErrorModel,
    ) -> Result<Self, FlashError> {
        geometry
            .checked_total_pages()
            .ok_or(FlashError::GeometryTooLarge)?;
        let mut rng = Rng::new(seed);
        let blocks = (0..geometry.total_blocks())
            .map(|_| BlockState {
                erase_count: 0,
                bad: rng.chance(error_model.factory_bad_fraction),
                slots: None,
            })
            .collect();
        let noisy = error_model.flips_bits();
        let oob_bytes = if noisy { geometry.oob_bytes() } else { 0 };
        Ok(FlashArray {
            geometry,
            slab: Slab::new(geometry.page_bytes + oob_bytes),
            blocks,
            rng,
            error_model,
            noisy,
            stats: ArrayStats::default(),
        })
    }

    /// The card geometry.
    pub fn geometry(&self) -> FlashGeometry {
        self.geometry
    }

    /// Operation counters.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    fn block_index(&self, ppa: Ppa) -> usize {
        (ppa.bus as usize * self.geometry.chips_per_bus + ppa.chip as usize)
            * self.geometry.blocks_per_chip
            + ppa.block as usize
    }

    fn check(&self, ppa: Ppa) -> Result<(), FlashError> {
        if !self.geometry.contains(ppa) {
            return Err(FlashError::OutOfRange(ppa));
        }
        if self.blocks[self.block_index(ppa)].bad {
            return Err(FlashError::BadBlock(ppa));
        }
        Ok(())
    }

    /// The slab slot of an in-range page, if it is programmed.
    fn slot_of(&self, ppa: Ppa) -> Option<u32> {
        let slots = self.blocks[self.block_index(ppa)].slots.as_deref()?;
        Some(slots[ppa.page as usize]).filter(|&slot| slot != NO_SLOT)
    }

    /// Program one page.
    ///
    /// # Errors
    ///
    /// * [`FlashError::OutOfRange`] / [`FlashError::BadBlock`] on a bad
    ///   address.
    /// * [`FlashError::WrongPageSize`] unless `data` is exactly one page.
    /// * [`FlashError::AlreadyProgrammed`] if the page is programmed —
    ///   NAND cannot overwrite in place.
    pub fn program(&mut self, ppa: Ppa, data: &[u8]) -> Result<(), FlashError> {
        self.check(ppa)?;
        let page_bytes = self.geometry.page_bytes;
        if data.len() != page_bytes {
            return Err(FlashError::WrongPageSize {
                got: data.len(),
                want: page_bytes,
            });
        }
        if self.slot_of(ppa).is_some() {
            return Err(FlashError::AlreadyProgrammed(ppa));
        }
        let slot = self.slab.alloc();
        let (page, oob) = self.slab.get_mut(slot).split_at_mut(page_bytes);
        page.copy_from_slice(data);
        if self.noisy {
            ecc::encode_page_into(data, oob);
        }
        let bi = self.block_index(ppa);
        let pages_per_block = self.geometry.pages_per_block;
        self.blocks[bi]
            .slots
            .get_or_insert_with(|| vec![NO_SLOT; pages_per_block].into_boxed_slice())
            [ppa.page as usize] = slot;
        self.stats.programs += 1;
        Ok(())
    }

    /// Read one page.
    ///
    /// On a noisy array, bit errors are injected per the [`ErrorModel`]
    /// and the block's wear, then corrected (or reported) by SECDED; a
    /// noise-free array returns the stored bytes.
    ///
    /// # Errors
    ///
    /// * Address errors as for [`FlashArray::program`].
    /// * [`FlashError::NotProgrammed`] if the page is erased.
    /// * [`FlashError::Uncorrectable`] if more errors hit a codeword than
    ///   SECDED can repair.
    pub fn read(&mut self, ppa: Ppa) -> Result<ReadResult, FlashError> {
        let mut data = vec![0u8; self.geometry.page_bytes];
        let corrected_words = self.read_into(ppa, &mut data)?;
        Ok(ReadResult {
            data,
            corrected_words,
        })
    }

    /// Read one page, writing its contents straight into `dest` (one
    /// page long) — the write-once read path: the DES controller points
    /// `dest` at a [`bluedbm_sim::PageStore`] page, so read data lands in
    /// the store without a scratch `Vec`. A noise-free array copies the
    /// stored page into `dest`; a noisy one flips bits on a scratch copy
    /// of the codeword and decodes that into `dest`.
    ///
    /// Returns the number of corrected codewords (always 0 when
    /// noise-free); on any error `dest`'s contents are unspecified.
    ///
    /// # Errors
    ///
    /// As for [`FlashArray::read`].
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not exactly one page.
    pub(crate) fn read_into(&mut self, ppa: Ppa, dest: &mut [u8]) -> Result<u32, FlashError> {
        self.check(ppa)?;
        let Some(slot) = self.slot_of(ppa) else {
            return Err(FlashError::NotProgrammed(ppa));
        };
        self.stats.reads += 1;
        if !self.noisy {
            dest.copy_from_slice(self.slab.get(slot));
            return Ok(0);
        }
        // Error injection must not corrupt the stored truth: flip bits
        // on a scratch copy, then decode into `dest`.
        let mut codeword = self.slab.get(slot).to_vec();
        let wear = self.blocks[self.block_index(ppa)].erase_count;
        self.inject_errors(&mut codeword, wear);
        let (data, oob) = codeword.split_at(self.geometry.page_bytes);
        match ecc::decode_page_into(data, oob, dest) {
            Some(corrected) => {
                self.stats.corrected_words += u64::from(corrected);
                Ok(corrected)
            }
            None => {
                self.stats.uncorrectable += 1;
                Err(FlashError::Uncorrectable(ppa))
            }
        }
    }

    /// Flip bits of `codeword` (page bytes then OOB) per the error model
    /// at `wear` erase cycles.
    fn inject_errors(&mut self, codeword: &mut [u8], wear: u64) {
        let ber = self.error_model.base_ber + self.error_model.ber_per_erase * wear as f64;
        if ber <= 0.0 {
            return;
        }
        // Expected flips over the whole codeword region; sample a count
        // from the exponentially-spaced geometric approximation.
        let total_bits = codeword.len() * 8;
        let expected = ber * total_bits as f64;
        let mut flips = expected.floor() as u64;
        if self.rng.chance(expected - flips as f64) {
            flips += 1;
        }
        for _ in 0..flips {
            let bit = self.rng.below(total_bits as u64) as usize;
            codeword[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Erase a whole block (the `page` field of `ppa` is ignored).
    ///
    /// # Errors
    ///
    /// Address errors as for [`FlashArray::program`].
    pub fn erase(&mut self, ppa: Ppa) -> Result<(), FlashError> {
        self.check(ppa)?;
        let bi = self.block_index(ppa);
        let block = &mut self.blocks[bi];
        for slot in block.slots.iter_mut().flatten() {
            let slot = std::mem::replace(slot, NO_SLOT);
            if slot != NO_SLOT {
                self.slab.release(slot);
            }
        }
        block.erase_count += 1;
        self.stats.erases += 1;
        Ok(())
    }

    /// `true` if the page currently holds data.
    pub fn is_programmed(&self, ppa: Ppa) -> bool {
        self.geometry.contains(ppa) && self.slot_of(ppa).is_some()
    }

    /// Erase cycles endured by the block containing `ppa`.
    pub fn erase_count(&self, ppa: Ppa) -> u64 {
        self.blocks[self.block_index(ppa)].erase_count
    }

    /// `true` if the containing block is marked bad.
    pub fn is_bad(&self, ppa: Ppa) -> bool {
        self.blocks[self.block_index(ppa)].bad
    }

    /// Mark the containing block bad (a "grown" bad block).
    #[cfg(test)]
    fn mark_bad(&mut self, ppa: Ppa) {
        let bi = self.block_index(ppa);
        self.blocks[bi].bad = true;
    }

    /// All good (not bad) block addresses, in linear order.
    pub fn good_blocks(&self) -> Vec<Ppa> {
        self.geometry
            .blocks()
            .filter(|b| !self.is_bad(*b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FlashArray {
        FlashArray::new(FlashGeometry::tiny(), 42)
    }

    fn page_of(array: &FlashArray, fill: u8) -> Vec<u8> {
        vec![fill; array.geometry().page_bytes]
    }

    #[test]
    fn program_read_round_trip() {
        let mut a = tiny();
        let ppa = Ppa::new(1, 0, 2, 3);
        let data = page_of(&a, 0x5A);
        a.program(ppa, &data).unwrap();
        let r = a.read(ppa).unwrap();
        assert_eq!(r.data, data);
        assert_eq!(r.corrected_words, 0);
        assert!(a.is_programmed(ppa));
        assert_eq!(a.stats().programs, 1);
        assert_eq!(a.stats().reads, 1);
    }

    #[test]
    fn cannot_overwrite_without_erase() {
        let mut a = tiny();
        let ppa = Ppa::new(0, 0, 0, 0);
        a.program(ppa, &page_of(&a, 1)).unwrap();
        assert_eq!(
            a.program(ppa, &page_of(&a, 2)),
            Err(FlashError::AlreadyProgrammed(ppa))
        );
        a.erase(ppa).unwrap();
        assert!(!a.is_programmed(ppa));
        a.program(ppa, &page_of(&a, 2)).unwrap();
        assert_eq!(a.read(ppa).unwrap().data, page_of(&a, 2));
    }

    #[test]
    fn erase_clears_whole_block_only() {
        let mut a = tiny();
        let in_block = Ppa::new(0, 0, 3, 5);
        let other_block = Ppa::new(0, 0, 4, 5);
        a.program(in_block, &page_of(&a, 1)).unwrap();
        a.program(other_block, &page_of(&a, 2)).unwrap();
        a.erase(in_block).unwrap();
        assert!(!a.is_programmed(in_block));
        assert!(a.is_programmed(other_block));
        assert_eq!(a.erase_count(in_block), 1);
        assert_eq!(a.erase_count(other_block), 0);
    }

    #[test]
    fn read_unprogrammed_fails() {
        let mut a = tiny();
        let ppa = Ppa::new(0, 1, 0, 0);
        assert_eq!(a.read(ppa), Err(FlashError::NotProgrammed(ppa)));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut a = tiny();
        let ppa = Ppa::new(9, 0, 0, 0);
        assert_eq!(a.read(ppa), Err(FlashError::OutOfRange(ppa)));
        assert_eq!(
            a.program(ppa, &page_of(&a, 0)),
            Err(FlashError::OutOfRange(ppa))
        );
    }

    #[test]
    fn wrong_page_size_rejected() {
        let mut a = tiny();
        let err = a.program(Ppa::new(0, 0, 0, 0), &[0u8; 3]).unwrap_err();
        assert_eq!(
            err,
            FlashError::WrongPageSize {
                got: 3,
                want: a.geometry().page_bytes
            }
        );
    }

    #[test]
    fn bad_blocks_rejected_and_growable() {
        let mut a = tiny();
        let ppa = Ppa::new(1, 1, 1, 0);
        assert!(!a.is_bad(ppa));
        a.mark_bad(ppa);
        assert!(a.is_bad(ppa));
        assert_eq!(a.program(ppa, &page_of(&a, 0)), Err(FlashError::BadBlock(ppa)));
        assert_eq!(a.erase(ppa), Err(FlashError::BadBlock(ppa)));
        assert_eq!(a.good_blocks().len(), a.geometry().total_blocks() - 1);
    }

    #[test]
    fn factory_bad_blocks_from_seed_are_deterministic() {
        let model = ErrorModel {
            factory_bad_fraction: 0.25,
            ..ErrorModel::none()
        };
        let a = FlashArray::with_error_model(FlashGeometry::tiny(), 7, model).unwrap();
        let b = FlashArray::with_error_model(FlashGeometry::tiny(), 7, model).unwrap();
        assert_eq!(a.good_blocks(), b.good_blocks());
        let bad = a.geometry().total_blocks() - a.good_blocks().len();
        assert!(bad > 0, "a 25% fraction over 32 blocks should mark some bad");
    }

    #[test]
    fn injected_single_bit_errors_are_corrected() {
        let model = ErrorModel {
            base_ber: 3e-5, // ~0.15 flips per 512B+64B page read
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 11, model).unwrap();
        let ppa = Ppa::new(0, 0, 0, 0);
        let data = page_of(&a, 0xA5);
        a.program(ppa, &data).unwrap();
        let mut corrected_total = 0;
        for _ in 0..2000 {
            let r = a.read(ppa).expect("SECDED should absorb sparse errors");
            assert_eq!(r.data, data, "corrected data must match what was written");
            corrected_total += r.corrected_words;
        }
        assert!(corrected_total > 0, "the error model should have fired");
    }

    #[test]
    fn heavy_errors_become_uncorrectable() {
        let model = ErrorModel {
            base_ber: 0.02, // many flips per word: SECDED must give up sometimes
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 13, model).unwrap();
        let ppa = Ppa::new(0, 0, 0, 0);
        a.program(ppa, &page_of(&a, 0xFF)).unwrap();
        let mut saw_uncorrectable = false;
        for _ in 0..200 {
            if a.read(ppa) == Err(FlashError::Uncorrectable(ppa)) {
                saw_uncorrectable = true;
                break;
            }
        }
        assert!(saw_uncorrectable);
        assert!(a.stats().uncorrectable > 0);
    }

    #[test]
    fn wear_increases_error_rate() {
        let model = ErrorModel {
            base_ber: 0.0,
            ber_per_erase: 2e-6,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 17, model).unwrap();
        let ppa = Ppa::new(0, 0, 0, 0);
        // Wear the block heavily.
        for _ in 0..500 {
            a.erase(ppa).unwrap();
        }
        a.program(ppa, &page_of(&a, 1)).unwrap();
        let mut corrected = 0;
        for _ in 0..500 {
            corrected += a.read(ppa).map(|r| r.corrected_words).unwrap_or(1);
        }
        assert!(corrected > 0, "worn block should show bit errors");
        assert_eq!(a.erase_count(ppa), 500);
        assert_eq!(a.erase_count(Ppa::new(0, 0, 1, 0)), 0);
    }

    #[test]
    fn freed_slots_are_reused_without_leaking_bytes() {
        let mut a = tiny();
        let first = Ppa::new(0, 0, 1, 0);
        let kept = Ppa::new(0, 0, 2, 1);
        a.program(first, &page_of(&a, 0xAA)).unwrap();
        a.program(kept, &page_of(&a, 0xBB)).unwrap();
        assert_eq!(a.slab.len, 2);
        // Erase hands the slot back; a program in another block takes it.
        a.erase(first).unwrap();
        assert_eq!(a.slab.free, vec![0]);
        let elsewhere = Ppa::new(1, 1, 5, 9);
        a.program(elsewhere, &page_of(&a, 0x11)).unwrap();
        assert_eq!((a.slab.len, a.slab.free.len()), (2, 0), "slot 0 reused");
        assert_eq!(a.read(first), Err(FlashError::NotProgrammed(first)));
        // The recycled slot carries the new page and the new parity only:
        // a stale OOB byte would make the clean decode report corrections.
        let r = a.read(elsewhere).unwrap();
        assert_eq!((r.data, r.corrected_words), (page_of(&a, 0x11), 0));
        assert_eq!(a.read(kept).unwrap().data, page_of(&a, 0xBB));
        // Erase recycles the data slots of its own block only.
        a.erase(kept).unwrap();
        assert_eq!(a.slab.free, vec![1]);
        assert_eq!(a.read(kept), Err(FlashError::NotProgrammed(kept)));
        assert_eq!(a.read(elsewhere).unwrap().data, page_of(&a, 0x11));
        a.program(first, &page_of(&a, 0x22)).unwrap();
        assert_eq!(a.slab.len, 2, "churn never grows the slab");
        assert_eq!(a.read(first).unwrap().data, page_of(&a, 0x22));
    }

    #[test]
    fn slab_spans_chunks() {
        // Enough pages to need a second chunk: slots on both sides of
        // the boundary keep their own bytes.
        let geom = FlashGeometry {
            blocks_per_chip: 64,
            ..FlashGeometry::tiny()
        };
        let mut a = FlashArray::new(geom, 3);
        let per_chunk = 1usize << a.slab.shift;
        let n = per_chunk + 3;
        assert!(n <= geom.total_pages());
        let fill = |i: usize| vec![(i % 251) as u8; geom.page_bytes];
        for i in 0..n {
            a.program(geom.ppa_of(i), &fill(i)).unwrap();
        }
        assert_eq!(a.slab.chunks.len(), 2);
        for i in 0..n {
            assert_eq!(a.read(geom.ppa_of(i)).unwrap().data, fill(i), "page {i}");
        }
    }

    #[test]
    fn injected_errors_never_reach_the_stored_codeword() {
        let model = ErrorModel {
            base_ber: 0.02,
            ber_per_erase: 0.0,
            factory_bad_fraction: 0.0,
        };
        let mut a = FlashArray::with_error_model(FlashGeometry::tiny(), 13, model).unwrap();
        let ppa = Ppa::new(0, 0, 0, 0);
        a.program(ppa, &page_of(&a, 0x3C)).unwrap();
        let truth = a.slab.get(0).to_vec();
        for _ in 0..50 {
            let _ = a.read(ppa);
        }
        assert!(a.stats().corrected_words + a.stats().uncorrectable > 0);
        // Reads flip bits on a scratch copy only.
        assert_eq!(a.slab.get(0), truth);
    }

    #[test]
    fn oversized_geometry_is_refused_not_truncated() {
        let geom = FlashGeometry {
            buses: 1 << 16,
            chips_per_bus: 1 << 16,
            blocks_per_chip: 1,
            pages_per_block: 1,
            page_bytes: 8,
        };
        assert_eq!(
            FlashArray::with_error_model(geom, 1, ErrorModel::none()).unwrap_err(),
            FlashError::GeometryTooLarge
        );
    }

    #[test]
    fn noise_free_arrays_store_page_bytes_alone() {
        let geom = FlashGeometry::tiny();
        let stride = |model| FlashArray::with_error_model(geom, 5, model).unwrap().slab.stride;
        assert_eq!(tiny().slab.stride, geom.page_bytes);
        // Factory-bad blocks flip no bits: still noise-free.
        let bad_only = ErrorModel {
            factory_bad_fraction: 0.25,
            ..ErrorModel::none()
        };
        assert_eq!(stride(bad_only), geom.page_bytes);
        // A wear-only model starts clean but must keep its parity for
        // the bits that wear will flip later.
        let wear_only = ErrorModel {
            ber_per_erase: 2e-6,
            ..ErrorModel::none()
        };
        assert_eq!(stride(wear_only), geom.page_bytes + geom.oob_bytes());
        let base_only = ErrorModel {
            base_ber: 3e-5,
            ..ErrorModel::none()
        };
        assert_eq!(stride(base_only), geom.page_bytes + geom.oob_bytes());
    }

    #[test]
    fn sparse_storage_handles_paper_geometry() {
        // 4 GiB card, but we only touch two pages — must be cheap.
        let mut a = FlashArray::new(FlashGeometry::paper_card(), 1);
        let p1 = Ppa::new(7, 7, 31, 255);
        let data = vec![9u8; a.geometry().page_bytes];
        a.program(p1, &data).unwrap();
        assert_eq!(a.read(p1).unwrap().data, data);
    }
}
