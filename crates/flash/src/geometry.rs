//! Flash card geometry and physical addressing.
//!
//! The paper's custom flash board holds 512 GB of NAND behind 8 buses; two
//! boards per node give 1 TB and 1.2 GB/s per board. The geometry here is
//! parameterized so tests can run on tiny arrays while the bench harness
//! uses paper-scale bus/chip counts (capacity itself is scaled down — the
//! array keeps codewords in a slab that grows one slot per page holding
//! data, so only *written* capacity costs RAM; see [`crate::array`]).

use std::fmt;

/// Shape of one flash card.
///
/// # Examples
///
/// ```rust
/// use bluedbm_flash::geometry::FlashGeometry;
///
/// let g = FlashGeometry::paper_card();
/// assert_eq!(g.buses, 8);
/// assert_eq!(g.page_bytes, 8192);
/// assert!(g.total_pages() > 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Independent channels ("buses") that can transfer in parallel.
    pub buses: usize,
    /// NAND dies per bus; dies on one bus share the bus for transfers but
    /// perform cell reads/programs concurrently.
    pub chips_per_bus: usize,
    /// Erase blocks per chip.
    pub blocks_per_chip: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// User-visible bytes per page (the paper uses 8 KiB pages).
    pub page_bytes: usize,
}

impl FlashGeometry {
    /// The paper's flash board shape: 8 buses, 8 chips per bus, 8 KiB
    /// pages. Block/page counts are scaled to keep per-card capacity at a
    /// simulation-friendly 4 GiB (unwritten pages hold no codeword slot,
    /// so they cost one bitmap bit each).
    pub const fn paper_card() -> Self {
        FlashGeometry {
            buses: 8,
            chips_per_bus: 8,
            blocks_per_chip: 32,
            pages_per_block: 256,
            page_bytes: 8192,
        }
    }

    /// A minimal geometry for unit tests: 2 buses x 2 chips x 8 blocks x
    /// 16 pages of 512 B.
    pub const fn tiny() -> Self {
        FlashGeometry {
            buses: 2,
            chips_per_bus: 2,
            blocks_per_chip: 8,
            pages_per_block: 16,
            page_bytes: 512,
        }
    }

    /// A middle-sized geometry for integration tests and the FTL/GC
    /// stress suites.
    pub const fn small() -> Self {
        FlashGeometry {
            buses: 4,
            chips_per_bus: 2,
            blocks_per_chip: 16,
            pages_per_block: 32,
            page_bytes: 2048,
        }
    }

    /// Total chips on the card.
    pub const fn total_chips(&self) -> usize {
        self.buses * self.chips_per_bus
    }

    /// Total erase blocks on the card.
    pub const fn total_blocks(&self) -> usize {
        self.total_chips() * self.blocks_per_chip
    }

    /// Total pages on the card.
    pub const fn total_pages(&self) -> usize {
        self.total_blocks() * self.pages_per_block
    }

    /// Most pages a card may have: page indices are stored as `u32` with
    /// sentinel values at both ends (the array's slot tables, the FTL's
    /// `index + 1` mapping tables), so constructors refuse anything
    /// larger with a typed error.
    pub const MAX_PAGES: usize = u32::MAX as usize - 2;

    /// [`FlashGeometry::total_pages`] if the product neither overflows
    /// nor exceeds [`FlashGeometry::MAX_PAGES`] — the check every
    /// constructor taking a user-supplied geometry runs first.
    pub const fn checked_total_pages(&self) -> Option<usize> {
        let Some(chips) = self.buses.checked_mul(self.chips_per_bus) else {
            return None;
        };
        let Some(blocks) = chips.checked_mul(self.blocks_per_chip) else {
            return None;
        };
        match blocks.checked_mul(self.pages_per_block) {
            Some(pages) if pages <= Self::MAX_PAGES => Some(pages),
            _ => None,
        }
    }

    /// Total user-visible capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.total_pages() as u64 * self.page_bytes as u64
    }

    /// Out-of-band bytes per page reserved for ECC parity: one SECDED
    /// parity byte per 64-bit data word.
    pub const fn oob_bytes(&self) -> usize {
        self.page_bytes / 8
    }

    /// `true` if `ppa` addresses a page inside this geometry.
    pub const fn contains(&self, ppa: Ppa) -> bool {
        (ppa.bus as usize) < self.buses
            && (ppa.chip as usize) < self.chips_per_bus
            && (ppa.block as usize) < self.blocks_per_chip
            && (ppa.page as usize) < self.pages_per_block
    }

    /// Map a physical address to a dense linear page index in
    /// `[0, total_pages)`. Inverse of [`FlashGeometry::ppa_of`].
    pub fn linear_of(&self, ppa: Ppa) -> usize {
        debug_assert!(self.contains(ppa));
        ((ppa.bus as usize * self.chips_per_bus + ppa.chip as usize) * self.blocks_per_chip
            + ppa.block as usize)
            * self.pages_per_block
            + ppa.page as usize
    }

    /// Map a dense linear page index back to a physical address.
    ///
    /// # Panics
    ///
    /// Panics if `linear >= total_pages()`.
    pub fn ppa_of(&self, linear: usize) -> Ppa {
        assert!(linear < self.total_pages(), "linear index out of range");
        let page = linear % self.pages_per_block;
        let rest = linear / self.pages_per_block;
        let block = rest % self.blocks_per_chip;
        let rest = rest / self.blocks_per_chip;
        let chip = rest % self.chips_per_bus;
        let bus = rest / self.chips_per_bus;
        Ppa::new(bus as u16, chip as u16, block as u32, page as u32)
    }

    /// Iterate all block addresses `(bus, chip, block)` as a `Ppa` with
    /// `page == 0`, in linear order.
    pub fn blocks(&self) -> impl Iterator<Item = Ppa> + '_ {
        let g = *self;
        (0..g.total_blocks()).map(move |i| {
            let block = i % g.blocks_per_chip;
            let rest = i / g.blocks_per_chip;
            let chip = rest % g.chips_per_bus;
            let bus = rest / g.chips_per_bus;
            Ppa::new(bus as u16, chip as u16, block as u32, 0)
        })
    }
}

/// Physical page address: (bus, chip, block, page).
///
/// This is the address format BlueDBM exposes all the way up to
/// applications — the file system hands streams of `Ppa`s to in-store
/// processors (paper Figure 8).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppa {
    /// Channel index.
    pub bus: u16,
    /// Die index within the channel.
    pub chip: u16,
    /// Erase-block index within the die.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl Ppa {
    /// Construct from components.
    pub const fn new(bus: u16, chip: u16, block: u32, page: u32) -> Self {
        Ppa {
            bus,
            chip,
            block,
            page,
        }
    }

    /// The same block with `page` replaced.
    pub const fn with_page(self, page: u32) -> Self {
        Ppa { page, ..self }
    }

    /// The containing block (page forced to 0).
    pub const fn block_addr(self) -> Self {
        self.with_page(0)
    }
}

impl fmt::Debug for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Ppa(b{}.c{}.blk{}.p{})",
            self.bus, self.chip, self.block, self.page
        )
    }
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bus{}/chip{}/block{}/page{}",
            self.bus, self.chip, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_card_shape() {
        let g = FlashGeometry::paper_card();
        assert_eq!(g.total_chips(), 64);
        assert_eq!(g.oob_bytes(), 1024);
        assert_eq!(g.capacity_bytes(), 4 * 1024 * 1024 * 1024);
    }

    #[test]
    fn linear_round_trip_covers_all_pages() {
        let g = FlashGeometry::tiny();
        for i in 0..g.total_pages() {
            let ppa = g.ppa_of(i);
            assert!(g.contains(ppa));
            assert_eq!(g.linear_of(ppa), i);
        }
    }

    #[test]
    fn checked_total_pages_bounds_the_u32_tables() {
        let g = FlashGeometry::tiny();
        assert_eq!(g.checked_total_pages(), Some(g.total_pages()));
        let at = |pages_per_block| FlashGeometry {
            buses: 1,
            chips_per_bus: 1,
            blocks_per_chip: 1,
            pages_per_block,
            page_bytes: 8,
        };
        assert_eq!(
            at(FlashGeometry::MAX_PAGES).checked_total_pages(),
            Some(FlashGeometry::MAX_PAGES)
        );
        assert_eq!(at(u32::MAX as usize - 1).checked_total_pages(), None);
        // A product that overflows `usize` is refused, not wrapped.
        let huge = FlashGeometry {
            buses: usize::MAX,
            chips_per_bus: 2,
            ..g
        };
        assert_eq!(huge.checked_total_pages(), None);
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = FlashGeometry::tiny();
        assert!(!g.contains(Ppa::new(2, 0, 0, 0)));
        assert!(!g.contains(Ppa::new(0, 2, 0, 0)));
        assert!(!g.contains(Ppa::new(0, 0, 8, 0)));
        assert!(!g.contains(Ppa::new(0, 0, 0, 16)));
        assert!(g.contains(Ppa::new(1, 1, 7, 15)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ppa_of_validates() {
        let g = FlashGeometry::tiny();
        let _ = g.ppa_of(g.total_pages());
    }

    #[test]
    fn blocks_iterator_is_dense_and_unique() {
        let g = FlashGeometry::tiny();
        let blocks: Vec<Ppa> = g.blocks().collect();
        assert_eq!(blocks.len(), g.total_blocks());
        let mut dedup = blocks.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), blocks.len());
        assert!(blocks.iter().all(|b| b.page == 0 && g.contains(*b)));
    }

    #[test]
    fn ppa_helpers() {
        let p = Ppa::new(1, 2, 3, 4);
        assert_eq!(p.with_page(9).page, 9);
        assert_eq!(p.block_addr().page, 0);
        assert_eq!(p.block_addr().block, 3);
        assert_eq!(p.to_string(), "bus1/chip2/block3/page4");
        assert_eq!(format!("{p:?}"), "Ppa(b1.c2.blk3.p4)");
    }
}
