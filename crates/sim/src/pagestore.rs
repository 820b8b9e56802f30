//! The simulator-owned page store: fixed-size payload buffers behind
//! small generation-tagged handles.
//!
//! BlueDBM's host interface hands software a fixed pool of page buffers
//! with free-queue discipline (paper Section 3.3); the hardware moves
//! *buffer indices*, never page contents. [`PageStore`] is that idea
//! applied to the whole simulation: page payloads live in a slab owned by
//! the [`Simulator`](crate::engine::Simulator), and messages carry an
//! 8-byte [`PageRef`] instead of an inline `Vec<u8>`. A page crosses the
//! flash controller, the splitter, the storage network and the node
//! agent's completion self-sends as one handle copy per hop; the bytes
//! are written once at the producer and read once at the consumer.
//!
//! Handles are **generation-tagged**: every slot carries a counter that
//! bumps on free, and a [`PageRef`] is only valid while its generation
//! matches. Use-after-free and double-free therefore panic immediately
//! with the offending handle, instead of silently aliasing a recycled
//! buffer — the DES analogue of the hardware rule that a buffer index
//! must not be reused while the DMA engine still owns it.
//!
//! The store also audits leaks: components are expected to free (or
//! [`take`](PageStore::take)) every page they consume, and
//! [`assert_quiescent`](PageStore::assert_quiescent) panics at
//! simulation end if any page is still live — a leaked page means some
//! handler dropped a handle on the floor, which in the real system would
//! permanently shrink the 128-buffer pool.

use std::fmt;

/// Handle to one page in a [`PageStore`]: a slot index plus the slot
/// generation the handle was minted under. Eight bytes, `Copy` — this is
/// what messages carry instead of page contents.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    idx: u32,
    gen: u32,
}

impl fmt::Debug for PageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}g{}", self.idx, self.gen)
    }
}

/// One slab slot: the buffer (capacity retained across reuse), the live
/// length of the current page, and the generation counter.
struct PageSlot {
    buf: Box<[u8]>,
    len: u32,
    gen: u32,
    live: bool,
}

/// Slab of page buffers with free-list reuse and generation-tagged
/// handles. Owned by the simulator; components reach it through
/// [`Ctx::pages`](crate::engine::Ctx::pages).
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::PageStore;
///
/// let mut store = PageStore::new();
/// let page = store.alloc_from(b"page contents");
/// assert_eq!(store.get(page), b"page contents");
/// let copied = store.take(page); // copy out + free in one step
/// assert_eq!(copied, b"page contents");
/// store.assert_quiescent(); // nothing leaked
/// ```
#[derive(Default)]
pub struct PageStore {
    slots: Vec<PageSlot>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    allocs: u64,
    frees: u64,
}

impl PageStore {
    /// An empty store. Slots are created on demand and reused through the
    /// free list, so steady-state load allocates no new buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the slot for a handle, panicking on stale generations.
    #[inline]
    fn slot(&self, r: PageRef) -> &PageSlot {
        let slot = &self.slots[r.idx as usize];
        assert!(
            slot.live && slot.gen == r.gen,
            "stale page handle {r:?} (slot is at g{}, {})",
            slot.gen,
            if slot.live { "live" } else { "free" },
        );
        slot
    }

    /// Allocate a page of `len` bytes with **unspecified contents** (the
    /// producer is expected to overwrite it; freshly created slots happen
    /// to be zeroed, reused ones carry the previous page's bytes). This
    /// is the fast path for payloads that are filled immediately, e.g.
    /// flash read data.
    pub fn alloc(&mut self, len: usize) -> PageRef {
        let len32 = u32::try_from(len).expect("page length fits u32");
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(!slot.live);
                if slot.buf.len() < len {
                    slot.buf = vec![0u8; len].into_boxed_slice();
                }
                slot.len = len32;
                slot.live = true;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("slot index fits u32");
                self.slots.push(PageSlot {
                    buf: vec![0u8; len].into_boxed_slice(),
                    len: len32,
                    gen: 0,
                    live: true,
                });
                idx
            }
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.allocs += 1;
        PageRef {
            idx,
            gen: self.slots[idx as usize].gen,
        }
    }

    /// Allocate a page holding a copy of `data`.
    pub fn alloc_from(&mut self, data: &[u8]) -> PageRef {
        let r = self.alloc(data.len());
        self.slots[r.idx as usize].buf[..data.len()].copy_from_slice(data);
        r
    }

    /// Allocate a page of `len` bytes holding `data` followed by zeros —
    /// a short final chunk staged as one whole page, with no padded
    /// temporary on the caller's side.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than `len`.
    pub fn alloc_padded(&mut self, data: &[u8], len: usize) -> PageRef {
        let r = self.alloc(len);
        let (head, tail) = self.slots[r.idx as usize].buf[..len].split_at_mut(data.len());
        head.copy_from_slice(data);
        tail.fill(0);
        r
    }

    /// The page contents.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (freed, or from a recycled slot).
    #[inline]
    pub fn get(&self, r: PageRef) -> &[u8] {
        let slot = self.slot(r);
        &slot.buf[..slot.len as usize]
    }

    /// Mutable page contents (the producer's fill path).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn get_mut(&mut self, r: PageRef) -> &mut [u8] {
        self.slot(r); // validate
        let slot = &mut self.slots[r.idx as usize];
        &mut slot.buf[..slot.len as usize]
    }

    /// Length of the page behind `r`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn len(&self, r: PageRef) -> usize {
        self.slot(r).len as usize
    }

    /// `true` while `r` refers to a live page (its slot has not been
    /// freed or recycled). Freed handles stay invalid forever: the slot
    /// generation has moved on.
    #[inline]
    pub fn is_live(&self, r: PageRef) -> bool {
        self.slots
            .get(r.idx as usize)
            .is_some_and(|s| s.live && s.gen == r.gen)
    }

    /// Return a page to the free list; the handle (and any copy of it)
    /// becomes stale.
    ///
    /// # Panics
    ///
    /// Panics on double free or a stale handle.
    pub fn free(&mut self, r: PageRef) {
        self.slot(r); // validate
        let slot = &mut self.slots[r.idx as usize];
        slot.live = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        self.frees += 1;
    }

    /// Copy the page out and free it — the "software consumed the
    /// buffer" idiom at the simulation boundary.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn take(&mut self, r: PageRef) -> Vec<u8> {
        let data = self.get(r).to_vec();
        self.free(r);
        data
    }

    /// Pages currently live (allocated and not yet freed).
    #[inline]
    pub fn live_pages(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live pages.
    #[inline]
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Leak audit: panics unless every allocated page has been freed.
    /// Call at simulation end — a live page here means a handler dropped
    /// a handle without consuming it, which in the real system would
    /// permanently shrink the buffer pool.
    ///
    /// # Panics
    ///
    /// Panics if any page is still live, naming the first few leaked
    /// slots.
    pub fn assert_quiescent(&self) {
        if self.live == 0 {
            return;
        }
        let leaked: Vec<PageRef> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .take(8)
            .map(|(i, s)| PageRef {
                idx: i as u32,
                gen: s.gen,
            })
            .collect();
        panic!(
            "page store is not quiescent: {} page(s) leaked (first: {:?}; {} allocs / {} frees)",
            self.live, leaked, self.allocs, self.frees
        );
    }
}

impl fmt::Debug for PageStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageStore")
            .field("slots", &self.slots.len())
            .field("live", &self.live)
            .field("peak_live", &self.peak_live)
            .field("allocs", &self.allocs)
            .field("frees", &self.frees)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_free_round_trip() {
        let mut s = PageStore::new();
        let a = s.alloc_from(b"hello");
        let b = s.alloc_from(&[0; 3]);
        assert_eq!(s.get(a), b"hello");
        assert_eq!(s.get(b), &[0, 0, 0]);
        assert_eq!(s.len(a), 5);
        assert_eq!(s.live_pages(), 2);
        s.get_mut(b).copy_from_slice(b"abc");
        assert_eq!(s.take(b), b"abc");
        s.free(a);
        assert_eq!(s.live_pages(), 0);
        s.assert_quiescent();
    }

    #[test]
    fn padded_alloc_zero_fills_a_recycled_slot() {
        let mut s = PageStore::new();
        let dirty = s.alloc_from(&[0xFF; 8]);
        s.free(dirty);
        let padded = s.alloc_padded(b"abc", 8);
        assert_eq!(s.get(padded), b"abc\0\0\0\0\0");
        s.free(padded);
        let exact = s.alloc_padded(b"12345678", 8);
        assert_eq!(s.get(exact), b"12345678");
        s.free(exact);
    }

    #[test]
    fn slots_are_reused_with_fresh_generations() {
        let mut s = PageStore::new();
        let a = s.alloc_from(&[1, 2, 3, 4]);
        let idx = a.idx;
        s.free(a);
        let b = s.alloc_from(&[9]);
        assert_eq!(b.idx, idx, "free list must recycle the slot");
        assert_ne!(b.gen, a.gen);
        assert!(!s.is_live(a));
        assert!(s.is_live(b));
        assert_eq!(s.get(b), &[9], "shorter page must not expose old bytes");
        assert_eq!(s.slots.len(), 1);
        s.free(b);
    }

    #[test]
    fn steady_state_reuse_keeps_slab_flat() {
        let mut s = PageStore::new();
        for i in 0..10_000u64 {
            let r = s.alloc_from(&i.to_le_bytes());
            assert_eq!(s.get(r), &i.to_le_bytes());
            s.free(r);
        }
        assert_eq!(s.slots.len(), 1);
        assert_eq!(s.peak_live(), 1);
        s.assert_quiescent();
    }

    #[test]
    fn buffers_grow_to_fit_larger_reallocations() {
        let mut s = PageStore::new();
        let a = s.alloc_from(&[7; 16]);
        s.free(a);
        let b = s.alloc_from(&[8; 64]);
        assert_eq!(s.get(b), &[8; 64]);
        s.free(b);
    }

    #[test]
    #[should_panic(expected = "stale page handle")]
    fn double_free_panics() {
        let mut s = PageStore::new();
        let a = s.alloc(4);
        s.free(a);
        s.free(a);
    }

    #[test]
    #[should_panic(expected = "stale page handle")]
    fn use_after_free_panics() {
        let mut s = PageStore::new();
        let a = s.alloc(4);
        s.free(a);
        let _ = s.get(a);
    }

    #[test]
    #[should_panic(expected = "stale page handle")]
    fn recycled_slot_rejects_old_handle() {
        let mut s = PageStore::new();
        let a = s.alloc(4);
        s.free(a);
        let _b = s.alloc(4); // same slot, new generation
        let _ = s.get(a);
    }

    #[test]
    #[should_panic(expected = "not quiescent")]
    fn leak_audit_catches_live_pages() {
        let mut s = PageStore::new();
        let _leaked = s.alloc(8);
        s.assert_quiescent();
    }
}
