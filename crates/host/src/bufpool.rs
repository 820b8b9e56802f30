//! Page buffer pools (paper Section 3.3).
//!
//! "The host interface provides the software with 128 page buffers, each
//! for reads and writes. When writing a page, the software will request a
//! free write buffer, copy data to the write buffer, and send a write
//! request over RPC ... The buffer will be returned to the free queue
//! when the hardware has finished reading the data from the buffer."
//!
//! The actual bytes live in the simulator-owned
//! [`PageStore`](bluedbm_sim::PageStore);
//! [`BufferPool`] is the **capacity view** over that shared store: it
//! enforces a fixed buffer budget and free-queue discipline on top of
//! the store's unbounded slab. The cluster models the read direction: a
//! pool *adopts* pages the hardware produced and that need a host buffer
//! slot to land in, and exhaustion surfaces as `false` so callers stall
//! exactly like the paper's software does.

use bluedbm_sim::pagestore::PageRef;

/// A fixed-capacity buffer-accounting view over the shared
/// [`PageStore`](bluedbm_sim::PageStore),
/// with free-queue discipline.
///
/// # Examples
///
/// ```rust
/// use bluedbm_host::bufpool::BufferPool;
/// use bluedbm_sim::PageStore;
///
/// let mut store = PageStore::new();
/// let mut pool = BufferPool::new(1);
/// let a = store.alloc_from(b"first page");
/// let b = store.alloc_from(b"second page");
/// assert!(pool.adopt(a));
/// assert!(!pool.adopt(b)); // exhausted
/// pool.release(a);
/// assert!(pool.adopt(b));
/// assert_eq!(pool.in_use(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Pages currently charged to this pool. At most `capacity` (128 in
    /// the paper) entries, so membership checks are a linear scan over a
    /// dense 8-byte-element `Vec` — no hashing on the per-page DMA path.
    held: Vec<PageRef>,
    /// High-water mark of simultaneous allocations.
    peak_in_use: usize,
    /// Allocation/adoption attempts that found the pool empty.
    exhaustions: u64,
}

impl BufferPool {
    /// A pool of `n` buffers, all free.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a buffer pool needs at least one buffer");
        BufferPool {
            capacity: n,
            held: Vec::with_capacity(n),
            peak_in_use: 0,
            exhaustions: 0,
        }
    }

    /// Pages currently charged to the pool.
    pub fn in_use(&self) -> usize {
        self.held.len()
    }

    /// `true` if `page` is currently charged to this pool.
    pub(crate) fn holds(&self, page: PageRef) -> bool {
        self.held.contains(&page)
    }

    /// The one capacity gate: `false` (and an exhaustion tick) when no
    /// buffer is free.
    fn has_free_buffer(&mut self) -> bool {
        if self.held.len() >= self.capacity {
            self.exhaustions += 1;
            return false;
        }
        true
    }

    fn charge(&mut self, page: PageRef) {
        debug_assert!(!self.holds(page), "page {page:?} charged twice");
        self.held.push(page);
        self.peak_in_use = self.peak_in_use.max(self.held.len());
    }

    /// Charge an *existing* page against this pool's capacity — the read
    /// direction, where the hardware produced the page and needs a host
    /// buffer slot to land it in. Returns `false` (and counts an
    /// exhaustion) when no buffer is free; the page is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the page is already charged to this pool.
    pub fn adopt(&mut self, page: PageRef) -> bool {
        assert!(!self.holds(page), "page {page:?} adopted twice");
        if !self.has_free_buffer() {
            return false;
        }
        self.charge(page);
        true
    }

    /// Return a buffer slot without freeing the underlying page (the
    /// page's ownership moves on, e.g. to the consumer that will copy it
    /// out).
    ///
    /// # Panics
    ///
    /// Panics if `page` is not charged to this pool — a double free or a
    /// foreign handle, both protocol bugs in the caller.
    pub fn release(&mut self, page: PageRef) {
        let at = self
            .held
            .iter()
            .position(|&h| h == page)
            .unwrap_or_else(|| panic!("double free of buffer {page:?}"));
        self.held.swap_remove(at);
    }

    /// Highest simultaneous allocation count seen.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }

    /// Times an allocation or adoption found the pool empty.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions
    }

    /// Write the pool's occupancy counters into a metrics subtree (for
    /// the unified `bluedbm_trace::MetricsRegistry`).
    pub fn fill_metrics(&self, node: &mut bluedbm_trace::MetricsNode) {
        node.set("capacity", self.capacity);
        node.set("in_use", self.in_use());
        node.set("peak_in_use", self.peak_in_use);
        node.set("exhaustions", self.exhaustions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::PageStore;

    #[test]
    fn adoption_counts_against_capacity() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(2);
        // Hardware-produced pages (not allocated through the pool).
        let x = store.alloc_from(&[9]);
        let y = store.alloc_from(&[8]);
        let z = store.alloc_from(&[7]);
        assert!(p.adopt(x));
        assert!(p.adopt(y));
        assert!(!p.adopt(z), "third adoption must find the pool empty");
        assert_eq!(p.exhaustions(), 1);
        p.release(x);
        assert!(p.adopt(z));
        assert_eq!(p.peak_in_use(), 2);
        // Release does not free store pages; callers own that step.
        for page in [x, y, z] {
            store.free(page);
        }
        store.assert_quiescent();
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(2);
        let a = store.alloc_from(&[4]);
        assert!(p.adopt(a));
        p.release(a);
        p.release(a);
    }

    #[test]
    fn all_buffers_usable_and_distinct() {
        let mut store = PageStore::new();
        let mut p = BufferPool::new(128);
        let got: Vec<PageRef> = (0..128).map(|_| store.alloc_from(&[0; 16])).collect();
        assert!(got.iter().all(|&page| p.adopt(page)));
        let extra = store.alloc_from(&[0; 16]);
        assert!(!p.adopt(extra));
        for page in got.into_iter().chain([extra]) {
            if p.holds(page) {
                p.release(page);
            }
            store.free(page);
        }
        assert_eq!(p.in_use(), 0);
        store.assert_quiescent();
    }
}
