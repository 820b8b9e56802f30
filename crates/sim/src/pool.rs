//! Simulator-owned typed control-block pools: slab interning for the
//! boxed control-plane objects that ride messages.
//!
//! The [`PageStore`](crate::pagestore::PageStore) removed bulk payloads
//! from messages; this module does the same for *control blocks* — the
//! verbose metadata structs (a network packet's per-hop wire record, a
//! remote request) that would otherwise need a heap `Box` per instance to
//! fit the 64-byte message budget. A producer
//! `intern`s the object into the simulator-owned
//! [`Pool`] for its type and sends the 8-byte, generation-tagged
//! [`PoolRef`]; each hop moves the handle; the single consumer
//! [`take`](Pool::take)s the object back out. The slab's free list makes
//! steady-state traffic allocation-free, exactly like the flash
//! controller's finish-slot slab in PR 3 — generalized so the producer
//! and consumer can be *different* components (the finish-slot pattern
//! only covers self-sends).
//!
//! Pools are grouped in a [`PoolStore`] keyed by the interned type, owned
//! by the [`Simulator`](crate::engine::Simulator) and reached through
//! [`Ctx::pools`](crate::engine::Ctx::pools). Handles are
//! generation-tagged, so stale use and double `take` panic immediately,
//! and `PoolStore::assert_quiescent` audits leaks at simulation end —
//! the same discipline as page handles.

use std::any::{Any, TypeId};
use std::fmt;
use std::marker::PhantomData;

/// Handle to one interned control block: slot index plus the generation
/// it was minted under. Eight bytes plus a zero-sized type tag, `Copy` —
/// this is what messages carry instead of a `Box`.
pub struct PoolRef<T> {
    idx: u32,
    gen: u32,
    // `fn() -> T` keeps the handle `Send`/`Sync`/`Copy` regardless of `T`.
    _type: PhantomData<fn() -> T>,
}

impl<T> Clone for PoolRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PoolRef<T> {}

impl<T> PartialEq for PoolRef<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx && self.gen == other.gen
    }
}
impl<T> Eq for PoolRef<T> {}

impl<T> fmt::Debug for PoolRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}g{}", self.idx, self.gen)
    }
}

struct PoolSlot<T> {
    val: Option<T>,
    gen: u32,
}

/// Slab of interned `T`s with free-list reuse and generation-tagged
/// handles. Obtained from a [`PoolStore`].
pub struct Pool<T> {
    slots: Vec<PoolSlot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }
}

impl<T> Pool<T> {
    /// Intern `val`, returning its handle. Steady-state traffic recycles
    /// freed slots, so no allocation happens after warm-up.
    pub(crate) fn intern(&mut self, val: T) -> PoolRef<T> {
        self.live += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.val.is_none());
                slot.val = Some(val);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("pool index fits u32");
                self.slots.push(PoolSlot { val: Some(val), gen: 0 });
                idx
            }
        };
        PoolRef {
            idx,
            gen: self.slots[idx as usize].gen,
            _type: PhantomData,
        }
    }

    /// Exclusive access to the interned object (in-place re-stamping).
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    #[inline]
    pub fn get_mut(&mut self, r: PoolRef<T>) -> &mut T {
        self.check(r);
        self.slots[r.idx as usize].val.as_mut().expect("checked live")
    }

    /// Move the object out, freeing its slot; the handle (and any copy)
    /// becomes stale.
    ///
    /// # Panics
    ///
    /// Panics on double take or a stale handle.
    pub fn take(&mut self, r: PoolRef<T>) -> T {
        self.check(r);
        let slot = &mut self.slots[r.idx as usize];
        let val = slot.val.take().expect("checked live");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        val
    }

    #[inline]
    fn check(&self, r: PoolRef<T>) -> &PoolSlot<T> {
        let slot = &self.slots[r.idx as usize];
        assert!(
            slot.val.is_some() && slot.gen == r.gen,
            "stale pool handle {r:?} (slot is at g{}, {})",
            slot.gen,
            if slot.val.is_some() { "live" } else { "free" },
        );
        slot
    }

}

/// Type-erased view of one pool, for store-wide audits. `Any` is a
/// supertrait so a `dyn AnyPool` upcasts to `dyn Any` for the typed
/// downcast.
trait AnyPool: Any + Send {
    fn live(&self) -> usize;
    fn type_name(&self) -> &'static str;
}

impl<T: Send + 'static> AnyPool for Pool<T> {
    fn live(&self) -> usize {
        self.live
    }
    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// All of a simulator's control-block pools, keyed by interned type.
/// Owned by the [`Simulator`](crate::engine::Simulator); components reach
/// it through [`Ctx::pools`](crate::engine::Ctx::pools).
///
/// A model interns a handful of types (the cluster: two), so the pools
/// sit in a `Vec` in creation order and the pool for `T` is found by
/// comparing `TypeId`s down it — no hashing on the per-hop path.
///
/// # Examples
///
/// ```rust
/// use bluedbm_sim::PoolStore;
///
/// struct Req { op: u64 }
///
/// let mut pools = PoolStore::default();
/// let r = pools.intern(Req { op: 9 });
/// pools.get_mut(r).op += 1;
/// let req = pools.take(r); // the one consumer
/// assert_eq!(req.op, 10);
/// ```
#[derive(Default)]
pub struct PoolStore {
    pools: Vec<(TypeId, Box<dyn AnyPool>)>,
}

impl PoolStore {
    /// An empty store; per-type pools are created on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Where the pool for `T` sits, if it was ever created.
    #[inline]
    fn position<T: 'static>(&self) -> Option<usize> {
        let ty = TypeId::of::<T>();
        self.pools.iter().position(|(t, _)| *t == ty)
    }

    /// The pool for `T`, created on first access.
    #[inline]
    pub fn of<T: Send + 'static>(&mut self) -> &mut Pool<T> {
        let at = self.position::<T>().unwrap_or_else(|| {
            self.pools
                .push((TypeId::of::<T>(), Box::<Pool<T>>::default()));
            self.pools.len() - 1
        });
        let pool: &mut dyn Any = &mut *self.pools[at].1;
        pool.downcast_mut().expect("pool stored under its own TypeId")
    }

    /// Intern `val` into the pool for its type.
    #[inline]
    pub fn intern<T: Send + 'static>(&mut self, val: T) -> PoolRef<T> {
        self.of::<T>().intern(val)
    }

    /// The existing pool for `T`, with a diagnostic panic when the pool
    /// was never created (and without leaving a spurious empty pool
    /// behind, as `of` would).
    #[inline]
    fn existing<T: Send + 'static>(&mut self) -> &mut Pool<T> {
        let at = self.position::<T>().expect("no pool for this handle's type");
        let pool: &mut dyn Any = &mut *self.pools[at].1;
        pool.downcast_mut().expect("pool stored under its own TypeId")
    }

    /// Exclusive access to an interned object.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (taken, or from a recycled slot) or
    /// its pool was never created.
    #[inline]
    pub fn get_mut<T: Send + 'static>(&mut self, r: PoolRef<T>) -> &mut T {
        self.existing::<T>().get_mut(r)
    }

    /// Move an interned object out, freeing its slot.
    ///
    /// # Panics
    ///
    /// As for [`PoolStore::get_mut`], plus double takes.
    #[inline]
    pub fn take<T: Send + 'static>(&mut self, r: PoolRef<T>) -> T {
        self.existing::<T>().take(r)
    }

    /// Control blocks currently interned, across every pool.
    pub(crate) fn live_total(&self) -> usize {
        self.pools.iter().map(|(_, p)| p.live()).sum()
    }

    /// Leak audit: panics unless every interned control block has been
    /// taken. Call at simulation end alongside
    /// [`PageStore::assert_quiescent`](crate::PageStore::assert_quiescent).
    ///
    /// # Panics
    ///
    /// Panics if any pool still holds live objects, naming the types.
    pub(crate) fn assert_quiescent(&self) {
        let leaked: Vec<(&'static str, usize)> = self
            .pools
            .iter()
            .filter(|(_, p)| p.live() > 0)
            .map(|(_, p)| (p.type_name(), p.live()))
            .collect();
        assert!(
            leaked.is_empty(),
            "control-block pools are not quiescent: {leaked:?} still interned"
        );
    }
}

impl fmt::Debug for PoolStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolStore")
            .field("pools", &self.pools.len())
            .field("live_total", &self.live_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_get_take_round_trip() {
        let mut pools = PoolStore::new();
        let a = pools.intern(String::from("hello"));
        let b = pools.intern(42u64);
        assert_eq!(pools.get_mut(a), "hello");
        assert_eq!(*pools.get_mut(b), 42);
        pools.get_mut(a).push('!');
        assert_eq!(pools.take(a), "hello!");
        assert_eq!(pools.take(b), 42);
        pools.assert_quiescent();
    }

    #[test]
    fn slots_recycle_with_fresh_generations() {
        let mut pool = Pool::<u32>::default();
        let a = pool.intern(1);
        let idx = a.idx;
        assert_eq!(pool.take(a), 1);
        let b = pool.intern(2);
        assert_eq!(b.idx, idx, "free list must recycle the slot");
        assert_ne!(a, b);
        assert_eq!(pool.slots.len(), 1);
        pool.take(b);
    }

    #[test]
    fn steady_state_stays_flat() {
        let mut pool = Pool::<[u64; 6]>::default();
        for i in 0..10_000u64 {
            let r = pool.intern([i; 6]);
            assert_eq!(pool.get_mut(r)[0], i);
            pool.take(r);
        }
        assert_eq!(pool.slots.len(), 1);
        assert_eq!(pool.live, 0);
    }

    #[test]
    #[should_panic(expected = "stale pool handle")]
    fn double_take_panics() {
        let mut pool = Pool::<u8>::default();
        let r = pool.intern(0);
        pool.take(r);
        pool.take(r);
    }

    #[test]
    #[should_panic(expected = "stale pool handle")]
    fn recycled_slot_rejects_old_handle() {
        let mut pool = Pool::<u8>::default();
        let a = pool.intern(0);
        pool.take(a);
        let _b = pool.intern(1);
        let _ = pool.get_mut(a);
    }

    #[test]
    #[should_panic(expected = "not quiescent")]
    fn leak_audit_names_the_type() {
        let mut pools = PoolStore::new();
        let _leaked = pools.intern(3u16);
        pools.assert_quiescent();
    }

    #[test]
    fn pool_refs_are_copy_and_send() {
        fn assert_send_copy<T: Send + Copy>() {}
        assert_send_copy::<PoolRef<std::rc::Rc<u8>>>(); // even for !Send T
    }
}
