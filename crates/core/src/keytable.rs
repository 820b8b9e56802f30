//! Interned byte-string keys with stable `u32` ids — the KV driver's
//! directory index.
//!
//! A [`KeyTable<V>`] maps byte keys to one `V` each, like a hash map,
//! but hands out a dense `u32` id per key so everything else (gates,
//! in-flight ops, ready queues) can refer to a key in four bytes and
//! reach its state with one array index instead of re-hashing the key
//! bytes. Three flat allocations hold everything:
//!
//! * an **arena** of key bytes, appended at intern time;
//! * an **entry** per id — arena span plus the caller's `V`;
//! * an open-addressed **index** of `id + 1` (0 = empty slot), linear
//!   probing, hashed with [`bluedbm_sim::fxhash`] (deterministic; the
//!   top hash bits pick the slot, where a multiplicative hash mixes
//!   best), kept at most half full.
//!
//! Removal is a backward shift (no tombstones, so lookups never slow
//! down under churn), removed ids are recycled most-recent-first, and
//! the arena is repacked once more than half of it is dead — so a
//! put/delete loop over any number of fresh keys holds all three
//! allocations at the size of the live set.
//!
//! Nothing here iterates in hash order: ids are dense and the only
//! whole-table walks (index growth, arena compaction) go in id order.

use std::hash::Hasher;

use bluedbm_sim::fxhash::FxHasher;

/// Index slots of an empty table (a power of two).
const MIN_SLOTS: usize = 16;
/// Dead arena bytes tolerated before compaction is considered.
const COMPACT_FLOOR: usize = 4096;
/// `Entry::off` of an id on the free list.
const FREE: u32 = u32::MAX;

struct Entry<V> {
    /// Arena offset of the key bytes ([`FREE`] for a recycled id).
    off: u32,
    len: u32,
    value: V,
}

/// Byte keys → (`u32` id, `V`). See the [module docs](self).
pub(crate) struct KeyTable<V> {
    arena: Vec<u8>,
    entries: Vec<Entry<V>>,
    /// Recycled ids.
    free: Vec<u32>,
    /// `id + 1` per occupied slot, 0 otherwise; length a power of two.
    index: Vec<u32>,
    live: usize,
    /// Arena bytes belonging to removed keys.
    dead_bytes: usize,
}

impl<V: Default> KeyTable<V> {
    pub(crate) fn new() -> Self {
        KeyTable {
            arena: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            index: vec![0; MIN_SLOTS],
            live: 0,
            dead_bytes: 0,
        }
    }

    /// Keys currently interned.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The slot `key` hashes to.
    fn home(&self, key: &[u8]) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write(key);
        (hasher.finish() >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Probe for `key`: its id, or the empty slot that ends its chain.
    fn probe(&self, key: &[u8]) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.index[slot].checked_sub(1) {
                None => return Err(slot),
                Some(id) if self.key(id) == key => return Ok(id),
                Some(_) => slot = (slot + 1) & mask,
            }
        }
    }

    /// The id of `key`, if interned.
    pub(crate) fn find(&self, key: &[u8]) -> Option<u32> {
        self.probe(key).ok()
    }

    /// The id of `key`, interning it (with a default `V`) if new.
    ///
    /// # Panics
    ///
    /// Panics past 2^32 - 1 keys or 4 GiB of live key bytes — the `u32`
    /// id and offset space.
    pub(crate) fn intern(&mut self, key: &[u8]) -> u32 {
        let mut slot = match self.probe(key) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        if (self.live + 1) * 2 > self.index.len() {
            self.grow();
            slot = self.probe(key).expect_err("key is new");
        }
        let entry = Entry {
            off: u32::try_from(self.arena.len())
                .ok()
                .filter(|&off| off != FREE)
                .expect("key arena stays under 4 GiB"),
            len: u32::try_from(key.len()).expect("key shorter than 4 GiB"),
            value: V::default(),
        };
        self.arena.extend_from_slice(key);
        let id = match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = entry;
                id
            }
            None => {
                let id = u32::try_from(self.entries.len())
                    .ok()
                    .filter(|&id| id != u32::MAX)
                    .expect("fewer than 2^32 - 1 keys");
                self.entries.push(entry);
                id
            }
        };
        self.index[slot] = id + 1;
        self.live += 1;
        id
    }

    /// Double the index and re-place every live id (in id order).
    fn grow(&mut self) {
        self.index = vec![0; self.index.len() * 2];
        let mask = self.index.len() - 1;
        for id in 0..self.entries.len() as u32 {
            if self.entries[id as usize].off == FREE {
                continue;
            }
            let mut slot = self.home(self.key(id));
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = id + 1;
        }
    }

    /// Forget the key behind `id`; the id (and, after compaction, its
    /// arena bytes) will be reused by a later [`KeyTable::intern`].
    pub(crate) fn remove(&mut self, id: u32) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.key(id));
        while self.index[hole] != id + 1 {
            hole = (hole + 1) & mask;
        }
        // Backward shift: pull every later entry of the probe chain
        // that may legally sit in the hole into it, so no chain is ever
        // cut by an empty slot.
        let mut next = (hole + 1) & mask;
        while let Some(other) = self.index[next].checked_sub(1) {
            let home = self.home(self.key(other));
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.index[hole] = other + 1;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.index[hole] = 0;

        let entry = &mut self.entries[id as usize];
        self.dead_bytes += entry.len as usize;
        *entry = Entry {
            off: FREE,
            len: 0,
            value: V::default(),
        };
        self.free.push(id);
        self.live -= 1;
        if self.dead_bytes > COMPACT_FLOOR && self.dead_bytes * 2 > self.arena.len() {
            self.compact();
        }
    }

    /// Repack the arena down to the live keys (in id order).
    fn compact(&mut self) {
        let mut packed = Vec::with_capacity(self.arena.len() - self.dead_bytes);
        for entry in &mut self.entries {
            if entry.off == FREE {
                continue;
            }
            let key = &self.arena[entry.off as usize..][..entry.len as usize];
            entry.off = packed.len() as u32;
            packed.extend_from_slice(key);
        }
        self.arena = packed;
        self.dead_bytes = 0;
    }

    /// The key bytes behind a live `id`.
    pub(crate) fn key(&self, id: u32) -> &[u8] {
        let entry = &self.entries[id as usize];
        debug_assert_ne!(entry.off, FREE, "key id {id} is not live");
        &self.arena[entry.off as usize..][..entry.len as usize]
    }

    /// The value behind a live `id`.
    pub(crate) fn get(&self, id: u32) -> &V {
        &self.entries[id as usize].value
    }

    /// The value behind a live `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: u32) -> &mut V {
        &mut self.entries[id as usize].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bluedbm_sim::fxhash::FxHashMap;
    use proptest::prelude::*;

    /// Keys drawn from a small alphabet of shapes, so sequences revisit
    /// them: short, empty, shared-prefix and long keys.
    fn key_of(n: u16) -> Vec<u8> {
        match n % 4 {
            0 => Vec::new(),
            1 => n.to_be_bytes().to_vec(),
            2 => format!("tenant/{:04}/suffix-past-eight-bytes", n / 4).into_bytes(),
            _ => vec![(n / 4) as u8; 1 + usize::from(n) % 300],
        }
    }

    /// Every key of `model` is found under its id with its value, every
    /// id is distinct, and the index holds exactly the live ids.
    fn check(table: &KeyTable<u64>, model: &FxHashMap<Vec<u8>, (u32, u64)>) {
        assert_eq!(table.len(), model.len());
        assert_eq!(table.index.iter().filter(|&&s| s != 0).count(), model.len());
        let mut ids: Vec<u32> = Vec::new();
        for (key, &(id, value)) in model {
            assert_eq!(table.find(key), Some(id));
            assert_eq!(table.key(id), key.as_slice());
            assert_eq!(*table.get(id), value);
            ids.push(id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), model.len(), "ids are unique");
    }

    proptest! {
        /// Any interleaving of intern / update / remove / re-intern
        /// agrees with a plain hash map.
        #[test]
        fn matches_hashmap_model(
            ops in proptest::collection::vec((0u8..4, 0u16..96, 0u64..1000), 1..400),
        ) {
            let mut table: KeyTable<u64> = KeyTable::new();
            let mut model: FxHashMap<Vec<u8>, (u32, u64)> = FxHashMap::default();
            for (op, n, value) in ops {
                let key = key_of(n);
                match op {
                    0 | 1 => {
                        let id = table.intern(&key);
                        match model.get(&key) {
                            Some(&(known, _)) => prop_assert_eq!(id, known),
                            // Fresh (and recycled) ids start from the default.
                            None => prop_assert_eq!(*table.get(id), 0),
                        }
                        *table.get_mut(id) = value;
                        model.insert(key, (id, value));
                    }
                    2 => {
                        if let Some((id, _)) = model.remove(&key) {
                            table.remove(id);
                        }
                        prop_assert_eq!(table.find(&key), None);
                    }
                    _ => prop_assert_eq!(table.find(&key), model.get(&key).map(|e| e.0)),
                }
            }
            check(&table, &model);
        }
    }

    #[test]
    fn colliding_keys_survive_backward_shift_across_the_wrap() {
        // Six keys that all hash to the last slot of the 16-slot index:
        // their chain wraps to slot 0, and removing from its middle must
        // keep the rest reachable.
        let mut table: KeyTable<u64> = KeyTable::new();
        let last = MIN_SLOTS - 1;
        let keys: Vec<Vec<u8>> = (0u32..)
            .map(|i| i.to_le_bytes().to_vec())
            .filter(|k| table.home(k) == last)
            .take(6)
            .collect();
        let ids: Vec<u32> = keys.iter().map(|k| table.intern(k)).collect();
        assert_eq!(table.index.len(), MIN_SLOTS, "six keys fit without growth");
        assert_eq!(table.index[last], ids[0] + 1);
        assert_eq!(
            &table.index[..5],
            &ids[1..].iter().map(|i| i + 1).collect::<Vec<_>>()[..]
        );
        table.remove(ids[0]);
        table.remove(ids[3]);
        for (i, key) in keys.iter().enumerate() {
            let want = (i != 0 && i != 3).then_some(ids[i]);
            assert_eq!(table.find(key), want, "key {i}");
        }
        // The chain closed up: no gap between its home and its members.
        assert_eq!(table.index.iter().filter(|&&s| s != 0).count(), 4);
        assert_ne!(table.index[last], 0);
        // A removed id is the next one handed out.
        assert_eq!(table.intern(b"fresh"), ids[3]);
        assert_eq!(table.intern(&keys[0]), ids[0]);
    }

    #[test]
    fn empty_and_huge_keys() {
        let mut table: KeyTable<u64> = KeyTable::new();
        let huge = vec![0xC3u8; 64 * 1024];
        let mut almost = huge.clone();
        *almost.last_mut().unwrap() ^= 1;
        let (e, h, a) = (
            table.intern(b""),
            table.intern(&huge),
            table.intern(&almost),
        );
        assert_eq!(table.len(), 3);
        assert_eq!(
            (table.find(b""), table.find(&huge), table.find(&almost)),
            (Some(e), Some(h), Some(a))
        );
        assert_eq!(table.key(h), huge.as_slice());
        assert!(table.key(e).is_empty());
        table.remove(e);
        assert_eq!(table.find(b""), None);
        assert_eq!(table.find(&almost), Some(a));
        // Dropping the two 64 KiB keys leaves more dead than live bytes:
        // the arena repacks to nothing.
        table.remove(h);
        table.remove(a);
        assert_eq!(
            (table.len(), table.arena.len(), table.dead_bytes),
            (0, 0, 0)
        );
    }

    #[test]
    fn churn_over_fresh_keys_stays_bounded() {
        // 10^5 distinct keys, each interned and removed while eight
        // long-lived keys stay put: ids, arena and index all stay at the
        // size of the live set.
        let mut table: KeyTable<u64> = KeyTable::new();
        let residents: Vec<u32> = (0..8u64)
            .map(|i| table.intern(format!("resident-{i}").as_bytes()))
            .collect();
        for i in 0..100_000u64 {
            let key = [&b"churn:"[..], &i.to_be_bytes()].concat();
            let id = table.intern(&key);
            *table.get_mut(id) = i;
            if i >= 4 {
                let old = [&b"churn:"[..], &(i - 4).to_be_bytes()].concat();
                table.remove(table.find(&old).expect("still interned"));
            }
        }
        assert_eq!(table.len(), 8 + 4);
        assert!(table.entries.len() <= 16, "{} ids", table.entries.len());
        assert_eq!(table.index.len(), 32, "index never outgrew the live set");
        assert!(
            table.arena.len() <= 2 * COMPACT_FLOOR + 1024,
            "{} arena bytes",
            table.arena.len()
        );
        for (i, id) in residents.into_iter().enumerate() {
            assert_eq!(table.find(format!("resident-{i}").as_bytes()), Some(id));
        }
    }
}
