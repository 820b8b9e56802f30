//! Deterministic fast hashing for simulation-internal maps.
//!
//! The hot paths index many small maps per delivered event — router
//! per-flow sequence tables, flash tag tables, node pending maps, the
//! KV directory — all keyed by small integers or short byte strings.
//! `std`'s default SipHash spends more time hashing those keys than the
//! map spends probing, and its per-map random seed makes iteration
//! order vary across processes. This module provides the classic
//! Fx-style multiply-rotate hash instead: a few cycles per word, fully
//! deterministic (fixed seed), which also keeps any accidental
//! iteration-order dependence bit-repeatable across runs and hosts.
//!
//! Not DoS-resistant — these maps hold simulation state keyed by the
//! model itself, never by untrusted external input.

#![expect(clippy::disallowed_types, reason = "the definition site of the Fx aliases")]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`]: drop-in for simulation-internal
/// state (construct with `FxHashMap::default()`).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiplicative word-at-a-time hasher (the rustc / Firefox "Fx"
/// construction): `hash = (hash.rotl(5) ^ word) * K` per 8-byte word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// 2^64 / golden ratio, forced odd — spreads consecutive small
/// integers (the dominant key shape here) across the whole word.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        if let Some(chunk) = bytes.first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*chunk)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&b"page-key".as_slice()), hash_of(&b"page-key".as_slice()));
        // Pinned value: the hash is part of no contract, but a change
        // here flags an accidental algorithm edit.
        assert_eq!(hash_of(&0u64), 0);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hashes: FxHashSet<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 1000, "consecutive keys must not collide");
    }

    #[test]
    fn tail_bytes_reach_the_hash() {
        // Keys differing only in a trailing byte (past the 8-byte
        // chunks) must hash differently.
        assert_ne!(hash_of(&b"0123456789".as_slice()), hash_of(&b"012345678A".as_slice()));
        assert_ne!(hash_of(&b"01234".as_slice()), hash_of(&b"01235".as_slice()));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
        for i in 0u32..100 {
            m.insert(format!("key-{i}").into_bytes(), i);
        }
        for i in 0u32..100 {
            assert_eq!(m.get(format!("key-{i}").as_bytes()), Some(&i));
        }
    }
}
