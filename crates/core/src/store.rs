//! Dense ids for the monitor's keys: router names and the archive
//! dictionary's strings, addresses, groups and prefixes.
//!
//! An [`Interner`] maps each key to a `u32` id once, in first-seen order,
//! and never changes it, so per-key state can live in a plain `Vec`
//! indexed by id. A monitor's [`TableStore`] holds its router names: a
//! router's id indexes its state slot. Each v2 archive's dictionary
//! interns the keys its records carry, so a record payload is ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fast multiply-rotate hasher (the FxHash construction) for the
/// interner maps. Keys here are short — a router name, a pair of `u32`
/// addresses, a route key — so per-call hashing overhead dominates; a
/// SipHash-class hasher costs more than the `BTreeMap` lookups interning
/// replaces. Not DoS-resistant, which is fine: keys come from router
/// tables this process parsed, not from untrusted map insertions.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
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
        for &b in bytes {
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
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`] — the store's own hasher, exported
/// so per-router state keyed by addresses can share it without going
/// through an interner.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuild>;

/// A map from keys to dense `u32` ids, assigned in first-seen order and
/// never recycled.
#[derive(Clone, Debug)]
pub struct Interner<K> {
    map: HashMap<K, u32, FxBuild>,
    keys: Vec<K>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner {
            map: HashMap::default(),
            keys: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone> Interner<K> {
    /// The id for `key`, interning it on first sight.
    pub fn intern(&mut self, key: &K) -> u32 {
        if let Some(&id) = self.map.get(key) {
            return id;
        }
        self.push_new(key.clone())
    }

    /// Inserts a key known to be absent and returns its fresh id.
    fn push_new(&mut self, key: K) -> u32 {
        let id = self.keys.len() as u32;
        self.map.insert(key.clone(), id);
        self.keys.push(key);
        id
    }

    /// The id for `key` when already interned.
    pub fn get(&self, key: &K) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// The key behind an id.
    pub fn resolve(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// Every interned key, indexed by id — ids are assigned densely in
    /// first-seen order and never change, so `keys()[id]` is stable for
    /// the interner's lifetime. This is the export the archive dictionary
    /// builds on: persisting `keys()[watermark..]` after each batch of
    /// interns writes exactly the new entries, in id order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl Interner<String> {
    /// The id for a textual key, cloning into an owned `String` only on
    /// first sight. The lookup borrows the map's keys as `str`, so the
    /// hash is computed over exactly the bytes [`Interner::intern`] would
    /// hash — the two paths always agree on ids.
    pub fn intern_str(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.map.get(key) {
            return id;
        }
        self.push_new(key.to_string())
    }
}

/// A monitor's router ids: each router name maps to the dense id that
/// indexes its per-router state slot.
#[derive(Clone, Debug, Default)]
pub struct TableStore {
    /// Router names.
    pub routers: Interner<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_dense() {
        let mut i: Interner<String> = Interner::default();
        let a = i.intern(&"fixw".to_string());
        let b = i.intern(&"ucsb-gw".to_string());
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(i.intern(&"fixw".to_string()), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(b), "ucsb-gw");
        assert_eq!(i.get(&"ghost".to_string()), None);
    }

    #[test]
    fn byte_and_str_interning_are_hash_compatible() {
        let mut i: Interner<String> = Interner::default();
        let a = i.intern(&"fixw".to_string());
        assert_eq!(i.intern_str("fixw"), a, "str lookup hits the same slot");
        let b = i.intern_str("ucsb-gw");
        assert_eq!(
            i.intern(&"ucsb-gw".to_string()),
            b,
            "str-first interning is visible to the owned path"
        );
        assert_eq!(i.len(), 2);
    }
}
