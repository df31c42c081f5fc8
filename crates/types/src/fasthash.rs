//! A fast, deterministic hasher for the workspace's small fixed-width
//! keys.
//!
//! Every hot path in the simulator is keyed by newtyped integers
//! ([`crate::BlockId`], [`crate::ProcessId`], [`crate::View`], …): block
//! trees, vote stores, tally support maps. `std`'s default SipHash is
//! DoS-resistant at the cost of ~10× the cycles these 8-byte keys need —
//! a real tax when a single `n = 1024` run performs hundreds of millions
//! of map operations. [`FxHasher`] is a multiply-mix hasher in the spirit
//! of rustc's FxHash: not DoS-resistant (irrelevant in a closed,
//! deterministic simulation; nothing here hashes attacker-chosen byte
//! strings into exposed tables), but fast and — unlike `RandomState` —
//! identical across runs.
//!
//! The tables built on it, [`FastMap`] and [`FastSet`], offer no walk in
//! bucket order at all: keyed access, key-sorted walks and order-free
//! reductions only. So no output can depend on the hasher, whatever its
//! seed.

#![expect(
    clippy::disallowed_types,
    reason = "this module IS the sanctioned wrapper: FastMap/FastSet are std tables re-keyed with the deterministic FxHasher, minus their unordered iteration"
)]

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide FxHash seed. Zero (the default) reproduces the historic
/// unseeded behavior bit-for-bit; st-sim's hasher-perturbation test
/// perturbs it to prove that no simulation output depends on bucket order.
static HASHER_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the process-wide FxHash seed. Every hash operation reads it
/// afresh (each [`FxHasher`] captures it at construction, and tables
/// build one per operation), so a perturbation harness must set the seed
/// before building the simulation it measures and keep it until the run
/// is done. Production code never calls this — the
/// default seed of 0 keeps every run byte-identical to the committed
/// baselines; the call exists so the hasher-perturbation test can
/// falsify iteration-order dependence dynamically.
pub fn set_hasher_seed(seed: u64) {
    // stlint::allow(deadpub, reason = "the hasher-perturbation test's seed switch; production keeps the default seed 0")
    HASHER_SEED.store(seed, Ordering::Relaxed);
}

/// Multiply-mix hasher for small keys. See the module docs for when (and
/// when not) to use it.
#[derive(Clone, Copy, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl Default for FxHasher {
    fn default() -> FxHasher {
        FxHasher {
            hash: HASHER_SEED.load(Ordering::Relaxed),
        }
    }
}

/// Golden-ratio-derived odd multiplier (same constant family as rustc's
/// FxHash).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    /// A hasher starting from an explicit seed, independent of the
    /// process-wide one. Seed 0 is the historic unseeded hasher.
    #[cfg(test)]
    fn with_seed(seed: u64) -> FxHasher {
        FxHasher { hash: seed }
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: `std`'s hashbrown tables use the *top* bits for
        // control bytes, so entropy must reach them even for tiny inputs.
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h
    }
}

/// SplitMix64 finalizer: a fixed, hasher-independent 64-bit mixing
/// function. Unlike [`FxHasher`] it never reads the process-wide seed, so
/// values built from it (content fingerprints, tally memo keys) are
/// identical under the hasher-perturbation test — use it wherever a
/// digest must not depend on bucket order *or* on the FxHash seed.
#[inline]
pub const fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds a word into a hasher-independent running digest (order matters:
/// `mix64_pair(a, b) ≠ mix64_pair(b, a)`). Composes [`mix64`] the way the
/// workspace's fingerprints chain fields together.
#[inline]
pub const fn mix64_pair(acc: u64, word: u64) -> u64 {
    mix64(acc ^ mix64(word))
}

/// The build-hasher both tables use.
type FxBuild = BuildHasherDefault<FxHasher>;

// ---------------------------------------------------------------------
// The tables.
//
// Iterating a hash table yields entries in bucket order: deterministic
// for a fixed seed, but an implementation detail that must never reach
// an ordered value (a Vec being built, a message batch, a report). So
// FastMap and FastSet wrap the std tables and leave out every way to
// walk them in that order: no `iter`, `keys`, `values`, `drain`,
// `IntoIterator` or `Deref`. What they offer instead is keyed access,
// key-sorted walks (`iter_sorted`, `FastSet::into_sorted_vec`, and
// `Debug`, which prints in key order), `FastMap::retain` with an `Fn`
// predicate, and reductions whose result cannot depend on order
// (`FastSet::min`). Each exists because a caller needs it.
// The hasher-perturbation test in st-sim replays the golden grid under
// other seeds to check the guarantee end to end.

/// Hash map keyed with [`FxHasher`] that cannot be iterated in bucket
/// order.
///
/// Lookups cost what a `std` map's do; a walk over the entries goes
/// through [`FastMap::iter_sorted`] and pays for a sort by key. There is
/// no unordered walk:
///
/// ```compile_fail,E0277
/// let m: st_types::FastMap<u64, u64> = Default::default();
/// for _ in &m {}
/// ```
///
/// ```compile_fail,E0599
/// let m: st_types::FastMap<u64, u64> = Default::default();
/// let _ = m.iter();
/// ```
///
/// ```compile_fail,E0599
/// let m: st_types::FastMap<u64, u64> = Default::default();
/// let _ = m.keys();
/// ```
#[derive(Clone)]
pub struct FastMap<K, V>(HashMap<K, V, FxBuild>);

/// Hash set keyed with [`FxHasher`] that cannot be iterated in bucket
/// order; see [`FastMap`].
///
/// ```compile_fail,E0599
/// let s: st_types::FastSet<u64> = Default::default();
/// let _ = s.iter();
/// ```
///
/// ```compile_fail,E0599
/// let s: st_types::FastSet<u64> = Default::default();
/// let _ = s.into_iter();
/// ```
#[derive(Clone)]
pub struct FastSet<T>(HashSet<T, FxBuild>);

impl<K, V> Default for FastMap<K, V> {
    fn default() -> FastMap<K, V> {
        FastMap(HashMap::default())
    }
}

impl<K, V> FastMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Keeps the entries for which `keep` returns `true`. The predicate
    /// is `Fn`, so it cannot carry state from one entry to the next.
    pub fn retain(&mut self, keep: impl Fn(&K, &mut V) -> bool) {
        self.0.retain(keep);
    }
}

impl<K: Eq + Hash, V> FastMap<K, V> {
    /// The value under `key`.
    pub fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.0.get(key)
    }

    /// The value under `key`, mutably.
    pub fn get_mut<Q: Eq + Hash + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.0.get_mut(key)
    }

    /// Whether `key` has an entry.
    pub fn contains_key<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.0.contains_key(key)
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove<Q: Eq + Hash + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        self.0.remove(key)
    }

    /// The entry under `key`, for in-place update or insertion.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }
}

impl<K: Ord, V> FastMap<K, V> {
    /// The entries in key order.
    pub fn iter_sorted(&self) -> std::vec::IntoIter<(&K, &V)> {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for FastMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_sorted()).finish()
    }
}

impl<T> Default for FastSet<T> {
    fn default() -> FastSet<T> {
        FastSet(HashSet::default())
    }
}

impl<T> FastSet<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T: Eq + Hash> FastSet<T> {
    /// Whether `value` is an element.
    pub fn contains<Q: Eq + Hash + ?Sized>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.contains(value)
    }

    /// Adds `value`; `false` if it was already an element.
    pub fn insert(&mut self, value: T) -> bool {
        self.0.insert(value)
    }

    /// Removes `value`; `false` if it was not an element.
    pub fn remove<Q: Eq + Hash + ?Sized>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        self.0.remove(value)
    }
}

impl<T: Ord> FastSet<T> {
    /// The elements in order.
    pub fn iter_sorted(&self) -> std::vec::IntoIter<&T> {
        let mut elems: Vec<&T> = self.0.iter().collect();
        elems.sort_unstable();
        elems.into_iter()
    }

    /// Consumes the set into its elements, in order.
    pub fn into_sorted_vec(self) -> Vec<T> {
        let mut elems: Vec<T> = self.0.into_iter().collect();
        elems.sort_unstable();
        elems
    }

    /// The least element: a reduction no walk order can change.
    pub fn min(&self) -> Option<&T> {
        self.0.iter().min()
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for FastSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter_sorted()).finish()
    }
}

impl<T: Eq + Hash> FromIterator<T> for FastSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> FastSet<T> {
        FastSet(iter.into_iter().collect())
    }
}

impl<T: Eq + Hash> Extend<T> for FastSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tables hash under the process-wide seed at every operation, so the
    /// tests that change it must not overlap any test that hashes.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn deterministic_and_distinct() {
        let _serial = serial();
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn spreads_sequential_keys() {
        let _serial = serial();
        // Sequential keys (the common BlockId/ProcessId pattern) must not
        // collapse into few buckets: all finish() values distinct and the
        // top byte takes many values.
        let hashes: Vec<u64> = (0..4096u64)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(i);
                h.finish()
            })
            .collect();
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len());
        let top_bytes: std::collections::HashSet<u8> =
            hashes.iter().map(|h| (h >> 56) as u8).collect();
        assert!(
            top_bytes.len() > 100,
            "top byte poorly spread: {}",
            top_bytes.len()
        );
    }

    #[test]
    fn sorted_walks_are_key_ordered_and_complete() {
        let _serial = serial();
        let mut m: FastMap<u64, u64> = FastMap::default();
        let mut s: FastSet<u64> = FastSet::default();
        for i in [5u64, 1, 9, 3, 7] {
            m.insert(i, i * 10);
            s.insert(i);
        }
        let pairs: Vec<(u64, u64)> = m.iter_sorted().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(
            s.iter_sorted().copied().collect::<Vec<_>>(),
            [1, 3, 5, 7, 9]
        );
        assert_eq!(s.into_sorted_vec(), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn every_read_is_independent_of_the_hasher_seed() {
        let _serial = serial();
        // Every public read, under two seeds that do reorder the buckets.
        let reads = |seed: u64| {
            set_hasher_seed(seed);
            let mut m: FastMap<u64, u64> = FastMap::default();
            for i in 0..200u64 {
                m.insert(i * 7919 % 1000, i);
            }
            m.retain(|k, _| k % 3 != 0);
            let s: FastSet<u64> = (0..200u64).map(|i| i * 104_729 % 1000).collect();
            let reads = (
                m.iter_sorted().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
                format!("{m:?}"),
                s.iter_sorted().copied().collect::<Vec<_>>(),
                format!("{s:?}"),
                s.min().copied(),
                s.into_sorted_vec(),
            );
            set_hasher_seed(0);
            reads
        };
        assert_eq!(reads(0), reads(0x9e37_79b9_7f4a_7c15));
    }

    #[test]
    fn hasher_seed_perturbs_hashes_and_default_captures_it() {
        let _serial = serial();
        let hash_with = |seed: u64| {
            let mut h = FxHasher::with_seed(seed);
            h.write_u64(42);
            h.finish()
        };
        assert_ne!(hash_with(0), hash_with(0x9e37_79b9_7f4a_7c15));
        // `default()` reads the process-wide seed at construction time.
        set_hasher_seed(7);
        let mut d = FxHasher::default();
        d.write_u64(42);
        set_hasher_seed(0);
        assert_eq!(d.finish(), hash_with(7));
    }

    #[test]
    fn byte_writes_cover_tails() {
        let _serial = serial();
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
