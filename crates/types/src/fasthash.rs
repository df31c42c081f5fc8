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
//! identical across runs, which also makes map iteration order stable
//! for debugging.

#![expect(
    clippy::disallowed_types,
    reason = "this module IS the sanctioned wrapper: FastMap/FastSet are std tables re-keyed with the deterministic FxHasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide FxHash seed. Zero (the default) reproduces the historic
/// unseeded behavior bit-for-bit; st-sim's hasher-perturbation test
/// perturbs it to prove that no simulation output depends on bucket order.
static HASHER_SEED: AtomicU64 = AtomicU64::new(0);

/// Sets the process-wide FxHash seed. Only tables **created after** the
/// call observe the new seed (each hasher captures it at construction),
/// so a perturbation harness must set the seed before building the
/// simulation it measures. Production code never calls this — the
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

/// `HashMap` keyed with [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

// ---------------------------------------------------------------------
// Canonicalizing iteration adapters.
//
// Iterating a FastMap/FastSet yields entries in hasher-bucket order —
// deterministic for a fixed seed, but still an implementation detail
// that must never reach an ordered value (a Vec being built, a message
// batch, a fold). These free functions are the sanctioned route: they
// materialize the entries and sort by key, so downstream order is a
// function of the *keys*, not the hasher. stlint's N1/iterorder rule
// recognizes call sites routed through them (free-function calls don't
// match its `map.iter()…` shapes) and flags direct iteration instead.

/// Key-sorted iteration over any `HashMap` (in particular [`FastMap`]).
pub fn iter_sorted<K: Ord, V, S: BuildHasher>(
    map: &HashMap<K, V, S>,
) -> std::vec::IntoIter<(&K, &V)> {
    // stlint::allow(iterorder, reason = "this IS the canonicalizing adapter: entries are sorted by key before anything downstream sees them")
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    entries.into_iter()
}

/// Consumes a `HashSet` into a sorted `Vec`.
pub fn set_into_sorted_vec<T: Ord, S: BuildHasher>(set: HashSet<T, S>) -> Vec<T> {
    // stlint::allow(iterorder, reason = "this IS the canonicalizing adapter: the collected vec is sorted before being returned")
    let mut elems: Vec<T> = set.into_iter().collect();
    elems.sort_unstable();
    elems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_distinct() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&i], i * 2);
        }
    }

    #[test]
    fn spreads_sequential_keys() {
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
    fn sorted_adapters_are_key_ordered_and_complete() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        let mut s: FastSet<u64> = FastSet::default();
        for i in [5u64, 1, 9, 3, 7] {
            m.insert(i, i * 10);
            s.insert(i);
        }
        let pairs: Vec<(u64, u64)> = iter_sorted(&m).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(set_into_sorted_vec(s), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn hasher_seed_perturbs_hashes_and_default_captures_it() {
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
        let mut a = FxHasher::default();
        a.write(b"hello world");
        let mut b = FxHasher::default();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
