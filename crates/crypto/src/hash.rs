//! A small, fast, deterministic 64-bit hash (FNV-1a with avalanche finish).
//!
//! Used for content-addressing blocks, deriving simulated signatures, and
//! the VRF. Determinism across runs and platforms is the property that
//! matters here (the simulator must be exactly reproducible from a seed);
//! collision resistance against an adaptive adversary is *not* required in
//! the closed simulation.

/// Incremental 64-bit hasher (FNV-1a core, `splitmix64` finalisation).
///
/// ```
/// use st_crypto::Hasher64;
/// let mut h = Hasher64::new();
/// h.update(b"hello");
/// h.update_u64(7);
/// let a = h.finish();
/// assert_eq!(a, Hasher64::new().chain(b"hello").chain_u64(7).finish());
/// ```
#[derive(Clone, Debug)]
pub struct Hasher64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher64 {
    /// Creates a hasher with the standard FNV offset basis.
    pub fn new() -> Self {
        Hasher64 { state: FNV_OFFSET }
    }

    /// Creates a hasher seeded with a domain-separation tag.
    pub fn with_domain(domain: &str) -> Self {
        let mut h = Hasher64::new();
        h.update(domain.as_bytes());
        h
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Chaining variant of [`Hasher64::update`].
    #[must_use]
    pub fn chain(mut self, bytes: &[u8]) -> Self {
        self.update(bytes);
        self
    }

    /// Chaining variant of [`Hasher64::update_u64`].
    #[must_use]
    pub fn chain_u64(mut self, v: u64) -> Self {
        self.update_u64(v);
        self
    }

    /// Finalises the hash with a `splitmix64`-style avalanche so that
    /// nearby inputs produce well-mixed outputs (important for the VRF,
    /// whose values are compared for a maximum).
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let h = || Hasher64::new().chain(b"sleepy").finish();
        assert_eq!(h(), h());
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        // Not a collision-resistance proof, just a smoke check over a grid.
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            assert!(
                seen.insert(Hasher64::new().chain_u64(i).finish()),
                "collision at {i}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Hasher64::new();
        h.update(b"ab");
        h.update(b"cd");
        assert_eq!(h.finish(), Hasher64::new().chain(b"abcd").finish());
    }

    #[test]
    fn domain_separation() {
        let a = Hasher64::with_domain("sig").chain_u64(1).finish();
        let b = Hasher64::with_domain("vrf").chain_u64(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_spreads_low_bits() {
        // Consecutive integers should differ in roughly half the bits.
        let a = Hasher64::new().chain_u64(1).finish();
        let b = Hasher64::new().chain_u64(2).finish();
        let diff = (a ^ b).count_ones();
        assert!(diff > 16, "weak avalanche: only {diff} differing bits");
    }
}
