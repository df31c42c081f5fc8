//! Shared, verify-once message envelopes.
//!
//! A multicast reaches every process, but its bytes never change after
//! signing: storing one [`Envelope`] per receiver and re-checking it at
//! every receiver is pure waste — `O(n)` deep clones and `O(n)` hash
//! verifications per message, `O(n²)` per round. A [`SharedEnvelope`] is
//! an [`Arc`]-backed envelope with two cached verdicts: delivery is a
//! reference-count bump, the signature is checked **once per unique
//! envelope** (at first receipt), and so is a proposal's VRF evaluation;
//! every later receiver reuses both verdicts.
//!
//! Honest-path behaviour is unchanged because honest envelopes are
//! immutable after signing, so each verdict is a pure function of the
//! envelope and the key directory. Adversarial forgeries still fail for
//! every receiver exactly as before — the cache just remembers the
//! (deterministic) failure. Each verdict is keyed by
//! [`KeyDirectory::fingerprint`], so an envelope checked against a
//! *different* directory (another simulated system) is re-verified rather
//! than served a stale verdict.

use crate::{Envelope, KeyDirectory, Payload};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable, reference-counted envelope with a cached signature
/// verdict. Cloning is a refcount bump; the payload is never deep-copied.
#[derive(Clone)]
pub struct SharedEnvelope {
    inner: Arc<Inner>,
}

struct Inner {
    envelope: Envelope,
    /// Cached signature verdict (see [`cached`] for the encoding).
    verdict: AtomicU64,
    /// Cached verdict on a proposal payload's VRF evaluation (see
    /// [`cached`]); unused for a vote.
    vrf_verdict: AtomicU64,
}

/// Reads `slot`'s verdict for `directory`, or runs `check` and stores its
/// result there.
///
/// A slot holds `(directory fingerprint << 1) | valid`; `0` means "not
/// verified yet". Fingerprints are nonzero by construction, so every
/// filled slot is nonzero. The encoding packs fingerprint and verdict
/// into one atomic so a (cross-thread) race can only ever publish a
/// *consistent* pair; and because the verdict is a deterministic function
/// of (envelope, directory), racing writers for the same directory write
/// the same value.
fn cached(slot: &AtomicU64, directory: &KeyDirectory, check: impl FnOnce() -> bool) -> bool {
    let key = directory.fingerprint() << 1;
    let filled = slot.load(Ordering::Acquire);
    if filled & !1 == key {
        return filled & 1 == 1;
    }
    let valid = check();
    slot.store(key | valid as u64, Ordering::Release);
    valid
}

impl SharedEnvelope {
    /// Wraps an envelope for shared, verify-once delivery.
    pub fn new(envelope: Envelope) -> SharedEnvelope {
        SharedEnvelope {
            inner: Arc::new(Inner {
                envelope,
                verdict: AtomicU64::new(0),
                vrf_verdict: AtomicU64::new(0),
            }),
        }
    }

    /// The wrapped envelope.
    pub fn envelope(&self) -> &Envelope {
        &self.inner.envelope
    }

    /// The payload (valid only if verification accepts).
    pub fn payload(&self) -> &Payload {
        self.inner.envelope.payload()
    }

    /// Verifies the signature against `directory`, reusing a cached
    /// verdict when this envelope was already checked against the same
    /// directory (by fingerprint). Semantically identical to
    /// [`Envelope::verify`] — only the amount of hashing differs.
    pub fn verify_cached(&self, directory: &KeyDirectory) -> bool {
        cached(&self.inner.verdict, directory, || {
            self.inner.envelope.verify(directory)
        })
    }

    /// Whether the payload is a proposal whose VRF evaluation verifies
    /// against `directory` ([`crate::Propose::vrf_valid`]), reusing a cached
    /// verdict the same way [`SharedEnvelope::verify_cached`] does: over
    /// a whole process set, a multicast proposal's VRF is checked once.
    /// `false` for a vote.
    pub fn vrf_valid_cached(&self, directory: &KeyDirectory) -> bool {
        let Payload::Propose(proposal) = self.payload() else {
            return false;
        };
        cached(&self.inner.vrf_verdict, directory, || {
            proposal.vrf_valid(directory)
        })
    }

    /// Whether two shared envelopes point at the same allocation
    /// (content equality is [`PartialEq`]).
    #[cfg(test)]
    fn same_allocation(a: &SharedEnvelope, b: &SharedEnvelope) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

impl From<Envelope> for SharedEnvelope {
    fn from(envelope: Envelope) -> SharedEnvelope {
        SharedEnvelope::new(envelope)
    }
}

impl PartialEq for SharedEnvelope {
    fn eq(&self, other: &SharedEnvelope) -> bool {
        self.inner.envelope == other.inner.envelope
    }
}

impl Eq for SharedEnvelope {}

impl fmt::Debug for SharedEnvelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared{:?}", self.inner.envelope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Propose, Vote};
    use st_blocktree::Block;
    use st_crypto::Keypair;
    use st_types::{BlockId, ProcessId, Round, View};

    fn signed(seed: u64) -> Envelope {
        let kp = Keypair::derive(ProcessId::new(0), seed);
        let vote = Vote::new(ProcessId::new(0), Round::new(1), BlockId::new(5));
        Envelope::sign(&kp, Payload::Vote(vote))
    }

    #[test]
    fn verifies_once_per_directory() {
        let dir = KeyDirectory::derive(2, 42);
        let shared = SharedEnvelope::new(signed(42));
        for _ in 0..10 {
            assert!(shared.verify_cached(&dir));
        }
        // One real verification; nine cache hits. Other tests in this
        // binary verify concurrently, so the global counter is asserted
        // exactly in st-sim's `tests/verify_once.rs`, a binary of its own.
        let clone = shared.clone();
        assert!(clone.verify_cached(&dir));
        assert!(SharedEnvelope::same_allocation(&shared, &clone));
    }

    #[test]
    fn cached_rejection_stays_rejected() {
        let dir = KeyDirectory::derive(2, 42);
        let forged = SharedEnvelope::new(signed(977)); // wrong system seed
        assert!(!forged.verify_cached(&dir));
        assert!(!forged.verify_cached(&dir));
        assert!(!forged.envelope().verify(&dir));
    }

    #[test]
    fn different_directory_is_not_served_stale_verdict() {
        let dir_a = KeyDirectory::derive(2, 42);
        let dir_b = KeyDirectory::derive(2, 977);
        let shared = SharedEnvelope::new(signed(42));
        assert!(shared.verify_cached(&dir_a));
        // Same envelope, different process set: must re-verify and fail.
        assert!(!shared.verify_cached(&dir_b));
        // And flipping back re-verifies again rather than reusing dir_b's.
        assert!(shared.verify_cached(&dir_a));
    }

    fn proposal(seed: u64) -> SharedEnvelope {
        let kp = Keypair::derive(ProcessId::new(1), seed);
        let (value, proof) = kp.vrf_eval(3);
        let block = Block::build(BlockId::GENESIS, View::new(3), kp.owner(), Vec::new());
        let propose = Propose::new(kp.owner(), Round::new(4), View::new(3), block, value, proof);
        SharedEnvelope::new(Envelope::sign(&kp, Payload::Propose(propose)))
    }

    #[test]
    fn vrf_verdict_is_never_served_across_directories() {
        let dir_a = KeyDirectory::derive(2, 42);
        let dir_b = KeyDirectory::derive(2, 977);
        let shared = proposal(42);
        assert!(shared.vrf_valid_cached(&dir_a));
        assert!(shared.vrf_valid_cached(&dir_a));
        // The same evaluation under another process set's keys fails,
        // and the verdict cached for `dir_a` is not served for `dir_b`.
        assert!(!shared.vrf_valid_cached(&dir_b));
        assert!(shared.vrf_valid_cached(&dir_a));
        // A directory without the sender rejects it too.
        assert!(!shared.vrf_valid_cached(&KeyDirectory::derive(1, 42)));
        // And a rejection cached for one directory is not served for
        // the other.
        let alien = proposal(977);
        assert!(!alien.vrf_valid_cached(&dir_a));
        assert!(alien.vrf_valid_cached(&dir_b));
        // The two verdicts are kept apart: a verified signature does not
        // vouch for the VRF, nor the other way round.
        assert!(shared.verify_cached(&dir_a));
        assert!(!shared.vrf_valid_cached(&dir_b));
        assert!(shared.verify_cached(&dir_a));
    }

    #[test]
    fn a_vote_has_no_valid_vrf() {
        let dir = KeyDirectory::derive(2, 42);
        assert!(!SharedEnvelope::new(signed(42)).vrf_valid_cached(&dir));
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let shared = SharedEnvelope::new(signed(1));
        let clone = shared.clone();
        assert_eq!(shared, clone);
        assert!(SharedEnvelope::same_allocation(&shared, &clone));
        // A structurally equal but separately wrapped envelope is equal
        // without sharing the allocation.
        let rewrapped = SharedEnvelope::new(signed(1));
        assert_eq!(shared, rewrapped);
        assert!(!SharedEnvelope::same_allocation(&shared, &rewrapped));
    }
}
