//! Shared, verify-once message envelopes.
//!
//! A multicast reaches every process, but its bytes never change after
//! signing: storing one [`Envelope`] per receiver and re-checking its
//! signature at every receiver is pure waste — `O(n)` deep clones and
//! `O(n)` hash verifications per message, `O(n²)` per round. A
//! [`SharedEnvelope`] is an [`Arc`]-backed envelope with a cached
//! signature verdict: delivery is a reference-count bump and the
//! signature is checked **once per unique envelope** (at first receipt),
//! with every later receiver reusing the verdict.
//!
//! Honest-path behaviour is unchanged because honest envelopes are
//! immutable after signing, so the verdict is a pure function of the
//! envelope and the key directory. Adversarial forgeries still fail for
//! every receiver exactly as before — the cache just remembers the
//! (deterministic) failure. The verdict is keyed by
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
    /// Cached verdict, encoded as `(directory fingerprint << 1) | valid`.
    /// `0` means "not verified yet". Fingerprints are nonzero by
    /// construction, so every filled cache value is nonzero. The encoding
    /// packs fingerprint and verdict into one atomic so a (cross-thread)
    /// race can only ever publish a *consistent* pair; and because the
    /// verdict is a deterministic function of (envelope, directory),
    /// racing writers for the same directory write the same value.
    verdict: AtomicU64,
}

impl SharedEnvelope {
    /// Wraps an envelope for shared, verify-once delivery.
    pub fn new(envelope: Envelope) -> SharedEnvelope {
        SharedEnvelope {
            inner: Arc::new(Inner {
                envelope,
                verdict: AtomicU64::new(0),
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
        let key = directory.fingerprint() << 1;
        let cached = self.inner.verdict.load(Ordering::Acquire);
        if cached & !1 == key {
            return cached & 1 == 1;
        }
        let valid = self.inner.envelope.verify(directory);
        self.inner
            .verdict
            .store(key | valid as u64, Ordering::Release);
        valid
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
    use crate::Vote;
    use st_crypto::Keypair;
    use st_types::{BlockId, ProcessId, Round};

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
