//! Shared, verify-once message envelopes.
//!
//! A multicast reaches every process, but its bytes never change after
//! signing: storing one [`Envelope`] per receiver and re-checking it at
//! every receiver is pure waste — `O(n)` deep clones and `O(n)` hash
//! verifications per message, `O(n²)` per round. A [`SharedEnvelope`] is
//! an [`Arc`]-backed envelope with two cached verdicts behind one step,
//! [`SharedEnvelope::verified`]: delivery is a reference-count bump, the
//! signature is checked **once per unique envelope** (at first receipt),
//! and so is a proposal's VRF evaluation; every later receiver reuses
//! both verdicts.
//!
//! Honest envelopes are immutable after signing, so each verdict is a
//! pure function of the envelope and the key directory, and a forgery
//! fails for every receiver exactly as before. Each verdict is keyed by
//! [`KeyDirectory::fingerprint`], so an envelope checked against another
//! directory (another simulated system) is re-verified, not served a
//! stale verdict.

use crate::{Envelope, KeyDirectory, Payload, Propose, Sender, Vote};
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
/// verified yet" (fingerprints are nonzero). One atomic holds both, so a
/// race only ever publishes a consistent pair, and racing writers for one
/// directory write the same value.
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

    /// The one verification step a receiver runs: `None` unless the
    /// claimed sender is in `directory` and the signature verifies
    /// ([`Envelope::verify`]; unverifiable messages are discarded,
    /// Section 2.1), else the payload with its [`Sender`] and, for a
    /// proposal, whether its VRF verifies ([`Propose::vrf_valid`]). Both
    /// verdicts are cached, so each is computed once per envelope.
    pub fn verified(&self, directory: &KeyDirectory) -> Option<Verified<'_>> {
        let payload = self.payload();
        let sender = directory.sender(payload.sender())?;
        if !cached(&self.inner.verdict, directory, || {
            self.inner.envelope.verify(directory)
        }) {
            return None;
        }
        Some(match payload {
            Payload::Vote(vote) => Verified::Vote(sender, vote),
            Payload::Propose(proposal) => Verified::Propose {
                sender,
                proposal,
                vrf_valid: cached(&self.inner.vrf_verdict, directory, || {
                    proposal.vrf_valid(directory)
                }),
            },
        })
    }

    /// Whether two shared envelopes point at the same allocation
    /// (content equality is [`PartialEq`]).
    #[cfg(test)]
    fn same_allocation(a: &SharedEnvelope, b: &SharedEnvelope) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }
}

/// A payload whose signature verified, as [`SharedEnvelope::verified`]
/// yields it, with its sender as a member of the process set.
#[derive(Clone, Copy, Debug)]
pub enum Verified<'a> {
    /// A vote.
    Vote(Sender, &'a Vote),
    /// A proposal. Its body is usable whatever the VRF says; only a valid
    /// VRF(v) makes it a leader candidate (Algorithm 1).
    Propose {
        /// The proposer.
        sender: Sender,
        /// The proposal.
        proposal: &'a Propose,
        /// Whether the VRF evaluation verifies against the proposer's key.
        vrf_valid: bool,
    },
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
    use st_blocktree::Block;
    use st_crypto::Keypair;
    use st_types::{BlockId, ProcessId, Round, View};

    fn signed(seed: u64) -> Envelope {
        let kp = Keypair::derive(ProcessId::new(0), seed);
        let vote = Vote::new(ProcessId::new(0), Round::new(1), BlockId::new(5));
        Envelope::sign(&kp, Payload::Vote(vote))
    }

    /// The VRF verdict `verified` yields under `dir` (`None` when the
    /// signature fails; a vote never gets here).
    fn vrf_verdict(shared: &SharedEnvelope, dir: &KeyDirectory) -> Option<bool> {
        match shared.verified(dir)? {
            Verified::Propose { vrf_valid, .. } => Some(vrf_valid),
            Verified::Vote(..) => panic!("a proposal verified as a vote"),
        }
    }

    #[test]
    fn verifies_once_per_directory() {
        let dir = KeyDirectory::derive(2, 42);
        let shared = SharedEnvelope::new(signed(42));
        for _ in 0..10 {
            let verified = shared.verified(&dir);
            assert!(matches!(verified, Some(Verified::Vote(s, _)) if s.index() == 0));
        }
        // One real verification; nine cache hits. Other tests in this
        // binary verify concurrently, so the global counter is asserted
        // exactly in st-sim's `tests/verify_once.rs`, a binary of its own.
        let clone = shared.clone();
        assert!(clone.verified(&dir).is_some());
        assert!(SharedEnvelope::same_allocation(&shared, &clone));
    }

    #[test]
    fn cached_rejection_stays_rejected() {
        let dir = KeyDirectory::derive(2, 42);
        let forged = SharedEnvelope::new(signed(977)); // wrong system seed
        assert!(forged.verified(&dir).is_none());
        assert!(forged.verified(&dir).is_none());
        assert!(!forged.envelope().verify(&dir));
    }

    #[test]
    fn different_directory_is_not_served_stale_verdict() {
        let dir_a = KeyDirectory::derive(2, 42);
        let dir_b = KeyDirectory::derive(2, 977);
        let shared = SharedEnvelope::new(signed(42));
        assert!(shared.verified(&dir_a).is_some());
        // Same envelope, different process set: must re-verify and fail.
        assert!(shared.verified(&dir_b).is_none());
        // And flipping back re-verifies again rather than reusing dir_b's.
        assert!(shared.verified(&dir_a).is_some());
    }

    /// A signed proposal of process 1 for view 3 whose VRF evaluation is
    /// for `vrf_view` (a valid VRF(3) only when `vrf_view` is 3).
    fn proposal(seed: u64, vrf_view: u64) -> SharedEnvelope {
        let kp = Keypair::derive(ProcessId::new(1), seed);
        let (value, proof) = kp.vrf_eval(vrf_view);
        let block = Block::build(BlockId::GENESIS, View::new(3), kp.owner(), Vec::new());
        let propose = Propose::new(kp.owner(), Round::new(4), View::new(3), block, value, proof);
        SharedEnvelope::new(Envelope::sign(&kp, Payload::Propose(propose)))
    }

    #[test]
    fn vrf_verdict_is_never_served_across_directories() {
        let dir_a = KeyDirectory::derive(2, 42);
        let dir_b = KeyDirectory::derive(2, 977);
        let shared = proposal(42, 3);
        assert_eq!(vrf_verdict(&shared, &dir_a), Some(true));
        // Under another process set's keys the proposal does not verify,
        // and what was cached for `dir_a` is not served for `dir_b`.
        assert_eq!(vrf_verdict(&shared, &dir_b), None);
        assert_eq!(vrf_verdict(&shared, &dir_a), Some(true));
        // A directory without the sender rejects it too.
        assert_eq!(vrf_verdict(&shared, &KeyDirectory::derive(1, 42)), None);
        // And a rejection cached for one directory is not served for
        // the other.
        let alien = proposal(977, 3);
        assert_eq!(vrf_verdict(&alien, &dir_a), None);
        assert_eq!(vrf_verdict(&alien, &dir_b), Some(true));
        // A verified signature does not vouch for the VRF: an evaluation
        // for another view is signed but no valid VRF(3).
        let wrong_view = proposal(42, 4);
        assert_eq!(vrf_verdict(&wrong_view, &dir_a), Some(false));
        assert_eq!(vrf_verdict(&wrong_view, &dir_a), Some(false));
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
