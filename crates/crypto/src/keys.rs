//! Simulated unforgeable signatures.
//!
//! A [`Keypair`] is derived deterministically from `(process id, system
//! seed)`. A signature is a keyed hash of the message under the keypair's
//! key material; verification recomputes it from the [`PublicKey`].
//!
//! # Unforgeability in the simulation
//!
//! Because the hash is public, unforgeability is enforced *at the type
//! level* rather than computationally: the only way to obtain a
//! [`Signature`] that verifies is [`Keypair::sign`] (the tag field is
//! private; [`Signature::from_wire_tag`] rebuilds a decoded one, and a
//! fabricated tag fails verification), and the simulator hands each
//! process — including Byzantine ones — only its own `Keypair`. A
//! Byzantine process can therefore sign arbitrary content (equivocate,
//! vote for fabricated logs, back-date round tags) but can never emit a
//! message that verifies under another process's public key, which is
//! exactly the power the paper grants the adversary (Section 2.1:
//! "messages sent by processes come with an unforgeable signature").

use crate::hash::Hasher64;
use st_types::ProcessId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of signature verifications performed.
///
/// The verify-once envelope fast path promises *at most one* signature
/// check per unique honest envelope per process set; this counter is how
/// stbench and tests demonstrate the promise instead of asserting it
/// rhetorically. Relaxed ordering: the counter is a metric, not a
/// synchronisation point.
static VERIFICATIONS: AtomicU64 = AtomicU64::new(0);

/// Total signature verifications performed by this process since start.
/// Read it twice and subtract to count a window.
pub fn verification_count() -> u64 {
    VERIFICATIONS.load(Ordering::Relaxed)
}

/// A process's public (verification) key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    owner: ProcessId,
    key_material: u64,
}

/// A signature over a message under some [`Keypair`].
///
/// One that verifies comes only from [`Keypair::sign`]; see the module
/// docs for the unforgeability argument.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    tag: u64,
}

impl Signature {
    /// The raw 64-bit tag, for compact wire codecs.
    ///
    /// Exposing the tag grants no forging power: its only way back into a
    /// `Signature` is [`Signature::from_wire_tag`], which the wire decoder
    /// calls on untrusted bytes, and a tag not produced by
    /// [`Keypair::sign`] for that content still fails [`PublicKey::verify`].
    pub fn as_wire_tag(&self) -> u64 {
        self.tag
    }

    /// Rebuilds a signature from a wire tag (see [`Signature::as_wire_tag`]).
    pub fn from_wire_tag(tag: u64) -> Signature {
        Signature { tag }
    }
}

/// A signing keypair held by a single process.
#[derive(Clone, Debug)]
pub struct Keypair {
    owner: ProcessId,
    secret: u64,
    public: PublicKey,
}

impl Keypair {
    /// Derives the keypair of `owner` under a given system seed.
    ///
    /// All processes of one simulated system share the seed; distinct
    /// owners get unrelated key material.
    ///
    /// ```
    /// use st_crypto::Keypair;
    /// use st_types::ProcessId;
    /// let a = Keypair::derive(ProcessId::new(0), 7);
    /// let b = Keypair::derive(ProcessId::new(1), 7);
    /// assert_ne!(a.public(), b.public());
    /// ```
    pub fn derive(owner: ProcessId, system_seed: u64) -> Keypair {
        let secret = Hasher64::with_domain("st/keygen")
            .chain_u64(system_seed)
            .chain_u64(owner.as_u32() as u64)
            .finish();
        let key_material = Hasher64::with_domain("st/pubkey")
            .chain_u64(secret)
            .finish();
        Keypair {
            owner,
            secret,
            public: PublicKey {
                owner,
                key_material,
            },
        }
    }

    /// The process this keypair belongs to.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// The verification key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            tag: sig_tag(self.public.key_material, message),
        }
    }

    /// Secret scalar — exposed only to the sibling `vrf` module.
    pub(crate) fn secret(&self) -> u64 {
        self.secret
    }
}

impl PublicKey {
    /// The process that owns this key.
    pub fn owner(&self) -> ProcessId {
        self.owner
    }

    /// Raw key material (used by the VRF verifier).
    pub(crate) fn key_material(&self) -> u64 {
        self.key_material
    }

    /// Verifies `sig` over `message`: any change to the message, or a
    /// signature produced under a different keypair, fails.
    ///
    /// ```
    /// use st_crypto::Keypair;
    /// use st_types::ProcessId;
    /// let kp = Keypair::derive(ProcessId::new(0), 1);
    /// let other = Keypair::derive(ProcessId::new(1), 1);
    /// let sig = kp.sign(b"m");
    /// assert!(kp.public().verify(b"m", &sig));
    /// assert!(!kp.public().verify(b"n", &sig));
    /// assert!(!other.public().verify(b"m", &sig));
    /// ```
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        VERIFICATIONS.fetch_add(1, Ordering::Relaxed);
        sig.tag == sig_tag(self.key_material, message)
    }
}

fn sig_tag(key_material: u64, message: &[u8]) -> u64 {
    Hasher64::with_domain("st/sig")
        .chain_u64(key_material)
        .chain(message)
        .finish()
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pk({}, {:016x})", self.owner, self.key_material)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig({:016x})", self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(i: u32) -> Keypair {
        Keypair::derive(ProcessId::new(i), 99)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let k = kp(0);
        let sig = k.sign(b"hello");
        assert!(k.public().verify(b"hello", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let k = kp(0);
        let sig = k.sign(b"hello");
        assert!(!k.public().verify(b"hellO", &sig));
        assert!(!k.public().verify(b"", &sig));
    }

    #[test]
    fn cross_key_rejected() {
        let a = kp(0);
        let b = kp(1);
        let sig = a.sign(b"msg");
        assert!(!b.public().verify(b"msg", &sig));
    }

    #[test]
    fn same_process_different_seed_differs() {
        let a = Keypair::derive(ProcessId::new(0), 1);
        let b = Keypair::derive(ProcessId::new(0), 2);
        assert_ne!(a.public(), b.public());
        assert!(!b.public().verify(b"m", &a.sign(b"m")));
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = Keypair::derive(ProcessId::new(5), 123);
        let b = Keypair::derive(ProcessId::new(5), 123);
        assert_eq!(a.public(), b.public());
        assert_eq!(a.sign(b"x"), b.sign(b"x"));
    }

    #[test]
    fn verification_counter_ticks() {
        let k = kp(3);
        let sig = k.sign(b"count me");
        let before = verification_count();
        assert!(k.public().verify(b"count me", &sig));
        assert!(!k.public().verify(b"not me", &sig));
        // Other tests run concurrently, so the counter can only grow by
        // *at least* our two checks.
        assert!(verification_count() >= before + 2);
    }

    #[test]
    fn signature_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Signature>();
        assert_send_sync::<PublicKey>();
        assert_send_sync::<Keypair>();
    }
}
