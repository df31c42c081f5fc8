//! Signed message envelopes and the public-key directory.
//!
//! Every message exchanged among processes carries an unforgeable
//! signature; messages without a valid signature are discarded
//! (Section 2.1). [`Envelope::sign`] produces a signed message and
//! [`Envelope::verify`] checks it against the claimed sender's key in the
//! [`KeyDirectory`].

use crate::{Propose, Vote};
use st_crypto::{Keypair, PublicKey, Signature};
use st_types::{ProcessId, Round};
use std::fmt;

/// The payload of a signed message: a vote or a proposal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A graded-agreement vote.
    Vote(Vote),
    /// A view proposal.
    Propose(Propose),
}

impl Payload {
    /// The claimed sender of the payload.
    pub fn sender(&self) -> ProcessId {
        match self {
            Payload::Vote(v) => v.sender(),
            Payload::Propose(p) => p.sender(),
        }
    }

    /// The round the payload is tagged with.
    pub fn round(&self) -> Round {
        match self {
            Payload::Vote(v) => v.round(),
            Payload::Propose(p) => p.round(),
        }
    }

    /// Canonical bytes for signing.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Payload::Vote(v) => v.to_bytes(),
            Payload::Propose(p) => p.to_bytes(),
        }
    }
}

impl From<Vote> for Payload {
    fn from(v: Vote) -> Payload {
        Payload::Vote(v)
    }
}

impl From<Propose> for Payload {
    fn from(p: Propose) -> Payload {
        Payload::Propose(p)
    }
}

/// A signed protocol message.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Envelope {
    payload: Payload,
    signature: Signature,
}

impl Envelope {
    /// Signs `payload` with `keypair`.
    ///
    /// # Panics
    ///
    /// Panics if the payload's claimed sender is not the keypair's owner —
    /// that would be a forgery, which even Byzantine processes cannot do
    /// (they *can* sign arbitrary content under their own identity; create
    /// the payload with their own `ProcessId` for that).
    pub fn sign(keypair: &Keypair, payload: Payload) -> Envelope {
        assert_eq!(
            payload.sender(),
            keypair.owner(),
            "cannot sign a message claiming another process's identity"
        );
        let signature = keypair.sign(&payload.to_bytes());
        Envelope { payload, signature }
    }

    /// Reassembles an envelope from decoded wire parts. Crate-internal:
    /// used by the binary codec (the signature is still checked by
    /// [`Envelope::verify`]).
    pub(crate) fn from_wire_parts(payload: Payload, signature: Signature) -> Envelope {
        Envelope { payload, signature }
    }

    /// The payload (valid only if [`Envelope::verify`] accepts).
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// The raw signature (the wire codec carries it verbatim).
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Verifies the signature against the claimed sender's public key in
    /// `directory`. Returns `false` for unknown senders.
    pub fn verify(&self, directory: &KeyDirectory) -> bool {
        match directory.key_of(self.payload.sender()) {
            Some(pk) => pk.verify(&self.payload.to_bytes(), &self.signature),
            None => false,
        }
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Envelope({:?})", self.payload)
    }
}

/// The registry of public keys, indexed by process id.
///
/// In a deployment this is the validator set / PKI; in the simulation it is
/// derived once from the system seed.
#[derive(Clone, Debug)]
pub struct KeyDirectory {
    keys: Vec<PublicKey>,
    fingerprint: u64,
}

impl KeyDirectory {
    /// Builds the directory for a system of `n` processes under a seed,
    /// matching [`Keypair::derive`].
    pub fn derive(n: usize, system_seed: u64) -> KeyDirectory {
        let keys: Vec<PublicKey> = ProcessId::all(n)
            .map(|p| Keypair::derive(p, system_seed).public())
            .collect();
        // A cheap, collision-resistant-enough identity for the *process
        // set* this directory describes. The shared-envelope verification
        // cache is keyed on it so a cached verdict is never reused across
        // directories (e.g. two simulated systems with different seeds).
        // Forced odd so a fingerprint is never zero and shifted encodings
        // of it stay nonzero.
        let fingerprint = st_crypto::Hasher64::with_domain("st/keydir")
            .chain_u64(system_seed)
            .chain_u64(n as u64)
            .finish()
            | 1;
        KeyDirectory { keys, fingerprint }
    }

    /// The directory's identity: equal for directories describing the same
    /// process set, distinct (w.h.p.) otherwise. Never zero.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The public key of `p`, if registered.
    pub fn key_of(&self, p: ProcessId) -> Option<PublicKey> {
        self.keys.get(p.index()).copied()
    }

    /// `p` as a member of the process set: `Some` exactly when its index
    /// is below the directory's `n`. The only way to obtain a [`Sender`].
    pub fn sender(&self, p: ProcessId) -> Option<Sender> {
        (p.index() < self.keys.len()).then_some(Sender(p))
    }
}

/// A process id the [`KeyDirectory`] vouches for: its index is below `n`,
/// so a table indexed by `Sender` is bounded by the process set, whatever
/// id a message claims. [`KeyDirectory::sender`] is the only constructor;
/// a raw [`ProcessId`] does not convert:
///
/// ```compile_fail,E0277
/// let _: st_messages::Sender = st_types::ProcessId::new(0).into();
/// ```
///
/// ```compile_fail,E0599
/// let _ = st_messages::Sender::new(st_types::ProcessId::new(0));
/// ```
///
/// ```compile_fail,E0423
/// let _ = st_messages::Sender(st_types::ProcessId::new(0));
/// ```
///
/// ```compile_fail,E0451
/// let _ = st_messages::Sender { 0: st_types::ProcessId::new(0) };
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sender(ProcessId);

impl Sender {
    /// The dense index, below the issuing directory's `n`.
    pub fn index(self) -> usize {
        self.0.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::BlockId;

    fn setup() -> (Keypair, Keypair, KeyDirectory) {
        let a = Keypair::derive(ProcessId::new(0), 42);
        let b = Keypair::derive(ProcessId::new(1), 42);
        let dir = KeyDirectory::derive(2, 42);
        (a, b, dir)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (a, _, dir) = setup();
        let vote = Vote::new(a.owner(), Round::new(1), BlockId::new(5));
        let env = Envelope::sign(&a, vote.into());
        assert!(env.verify(&dir));
    }

    #[test]
    #[should_panic(expected = "claiming another process")]
    fn forging_identity_panics() {
        let (a, b, _) = setup();
        let vote = Vote::new(b.owner(), Round::new(1), BlockId::new(5));
        let _ = Envelope::sign(&a, vote.into());
    }

    #[test]
    fn unknown_sender_rejected() {
        let dir = KeyDirectory::derive(1, 42);
        let ghost = Keypair::derive(ProcessId::new(9), 42);
        let vote = Vote::new(ghost.owner(), Round::new(1), BlockId::new(5));
        let env = Envelope::sign(&ghost, vote.into());
        assert!(!env.verify(&dir));
        // The directory issues a `Sender` below its `n` only.
        assert_eq!(dir.sender(ProcessId::new(0)).map(Sender::index), Some(0));
        assert_eq!(dir.sender(ProcessId::new(1)), None);
        assert_eq!(dir.sender(ProcessId::new(u32::MAX)), None);
    }

    #[test]
    fn wrong_seed_key_rejected() {
        let a_evil = Keypair::derive(ProcessId::new(0), 43); // different seed
        let dir = KeyDirectory::derive(2, 42);
        let vote = Vote::new(a_evil.owner(), Round::new(1), BlockId::new(5));
        let env = Envelope::sign(&a_evil, vote.into());
        assert!(!env.verify(&dir));
    }

    #[test]
    fn payload_accessors() {
        let (a, _, _) = setup();
        let vote = Vote::new(a.owner(), Round::new(3), BlockId::new(5));
        let p: Payload = vote.into();
        assert_eq!(p.sender(), a.owner());
        assert_eq!(p.round(), Round::new(3));
    }
}
