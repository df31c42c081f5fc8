//! Simulated cryptography for the sleepy-tob reproduction.
//!
//! The paper assumes two cryptographic primitives (Section 2.1):
//!
//! 1. **Unforgeable signatures** — every message carries one; messages with
//!    invalid signatures are discarded. In this closed, deterministic
//!    simulation we model a signature as a keyed hash over the message
//!    content bound to the sender's secret. The simulator gives each process
//!    its own [`Keypair`]; a Byzantine process can sign *anything it wants*
//!    with its own key (including equivocations) but can never produce a
//!    signature that verifies under another process's public key — exactly
//!    the property the paper's proofs rely on.
//! 2. **A verifiable random function (VRF)** — each process evaluates
//!    `(ρ, proof) ← VRF_p(µ)` and anyone can check the evaluation against
//!    the public key. We implement it as a keyed hash: deterministic,
//!    pseudorandom across `(process, input)` pairs, verifiable, and
//!    unpredictable to processes that do not hold the secret (within the
//!    simulation, processes never inspect each other's secrets).
//!
//! Neither primitive is cryptographically secure — they are *model-faithful
//! simulations* substituting for real Ed25519/ECVRF, as recorded in
//! DESIGN.md. Substituting real crypto would change no control path in the
//! protocol crates.
//!
//! # Example
//!
//! ```
//! use st_crypto::{Keypair, Vrf};
//! use st_types::ProcessId;
//!
//! let kp = Keypair::derive(ProcessId::new(3), 42);
//! let sig = kp.sign(b"vote for block 7");
//! assert!(kp.public().verify(b"vote for block 7", &sig));
//! assert!(!kp.public().verify(b"vote for block 8", &sig));
//!
//! let (value, proof) = kp.vrf_eval(1);
//! assert!(Vrf::verify(kp.public(), 1, value, &proof));
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod hash;
mod keys;
mod vrf;

pub use hash::Hasher64;
pub use keys::{verification_count, Keypair, PublicKey, Signature};
pub use vrf::{Vrf, VrfOutput, VrfProof};
