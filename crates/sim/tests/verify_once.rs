//! Verify-once, counted: a multicast envelope's signature is checked once
//! for the whole process set, not once per receiver.
//!
//! `st_crypto::verification_count` is process-global, so this file holds
//! exactly one test: as its own test binary it runs alone, and the counter
//! delta below is exact rather than a lower bound.

use st_crypto::{verification_count, Keypair};
use st_messages::{Envelope, KeyDirectory, Payload, Vote};
use st_sim::{Network, Recipients};
use st_types::{BlockId, ProcessId, Round};

#[test]
fn each_envelope_is_verified_once_across_all_receivers() {
    let (n, seed, rounds) = (16usize, 7u64, 3u64);
    let dir = KeyDirectory::derive(n, seed);
    let mut net = Network::new(n);
    let before = verification_count();
    let (mut sent, mut accepted) = (0u64, 0usize);
    for r in 1..=rounds {
        let round = Round::new(r);
        for p in ProcessId::all(n) {
            let vote = Vote::new(p, round, BlockId::new(r));
            let envelope = Envelope::sign(&Keypair::derive(p, seed), Payload::Vote(vote));
            net.send(round, p, Recipients::All, envelope);
            sent += 1;
        }
        for p in ProcessId::all(n) {
            net.deliver_sync_with(p, round, |env| accepted += env.verify_cached(&dir) as usize);
        }
    }
    assert_eq!(
        accepted as u64,
        sent * n as u64,
        "every receiver accepts every envelope"
    );
    assert_eq!(
        verification_count() - before,
        sent,
        "{sent} envelopes to {n} receivers: one verification each, not one per receiver"
    );
}
