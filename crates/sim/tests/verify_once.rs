//! Verify-once, counted: a multicast envelope's signature is checked once
//! for the whole process set, not once per receiver — votes and proposals
//! alike.
//!
//! `st_crypto::verification_count` is process-global, so this file holds
//! exactly one test: as its own test binary it runs alone, and the counter
//! delta below is exact rather than a lower bound.

use st_blocktree::Block;
use st_crypto::{verification_count, Keypair};
use st_messages::{Envelope, KeyDirectory, Payload, Propose, Verified, Vote};
use st_sim::{Network, Recipients};
use st_types::{BlockId, ProcessId, Round, View};

#[test]
fn each_envelope_is_verified_once_across_all_receivers() {
    let (n, seed, rounds) = (16usize, 7u64, 3u64);
    let dir = KeyDirectory::derive(n, seed);
    let mut net = Network::new(n);
    let before = verification_count();
    let (mut sent, mut votes, mut proposals) = (0u64, 0u64, 0u64);
    for r in 1..=rounds {
        let round = Round::new(r);
        for p in ProcessId::all(n) {
            let kp = Keypair::derive(p, seed);
            let vote = Payload::Vote(Vote::new(p, round, BlockId::new(r)));
            let view = View::new(r);
            let (value, proof) = kp.vrf_eval(view.as_u64());
            let block = Block::build(BlockId::GENESIS, view, p, Vec::new());
            let propose = Payload::Propose(Propose::new(p, round, view, block, value, proof));
            for payload in [vote, propose] {
                net.send(round, p, Recipients::All, Envelope::sign(&kp, payload));
                sent += 1;
            }
        }
        for p in ProcessId::all(n) {
            net.deliver_sync_with(p, round, |env| match env.verified(&dir) {
                Some(Verified::Vote(..)) => votes += 1,
                Some(Verified::Propose { vrf_valid, .. }) => proposals += u64::from(vrf_valid),
                None => {}
            });
        }
    }
    assert_eq!(
        (votes, proposals),
        (sent / 2 * n as u64, sent / 2 * n as u64),
        "every receiver accepts every vote, and every proposal as a leader candidate"
    );
    assert_eq!(
        verification_count() - before,
        sent,
        "{sent} envelopes to {n} receivers: one verification each, not one per receiver"
    );
}
