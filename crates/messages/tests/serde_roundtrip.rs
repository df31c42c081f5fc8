//! Serde round-trips for every wire type: a deployment shipping these
//! messages over a real transport must get byte-identical semantics back.

use st_blocktree::Block;
use st_crypto::Keypair;
use st_messages::{Envelope, KeyDirectory, Payload, Propose, SharedEnvelope, Vote};
use st_types::{BlockId, ProcessId, Round, TxId, View};

fn keypair() -> Keypair {
    Keypair::derive(ProcessId::new(3), 42)
}

#[test]
fn vote_roundtrip() {
    let vote = Vote::new(ProcessId::new(3), Round::new(9), BlockId::new(0xABCD));
    let json = serde_json::to_string(&vote).unwrap();
    let back: Vote = serde_json::from_str(&json).unwrap();
    assert_eq!(vote, back);
}

#[test]
fn propose_roundtrip_preserves_block_body() {
    let kp = keypair();
    let block = Block::build(
        BlockId::GENESIS,
        View::new(2),
        kp.owner(),
        vec![TxId::new(1), TxId::new(2)],
    );
    let (value, proof) = kp.vrf_eval(2);
    let prop = Propose::new(
        kp.owner(),
        Round::new(2),
        View::new(2),
        block.clone(),
        value,
        proof,
    );
    let json = serde_json::to_string(&prop).unwrap();
    let back: Propose = serde_json::from_str(&json).unwrap();
    assert_eq!(prop, back);
    assert_eq!(back.block().payload(), block.payload());
    assert_eq!(back.tip(), block.id());
}

#[test]
fn envelope_roundtrip_still_verifies() {
    let kp = keypair();
    let directory = st_messages::KeyDirectory::derive(8, 42);
    let vote = Vote::new(kp.owner(), Round::new(5), BlockId::new(7));
    let env = Envelope::sign(&kp, Payload::Vote(vote));
    let json = serde_json::to_string(&env).unwrap();
    let back: Envelope = serde_json::from_str(&json).unwrap();
    assert_eq!(env, back);
    assert!(
        back.verify(&directory),
        "signature must survive serialization"
    );
}

#[test]
fn shared_envelope_roundtrip_reverifies_fresh() {
    let kp = keypair();
    let directory = KeyDirectory::derive(8, 42);
    let vote = Vote::new(kp.owner(), Round::new(5), BlockId::new(7));
    let shared = SharedEnvelope::new(Envelope::sign(&kp, Payload::Vote(vote)));
    assert!(shared.verify_cached(&directory));
    let json = serde_json::to_string(&shared).unwrap();
    // The wire form is exactly the inner envelope: the verdict cache is a
    // local optimization and must never cross a socket.
    assert_eq!(json, serde_json::to_string(shared.envelope()).unwrap());
    let back: SharedEnvelope = serde_json::from_str(&json).unwrap();
    assert_eq!(back, shared);
    assert!(back.verify_cached(&directory));
}

#[test]
fn shared_envelope_roundtrip_does_not_import_remote_verdict() {
    // A forged envelope whose sender's verdict was (maliciously) cached as
    // valid elsewhere must still fail locally after deserialization.
    let forger = Keypair::derive(ProcessId::new(3), 977); // wrong system seed
    let directory = KeyDirectory::derive(8, 42);
    let vote = Vote::new(forger.owner(), Round::new(5), BlockId::new(7));
    let forged = SharedEnvelope::new(Envelope::sign(&forger, Payload::Vote(vote)));
    let json = serde_json::to_string(&forged).unwrap();
    let back: SharedEnvelope = serde_json::from_str(&json).unwrap();
    assert!(!back.verify_cached(&directory));
}

#[test]
fn tampered_envelope_fails_verification_after_roundtrip() {
    let kp = keypair();
    let directory = st_messages::KeyDirectory::derive(8, 42);
    let vote = Vote::new(kp.owner(), Round::new(5), BlockId::new(7));
    let env = Envelope::sign(&kp, Payload::Vote(vote));
    let mut json = serde_json::to_string(&env).unwrap();
    // Flip the voted tip inside the serialized payload.
    json = json.replace("7", "8");
    if let Ok(tampered) = serde_json::from_str::<Envelope>(&json) {
        assert!(
            !tampered.verify(&directory),
            "tampering must break the signature"
        );
    }
}
