//! Property suite for the compact binary wire codec (ISSUE 9 acceptance):
//! encode→decode→encode is byte-identical for every wire message type, and
//! the binary codec agrees with the serde JSON debug codec on a generated
//! corpus — two independent codecs, one message, same value back.

use proptest::prelude::*;
use st_blocktree::Block;
use st_crypto::Keypair;
use st_messages::{wire, Envelope, KeyDirectory, Payload, Propose, Vote};
use st_types::{BlockId, ProcessId, Round, TxId, View};

const SEED: u64 = 7;

fn vote_from(sender: u32, round: u64, tip: u64) -> Vote {
    Vote::new(
        ProcessId::new(sender % 64),
        Round::new(round),
        BlockId::new(tip),
    )
}

fn block_from(genesis: bool, parent: u64, view: u64, producer: u32, txs: &[u64]) -> Block {
    if genesis {
        Block::genesis()
    } else {
        Block::build(
            BlockId::new(parent),
            View::new(view),
            ProcessId::new(producer % 64),
            txs.iter().map(|&t| TxId::new(t)).collect(),
        )
    }
}

fn propose_from(sender: u32, round: u64, block: Block) -> Propose {
    let owner = ProcessId::new(sender % 64);
    let kp = Keypair::derive(owner, SEED);
    let view = View::from_round(Round::new(round.max(1)));
    let (rho, proof) = kp.vrf_eval(view.as_u64());
    Propose::new(owner, Round::new(round), view, block, rho, proof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vote_binary_identity_and_json_agreement(
        sender in any::<u32>(),
        round in any::<u64>(),
        tip in any::<u64>(),
    ) {
        let vote = vote_from(sender, round, tip);
        let bytes = wire::encode_vote(&vote);
        let back = wire::decode_vote(&bytes);
        prop_assert_eq!(back, Ok(vote));
        prop_assert_eq!(wire::encode_vote(&vote), bytes);
        let json: Vote = serde_json::from_str(&serde_json::to_string(&vote).unwrap()).unwrap();
        prop_assert_eq!(json, vote);
    }

    #[test]
    fn block_binary_identity_and_json_agreement(
        genesis in any::<bool>(),
        parent in any::<u64>(),
        view in 0u64..1_000_000,
        producer in any::<u32>(),
        txs in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let block = block_from(genesis, parent, view, producer, &txs);
        let bytes = wire::encode_block(&block);
        let back = wire::decode_block(&bytes).unwrap();
        prop_assert_eq!(&back, &block);
        prop_assert_eq!(wire::encode_block(&back), bytes);
        let json: Block = serde_json::from_str(&serde_json::to_string(&block).unwrap()).unwrap();
        prop_assert_eq!(json, block);
    }

    #[test]
    fn propose_binary_identity_and_json_agreement(
        sender in any::<u32>(),
        round in 1u64..1_000_000,
        genesis in any::<bool>(),
        parent in any::<u64>(),
        txs in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let block = block_from(genesis, parent, round / 2, sender, &txs);
        let p = propose_from(sender, round, block);
        let bytes = wire::encode_propose(&p);
        let back = wire::decode_propose(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), p.to_bytes());
        prop_assert_eq!(back.block().id(), p.block().id());
        prop_assert_eq!(wire::encode_propose(&back), bytes);
        let json: Propose = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        prop_assert_eq!(json.to_bytes(), p.to_bytes());
        prop_assert_eq!(wire::encode_propose(&json), wire::encode_propose(&p));
    }

    #[test]
    fn envelope_binary_identity_json_agreement_and_verification(
        sender in 0u32..8,
        round in 1u64..1_000_000,
        tip in any::<u64>(),
        is_propose in any::<bool>(),
        txs in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let owner = ProcessId::new(sender);
        let kp = Keypair::derive(owner, SEED);
        let dir = KeyDirectory::derive(8, SEED);
        let payload = if is_propose {
            let block = block_from(false, tip, round / 2, sender, &txs);
            Payload::Propose(propose_from(sender, round, block))
        } else {
            Payload::Vote(Vote::new(owner, Round::new(round), BlockId::new(tip)))
        };
        let env = Envelope::sign(&kp, payload);
        let bytes = wire::encode_envelope(&env);
        let back = wire::decode_envelope(&bytes).unwrap();
        prop_assert!(back.verify(&dir), "decoded envelope must still verify");
        prop_assert_eq!(wire::encode_envelope(&back), bytes.clone());
        let json: Envelope = serde_json::from_str(&serde_json::to_string(&env).unwrap()).unwrap();
        prop_assert!(json.verify(&dir));
        prop_assert_eq!(wire::encode_envelope(&json), bytes);
    }

    #[test]
    fn random_garbage_never_panics_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Totality: arbitrary input produces a value or a WireError, never
        // a panic (st-messages is a P1 panic-free protocol crate).
        let _ = wire::decode_vote(&bytes);
        let _ = wire::decode_propose(&bytes);
        let _ = wire::decode_block(&bytes);
        let _ = wire::decode_envelope(&bytes);
        let _ = wire::split_frame(&bytes);
    }
}
