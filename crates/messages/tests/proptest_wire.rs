//! Property suite for the compact binary wire codec: encode→decode→encode
//! is byte-identical for the one protocol frame, the signed envelope, over
//! every payload shape it nests (votes; proposals of genesis-flag and
//! ordinary blocks with full-range parent and view and up to 12 txs), and
//! the decoded envelope still verifies. The garbage-bytes totality check
//! lives with the node's control frames (`st_node::frame`), which nest
//! this codec.

use proptest::prelude::*;
use st_blocktree::Block;
use st_crypto::Keypair;
use st_messages::{wire, Envelope, KeyDirectory, Payload, Propose, Vote};
use st_types::{BlockId, ProcessId, Round, TxId, View};

const SEED: u64 = 7;

fn block_from(genesis: bool, parent: u64, view: u64, producer: u32, txs: &[u64]) -> Block {
    if genesis {
        Block::genesis()
    } else {
        Block::build(
            BlockId::new(parent),
            View::new(view),
            ProcessId::new(producer),
            txs.iter().map(|&t| TxId::new(t)).collect(),
        )
    }
}

fn propose_from(kp: &Keypair, owner: ProcessId, round: u64, block: Block) -> Propose {
    let view = View::from_round(Round::new(round.max(1)));
    let (rho, proof) = kp.vrf_eval(view.as_u64());
    Propose::new(owner, Round::new(round), view, block, rho, proof)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_binary_identity_and_verification(
        sender in 0u32..8,
        round in any::<u64>(),
        tip in any::<u64>(),
        is_propose in any::<bool>(),
        genesis in any::<bool>(),
        view in any::<u64>(),
        txs in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let owner = ProcessId::new(sender);
        let kp = Keypair::derive(owner, SEED);
        let dir = KeyDirectory::derive(8, SEED);
        let payload = if is_propose {
            let block = block_from(genesis, tip, view, sender, &txs);
            Payload::Propose(propose_from(&kp, owner, round, block))
        } else {
            Payload::Vote(Vote::new(owner, Round::new(round), BlockId::new(tip)))
        };
        let env = Envelope::sign(&kp, payload);
        let bytes = wire::encode_envelope(&env);
        let back = wire::decode_envelope(&bytes).unwrap();
        prop_assert!(back.verify(&dir), "decoded envelope must still verify");
        prop_assert_eq!(back.payload(), env.payload());
        if let Payload::Propose(p) = back.payload() {
            // The decoder recomputes the content-address.
            prop_assert_eq!(p.block().id(), block_from(genesis, tip, view, sender, &txs).id());
        }
        prop_assert_eq!(wire::encode_envelope(&back), bytes);
    }
}
