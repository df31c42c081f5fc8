//! The two message kinds of Algorithm 1: votes and proposals.

use crate::KeyDirectory;
use st_blocktree::Block;
use st_crypto::{Vrf, VrfOutput, VrfProof};
use st_types::{BlockId, ProcessId, Round, View};
use std::fmt;
use std::sync::Arc;

/// A `[vote, Λ]` message: `sender` votes in round `round` for the log whose
/// tip is `tip`.
///
/// Votes reference logs by tip id only — the blocks themselves travel in
/// [`Propose`] messages. Votes are tagged with their round number
/// (Section 2.1: "each message is tagged with the corresponding round
/// number"), which is what the expiration window and latest-message
/// selection key on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vote {
    sender: ProcessId,
    round: Round,
    tip: BlockId,
}

impl Vote {
    /// Creates a vote.
    pub fn new(sender: ProcessId, round: Round, tip: BlockId) -> Vote {
        Vote { sender, round, tip }
    }

    /// The voting process.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// The round this vote is tagged with.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The tip of the log voted for.
    pub fn tip(&self) -> BlockId {
        self.tip
    }

    /// Canonical byte encoding used for signing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(b"vote");
        out.extend_from_slice(&(self.sender.as_u32()).to_le_bytes());
        out.extend_from_slice(&self.round.as_u64().to_le_bytes());
        out.extend_from_slice(&self.tip.as_u64().to_le_bytes());
        out
    }
}

impl fmt::Debug for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[vote {} {} {}]", self.sender, self.round, self.tip)
    }
}

/// A `[propose, Λ, VRF(v)]` message: `sender` proposes the log whose tip
/// is `block` for view `view`, justified by its VRF evaluation on `view`.
///
/// The proposal carries the full tip [`Block`] (not just its id) because
/// receivers must learn block bodies to extend their trees — the paper's
/// underlying dissemination layer ships block content with proposals.
/// Ancestor blocks were shipped by earlier proposals; receivers buffer
/// orphans until the parent arrives.
///
/// The block body is held behind an [`Arc`] so that the proposer and
/// every receiver's tree can share one allocation — at n=4096 a block
/// body would otherwise be duplicated thousands of times.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Propose {
    sender: ProcessId,
    round: Round,
    view: View,
    block: Arc<Block>,
    vrf_value: VrfOutput,
    vrf_proof: VrfProof,
}

impl Propose {
    /// Creates a proposal for `view`, sent in `round`, carrying the
    /// sender's VRF evaluation on the view number.
    pub fn new(
        sender: ProcessId,
        round: Round,
        view: View,
        block: impl Into<Arc<Block>>,
        vrf_value: VrfOutput,
        vrf_proof: VrfProof,
    ) -> Propose {
        Propose {
            sender,
            round,
            view,
            block: block.into(),
            vrf_value,
            vrf_proof,
        }
    }

    /// The proposed tip block (full body).
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The shared handle to the proposed tip block, for inserting into a
    /// tree without copying the body.
    pub fn block_arc(&self) -> &Arc<Block> {
        &self.block
    }

    /// The proposing process.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// The round the proposal was sent in.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The view this proposal is for.
    pub fn view(&self) -> View {
        self.view
    }

    /// The tip of the proposed log.
    pub fn tip(&self) -> BlockId {
        self.block.id()
    }

    /// The claimed VRF output on the view number.
    pub fn vrf_value(&self) -> VrfOutput {
        self.vrf_value
    }

    /// The VRF proof.
    pub fn vrf_proof(&self) -> &VrfProof {
        &self.vrf_proof
    }

    /// Whether the VRF evaluation verifies against the sender's key in
    /// `directory` ("valid VRF(v)", Algorithm 1). `false` for an unknown
    /// sender.
    pub fn vrf_valid(&self, directory: &KeyDirectory) -> bool {
        directory
            .key_of(self.sender)
            .is_some_and(|pk| Vrf::verify(pk, self.view.as_u64(), self.vrf_value, &self.vrf_proof))
    }

    /// Canonical byte encoding used for signing. The VRF proof is bound by
    /// the value; including the value suffices for integrity.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(44);
        out.extend_from_slice(b"prop");
        out.extend_from_slice(&(self.sender.as_u32()).to_le_bytes());
        out.extend_from_slice(&self.round.as_u64().to_le_bytes());
        out.extend_from_slice(&self.view.as_u64().to_le_bytes());
        // The block is content-addressed, so signing its id covers the
        // whole body.
        out.extend_from_slice(&self.block.id().as_u64().to_le_bytes());
        out.extend_from_slice(&self.vrf_value.to_le_bytes());
        out
    }
}

impl fmt::Debug for Propose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[propose {} {} {} {} vrf={:08x}]",
            self.sender,
            self.round,
            self.view,
            self.block.id(),
            self.vrf_value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_crypto::Keypair;

    #[test]
    fn vote_bytes_are_injective_over_fields() {
        let a = Vote::new(ProcessId::new(1), Round::new(2), BlockId::new(3));
        let b = Vote::new(ProcessId::new(1), Round::new(2), BlockId::new(4));
        let c = Vote::new(ProcessId::new(1), Round::new(3), BlockId::new(3));
        let d = Vote::new(ProcessId::new(2), Round::new(2), BlockId::new(3));
        let all = [a, b, c, d];
        for (i, x) in all.iter().enumerate() {
            for (j, y) in all.iter().enumerate() {
                assert_eq!(x.to_bytes() == y.to_bytes(), i == j);
            }
        }
    }

    #[test]
    fn propose_bytes_bind_vrf_value_and_block() {
        let kp = Keypair::derive(ProcessId::new(0), 1);
        let (v1, p1) = kp.vrf_eval(1);
        let block = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        let other = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(1), vec![]);
        let a = Propose::new(
            ProcessId::new(0),
            Round::ZERO,
            View::new(1),
            block.clone(),
            v1,
            p1,
        );
        let b = Propose::new(
            ProcessId::new(0),
            Round::ZERO,
            View::new(1),
            block.clone(),
            v1 ^ 1,
            p1,
        );
        let c = Propose::new(ProcessId::new(0), Round::ZERO, View::new(1), other, v1, p1);
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.to_bytes(), c.to_bytes());
        assert_eq!(a.tip(), block.id());
    }
}
