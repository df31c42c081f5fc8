//! Checkpointing: bootstrapping a process from a compact snapshot.
//!
//! The model says a waking process receives *every* message it missed —
//! fine for the lock-step simulator, unbounded in a real deployment. A
//! process that slept for longer than the expiration period `η` does not
//! actually need the missed messages: everything older than the window
//! can never influence a tally again. What it needs is (i) the decided
//! chain (block bodies), and (ii) the *unexpired* recent traffic. A
//! [`Checkpoint`] packages (i) plus the sender's latest-vote window so a
//! joiner can participate after replaying only `O(n·η)` messages instead
//! of the whole history.
//!
//! Checkpoints are **advisory** in the Byzantine setting: a joiner must
//! obtain one from a trusted source or cross-validate several (the
//! classic weak-subjectivity caveat; see
//! [`Checkpoint::merge_validated`]). The simulation uses them to test
//! that windowed state is *sufficient* — a checkpoint-bootstrapped
//! process behaves identically to a full-replay one.

use crate::{TobConfig, TobProcess};
use serde::{Deserialize, Serialize};
use st_blocktree::{Block, BlockTree};
use st_messages::{Envelope, Payload};
use st_types::{BlockId, Round};

/// A compact protocol snapshot: the decided chain's blocks plus the
/// recent signed traffic (votes and proposals still inside the
/// expiration window).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The round the checkpoint was taken at.
    taken_at: Round,
    /// Tip of the decided log at snapshot time.
    decided_tip: BlockId,
    /// Every block on the decided chain plus recently proposed side
    /// blocks (parents precede children).
    blocks: Vec<Block>,
    /// Signed messages from the unexpired window `[taken_at − η, taken_at]`.
    recent: Vec<Envelope>,
}

impl Checkpoint {
    /// Captures a checkpoint from a process plus the recent signed
    /// traffic the caller retained (a deployment keeps the last `η + 1`
    /// rounds of gossip; the simulator's network pool provides it).
    ///
    /// Only messages from the unexpired window survive into the
    /// checkpoint; older traffic is dropped — that is the point.
    pub fn capture(process: &TobProcess, taken_at: Round, retained: &[Envelope]) -> Checkpoint {
        let eta = process.config().params().expiration();
        let lo = taken_at.saturating_sub(eta + 1);
        let tree = process.tree();
        // Ship every block the process knows (side branches may still be
        // voted on within the window). Height order ⇒ parents first. The
        // id tie-break matters: `block_ids()` walks a FastMap index in
        // hasher-bucket order, and a stable sort by height alone would
        // let that order leak into the shipped block sequence.
        let mut ids: Vec<BlockId> = tree.block_ids().filter(|b| !b.is_genesis()).collect();
        ids.sort_by_key(|&b| (tree.height(b).unwrap_or(0), b));
        let blocks = ids
            .into_iter()
            .filter_map(|id| tree.block(id).cloned())
            .collect();
        let recent = retained
            .iter()
            .filter(|env| env.payload().round() >= lo)
            .cloned()
            .collect();
        Checkpoint {
            taken_at,
            decided_tip: process.decided_tip(),
            blocks,
            recent,
        }
    }

    /// The round the checkpoint was taken at.
    pub fn taken_at(&self) -> Round {
        self.taken_at
    }

    /// The decided tip at capture time.
    pub fn decided_tip(&self) -> BlockId {
        self.decided_tip
    }

    /// Number of blocks shipped.
    pub fn block_count(&self) -> usize {
        // stlint::allow(deadpub, reason = "checkpoint size accessor paired with message_count; kept until a restarted node fetches checkpoints, whose transfer accounting would weigh blocks")
        self.blocks.len()
    }

    /// Number of recent signed messages shipped.
    pub fn message_count(&self) -> usize {
        self.recent.len()
    }

    /// Validates the checkpoint's internal consistency: blocks connect to
    /// genesis and the decided tip is among them. Signature validity of
    /// `recent` is checked by the bootstrapping process itself (it runs
    /// every envelope through `on_receive`).
    pub fn validate(&self) -> bool {
        let mut tree = BlockTree::new();
        for block in &self.blocks {
            if tree.insert_or_get(block.clone()).is_err() {
                return false;
            }
        }
        self.decided_tip.is_genesis() || tree.contains(self.decided_tip)
    }

    /// Cross-validates several checkpoints (e.g. fetched from different
    /// peers) and returns the best mutually consistent one: the highest
    /// `taken_at` among those whose decided tips are pairwise compatible
    /// within the union of their blocks. Returns `None` if the sources
    /// conflict — the weak-subjectivity failure mode a joiner must
    /// escalate to its operator.
    pub fn merge_validated(sources: &[Checkpoint]) -> Option<&Checkpoint> {
        let valid: Vec<&Checkpoint> = sources.iter().filter(|c| c.validate()).collect();
        if valid.is_empty() {
            return None;
        }
        let mut tree = BlockTree::new();
        for c in &valid {
            for block in &c.blocks {
                let _ = tree.insert_or_get(block.clone());
            }
        }
        for a in &valid {
            for b in &valid {
                if !tree.compatible(a.decided_tip, b.decided_tip) {
                    return None;
                }
            }
        }
        valid.into_iter().max_by_key(|c| c.taken_at)
    }

    /// Bootstraps a fresh process from this checkpoint: blocks are
    /// installed, recent traffic is replayed through the normal receive
    /// path (signature checks included), and the process is ready to be
    /// stepped from round `taken_at + 1`.
    pub fn bootstrap(&self, id: st_types::ProcessId, config: TobConfig) -> TobProcess {
        let mut process = TobProcess::new(id, config);
        process.install_blocks(&self.blocks);
        for env in &self.recent {
            process.on_receive(env.clone());
        }
        process
    }
}

impl TobProcess {
    /// Installs externally obtained blocks (checkpoint sync). Orphans are
    /// buffered exactly like blocks arriving in proposals.
    pub fn install_blocks(&mut self, blocks: &[Block]) {
        for block in blocks {
            self.receive_block(block.clone());
        }
    }

    /// Retains only envelopes that could still influence a tally — the
    /// helper deployments use to build their checkpoint `retained` set.
    pub fn unexpired_filter(round: Round, eta: u64) -> impl Fn(&Envelope) -> bool {
        let lo = round.saturating_sub(eta + 1);
        move |env: &Envelope| match env.payload() {
            Payload::Vote(v) => v.round() >= lo,
            Payload::Propose(p) => p.round() >= lo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::{Params, ProcessId, TxId};

    fn config(n: usize, eta: u64) -> TobConfig {
        TobConfig::new(Params::builder(n).expiration(eta).build().unwrap(), 7)
    }

    /// Runs n processes lock-step, recording all traffic; returns procs +
    /// history.
    fn run(n: usize, eta: u64, rounds: u64) -> (Vec<TobProcess>, Vec<Envelope>) {
        let cfg = config(n, eta);
        let mut procs: Vec<TobProcess> = (0..n as u32)
            .map(|i| TobProcess::new(ProcessId::new(i), cfg.clone()))
            .collect();
        let mut history = Vec::new();
        for r in 0..=rounds {
            let round = Round::new(r);
            if r % 3 == 0 {
                procs[0].submit_tx(TxId::new(r));
            }
            let batches: Vec<Vec<Envelope>> =
                procs.iter_mut().map(|p| p.step_send(round)).collect();
            for batch in &batches {
                history.extend(batch.iter().cloned());
                for env in batch {
                    for p in procs.iter_mut() {
                        p.on_receive(env.clone());
                    }
                }
            }
        }
        (procs, history)
    }

    #[test]
    fn checkpoint_is_much_smaller_than_history() {
        let (procs, history) = run(4, 3, 60);
        let cp = Checkpoint::capture(&procs[0], Round::new(60), &history);
        assert!(cp.validate());
        assert!(
            cp.message_count() * 3 < history.len(),
            "checkpoint {} msgs vs history {}",
            cp.message_count(),
            history.len()
        );
    }

    #[test]
    fn bootstrap_matches_full_replay() {
        let (procs, history) = run(4, 3, 40);
        let cp = Checkpoint::capture(&procs[0], Round::new(40), &history);

        // Full replay joiner.
        let mut full = TobProcess::new(ProcessId::new(0), config(4, 3));
        for env in &history {
            full.on_receive(env.clone());
        }
        // Checkpoint joiner.
        let mut fast = cp.bootstrap(ProcessId::new(0), config(4, 3));

        // Step both one round: identical outputs (votes for the same tip).
        let full_out = full.step_send(Round::new(41));
        let fast_out = fast.step_send(Round::new(41));
        assert_eq!(full.last_vote_tip(), fast.last_vote_tip());
        assert_eq!(full_out.len(), fast_out.len());
        assert!(fast
            .tree()
            .compatible(fast.decided_tip(), procs[1].decided_tip()));
    }

    #[test]
    fn tampered_checkpoint_fails_validation() {
        let (procs, history) = run(3, 2, 20);
        let mut cp = Checkpoint::capture(&procs[0], Round::new(20), &history);
        // Claim a decided tip that is not in the shipped blocks.
        cp.decided_tip = BlockId::new(0xBAD);
        assert!(!cp.validate());
    }

    #[test]
    fn merge_validated_picks_newest_consistent() {
        let (procs, history) = run(4, 2, 30);
        let old = Checkpoint::capture(&procs[0], Round::new(20), &history);
        let new = Checkpoint::capture(&procs[1], Round::new(30), &history);
        let sources = [old.clone(), new.clone()];
        let best = Checkpoint::merge_validated(&sources).unwrap();
        assert_eq!(best.taken_at(), Round::new(30));
        // A conflicting source poisons the merge.
        let mut evil = old.clone();
        evil.decided_tip = BlockId::new(0xE71);
        evil.blocks.push(Block::build(
            BlockId::GENESIS,
            st_types::View::new(1),
            ProcessId::new(3),
            vec![TxId::new(0xE71)],
        ));
        evil.decided_tip = evil.blocks.last().unwrap().id();
        assert!(Checkpoint::merge_validated(&[new, evil]).is_none());
    }

    #[test]
    fn unexpired_filter_bounds_retention() {
        let filter = TobProcess::unexpired_filter(Round::new(50), 4);
        let kp = st_crypto::Keypair::derive(ProcessId::new(0), 7);
        let old = Envelope::sign(
            &kp,
            Payload::Vote(st_messages::Vote::new(
                ProcessId::new(0),
                Round::new(40),
                BlockId::GENESIS,
            )),
        );
        let fresh = Envelope::sign(
            &kp,
            Payload::Vote(st_messages::Vote::new(
                ProcessId::new(0),
                Round::new(48),
                BlockId::GENESIS,
            )),
        );
        assert!(!filter(&old));
        assert!(filter(&fresh));
    }
}
