//! An eager shadow of one `TobProcess`'s blocks: a plain `BlockTree` fed
//! through a `BlockBuffer`, so every connected proposal body is in it
//! whether or not anything references it. The process admits a body to
//! its own tree only once a vote names it; the shadow is what its tree
//! would be without that rule, and the stateless tally over the shadow is
//! what every tally of the process must equal.
//!
//! Shared by `delivery_tolerance.rs` and `proptest_lazy_tree.rs`
//! (included by path).

use st_blocktree::BlockTree;
use st_core::{BlockBuffer, TobProcess};
use st_ga::{tally, GaOutput};
use st_messages::{Envelope, Payload};
use st_types::fasthash::mix64_pair;
use st_types::Round;

/// A process under test plus its eager shadow, fed the same proposals.
pub struct Shadowed {
    pub p: TobProcess,
    pub shadow: BlockTree,
    orphans: BlockBuffer,
    /// Rounds whose consumed tally was compared with both references.
    pub checked: usize,
}

impl Shadowed {
    pub fn new(p: TobProcess) -> Shadowed {
        Shadowed {
            p,
            shadow: BlockTree::new(),
            orphans: BlockBuffer::new(),
            checked: 0,
        }
    }

    /// Delivers `env` to the process and its proposal body (if any) to the
    /// shadow.
    pub fn deliver(&mut self, env: &Envelope) {
        self.absorb(env);
        self.p.on_receive(env.clone());
    }

    fn absorb(&mut self, env: &Envelope) {
        if let Payload::Propose(prop) = env.payload() {
            self.orphans
                .insert(&mut self.shadow, prop.block_arc().clone());
        }
    }

    /// The stateless tally of round `round` over the process's vote
    /// window and the shadow tree.
    pub fn eager_tally(&self, round: Round) -> GaOutput {
        let Some(prev) = round.prev() else {
            return GaOutput::empty();
        };
        let lo = prev.saturating_sub(self.p.config().params().expiration());
        tally(
            &self.shadow,
            &self.p.votes().latest_in_window(lo, prev),
            self.p.config().thresholds(),
        )
    }

    /// Runs `step_send(round)` and checks the lattice edge around it: the
    /// tally key digests the shadow tree, and the tally the step consumes
    /// equals both `reference_tally(round)` and the eager tally. The
    /// process's own proposal reaches the shadow, as it reaches the
    /// process's store.
    pub fn step(&mut self, round: Round) -> Vec<Envelope> {
        assert_eq!(
            self.p.tally_fingerprint(),
            mix64_pair(self.p.votes().fingerprint(), self.shadow.fingerprint()),
            "round {round:?}: the tally key does not digest every connected body"
        );
        let reference = self.p.reference_tally(round);
        let eager = self.eager_tally(round);
        let out = self.p.step_send(round);
        if round > Round::ZERO {
            assert_eq!(
                self.p.last_ga_output(),
                Some(&reference),
                "round {round:?}: consumed tally differs from reference_tally"
            );
            assert_eq!(
                reference, eager,
                "round {round:?}: tally over the lazy tree differs from the eager shadow"
            );
            self.checked += 1;
        }
        for env in &out {
            self.absorb(env);
        }
        out
    }
}
