//! `ChaosAdversary`: a Byzantine strategy that sends what the paper's
//! model lets a corrupted sender send (anything it can sign, Section 2.1)
//! and no scripted strategy of st-sim does. It has no parameter: every
//! choice is drawn from the run seed, so a run is as deterministic as any
//! other. Test support, included by path next to `replay.rs`, so the
//! literal Algorithm 1 checks `TobProcess` on these inputs too.
//!
//! Each round, for every corrupted process, it draws:
//! * two equivocating votes for known tips, to a random half of the
//!   processes and to the other half, tagged up to two rounds ahead of
//!   the round they are sent in (a known tip may be an honest proposal it
//!   saw pending in an asynchronous round, delivered or not);
//! * now and then a fork proposal on a known tip, which later forks may
//!   extend while nobody votes for it;
//! * now and then a proposal for the next view, on the tallest honest
//!   vote tip, whose VRF proof does not verify but whose value beats
//!   every honest one;
//! * now and then a re-send of one of its own earlier envelopes.
//!
//! In an asynchronous round each receiver gets a seeded, arbitrary subset
//! of what is pending for it.

use proptest::TestRng;
use st_blocktree::Block;
use st_messages::{Envelope, Payload, Propose, Vote};
use st_sim::{Adversary, AdversaryCtx, Recipients, SentMessage, TargetedMessage};
use st_types::{BlockId, ProcessId, Round, TxId, View};

/// See the module doc.
#[derive(Default)]
pub struct ChaosAdversary {
    /// Seeded from the run's seed on first use.
    rng: Option<TestRng>,
    /// The tips of its own fork proposals and of every proposal it saw
    /// pending in an asynchronous round.
    proposed: Vec<BlockId>,
    /// Every envelope it has sent.
    sent: Vec<Envelope>,
}

impl Adversary for ChaosAdversary {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn send(&mut self, ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        if ctx.corrupted.is_empty() {
            return Vec::new();
        }
        let round = ctx.round.as_u64();
        let mut rng = (self.rng.take()).unwrap_or_else(|| TestRng::new(ctx.config.seed()));
        let n = ctx.schedule.n();
        // Full knowledge: every machine's vote and decided tips, the
        // proposals it knows of, and a tip no body will ever carry.
        let mut known = vec![BlockId::GENESIS, BlockId::new(0xDEAD)];
        known.extend(ctx.processes.iter().map(|p| p.last_vote_tip()));
        known.extend(ctx.processes.iter().map(|p| p.decided_tip()));
        known.extend(&self.proposed);
        let tallest = (ctx.processes.iter())
            .max_by_key(|p| p.tree().height(p.last_vote_tip()).unwrap_or(0))
            .map_or(BlockId::GENESIS, |p| p.last_vote_tip());
        let (half, other): (Vec<ProcessId>, Vec<ProcessId>) =
            ProcessId::all(n).partition(|_| rng.below(2) == 0);
        let mut out = Vec::new();
        for (key, &byz) in ctx.keypairs.iter().zip(ctx.corrupted) {
            let pick = |rng: &mut TestRng| known[rng.below(known.len() as u64) as usize];
            let ahead = Round::new(round + rng.below(3));
            for to in [&half, &other] {
                let vote = Vote::new(byz, ahead, pick(&mut rng));
                let env = Envelope::sign(key, Payload::Vote(vote));
                out.push((env, Recipients::Only(to.clone())));
            }
            if rng.below(4) == 0 {
                let view = View::new(round / 2 + 1);
                let tx = TxId::new(rng.below(16));
                let fork = Block::build(pick(&mut rng), view, byz, vec![tx]);
                self.proposed.push(fork.id());
                let (value, proof) = key.vrf_eval(view.as_u64());
                let prop = Propose::new(byz, ctx.round, view, fork, value, proof);
                let env = Envelope::sign(key, Payload::Propose(prop));
                out.push((env, Recipients::Only(half.clone())));
            }
            if rng.below(4) == 0 {
                // The proof is for another input, so it does not verify.
                let view = View::from_round(ctx.round).next();
                let block = Block::build(tallest, view, byz, vec![TxId::new(0xC4A05)]);
                let (_, proof) = key.vrf_eval(view.as_u64() + 1);
                let prop = Propose::new(byz, ctx.round, view, block, u64::MAX, proof);
                out.push((Envelope::sign(key, Payload::Propose(prop)), Recipients::All));
            }
            let own: Vec<&Envelope> = (self.sent.iter())
                .filter(|env| env.payload().sender() == byz)
                .collect();
            if !own.is_empty() && rng.below(4) == 0 {
                let env = own[rng.below(own.len() as u64) as usize].clone();
                out.push((env, Recipients::Only(half.clone())));
            }
        }
        self.sent.extend(out.iter().map(|(env, _)| env.clone()));
        self.rng = Some(rng);
        let message = |(envelope, recipients)| TargetedMessage {
            envelope,
            recipients,
        };
        out.into_iter().map(message).collect()
    }

    fn deliver(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        _receiver: ProcessId,
        available: &[&SentMessage],
    ) -> Vec<usize> {
        for m in available {
            if let Payload::Propose(p) = m.envelope.payload() {
                if !self.proposed.contains(&p.tip()) {
                    self.proposed.push(p.tip());
                }
            }
        }
        let rng = (self.rng).get_or_insert_with(|| TestRng::new(ctx.config.seed()));
        (available.iter())
            .filter(|_| rng.below(3) == 0)
            .map(|m| m.index)
            .collect()
    }
}
