//! Byzantine adversary strategies.
//!
//! The adversary of Section 2 is *full-knowledge*: it sees every process's
//! state and the whole message pool, controls what corrupted processes
//! send (including per-recipient equivocation), and during asynchronous
//! rounds chooses exactly which available messages each process receives.
//! It cannot forge signatures, so it can only author messages under the
//! keypairs of corrupted processes.
//!
//! Strategies provided:
//!
//! * [`SilentAdversary`] — corrupted processes send nothing; asynchronous
//!   rounds deliver everything (pure crash-style worst case for progress).
//! * [`BlackoutAdversary`] — delivers *nothing* during asynchronous rounds
//!   (maximal message delay).
//! * [`EquivocatingVoter`] — corrupted processes vote for two conflicting
//!   fabricated logs, split across the honest processes, every round.
//! * [`PartitionAttacker`] — the Section-1 safety attack realised as a
//!   network partition during the asynchronous window: each half of the
//!   processes sees only its own half's messages, diverges onto a
//!   conflicting chain and decides it. Breaks vanilla MMR (`η = 0`) with
//!   a 3–4 round window; Theorem 2 says it must fail against `η > π`. Its
//!   blackout variant first waits out the expiration period, defeating
//!   `η ≤ π` configurations and showing the bound is meaningful.
//! * [`ReorgAttacker`] — the strict Definition-5 attack: Byzantine votes
//!   for a chain forking below `D_ra` while honest traffic is suppressed,
//!   making honest processes decide a log conflicting with their own past
//!   decisions. One asynchronous round beats vanilla MMR.

use crate::env::EnvView;
use crate::network::{Recipients, SentMessage};
use crate::schedule::Schedule;
use st_blocktree::Block;
use st_core::{TobConfig, TobProcess};
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Propose, Vote};
use st_types::{BlockId, ProcessId, Round, TxId, View};

/// A message authored by the adversary, with explicit addressing.
#[derive(Clone, Debug)]
pub struct TargetedMessage {
    /// The signed message (must be signed by a corrupted process's key).
    pub envelope: Envelope,
    /// Who receives it.
    pub recipients: Recipients,
}

/// Everything the adversary can see when acting: full knowledge of the
/// execution (Section 2.3's adversary controls corrupted processes and,
/// during asynchrony, message delivery).
pub struct AdversaryCtx<'a> {
    /// The current round.
    pub round: Round,
    /// The environment at this round: current segment kind, offsets
    /// within the current window, remaining window budget and partition
    /// overlay. Replaces the bare `is_async` flag — window-relative
    /// strategies (blackout prefixes, scripted plays) read the offsets
    /// here and automatically re-arm on every new window.
    pub env: EnvView,
    /// The processes corrupted at this round (`B_r`).
    pub corrupted: &'a [ProcessId],
    /// Keypairs of **corrupted** processes (index-aligned with
    /// `corrupted`): the only keys the adversary may sign with.
    pub keypairs: &'a [Keypair],
    /// Read-only view of every process's state (full knowledge).
    pub processes: &'a [TobProcess],
    /// The participation schedule.
    pub schedule: &'a Schedule,
    /// The shared protocol configuration.
    pub config: &'a TobConfig,
}

impl AdversaryCtx<'_> {
    /// Whether the current round is adversary-scheduled asynchrony.
    pub fn is_async(&self) -> bool {
        self.env.is_async()
    }

    /// The keypair of corrupted process `p`, if it is corrupted.
    pub fn keypair_of(&self, p: ProcessId) -> Option<&Keypair> {
        self.corrupted
            .iter()
            .position(|&c| c == p)
            .map(|i| &self.keypairs[i])
    }
}

/// A Byzantine strategy. Both hooks are optional: the default sends
/// nothing and (during asynchrony) delivers everything — i.e. a purely
/// passive adversary.
pub trait Adversary {
    /// Human-readable strategy name (reports and logs).
    fn name(&self) -> &'static str;

    /// Send phase of round `ctx.round`: messages the corrupted processes
    /// multicast or target.
    fn send(&mut self, ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        let _ = ctx;
        Vec::new()
    }

    /// Receive phase of an **asynchronous** round: choose which of the
    /// `available` messages `receiver` gets (return pool indices; bogus
    /// indices are ignored by the network). The default delivers
    /// everything, i.e. the asynchronous round behaves synchronously.
    fn deliver(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        receiver: ProcessId,
        available: &[&SentMessage],
    ) -> Vec<usize> {
        let _ = (ctx, receiver);
        available.iter().map(|m| m.index).collect()
    }

    /// Receive phase of a **bounded-delay** round: the delay, in rounds
    /// from the send round, that `receiver` experiences for `msg`.
    /// Return `None` (the default) to use the environment's
    /// deterministic per-(message, receiver) delay
    /// ([`crate::env::bounded_delay_of`]); `Some(d)` is clamped to the
    /// segment's `delta` — the network enforces the deadline regardless,
    /// so no strategy can stretch a bounded-delay segment into
    /// unbounded asynchrony.
    fn delay(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        receiver: ProcessId,
        msg: &SentMessage,
        delta: u64,
    ) -> Option<u64> {
        let _ = (ctx, receiver, msg, delta);
        None
    }
}

/// Corrupted processes stay silent; asynchrony delivers everything.
/// Equivalent to crash faults — the worst case for *progress* thresholds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentAdversary;

impl Adversary for SilentAdversary {
    fn name(&self) -> &'static str {
        "silent"
    }
}

/// Delivers nothing at all during asynchronous rounds (and sends nothing).
/// The maximal-delay adversary: every message sent in the window arrives
/// only after synchrony resumes.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlackoutAdversary;

impl Adversary for BlackoutAdversary {
    fn name(&self) -> &'static str {
        "blackout"
    }

    fn deliver(
        &mut self,
        _ctx: &AdversaryCtx<'_>,
        _receiver: ProcessId,
        _available: &[&SentMessage],
    ) -> Vec<usize> {
        Vec::new()
    }
}

/// Every round, each corrupted process votes for two conflicting
/// fabricated blocks, sending one vote to the lower half of the processes
/// and the other to the upper half; it also disseminates the fabricated
/// blocks so the votes are interpretable. Stresses equivocation discard
/// and the grading thresholds.
#[derive(Clone, Debug, Default)]
pub struct EquivocatingVoter {
    planted: bool,
    fork_a: Option<Block>,
    fork_b: Option<Block>,
}

impl EquivocatingVoter {
    /// Creates the strategy.
    pub fn new() -> EquivocatingVoter {
        EquivocatingVoter::default()
    }
}

impl Adversary for EquivocatingVoter {
    fn name(&self) -> &'static str {
        "equivocating-voter"
    }

    fn send(&mut self, ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        let Some(&leader) = ctx.corrupted.first() else {
            return Vec::new();
        };
        #[expect(
            clippy::expect_used,
            reason = "leader came out of ctx.corrupted, and keypair_of covers exactly the corrupted set"
        )]
        let kp_leader = ctx.keypair_of(leader).expect("leader is corrupted");
        let mut out = Vec::new();

        if !self.planted {
            // Plant two conflicting blocks off genesis, shipped to all so
            // every tree can interpret the equivocating votes.
            let a = Block::build(
                BlockId::GENESIS,
                View::new(1),
                leader,
                vec![TxId::new(u64::MAX)],
            );
            let b = Block::build(
                BlockId::GENESIS,
                View::new(1),
                leader,
                vec![TxId::new(u64::MAX - 1)],
            );
            let (vrf_value, vrf_proof) = kp_leader.vrf_eval(1);
            for block in [&a, &b] {
                let prop = Propose::new(
                    leader,
                    ctx.round,
                    View::new(1),
                    block.clone(),
                    vrf_value,
                    vrf_proof,
                );
                out.push(TargetedMessage {
                    envelope: Envelope::sign(kp_leader, Payload::Propose(prop)),
                    recipients: Recipients::All,
                });
            }
            self.fork_a = Some(a);
            self.fork_b = Some(b);
            self.planted = true;
        }

        let (Some(a), Some(b)) = (&self.fork_a, &self.fork_b) else {
            return out;
        };
        let n = ctx.schedule.n();
        let lower: Vec<ProcessId> = ProcessId::all(n).filter(|p| p.index() < n / 2).collect();
        let upper: Vec<ProcessId> = ProcessId::all(n).filter(|p| p.index() >= n / 2).collect();
        for (i, &byz) in ctx.corrupted.iter().enumerate() {
            let kp = &ctx.keypairs[i];
            let va = Vote::new(byz, ctx.round, a.id());
            let vb = Vote::new(byz, ctx.round, b.id());
            out.push(TargetedMessage {
                envelope: Envelope::sign(kp, Payload::Vote(va)),
                recipients: Recipients::Only(lower.clone()),
            });
            out.push(TargetedMessage {
                envelope: Envelope::sign(kp, Payload::Vote(vb)),
                recipients: Recipients::Only(upper.clone()),
            });
        }
        out
    }
}

/// The Section-1 split-vote safety attack, realised as a **network
/// partition**: during asynchrony, message delivery is under full
/// adversarial control, so the adversary simply splits the processes into
/// two halves (even and odd ids) and delivers each half only its own
/// half's messages. No Byzantine processes are needed.
///
/// Within two views of partitioned delivery the halves diverge: each half
/// sees only its own proposals, elects a different leader, votes
/// unanimously *within the half* for the resulting conflicting chains, and
/// — since vanilla MMR (`η = 0`) tallies only current-round votes — each
/// half perceives unanimity (`m` = half size) and reaches grade 1 on its
/// own chain: conflicting decisions, agreement broken.
///
/// Against the extended protocol with `η > π`, the *other* half's latest
/// pre-partition votes are still unexpired, so every tally perceives
/// `m = n` with only `n/2` support for either chain — below every
/// threshold, and safety holds (Theorem 2; the mechanism is exactly
/// Lemma 2's).
///
/// The optional **blackout prefix** (see [`PartitionAttacker::with_blackout`])
/// delivers *nothing* for the first `b` asynchronous rounds, aging the
/// pre-asynchrony votes past expiry before the partition play begins. With
/// `b ≥ η` and a window long enough for the play (`π ≥ b + 4`), this
/// defeats the extended protocol too — the `π < η` bound of Theorem 2 is
/// not an artifact.
#[derive(Clone, Debug, Default)]
pub struct PartitionAttacker {
    blackout: u64,
}

impl PartitionAttacker {
    /// The pure partition attack (no blackout prefix): breaks `η = 0`
    /// within an asynchronous window of 3–4 rounds.
    pub fn new() -> PartitionAttacker {
        PartitionAttacker::default()
    }

    /// Partition attack preceded by `blackout` rounds of total silence
    /// (to expire pre-asynchrony votes; use `blackout ≥ η`). The prefix
    /// is window-relative: it re-arms at the start of **every**
    /// asynchronous window, so a multi-window timeline is attacked in
    /// full each time (the offset comes from [`EnvView`], replacing a
    /// start-round latch that only ever fired once).
    pub fn with_blackout(blackout: u64) -> PartitionAttacker {
        // stlint::allow(deadpub, reason = "the π ≥ η variant of the Section-1 attack that tests/theorems.rs and adversary_behaviors.rs drive")
        PartitionAttacker { blackout }
    }

    fn same_half(a: ProcessId, b: ProcessId) -> bool {
        a.index() % 2 == b.index() % 2
    }
}

/// Corrupted processes vote, every round, for a junk fork off genesis
/// (planted once via a proposal so receivers can interpret the votes).
///
/// This is the worst case for **progress**: junk votes inflate every
/// honest receiver's perceived participation `m` without supporting the
/// canonical chain, raising the absolute support needed for `> 2m/3` —
/// exactly the pressure the adjusted failure ratio `β̃` of Section 2.3
/// accounts for. Used by the Figure-1 boundary experiment.
#[derive(Clone, Debug, Default)]
pub struct JunkVoter {
    junk: Option<Block>,
}

impl JunkVoter {
    /// Creates the strategy.
    pub fn new() -> JunkVoter {
        JunkVoter::default()
    }
}

impl Adversary for JunkVoter {
    fn name(&self) -> &'static str {
        "junk-voter"
    }

    fn send(&mut self, ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        let Some(&leader) = ctx.corrupted.first() else {
            return Vec::new();
        };
        #[expect(
            clippy::expect_used,
            reason = "leader came out of ctx.corrupted, and keypair_of covers exactly the corrupted set"
        )]
        let kp_leader = ctx.keypair_of(leader).expect("leader is corrupted");
        let mut out = Vec::new();
        if self.junk.is_none() {
            let view = View::from_round(ctx.round).next();
            let junk = Block::build(BlockId::GENESIS, view, leader, vec![TxId::new(0x7A6B)]);
            let (vrf_value, vrf_proof) = kp_leader.vrf_eval(view.as_u64());
            let prop = Propose::new(leader, ctx.round, view, junk.clone(), vrf_value, vrf_proof);
            out.push(TargetedMessage {
                envelope: Envelope::sign(kp_leader, Payload::Propose(prop)),
                recipients: Recipients::All,
            });
            self.junk = Some(junk);
        }
        #[expect(
            clippy::expect_used,
            reason = "the is_none branch directly above fills self.junk before this read"
        )]
        let junk = self.junk.as_ref().expect("planted above");
        for (i, &byz) in ctx.corrupted.iter().enumerate() {
            out.push(TargetedMessage {
                envelope: Envelope::sign(
                    &ctx.keypairs[i],
                    Payload::Vote(Vote::new(byz, ctx.round, junk.id())),
                ),
                recipients: Recipients::All,
            });
        }
        out
    }
}

/// Corrupted processes propose valid, canonical-chain-extending blocks —
/// but reveal each proposal to only **half** of the processes.
///
/// Whenever a corrupted proposer holds the highest VRF for a view, the
/// half that saw its proposal votes for it while the other half votes for
/// the best honest proposal: the vote splits, no log reaches grade 1 in
/// `GA_{v,1}`, and the view decides nothing new. This is the classic
/// leader-equivocation liveness attack the MMR analysis prices in — a
/// view makes progress only when an honest proposer wins the VRF — and
/// drives the latency experiment (L1).
#[derive(Clone, Debug, Default)]
pub struct WithholdingLeader;

impl WithholdingLeader {
    /// Creates the strategy.
    pub fn new() -> WithholdingLeader {
        WithholdingLeader
    }
}

impl Adversary for WithholdingLeader {
    fn name(&self) -> &'static str {
        "withholding-leader"
    }

    fn send(&mut self, ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        use st_types::RoundKind;
        // Propose at the same rounds honest proposers do (second round of
        // a view, for the next view).
        let RoundKind::ViewSecond(view) = RoundKind::of(ctx.round) else {
            return Vec::new();
        };
        let next_view = view.next();
        // Extend the canonical chain: the longest vote tip among honest
        // processes (full knowledge), measured in the voter's own tree,
        // which holds every block its votes name.
        let tip = ctx
            .processes
            .iter()
            .max_by_key(|p| p.tree().height(p.last_vote_tip()).unwrap_or(0))
            .map(|p| p.last_vote_tip())
            .unwrap_or(BlockId::GENESIS);
        let n = ctx.schedule.n();
        let half: Vec<ProcessId> = ProcessId::all(n).filter(|p| p.index() % 2 == 0).collect();
        let mut out = Vec::new();
        for (i, &byz) in ctx.corrupted.iter().enumerate() {
            let kp = &ctx.keypairs[i];
            let block = Block::build(
                tip,
                next_view,
                byz,
                vec![TxId::new(0xB10C + byz.as_u32() as u64)],
            );
            let (vrf_value, vrf_proof) = kp.vrf_eval(next_view.as_u64());
            let prop = Propose::new(byz, ctx.round, next_view, block, vrf_value, vrf_proof);
            out.push(TargetedMessage {
                envelope: Envelope::sign(kp, Payload::Propose(prop)),
                recipients: Recipients::Only(half.clone()),
            });
        }
        out
    }
}

/// The strict Definition-5 attack: force a decision that **conflicts with
/// `D_ra`**, the logs decided before asynchrony.
///
/// The corrupted processes plant a block `X` forking off **genesis** —
/// below everything decided — then vote for it unanimously every
/// asynchronous round while the adversary suppresses all honest traffic.
/// A receiver's tally then contains its own (latest) vote plus `f`
/// Byzantine votes for `X`: once `f ≥ 3` (and `f` within the allowed
/// failure ratio, so `n ≥ 10` for `β = 1/3`), `X` clears the `> 2m/3`
/// threshold with `m = f + 1` and every honest process *decides a log
/// conflicting with its own earlier decisions*.
///
/// Against vanilla MMR one asynchronous round suffices — exactly the
/// paper's "the adversary sends only votes for b" scenario. Against
/// `η > π` the unexpired honest votes keep `m` large and `X` starves
/// (Theorem 2). The blackout variant first expires those votes, defeating
/// `η ≤ π` configurations.
#[derive(Clone, Debug, Default)]
pub struct ReorgAttacker {
    blackout: u64,
    fork: Option<Block>,
}

impl ReorgAttacker {
    /// Immediate attack (no blackout): breaks vanilla MMR in one
    /// asynchronous round.
    pub fn new() -> ReorgAttacker {
        ReorgAttacker::default()
    }

    /// Attack preceded by `blackout` silent rounds (use `blackout ≥ η` to
    /// defeat an extended protocol with `π` large enough). Like
    /// [`PartitionAttacker::with_blackout`], the prefix is
    /// window-relative and re-arms on every asynchronous window of the
    /// timeline.
    pub fn with_blackout(blackout: u64) -> ReorgAttacker {
        // stlint::allow(deadpub, reason = "the blackout-prefixed reorg that adversary_behaviors.rs drives against the extended protocol")
        ReorgAttacker {
            blackout,
            fork: None,
        }
    }
}

impl Adversary for ReorgAttacker {
    fn name(&self) -> &'static str {
        "reorg"
    }

    fn send(&mut self, ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        if !ctx.is_async() {
            return Vec::new();
        }
        if ctx.env.offset < self.blackout || ctx.corrupted.is_empty() {
            return Vec::new();
        }
        let leader = ctx.corrupted[0];
        #[expect(
            clippy::expect_used,
            reason = "leader came out of ctx.corrupted, and keypair_of covers exactly the corrupted set"
        )]
        let kp_leader = ctx.keypair_of(leader).expect("leader is corrupted");
        let mut out = Vec::new();
        if self.fork.is_none() {
            // Plant X off genesis: conflicts with every decided log of
            // height ≥ 1.
            let view = View::from_round(ctx.round).next();
            let x = Block::build(BlockId::GENESIS, view, leader, vec![TxId::new(0x5E06)]);
            let (vrf_value, vrf_proof) = kp_leader.vrf_eval(view.as_u64());
            let prop = Propose::new(leader, ctx.round, view, x.clone(), vrf_value, vrf_proof);
            out.push(TargetedMessage {
                envelope: Envelope::sign(kp_leader, Payload::Propose(prop)),
                recipients: Recipients::All,
            });
            self.fork = Some(x);
        }
        #[expect(
            clippy::expect_used,
            reason = "the is_none branch directly above fills self.fork before this read"
        )]
        let x = self.fork.as_ref().expect("planted above");
        for (i, &byz) in ctx.corrupted.iter().enumerate() {
            let kp = &ctx.keypairs[i];
            out.push(TargetedMessage {
                envelope: Envelope::sign(kp, Payload::Vote(Vote::new(byz, ctx.round, x.id()))),
                recipients: Recipients::All,
            });
        }
        out
    }

    fn deliver(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        _receiver: ProcessId,
        available: &[&SentMessage],
    ) -> Vec<usize> {
        if ctx.env.offset < self.blackout {
            return Vec::new();
        }
        // Only Byzantine traffic (the planted block and the X votes) gets
        // through; honest votes are suppressed for the whole window.
        available
            .iter()
            .filter(|m| ctx.corrupted.contains(&m.sender))
            .map(|m| m.index)
            .collect()
    }
}

impl Adversary for PartitionAttacker {
    fn name(&self) -> &'static str {
        "partition-split-vote"
    }

    fn send(&mut self, _ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        // Pure delivery attack: corrupted processes (if any) stay silent.
        Vec::new()
    }

    fn deliver(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        receiver: ProcessId,
        available: &[&SentMessage],
    ) -> Vec<usize> {
        if ctx.env.offset < self.blackout {
            return Vec::new(); // silence: let old votes expire
        }
        // Partition: only same-half traffic gets through; messages from
        // before the window were already delivered under synchrony.
        available
            .iter()
            .filter(|m| Self::same_half(m.sender, receiver))
            .map(|m| m.index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_passive() {
        struct Nop;
        impl Adversary for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
        }
        // The default `send` returns nothing without needing a ctx (we
        // cannot easily build a ctx here; the runner tests cover it).
        assert_eq!(Nop.name(), "nop");
    }

    #[test]
    fn partition_halves_by_parity() {
        assert!(PartitionAttacker::same_half(
            ProcessId::new(0),
            ProcessId::new(2)
        ));
        assert!(PartitionAttacker::same_half(
            ProcessId::new(1),
            ProcessId::new(3)
        ));
        assert!(!PartitionAttacker::same_half(
            ProcessId::new(0),
            ProcessId::new(1)
        ));
    }

    #[test]
    fn blackout_variant_records_length() {
        let a = PartitionAttacker::with_blackout(5);
        assert_eq!(a.blackout, 5);
        let b = PartitionAttacker::new();
        assert_eq!(b.blackout, 0);
    }
}
