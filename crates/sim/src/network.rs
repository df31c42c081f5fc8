//! The simulated network: a global message pool with per-process delivery
//! cursors.
//!
//! Implements the model of Section 2.1 exactly:
//!
//! * messages are never lost — at worst delayed past an asynchronous
//!   period (footnote 2: the dissemination layer retains them);
//! * in the receive phase of a **synchronous** round `r`, an awake process
//!   receives *every* message sent in rounds `≤ r` it has not received
//!   yet (including while it slept);
//! * in the receive phase of an **asynchronous** round, the adversary
//!   selects an arbitrary subset per receiver;
//! * Byzantine senders may target messages at subsets of processes
//!   (equivocation is sending different targeted messages).

use st_messages::SharedEnvelope;
use st_types::FastSet;
use st_types::{ProcessId, Round};

/// Who a message is addressed to. Honest multicasts are [`Recipients::All`];
/// Byzantine processes may target subsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Recipients {
    /// Every process.
    All,
    /// Only the listed processes.
    Only(Vec<ProcessId>),
}

impl Recipients {
    /// Whether `p` is addressed.
    pub fn includes(&self, p: ProcessId) -> bool {
        match self {
            Recipients::All => true,
            Recipients::Only(list) => list.contains(&p),
        }
    }
}

/// A message in the global pool.
///
/// The envelope is a [`SharedEnvelope`]: the pool owns one allocation per
/// multicast and every delivery hands out a reference-count bump, never a
/// deep clone — the fast path the simulation's round loop relies on.
#[derive(Clone, Debug)]
pub struct SentMessage {
    /// Position in the pool (global, monotone — stable across
    /// [`Network::compact`]).
    pub index: usize,
    /// The round the message was sent in.
    pub round: Round,
    /// The actual (claimed) sender.
    pub sender: ProcessId,
    /// Addressing.
    pub recipients: Recipients,
    /// The signed message (shared, verify-once).
    pub envelope: SharedEnvelope,
}

/// Per-process delivery state: everything below `cursor` has been
/// delivered (or was not addressed to us); `extras` holds indices at or
/// beyond the cursor delivered early during asynchrony.
///
/// Invariant: every member of `extras` is `≥ cursor` — `deliver_sync`
/// consumes extras as the cursor passes them and `deliver_async` only
/// inserts indices at or beyond the cursor. [`Network::compact`] relies
/// on this to treat `min(cursor)` as the fully-delivered prefix.
#[derive(Clone, Debug, Default)]
struct DeliveryState {
    cursor: usize,
    extras: FastSet<usize>,
}

/// The simulated network.
///
/// Pool indices handed out (via [`SentMessage::index`] and the adversary's
/// `deliver` hook) are **global**: they keep identifying the same message
/// after [`Network::compact`] drops the fully-delivered prefix from
/// memory.
#[derive(Clone, Debug)]
pub struct Network {
    /// Retained messages: global indices `base ..= base + pool.len() - 1`.
    pool: Vec<SentMessage>,
    /// Global index of `pool[0]`; messages below it were compacted away.
    base: usize,
    /// Round of the most recent send — persisted separately from the pool
    /// so the round-monotonicity guard survives compaction emptying it.
    last_sent_round: Option<Round>,
    delivery: Vec<DeliveryState>,
}

impl Network {
    /// A network for `n` processes.
    pub fn new(n: usize) -> Network {
        Network {
            pool: Vec::new(),
            base: 0,
            last_sent_round: None,
            delivery: (0..n).map(|_| DeliveryState::default()).collect(),
        }
    }

    /// Total messages ever sent (including compacted ones).
    pub fn messages_sent(&self) -> usize {
        self.base + self.pool.len()
    }

    /// Appends a message to the pool (send phase). Messages must be
    /// appended in non-decreasing round order — the delivery cursor relies
    /// on the pool being round-sorted.
    ///
    /// # Panics
    ///
    /// Panics if `round` is lower than the last appended round.
    pub fn send(
        &mut self,
        round: Round,
        sender: ProcessId,
        recipients: Recipients,
        envelope: impl Into<SharedEnvelope>,
    ) {
        if let Some(last) = self.last_sent_round {
            assert!(round >= last, "messages must be appended in round order");
        }
        self.last_sent_round = Some(round);
        let index = self.messages_sent();
        self.pool.push(SentMessage {
            index,
            round,
            sender,
            recipients,
            envelope: envelope.into(),
        });
    }

    /// Synchronous receive for `p` at the end of round `r`: returns every
    /// not-yet-delivered message addressed to `p` sent in rounds `≤ r`,
    /// in pool order, and marks them delivered. Each returned envelope is
    /// a shared handle into the pool — no payload is copied.
    pub fn deliver_sync(&mut self, p: ProcessId, r: Round) -> Vec<SharedEnvelope> {
        // stlint::allow(deadpub, reason = "the collecting form hand-written drivers use (tests/cross_validation.rs, tests/replay_and_timeline.rs); the runner uses deliver_sync_with")
        let mut out = Vec::new();
        self.deliver_sync_with(p, r, |env| out.push(env.clone()));
        out
    }

    /// Zero-copy variant of [`Network::deliver_sync`]: invokes `deliver`
    /// on a borrowed handle for every delivered message instead of
    /// collecting refcount bumps into a vector. This is the round loop's
    /// hot path — per delivered message it costs one round comparison,
    /// one recipients check and the callback; no allocation, no atomics.
    /// Returns the number of messages delivered.
    pub fn deliver_sync_with<F>(&mut self, p: ProcessId, r: Round, mut deliver: F) -> usize
    where
        F: FnMut(&SharedEnvelope),
    {
        let state = &mut self.delivery[p.index()];
        let start = state.cursor.max(self.base) - self.base;
        // `extras` is empty except for processes that received early
        // deliveries during an asynchronous window — skip the per-message
        // set probe on the (overwhelmingly common) synchronous path.
        let mut extras_left = state.extras.len();
        let mut taken = 0usize;
        let mut delivered = 0usize;
        for msg in &self.pool[start..] {
            if msg.round > r {
                break;
            }
            taken += 1;
            if extras_left > 0 && state.extras.remove(&msg.index) {
                extras_left -= 1;
            } else if msg.recipients.includes(p) {
                delivered += 1;
                deliver(&msg.envelope);
            }
        }
        state.cursor = self.base + start + taken;
        // Extras below the new cursor are consumed above; any remaining
        // extras reference indices ≥ cursor (sent later than r): keep.
        delivered
    }

    /// The messages *available* for adversarial delivery to `p` at the end
    /// of an asynchronous round `r`: addressed to `p`, sent in rounds
    /// `≤ r`, not yet delivered.
    pub fn available_for(&self, p: ProcessId, r: Round) -> Vec<&SentMessage> {
        let state = &self.delivery[p.index()];
        self.pool[state.cursor.max(self.base) - self.base..]
            .iter()
            .take_while(|m| m.round <= r)
            .filter(|m| m.recipients.includes(p) && !state.extras.contains(&m.index))
            .collect()
    }

    /// Adversarial (asynchronous) delivery: marks the chosen pool indices
    /// delivered to `p` and returns their envelopes in pool order. Indices
    /// not actually available to `p` are ignored — the adversary cannot
    /// deliver a message twice, to a non-addressee, or from the future.
    /// Duplicate choices (within one call, across calls, or overlapping a
    /// past synchronous delivery) are collapsed deterministically: each
    /// chosen message is delivered at most once, in global pool order.
    pub fn deliver_async(
        &mut self,
        p: ProcessId,
        r: Round,
        chosen: &[usize],
    ) -> Vec<SharedEnvelope> {
        let mut sorted: Vec<usize> = chosen.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let state = &mut self.delivery[p.index()];
        let mut out = Vec::new();
        for idx in sorted {
            if idx < state.cursor.max(self.base) || idx >= self.base + self.pool.len() {
                continue;
            }
            let msg = &self.pool[idx - self.base];
            if msg.round > r || !msg.recipients.includes(p) || state.extras.contains(&idx) {
                continue;
            }
            state.extras.insert(idx);
            out.push(msg.envelope.clone());
        }
        out
    }

    /// Bounded-delay receive for `p` at the end of round `r` (the
    /// [`crate::SegmentKind::BoundedDelay`] delivery path): every
    /// not-yet-delivered message addressed to `p` whose **deadline** has
    /// been reached (`sent round + delta ≤ r`) is delivered
    /// unconditionally, and the per-process cursor advances past the
    /// deadline boundary — which is what keeps [`Network::compact`]
    /// working through long bounded-delay segments. On top of that,
    /// `chosen` (global indices, typically the messages whose sampled
    /// delay elapsed this round) are delivered **early** via the same
    /// marking mechanism as [`Network::deliver_async`]: duplicates are
    /// collapsed, and indices that are out of range, already delivered,
    /// from the future, or not addressed to `p` are ignored, so no
    /// message can be delivered twice and the `Δ` bound cannot be
    /// stretched by a misbehaving delay oracle. Returns the delivered
    /// envelopes in global pool order.
    pub fn deliver_bounded(
        &mut self,
        p: ProcessId,
        r: Round,
        delta: u64,
        chosen: &[usize],
    ) -> Vec<SharedEnvelope> {
        let state = &mut self.delivery[p.index()];
        let start = state.cursor.max(self.base) - self.base;
        let mut out = Vec::new();
        // Phase 1 — forced deadline prefix: messages sent in rounds
        // `≤ r − delta` must arrive now; the cursor advances like the
        // synchronous path so the fully-delivered prefix keeps growing.
        if let Some(cutoff) = r.as_u64().checked_sub(delta) {
            let mut taken = 0usize;
            for msg in &self.pool[start..] {
                if msg.round.as_u64() > cutoff {
                    break;
                }
                taken += 1;
                if state.extras.remove(&msg.index) {
                    // Delivered early in an earlier bounded/async round.
                } else if msg.recipients.includes(p) {
                    out.push(msg.envelope.clone());
                }
            }
            state.cursor = self.base + start + taken;
        }
        // Phase 2 — early deliveries inside the `(r − delta, r]` band,
        // delegated to the adversarial marking path so its hardening
        // rules live in one place. Every phase-2 index is ≥ the advanced
        // cursor, so the combined output stays in global pool order.
        out.extend(self.deliver_async(p, r, chosen));
        out
    }

    /// Drops from memory the prefix of the pool that **every** process has
    /// passed: messages below `min(cursor)` can never again be returned by
    /// [`Network::deliver_sync`], [`Network::available_for`] or
    /// [`Network::deliver_async`] (extras are always at or beyond their
    /// own cursor, so none can reference the dropped prefix). Returns the
    /// number of messages dropped.
    ///
    /// Global indices remain valid: `messages_sent()` and
    /// [`SentMessage::index`] are unaffected; only [`Network::pool`]
    /// shrinks (from the front).
    pub fn compact(&mut self) -> usize {
        let Some(safe) = self
            .delivery
            .iter()
            .map(|s| s.extras.min().copied().unwrap_or(usize::MAX).min(s.cursor))
            .min()
        else {
            return 0;
        };
        if safe <= self.base {
            return 0;
        }
        let k = (safe - self.base).min(self.pool.len());
        self.pool.drain(..k);
        self.base += k;
        k
    }

    /// Read-only view of the retained pool (adversary knowledge,
    /// diagnostics): every message [`Network::compact`] has not dropped,
    /// in global-index order.
    pub fn pool(&self) -> &[SentMessage] {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_crypto::Keypair;
    use st_messages::{Envelope, Payload, Vote};
    use st_types::BlockId;

    fn env(sender: u32, round: u64, tip: u64) -> Envelope {
        let kp = Keypair::derive(ProcessId::new(sender), 42);
        Envelope::sign(
            &kp,
            Payload::Vote(Vote::new(
                ProcessId::new(sender),
                Round::new(round),
                BlockId::new(tip),
            )),
        )
    }

    #[test]
    fn sync_delivery_gets_everything_once() {
        let mut net = Network::new(2);
        net.send(
            Round::new(1),
            ProcessId::new(0),
            Recipients::All,
            env(0, 1, 5),
        );
        net.send(
            Round::new(1),
            ProcessId::new(1),
            Recipients::All,
            env(1, 1, 6),
        );
        let p0 = ProcessId::new(0);
        let got = net.deliver_sync(p0, Round::new(1));
        assert_eq!(got.len(), 2);
        // Second call: nothing new.
        assert!(net.deliver_sync(p0, Round::new(1)).is_empty());
    }

    #[test]
    fn sync_delivery_respects_round_bound() {
        let mut net = Network::new(1);
        net.send(
            Round::new(1),
            ProcessId::new(0),
            Recipients::All,
            env(0, 1, 5),
        );
        net.send(
            Round::new(3),
            ProcessId::new(0),
            Recipients::All,
            env(0, 3, 6),
        );
        let p = ProcessId::new(0);
        assert_eq!(net.deliver_sync(p, Round::new(2)).len(), 1);
        assert_eq!(net.deliver_sync(p, Round::new(3)).len(), 1);
    }

    #[test]
    fn queued_messages_arrive_on_wake() {
        // A process that "slept" (did not call deliver) through rounds 1-3
        // receives everything on its first receive.
        let mut net = Network::new(2);
        for r in 1..=3u64 {
            net.send(
                Round::new(r),
                ProcessId::new(0),
                Recipients::All,
                env(0, r, r),
            );
        }
        assert_eq!(net.deliver_sync(ProcessId::new(1), Round::new(3)).len(), 3);
    }

    #[test]
    fn targeted_messages_skip_non_addressees() {
        let mut net = Network::new(3);
        net.send(
            Round::new(1),
            ProcessId::new(0),
            Recipients::Only(vec![ProcessId::new(1)]),
            env(0, 1, 5),
        );
        assert_eq!(net.deliver_sync(ProcessId::new(1), Round::new(1)).len(), 1);
        assert!(net
            .deliver_sync(ProcessId::new(2), Round::new(1))
            .is_empty());
    }

    #[test]
    fn async_delivery_is_subset_then_sync_catches_up() {
        let mut net = Network::new(2);
        for r in 1..=1u64 {
            for s in 0..2u32 {
                net.send(
                    Round::new(r),
                    ProcessId::new(s),
                    Recipients::All,
                    env(s, r, s as u64),
                );
            }
        }
        let p = ProcessId::new(0);
        let avail = net.available_for(p, Round::new(1));
        assert_eq!(avail.len(), 2);
        let first_idx = avail[0].index;
        // Adversary delivers only the first message.
        let got = net.deliver_async(p, Round::new(1), &[first_idx]);
        assert_eq!(got.len(), 1);
        // Available shrinks.
        assert_eq!(net.available_for(p, Round::new(1)).len(), 1);
        // Synchrony restored: the withheld message arrives, no duplicate.
        let later = net.deliver_sync(p, Round::new(2));
        assert_eq!(later.len(), 1);
        assert!(net.deliver_sync(p, Round::new(2)).is_empty());
    }

    #[test]
    fn async_delivery_ignores_bogus_choices() {
        let mut net = Network::new(2);
        net.send(
            Round::new(2),
            ProcessId::new(0),
            Recipients::Only(vec![ProcessId::new(0)]),
            env(0, 2, 1),
        );
        let p1 = ProcessId::new(1);
        // Not addressed to p1, out-of-range index, future round.
        assert!(net.deliver_async(p1, Round::new(2), &[0]).is_empty());
        assert!(net.deliver_async(p1, Round::new(2), &[99]).is_empty());
        let p0 = ProcessId::new(0);
        assert!(net.deliver_async(p0, Round::new(1), &[0]).is_empty()); // round 2 > 1
        assert_eq!(net.deliver_async(p0, Round::new(2), &[0, 0]).len(), 1); // dedup
    }

    #[test]
    fn async_delivery_dedups_duplicate_choices() {
        // The adversary hands back the same index many times, unsorted and
        // across calls: the message is delivered exactly once.
        let mut net = Network::new(2);
        net.send(
            Round::new(1),
            ProcessId::new(0),
            Recipients::All,
            env(0, 1, 5),
        );
        net.send(
            Round::new(1),
            ProcessId::new(1),
            Recipients::All,
            env(1, 1, 6),
        );
        let p = ProcessId::new(0);
        // Duplicates within one call, unsorted.
        let got = net.deliver_async(p, Round::new(1), &[1, 0, 1, 0, 0, 1]);
        assert_eq!(got.len(), 2);
        // The same choices across a later call: nothing is re-delivered.
        assert!(net.deliver_async(p, Round::new(1), &[0, 1]).is_empty());
        // Nor does the synchronous catch-up replay them.
        assert!(net.deliver_sync(p, Round::new(2)).is_empty());
    }

    #[test]
    fn bounded_delivery_enforces_deadline_and_early_choices() {
        let mut net = Network::new(2);
        for r in 1..=3u64 {
            net.send(
                Round::new(r),
                ProcessId::new(0),
                Recipients::All,
                env(0, r, r),
            );
        }
        let p = ProcessId::new(1);
        // delta = 2 at round 2: only the round-0-deadline message (sent in
        // round ≤ 0) would be forced — none; choose index 1 (round 2) early.
        let got = net.deliver_bounded(p, Round::new(2), 2, &[1]);
        assert_eq!(got.len(), 1);
        // Round 3, delta = 2: the round-1 message's deadline (1+2) arrives
        // — forced even though never chosen. Index 1 is not re-delivered
        // despite being chosen again (dedup across calls), index 2 comes
        // early by choice.
        let got = net.deliver_bounded(p, Round::new(3), 2, &[1, 2, 2]);
        assert_eq!(got.len(), 2);
        // Everything has been delivered exactly once overall.
        assert!(net.deliver_sync(p, Round::new(9)).is_empty());
    }

    #[test]
    fn bounded_delivery_ignores_bogus_choices_and_respects_compaction() {
        let mut net = Network::new(2);
        net.send(
            Round::new(1),
            ProcessId::new(0),
            Recipients::Only(vec![ProcessId::new(0)]),
            env(0, 1, 1),
        );
        net.send(
            Round::new(5),
            ProcessId::new(0),
            Recipients::All,
            env(0, 5, 2),
        );
        let p1 = ProcessId::new(1);
        // Not addressed (0), out of range (99), from the future at r=4 (1).
        assert!(net
            .deliver_bounded(p1, Round::new(4), 9, &[0, 99])
            .is_empty());
        assert_eq!(net.deliver_bounded(p1, Round::new(5), 9, &[1]).len(), 1);
        // A later zero-delta pass forces both cursors over the prefix
        // (p1's early delivery is consumed, not repeated), after which
        // compaction drops it while global indices keep working.
        let p0 = ProcessId::new(0);
        assert_eq!(net.deliver_bounded(p0, Round::new(5), 0, &[]).len(), 2);
        assert!(net.deliver_bounded(p1, Round::new(5), 0, &[]).is_empty());
        assert_eq!(net.compact(), 2);
        net.send(
            Round::new(6),
            ProcessId::new(0),
            Recipients::All,
            env(0, 6, 3),
        );
        // Global index 2 is the fresh message; the compacted prefix stays
        // undeliverable.
        assert_eq!(
            net.deliver_bounded(p1, Round::new(6), 9, &[0, 1, 2]).len(),
            1
        );
        assert_eq!(net.pool()[0].index, 2);
    }

    #[test]
    fn bounded_deadline_advances_cursor_for_compaction() {
        // A pure bounded-delay run (nobody ever calls deliver_sync): the
        // forced-deadline phase advances every cursor, so the pool still
        // compacts once all deadlines pass.
        let mut net = Network::new(2);
        for r in 1..=4u64 {
            net.send(
                Round::new(r),
                ProcessId::new(0),
                Recipients::All,
                env(0, r, r),
            );
        }
        for r in 1..=6u64 {
            for pid in 0..2u32 {
                let _ = net.deliver_bounded(ProcessId::new(pid), Round::new(r), 2, &[]);
            }
        }
        // Deadlines for rounds 1..=4 all passed by round 6.
        assert_eq!(net.compact(), 4);
        assert!(net.pool().is_empty());
    }

    #[test]
    #[should_panic(expected = "round order")]
    fn out_of_order_send_panics_even_after_compaction_empties_pool() {
        let mut net = Network::new(1);
        net.send(
            Round::new(5),
            ProcessId::new(0),
            Recipients::All,
            env(0, 5, 1),
        );
        let _ = net.deliver_sync(ProcessId::new(0), Round::new(5));
        assert_eq!(net.compact(), 1);
        assert!(net.pool().is_empty());
        // The monotonicity guard must survive the pool being drained.
        net.send(
            Round::new(3),
            ProcessId::new(0),
            Recipients::All,
            env(0, 3, 1),
        );
    }

    #[test]
    #[should_panic(expected = "round order")]
    fn out_of_order_send_panics() {
        let mut net = Network::new(1);
        net.send(
            Round::new(2),
            ProcessId::new(0),
            Recipients::All,
            env(0, 2, 1),
        );
        net.send(
            Round::new(1),
            ProcessId::new(0),
            Recipients::All,
            env(0, 1, 1),
        );
    }
}
