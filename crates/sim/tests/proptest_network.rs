//! Property-based tests of the network's delivery semantics: whatever
//! interleaving of synchronous and adversarial deliveries happens, every
//! message reaches every addressee exactly once, and only after its send
//! round.

use proptest::prelude::*;
use st_crypto::Keypair;
use st_messages::{Envelope, Payload, Vote};
use st_sim::{Network, Recipients};
use st_types::{BlockId, ProcessId, Round};
use std::collections::HashMap;

fn envelope(sender: u32, round: u64, tip: u64) -> Envelope {
    let kp = Keypair::derive(ProcessId::new(sender), 1);
    Envelope::sign(
        &kp,
        Payload::Vote(Vote::new(
            ProcessId::new(sender),
            Round::new(round),
            BlockId::new(tip),
        )),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random send schedule + random async/sync rounds + random
    /// adversarial delivery subsets ⇒ exactly-once delivery to every
    /// addressee by the end (a final synchronous sweep collects leftovers).
    #[test]
    fn exactly_once_delivery(
        sends in prop::collection::vec((0u32..4, 0u8..2), 1..40),
        async_rounds in prop::collection::vec(any::<bool>(), 8),
        picks in prop::collection::vec(any::<u8>(), 32),
    ) {
        let n = 4usize;
        let mut net = Network::new(n);
        // Spread the sends over rounds 1..=8, tagging each with a unique
        // tip so deliveries are distinguishable.
        let mut sent: Vec<(usize, Round, ProcessId, Recipients)> = Vec::new();
        for (i, &(sender, targeting)) in sends.iter().enumerate() {
            let round = Round::new(1 + (i as u64 * 8) / sends.len() as u64);
            let recipients = if targeting == 0 {
                Recipients::All
            } else {
                Recipients::Only(vec![ProcessId::new((sender + 1) % n as u32)])
            };
            net.send(round, ProcessId::new(sender), recipients.clone(), envelope(sender, round.as_u64(), i as u64));
            sent.push((i, round, ProcessId::new(sender), recipients));
        }

        // Delivery tally per (receiver, message index).
        let mut delivered: HashMap<(u32, u64), usize> = HashMap::new();
        let mut tally = |p: ProcessId, envs: &[st_messages::SharedEnvelope]| {
            for env in envs {
                let Payload::Vote(v) = env.payload() else { unreachable!() };
                *delivered.entry((p.as_u32(), v.tip().as_u64())).or_insert(0) += 1;
            }
        };

        let mut pick_idx = 0;
        for r in 1..=8u64 {
            let round = Round::new(r);
            let is_async = async_rounds[(r - 1) as usize];
            for p in 0..n {
                let pid = ProcessId::new(p as u32);
                if is_async {
                    // Adversary delivers a pseudo-random subset.
                    let available: Vec<usize> =
                        net.available_for(pid, round).iter().map(|m| m.index).collect();
                    let chosen: Vec<usize> = available
                        .iter()
                        .copied()
                        .filter(|_| {
                            pick_idx += 1;
                            picks[pick_idx % picks.len()] % 2 == 0
                        })
                        .collect();
                    let envs = net.deliver_async(pid, round, &chosen);
                    tally(pid, &envs);
                } else {
                    let envs = net.deliver_sync(pid, round);
                    tally(pid, &envs);
                }
            }
        }
        // Final synchronous sweep: everything still pending arrives.
        for p in 0..n {
            let pid = ProcessId::new(p as u32);
            let envs = net.deliver_sync(pid, Round::new(9));
            tally(pid, &envs);
        }

        // Exactly-once to every addressee, never to non-addressees.
        for (i, _round, _sender, recipients) in &sent {
            for p in 0..n as u32 {
                let times = delivered.get(&(p, *i as u64)).copied().unwrap_or(0);
                if recipients.includes(ProcessId::new(p)) {
                    prop_assert_eq!(times, 1, "message {} delivered {} times to p{}", i, times, p);
                } else {
                    prop_assert_eq!(times, 0, "message {} leaked to non-addressee p{}", i, p);
                }
            }
        }
    }

    /// Pool compaction is invisible: interleaving `compact()` anywhere in
    /// a delivery schedule never changes what `deliver_sync` or
    /// `available_for` return, and global indices stay valid.
    #[test]
    fn compaction_never_changes_delivery(
        sends in prop::collection::vec((0u32..4, 0u8..2), 1..40),
        async_rounds in prop::collection::vec(any::<bool>(), 8),
        picks in prop::collection::vec(any::<u8>(), 32),
        compact_after in prop::collection::vec(any::<bool>(), 8),
    ) {
        let n = 4usize;
        let mut compacted = Network::new(n);
        let mut reference = Network::new(n);
        for (i, &(sender, targeting)) in sends.iter().enumerate() {
            let round = Round::new(1 + (i as u64 * 8) / sends.len() as u64);
            let recipients = if targeting == 0 {
                Recipients::All
            } else {
                Recipients::Only(vec![ProcessId::new((sender + 1) % n as u32)])
            };
            for net in [&mut compacted, &mut reference] {
                net.send(
                    round,
                    ProcessId::new(sender),
                    recipients.clone(),
                    envelope(sender, round.as_u64(), i as u64),
                );
            }
        }

        let mut pick_idx = 0;
        for r in 1..=8u64 {
            let round = Round::new(r);
            let is_async = async_rounds[(r - 1) as usize];
            for p in 0..n {
                let pid = ProcessId::new(p as u32);
                // Availability agrees (same global indices, same order).
                let avail_c: Vec<usize> =
                    compacted.available_for(pid, round).iter().map(|m| m.index).collect();
                let avail_r: Vec<usize> =
                    reference.available_for(pid, round).iter().map(|m| m.index).collect();
                prop_assert_eq!(&avail_c, &avail_r, "available_for diverged at round {}", r);
                if is_async {
                    let chosen: Vec<usize> = avail_c
                        .iter()
                        .copied()
                        .filter(|_| {
                            pick_idx += 1;
                            picks[pick_idx % picks.len()] % 2 == 0
                        })
                        .collect();
                    let got_c = compacted.deliver_async(pid, round, &chosen);
                    let got_r = reference.deliver_async(pid, round, &chosen);
                    prop_assert_eq!(got_c, got_r, "deliver_async diverged at round {}", r);
                } else {
                    let got_c = compacted.deliver_sync(pid, round);
                    let got_r = reference.deliver_sync(pid, round);
                    prop_assert_eq!(got_c, got_r, "deliver_sync diverged at round {}", r);
                }
            }
            if compact_after[(r - 1) as usize] {
                compacted.compact();
            }
            prop_assert_eq!(compacted.messages_sent(), reference.messages_sent());
        }
        // Final sweep agrees, and a fully-delivered pool compacts away.
        for p in 0..n {
            let pid = ProcessId::new(p as u32);
            prop_assert_eq!(
                compacted.deliver_sync(pid, Round::new(9)),
                reference.deliver_sync(pid, Round::new(9))
            );
        }
        compacted.compact();
        prop_assert_eq!(compacted.pool().len(), 0, "fully-delivered pool retained messages");
    }

    /// Messages are never delivered before their send round.
    #[test]
    fn no_delivery_from_the_future(sends in prop::collection::vec(1u64..8, 1..20)) {
        let mut net = Network::new(1);
        let mut rounds: Vec<u64> = sends.clone();
        rounds.sort_unstable();
        for (i, &r) in rounds.iter().enumerate() {
            net.send(Round::new(r), ProcessId::new(0), Recipients::All, envelope(0, r, i as u64));
        }
        let p = ProcessId::new(0);
        for r in 0..=8u64 {
            let envs = net.deliver_sync(p, Round::new(r));
            for env in envs {
                let Payload::Vote(v) = env.payload() else { unreachable!() };
                prop_assert!(v.round().as_u64() <= r, "future delivery at round {}", r);
            }
        }
    }
}
