//! Model-based property tests: `VoteStore` against a naive reference
//! implementation of the latest-unexpired-vote semantics (rounds in any
//! order, far above the prune edge too), and
//! `ProposeStore`'s leader rule against the maximum over a flat list.

use proptest::prelude::*;
use st_blocktree::Block;
use st_crypto::Keypair;
use st_messages::{KeyDirectory, Propose, ProposeStore, Vote, VoteStore};
use st_types::fasthash::mix64;
use st_types::{BlockId, ProcessId, Round, TxId, View};
use std::collections::HashMap;

/// The reference model: a flat list of votes, queried by brute force.
#[derive(Default)]
struct NaiveStore {
    votes: Vec<Vote>,
}

impl NaiveStore {
    fn insert(&mut self, vote: Vote) {
        self.votes.push(vote);
    }

    fn prune_below(&mut self, lo: Round) {
        self.votes.retain(|v| v.round() >= lo);
    }

    /// The distinct tips `sender` voted for in `round`, in arrival order.
    fn tips(&self, sender: ProcessId, round: Round) -> Vec<BlockId> {
        let mut tips = Vec::new();
        for v in &self.votes {
            if v.sender() == sender && v.round() == round && !tips.contains(&v.tip()) {
                tips.push(v.tip());
            }
        }
        tips
    }

    /// Distinct (sender, round, tip) votes, at most two per (sender,
    /// round): a third distinct tip adds no evidence of equivocation.
    fn len(&self) -> usize {
        let mut keys: Vec<(ProcessId, Round)> =
            self.votes.iter().map(|v| (v.sender(), v.round())).collect();
        keys.sort();
        keys.dedup();
        keys.iter()
            .map(|&(s, r)| self.tips(s, r).len().min(2))
            .sum()
    }

    /// The latest record of `sender` in `[lo, hi]`: its round, and its
    /// tip unless the sender equivocated there.
    fn latest_of(
        &self,
        sender: ProcessId,
        lo: Round,
        hi: Round,
    ) -> Option<(Round, Option<BlockId>)> {
        let round = self
            .votes
            .iter()
            .filter(|v| v.sender() == sender && v.round() >= lo && v.round() <= hi)
            .map(|v| v.round())
            .max()?;
        let tips = self.tips(sender, round);
        Some((round, (tips.len() == 1).then(|| tips[0])))
    }

    /// The surviving votes a store keeps as evidence: per (sender,
    /// round), the votes for its first two distinct tips.
    fn evidence(&self) -> Vec<Vote> {
        self.votes
            .iter()
            .filter(|v| {
                self.tips(v.sender(), v.round())
                    .iter()
                    .take(2)
                    .any(|&t| t == v.tip())
            })
            .copied()
            .collect()
    }

    /// Whether `sender` has a vote in a round above `hi`.
    fn has_record_above(&self, sender: ProcessId, hi: Round) -> bool {
        self.votes
            .iter()
            .any(|v| v.sender() == sender && v.round() > hi)
    }

    /// Latest vote per sender within `[lo, hi]`, discarding senders whose
    /// latest round contains two distinct tips.
    fn latest_in_window(&self, lo: Round, hi: Round) -> HashMap<ProcessId, BlockId> {
        let mut latest_round: HashMap<ProcessId, Round> = HashMap::new();
        for v in &self.votes {
            if v.round() < lo || v.round() > hi {
                continue;
            }
            let entry = latest_round.entry(v.sender()).or_insert(v.round());
            if v.round() > *entry {
                *entry = v.round();
            }
        }
        let mut out = HashMap::new();
        for (&sender, &round) in &latest_round {
            let tips: Vec<BlockId> = {
                let mut t: Vec<BlockId> = self
                    .votes
                    .iter()
                    .filter(|v| v.sender() == sender && v.round() == round)
                    .map(|v| v.tip())
                    .collect();
                t.sort_by_key(|b| b.as_u64());
                t.dedup();
                t
            };
            if tips.len() == 1 {
                out.insert(sender, tips[0]);
            }
            // ≥ 2 distinct tips in the latest round: equivocator, dropped.
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_reference(
        ops in prop::collection::vec((0u32..6, 1u64..12, 0u64..5), 1..80),
        window in (0u64..12, 0u64..6),
    ) {
        let mut store = VoteStore::new();
        let mut naive = NaiveStore::default();
        for &(sender, round, tip) in &ops {
            let vote = Vote::new(ProcessId::new(sender), Round::new(round), BlockId::new(tip));
            store.insert(vote);
            naive.insert(vote);
        }
        let lo = Round::new(window.0);
        let hi = Round::new(window.0 + window.1);
        let fast = store.latest_in_window(lo, hi);
        let reference = naive.latest_in_window(lo, hi);
        prop_assert_eq!(fast.participation(), reference.len());
        for (sender, round, tip) in fast.iter() {
            prop_assert_eq!(reference.get(&sender), Some(&tip), "sender {:?}", sender);
            prop_assert!(round >= lo && round <= hi);
        }
    }

    #[test]
    fn prune_never_changes_window_above_cut(
        ops in prop::collection::vec((0u32..5, 1u64..20, 0u64..4), 1..60),
        cut in 1u64..20,
    ) {
        let mut store = VoteStore::new();
        for &(sender, round, tip) in &ops {
            store.insert(Vote::new(ProcessId::new(sender), Round::new(round), BlockId::new(tip)));
        }
        let before = store.latest_in_window(Round::new(cut), Round::new(25));
        store.prune_below(Round::new(cut));
        let after = store.latest_in_window(Round::new(cut), Round::new(25));
        prop_assert_eq!(before, after);
    }

    #[test]
    fn insert_is_idempotent(
        ops in prop::collection::vec((0u32..4, 1u64..8, 0u64..4), 1..40),
    ) {
        let mut once = VoteStore::new();
        let mut twice = VoteStore::new();
        for &(sender, round, tip) in &ops {
            let vote = Vote::new(ProcessId::new(sender), Round::new(round), BlockId::new(tip));
            once.insert(vote);
            twice.insert(vote);
            twice.insert(vote);
        }
        let w_once = once.latest_in_window(Round::new(0), Round::new(10));
        let w_twice = twice.latest_in_window(Round::new(0), Round::new(10));
        prop_assert_eq!(w_once, w_twice);
    }

    /// Interleaved inserts and prunes, the prune edge moving in both
    /// directions and votes arriving below an earlier edge: every query
    /// agrees with the model after every step, and the fingerprint is
    /// the fingerprint of a fresh store holding only the surviving votes.
    #[test]
    fn interleaved_inserts_and_prunes_match_reference(
        ops in prop::collection::vec((0u32..10, 0u32..9, 1u64..24, 0u64..4), 1..120),
        window in (0u64..24, 0u64..8),
    ) {
        let mut store = VoteStore::new();
        let mut naive = NaiveStore::default();
        for &(kind, sender, round, tip) in &ops {
            if kind == 0 {
                store.prune_below(Round::new(round));
                naive.prune_below(Round::new(round));
            } else {
                let vote = Vote::new(ProcessId::new(sender), Round::new(round), BlockId::new(tip));
                store.insert(vote);
                naive.insert(vote);
            }
            prop_assert_eq!(store.len(), naive.len());
            let mut fresh = VoteStore::new();
            for &vote in &naive.votes {
                fresh.insert(vote);
            }
            prop_assert_eq!(store.fingerprint(), fresh.fingerprint());
        }
        let lo = Round::new(window.0);
        let hi = Round::new(window.0 + window.1);
        let fast = store.latest_in_window(lo, hi);
        let reference = naive.latest_in_window(lo, hi);
        prop_assert_eq!(fast.participation(), reference.len());
        let mut last = None;
        for (sender, _, tip) in fast.iter() {
            prop_assert_eq!(reference.get(&sender), Some(&tip));
            prop_assert!(last < Some(sender), "window not sorted by sender");
            last = Some(sender);
        }
        for sender in ProcessId::all(10) {
            prop_assert_eq!(store.latest_of(sender, lo, hi), naive.latest_of(sender, lo, hi));
        }
    }
}

/// A round from one of four bands: two near the start, one a thousand
/// rounds on, one at the top of the round space.
fn banded_round(band: u32, offset: u64) -> Round {
    Round::new(match band {
        0 | 1 => 1 + offset,
        2 => 1_000 + offset,
        _ => u64::MAX - 30 + offset,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rounds in any order within and across senders, many far above the
    /// prune edge, and prunes to any band: after every step the store's
    /// length and fingerprint are those of a fresh store fed the
    /// surviving votes in reverse order (a third distinct tip in a round
    /// is no evidence, so it survives in neither), and every sender's latest
    /// record up to `Round::new(u64::MAX)` (the tally's question for a
    /// record above its window) and up to the window's top agree with
    /// the model.
    #[test]
    fn shuffled_rounds_far_above_the_edge_match_reference(
        ops in prop::collection::vec((0u32..8, 0u32..6, 0u32..4, 0u64..24, 0u64..3), 1..100),
        window in (0u32..4, 0u64..24, 0u64..6),
    ) {
        let mut store = VoteStore::new();
        let mut naive = NaiveStore::default();
        let lo = banded_round(window.0, window.1);
        let hi = Round::new(lo.as_u64().saturating_add(window.2));
        let top = Round::new(u64::MAX);
        for &(kind, sender, band, offset, tip) in &ops {
            let round = banded_round(band, offset);
            if kind == 0 {
                store.prune_below(round);
                naive.prune_below(round);
            } else {
                let vote = Vote::new(ProcessId::new(sender), round, BlockId::new(tip));
                store.insert(vote);
                naive.insert(vote);
            }
            let mut fresh = VoteStore::new();
            for vote in naive.evidence().into_iter().rev() {
                fresh.insert(vote);
            }
            prop_assert_eq!(store.len(), fresh.len());
            prop_assert_eq!(store.len(), naive.len());
            prop_assert_eq!(store.fingerprint(), fresh.fingerprint());
            for sender in ProcessId::all(6) {
                prop_assert_eq!(store.latest_of(sender, lo, top), naive.latest_of(sender, lo, top));
                prop_assert_eq!(store.latest_of(sender, lo, hi), naive.latest_of(sender, lo, hi));
                prop_assert_eq!(
                    store.has_record_above(sender, hi),
                    naive.has_record_above(sender, hi)
                );
            }
        }
        let fast = store.latest_in_window(lo, hi);
        let reference = naive.latest_in_window(lo, hi);
        prop_assert_eq!(fast.participation(), reference.len());
        for (sender, round, tip) in fast.iter() {
            prop_assert_eq!(reference.get(&sender), Some(&tip));
            prop_assert_eq!(naive.latest_of(sender, lo, hi), Some((round, Some(tip))));
        }
    }
}

/// A proposal by `kp` for `view` carrying transaction `tx`, tagged with
/// `round`. With `valid_vrf` false the VRF is evaluated on the wrong view.
fn proposal(kp: &Keypair, view: u64, tx: u64, round: u64, valid_vrf: bool) -> Propose {
    let (value, proof) = kp.vrf_eval(if valid_vrf { view } else { view + 1 });
    let block = Block::build(
        BlockId::GENESIS,
        View::new(view),
        kp.owner(),
        vec![TxId::new(tx)],
    );
    Propose::new(
        kp.owner(),
        Round::new(round),
        View::new(view),
        block,
        value,
        proof,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random proposers, equivocating proposers (several blocks per view),
    /// duplicates under other round tags, invalid VRFs, prunes and any
    /// arrival order: the selected tip is the one of the largest
    /// `(VRF, tip)` over the admissible stored proposals, for a random
    /// admissibility predicate over tips.
    #[test]
    fn leader_is_the_largest_admissible_vrf(
        ops in prop::collection::vec((0usize..6, 1u64..4, 0u64..3, 0u64..6, 0u32..12), 1..60),
        salt in any::<u64>(),
        modulus in 1u64..4,
    ) {
        let n = 6;
        let keys: Vec<Keypair> = ProcessId::all(n).map(|p| Keypair::derive(p, 5)).collect();
        let directory = KeyDirectory::derive(n, 5);
        let admissible = |tip: BlockId| mix64(tip.as_u64() ^ salt).is_multiple_of(modulus);
        let mut store = ProposeStore::new();
        // Every valid proposal delivered and not pruned, duplicates kept.
        let mut model: Vec<Propose> = Vec::new();
        for &(sender, view, tx, round, kind) in &ops {
            if kind == 0 {
                store.prune_below(View::new(view));
                model.retain(|p| p.view() >= View::new(view));
                continue;
            }
            let p = proposal(&keys[sender], view, tx, round, kind != 1);
            let key = |q: &Propose| (q.view(), q.vrf_value(), q.tip());
            let fresh = kind != 1 && !model.iter().any(|q| key(q) == key(&p));
            prop_assert_eq!(store.insert(p.clone(), &directory), fresh);
            if kind != 1 {
                model.push(p);
            }
        }
        for view in 1..4 {
            let view = View::new(view);
            let expected = model
                .iter()
                .filter(|p| p.view() == view && admissible(p.tip()))
                .max_by_key(|p| (p.vrf_value(), p.tip().as_u64()))
                .map(Propose::tip);
            let mut asked = 0;
            let selected = store
                .select_leader_proposal(view, |p| {
                    asked += 1;
                    admissible(p.tip())
                })
                .map(Propose::tip);
            prop_assert_eq!(selected, expected);
            if modulus == 1 {
                // Everything admissible: one check, not one per proposal.
                prop_assert!(asked <= 1);
            }
        }
    }
}
