//! The latest-unexpired-vote store.
//!
//! This is the data structure behind the paper's core mechanism: at round
//! `r`, the protocol's behaviour is influenced only by the **latest** vote
//! each process sent within the expiration window `[r − η, r]`, with
//! equivocating latest votes discarded (Section 2.1 "Message structure" and
//! Figure 3).

use crate::Vote;
use st_types::fasthash::{mix64, mix64_pair};
use st_types::{BlockId, ProcessId, Round};
use std::collections::BTreeMap;

/// What happened when a vote was inserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// First vote from this sender for this round.
    Recorded,
    /// Identical vote already present (gossip duplicates are normal).
    Duplicate,
    /// A *different* vote from the same sender for the same round —
    /// equivocation. Both votes are remembered so the round is poisoned
    /// for this sender ("two different vote messages from the same process
    /// are ignored", Figures 2–3).
    Equivocation,
}

/// Per-(sender, round) record of what was voted.
#[derive(Clone, Debug, PartialEq, Eq)]
enum RoundRecord {
    /// A single, unequivocal vote for this tip.
    Single(BlockId),
    /// The sender equivocated in this round; the record keeps the first
    /// two distinct tips as evidence (further tips add no information).
    Equivocated(BlockId, BlockId),
}

/// Hasher-independent digest of one `(sender, round, record)` entry, used
/// as the XOR term this entry contributes to [`VoteStore::fingerprint`].
///
/// The equivocated arm is symmetric in the two evidence tips: which of a
/// pair of equivocating votes arrived first is a delivery-order accident
/// that never affects the tally (the sender is discarded either way), so
/// it must not split otherwise-identical stores into different
/// fingerprints.
fn record_digest(sender: ProcessId, round: Round, rec: &RoundRecord) -> u64 {
    let key = mix64_pair(mix64(u64::from(sender.as_u32())), round.as_u64());
    match *rec {
        RoundRecord::Single(tip) => mix64_pair(key, tip.as_u64()),
        RoundRecord::Equivocated(a, b) => {
            mix64_pair(key, u64::MAX) ^ mix64_pair(key, a.as_u64()) ^ mix64_pair(key, b.as_u64())
        }
    }
}

impl RoundRecord {
    /// How many distinct (sender, round, tip) votes the record holds —
    /// its share of [`VoteStore::len`].
    fn votes(&self) -> usize {
        match self {
            RoundRecord::Single(_) => 1,
            RoundRecord::Equivocated(_, _) => 2,
        }
    }
}

/// Stores every vote a process has received and answers latest-in-window
/// queries.
///
/// See the crate-level docs for an example.
#[derive(Clone, Debug, Default)]
pub struct VoteStore {
    /// `by_sender[s.index()]`: round → record of sender `s`. Dense over
    /// the senders seen so far (grown on demand, never sized up front; a
    /// silent sender's slot is an empty map, which allocates nothing).
    /// The expiration rule asks one question per sender — its latest
    /// record in `[r − η, r]` — and the ordered map answers it with
    /// `range(..).next_back()` in `O(log k)`, whatever order the records
    /// arrived in.
    by_sender: Vec<BTreeMap<Round, RoundRecord>>,
    /// No stored record is older than this round, a lower bound that
    /// each scan of [`VoteStore::prune_below`] makes exact (round
    /// `u64::MAX` for an empty store): a prune whose edge does not pass
    /// it returns at once.
    oldest: Round,
    /// Total count of distinct (sender, round, tip) votes recorded.
    distinct_votes: usize,
    /// XOR of [`record_digest`] over every stored `(sender, round,
    /// record)` entry — an order-insensitive, hasher-independent content
    /// fingerprint, maintained incrementally by [`VoteStore::insert`] and
    /// [`VoteStore::prune_below`]. Equal fingerprints certify (up to
    /// 64-bit collision) that two stores answer every latest-in-window
    /// query identically — the vote half of the key tallies are shared
    /// under (`TobProcess::share_tally` in st-core).
    fingerprint: u64,
}

impl VoteStore {
    /// Creates an empty store.
    pub fn new() -> VoteStore {
        VoteStore::default()
    }

    /// Number of distinct (sender, round, tip) votes recorded.
    pub fn len(&self) -> usize {
        self.distinct_votes
    }

    /// Whether no votes are stored.
    pub fn is_empty(&self) -> bool {
        self.distinct_votes == 0
    }

    /// Records a received vote. Returns what happened; equivocations are
    /// remembered as poison for the (sender, round) pair.
    ///
    /// The sender's slot is indexed by [`ProcessId::index`], so the
    /// sender must be a member of the process set: callers admit only
    /// votes that [`crate::SharedEnvelope::verified`] issued a
    /// [`crate::Sender`] for. The raw key stays while stbench's vote-store
    /// replay inserts votes directly.
    pub fn insert(&mut self, vote: Vote) -> InsertOutcome {
        let slot = vote.sender().index();
        if slot >= self.by_sender.len() {
            self.by_sender.resize_with(slot + 1, BTreeMap::new);
        }
        let rounds = &mut self.by_sender[slot];
        let (digest, outcome) = match rounds.get_mut(&vote.round()) {
            None => {
                let rec = RoundRecord::Single(vote.tip());
                let digest = record_digest(vote.sender(), vote.round(), &rec);
                rounds.insert(vote.round(), rec);
                self.oldest = self.oldest.min(vote.round());
                (digest, InsertOutcome::Recorded)
            }
            Some(rec) => match *rec {
                RoundRecord::Single(tip) if tip == vote.tip() => return InsertOutcome::Duplicate,
                RoundRecord::Single(first) => {
                    let before = record_digest(vote.sender(), vote.round(), rec);
                    *rec = RoundRecord::Equivocated(first, vote.tip());
                    let after = record_digest(vote.sender(), vote.round(), rec);
                    (before ^ after, InsertOutcome::Equivocation)
                }
                RoundRecord::Equivocated(a, b) => {
                    // A third distinct tip adds no evidence: the record —
                    // and with it the fingerprint — stays as-is.
                    return if a == vote.tip() || b == vote.tip() {
                        InsertOutcome::Duplicate
                    } else {
                        InsertOutcome::Equivocation
                    };
                }
            },
        };
        self.distinct_votes += 1;
        self.fingerprint ^= digest;
        outcome
    }

    /// The store's content fingerprint (see the field docs). Two stores
    /// with equal fingerprints hold the same effective vote records
    /// regardless of insertion order, hasher seed, or pruning history.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The latest record of `sender` within the closed window `[lo, hi]`:
    /// `None` if the sender has no vote there, `Some((round, None))` if
    /// its latest record in the window is an equivocation (sender
    /// discarded entirely), `Some((round, Some(tip)))` for a clean latest
    /// vote. This is the single-sender form of
    /// [`VoteStore::latest_in_window`], used by the incremental tally to
    /// re-derive one sender's contribution after an insert instead of
    /// re-scanning every sender.
    pub fn latest_of(
        &self,
        sender: ProcessId,
        lo: Round,
        hi: Round,
    ) -> Option<(Round, Option<BlockId>)> {
        let rounds = self.by_sender.get(sender.index())?;
        let (&round, rec) = rounds.range(lo..=hi).next_back()?;
        match *rec {
            RoundRecord::Single(tip) => Some((round, Some(tip))),
            RoundRecord::Equivocated(_, _) => Some((round, None)),
        }
    }

    /// The latest vote of every sender within the closed round window
    /// `[lo, hi]` — the tally input `M_i^r` of the extended graded
    /// agreement (Figure 3).
    ///
    /// Per sender, the vote from its highest round within the window is
    /// selected. If the sender equivocated in that round, the sender is
    /// **discarded entirely** ("equivocating latest messages being
    /// discarded", Section 3.3) — it contributes neither a vote nor to the
    /// perceived participation count.
    pub fn latest_in_window(&self, lo: Round, hi: Round) -> LatestVotes {
        let mut out = LatestVotes { votes: Vec::new() };
        self.latest_in_window_into(lo, hi, &mut out);
        out
    }

    /// [`VoteStore::latest_in_window`] into a caller-owned buffer, reusing
    /// its allocation (for callers that query every round).
    pub fn latest_in_window_into(&self, lo: Round, hi: Round, out: &mut LatestVotes) {
        out.votes.clear();
        // Slots are in sender order, so the output is sorted by sender.
        for (slot, rounds) in self.by_sender.iter().enumerate() {
            if let Some((&round, RoundRecord::Single(tip))) = rounds.range(lo..=hi).next_back() {
                out.votes.push((ProcessId::new(slot as u32), round, *tip));
            }
            // An equivocated latest record discards the sender.
        }
    }

    /// Drops all votes from rounds strictly below `lo` (they can never
    /// again fall inside an expiration window once `r − η ≥ lo`). Keeps
    /// memory proportional to `n · η`.
    ///
    /// Called once per round from the protocol's send phase, so the cost
    /// must scale with what is *actually removed* (usually one round's
    /// worth per sender, often nothing), not with what is retained: when
    /// `lo` does not pass the oldest stored round nothing is visited,
    /// and otherwise each sender's round map is popped from the front
    /// only while its entries are expired, each popped record leaving
    /// the count and the fingerprint as it goes.
    pub fn prune_below(&mut self, lo: Round) {
        if lo <= self.oldest {
            return;
        }
        let mut oldest = Round::new(u64::MAX);
        for (slot, rounds) in self.by_sender.iter_mut().enumerate() {
            while let Some(entry) = rounds.first_entry() {
                if *entry.key() >= lo {
                    oldest = oldest.min(*entry.key());
                    break;
                }
                let (round, rec) = entry.remove_entry();
                self.distinct_votes -= rec.votes();
                self.fingerprint ^= record_digest(ProcessId::new(slot as u32), round, &rec);
            }
        }
        self.oldest = oldest;
    }
}

/// The result of a latest-in-window query: at most one vote per sender,
/// equivocators excluded. This is the set `M_i^r` the graded-agreement
/// tally runs over.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatestVotes {
    /// `(sender, round the vote was cast in, tip voted for)`, sorted by
    /// sender.
    votes: Vec<(ProcessId, Round, BlockId)>,
}

impl LatestVotes {
    /// An empty vote set — the starting value for a reusable scratch
    /// buffer passed to [`VoteStore::latest_in_window_into`].
    pub fn empty() -> LatestVotes {
        LatestVotes::default()
    }

    /// The perceived participation `m = |M_i^r|`: the number of distinct
    /// processes contributing a (non-equivocating) latest vote.
    pub fn participation(&self) -> usize {
        self.votes.len()
    }

    /// Whether no votes fell in the window.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Iterates `(sender, cast round, tip)` triples, sorted by sender.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Round, BlockId)> + '_ {
        self.votes.iter().copied()
    }

    /// The tip voted for by `sender`, if it contributed.
    pub fn vote_of(&self, sender: ProcessId) -> Option<BlockId> {
        // stlint::allow(deadpub, reason = "the per-sender read of a window; the crate doc's expiration example and the store's unit tests state the window semantics through it")
        self.votes
            .binary_search_by_key(&sender, |&(s, _, _)| s)
            .ok()
            .map(|i| self.votes[i].2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(sender: u32, round: u64, tip: u64) -> Vote {
        Vote::new(ProcessId::new(sender), Round::new(round), BlockId::new(tip))
    }

    #[test]
    fn insert_outcomes() {
        let mut s = VoteStore::new();
        assert_eq!(s.insert(v(1, 1, 10)), InsertOutcome::Recorded);
        assert_eq!(s.insert(v(1, 1, 10)), InsertOutcome::Duplicate);
        assert_eq!(s.insert(v(1, 1, 11)), InsertOutcome::Equivocation);
        // Same-round third distinct tip still reports equivocation.
        assert_eq!(s.insert(v(1, 1, 12)), InsertOutcome::Equivocation);
        // Re-sending a poisoned tip is a duplicate.
        assert_eq!(s.insert(v(1, 1, 11)), InsertOutcome::Duplicate);
    }

    #[test]
    fn latest_picks_highest_round_in_window() {
        let mut s = VoteStore::new();
        s.insert(v(1, 1, 10));
        s.insert(v(1, 3, 30));
        s.insert(v(1, 5, 50));
        let w = s.latest_in_window(Round::new(0), Round::new(4));
        assert_eq!(w.vote_of(ProcessId::new(1)), Some(BlockId::new(30)));
        let w = s.latest_in_window(Round::new(0), Round::new(9));
        assert_eq!(w.vote_of(ProcessId::new(1)), Some(BlockId::new(50)));
        let w = s.latest_in_window(Round::new(6), Round::new(9));
        assert!(w.is_empty());
    }

    #[test]
    fn equivocating_latest_discards_sender() {
        let mut s = VoteStore::new();
        s.insert(v(1, 2, 20));
        s.insert(v(1, 4, 40));
        s.insert(v(1, 4, 41)); // equivocation in the latest round
        let w = s.latest_in_window(Round::new(0), Round::new(5));
        // Sender discarded entirely: no vote, not counted in participation.
        assert_eq!(w.vote_of(ProcessId::new(1)), None);
        assert_eq!(w.participation(), 0);
        // But a window that excludes the poisoned round sees the old vote.
        let w = s.latest_in_window(Round::new(0), Round::new(3));
        assert_eq!(w.vote_of(ProcessId::new(1)), Some(BlockId::new(20)));
        assert_eq!(w.participation(), 1);
    }

    #[test]
    fn equivocation_in_older_round_does_not_poison_newer_vote() {
        let mut s = VoteStore::new();
        s.insert(v(1, 2, 20));
        s.insert(v(1, 2, 21)); // equivocation at round 2
        s.insert(v(1, 4, 40)); // clean vote later
        let w = s.latest_in_window(Round::new(0), Round::new(5));
        assert_eq!(w.vote_of(ProcessId::new(1)), Some(BlockId::new(40)));
    }

    #[test]
    fn participation_counts_distinct_senders() {
        let mut s = VoteStore::new();
        s.insert(v(1, 1, 10));
        s.insert(v(2, 1, 10));
        s.insert(v(3, 2, 11));
        let w = s.latest_in_window(Round::new(1), Round::new(2));
        assert_eq!(w.participation(), 3);
    }

    #[test]
    fn window_boundaries_are_inclusive() {
        let mut s = VoteStore::new();
        s.insert(v(1, 3, 30));
        assert_eq!(
            s.latest_in_window(Round::new(3), Round::new(3))
                .participation(),
            1
        );
        assert_eq!(
            s.latest_in_window(Round::new(4), Round::new(9))
                .participation(),
            0
        );
        assert_eq!(
            s.latest_in_window(Round::new(0), Round::new(2))
                .participation(),
            0
        );
    }

    #[test]
    fn vanilla_window_is_single_round() {
        // η = 0 semantics: window [r, r] sees only round-r votes.
        let mut s = VoteStore::new();
        s.insert(v(1, 4, 40));
        s.insert(v(2, 5, 50));
        let w = s.latest_in_window(Round::new(5), Round::new(5));
        assert_eq!(w.participation(), 1);
        assert_eq!(w.vote_of(ProcessId::new(2)), Some(BlockId::new(50)));
    }

    #[test]
    fn prune_below_removes_and_recounts() {
        let mut s = VoteStore::new();
        s.insert(v(1, 1, 10));
        s.insert(v(1, 1, 11)); // equivocation: 2 distinct votes
        s.insert(v(1, 5, 50));
        s.insert(v(2, 2, 20));
        assert_eq!(s.len(), 4);
        s.prune_below(Round::new(3));
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.latest_in_window(Round::new(0), Round::new(9))
                .vote_of(ProcessId::new(1)),
            Some(BlockId::new(50))
        );
        assert_eq!(s.by_sender.iter().filter(|r| !r.is_empty()).count(), 1);
    }

    #[test]
    fn latest_of_matches_window_semantics() {
        let mut s = VoteStore::new();
        s.insert(v(1, 2, 20));
        s.insert(v(1, 4, 40));
        s.insert(v(1, 4, 41)); // equivocation in the latest round
        let p1 = ProcessId::new(1);
        assert_eq!(
            s.latest_of(p1, Round::new(0), Round::new(5)),
            Some((Round::new(4), None))
        );
        assert_eq!(
            s.latest_of(p1, Round::new(0), Round::new(3)),
            Some((Round::new(2), Some(BlockId::new(20))))
        );
        assert_eq!(s.latest_of(p1, Round::new(5), Round::new(9)), None);
        assert_eq!(
            s.latest_of(ProcessId::new(2), Round::new(0), Round::new(9)),
            None
        );
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_tracks_content() {
        let votes = [v(1, 1, 10), v(2, 3, 30), v(1, 4, 40), v(3, 2, 20)];
        let mut a = VoteStore::new();
        let mut b = VoteStore::new();
        for vote in votes {
            a.insert(vote);
        }
        for vote in votes.iter().rev() {
            b.insert(*vote);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), VoteStore::new().fingerprint());
        // Duplicates don't move the fingerprint; new content does.
        let before = a.fingerprint();
        a.insert(v(1, 1, 10));
        assert_eq!(a.fingerprint(), before);
        a.insert(v(4, 1, 10));
        assert_ne!(a.fingerprint(), before);
    }

    #[test]
    fn fingerprint_is_symmetric_in_equivocation_evidence_order() {
        let mut a = VoteStore::new();
        a.insert(v(1, 2, 20));
        a.insert(v(1, 2, 21));
        let mut b = VoteStore::new();
        b.insert(v(1, 2, 21));
        b.insert(v(1, 2, 20));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A third distinct tip adds no evidence and no fingerprint change.
        let before = a.fingerprint();
        a.insert(v(1, 2, 22));
        assert_eq!(a.fingerprint(), before);
    }

    #[test]
    fn fingerprint_after_prune_matches_fresh_store() {
        let mut pruned = VoteStore::new();
        pruned.insert(v(1, 1, 10));
        pruned.insert(v(1, 1, 11)); // equivocation below the horizon
        pruned.insert(v(1, 5, 50));
        pruned.insert(v(2, 2, 20));
        pruned.prune_below(Round::new(3));
        let mut fresh = VoteStore::new();
        fresh.insert(v(1, 5, 50));
        assert_eq!(pruned.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn iter_is_sorted_by_sender() {
        let mut s = VoteStore::new();
        s.insert(v(5, 1, 1));
        s.insert(v(1, 1, 1));
        s.insert(v(3, 1, 1));
        let senders: Vec<_> = s
            .latest_in_window(Round::new(0), Round::new(2))
            .iter()
            .map(|(s, _, _)| s.as_u32())
            .collect();
        assert_eq!(senders, vec![1, 3, 5]);
    }
}
