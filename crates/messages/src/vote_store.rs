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

/// Hasher-independent digest of one `(sender, round, record)` entry, used
/// as the XOR term this entry contributes to [`VoteStore::fingerprint`]:
/// a single vote for `first`, or, with `second`, an equivocation whose
/// evidence is the first two distinct tips.
///
/// The equivocated arm is symmetric in the two evidence tips: which of a
/// pair of equivocating votes arrived first is a delivery-order accident
/// that never affects the tally (the sender is discarded either way), so
/// it must not split otherwise-identical stores into different
/// fingerprints.
fn record_digest(sender: ProcessId, round: Round, first: BlockId, second: Option<BlockId>) -> u64 {
    let key = mix64_pair(mix64(u64::from(sender.as_u32())), round.as_u64());
    match second {
        None => mix64_pair(key, first.as_u64()),
        Some(second) => {
            mix64_pair(key, u64::MAX)
                ^ mix64_pair(key, first.as_u64())
                ^ mix64_pair(key, second.as_u64())
        }
    }
}

/// One sender's record in one round: the first tip it voted for, and
/// whether it equivocated there (the second tip waits in the round's
/// [`RoundVotes::seconds`]; further tips add no evidence).
#[derive(Clone, Copy, Debug)]
struct Entry {
    sender: ProcessId,
    equivocated: bool,
    tip: BlockId,
}

// A stored vote costs one entry, whatever `n` is.
const _: () = assert!(std::mem::size_of::<Entry>() <= 16);

/// The records of one round.
#[derive(Clone, Debug, Default)]
struct RoundVotes {
    /// One entry per sender with a vote in this round, sorted by sender.
    /// Senders step in index order, so the common insert is an append.
    records: Vec<Entry>,
    /// `(sender, second tip)` of each equivocated entry, in arrival order
    /// (rare, so searched by a scan).
    seconds: Vec<(ProcessId, BlockId)>,
    /// XOR of [`record_digest`] over the round's records: what the round
    /// takes out of [`VoteStore::fingerprint`] when it expires.
    digest: u64,
    /// Distinct (sender, tip) votes in the round, an equivocated record
    /// counting 2: what the round takes out of [`VoteStore::len`].
    votes: usize,
}

impl RoundVotes {
    /// Where `sender`'s entry is (`Ok`) or would go (`Err`), checking
    /// the end first.
    fn position(&self, sender: ProcessId) -> Result<usize, usize> {
        match self.records.last() {
            None => Err(0),
            Some(last) if last.sender < sender => Err(self.records.len()),
            Some(_) => self.records.binary_search_by_key(&sender, |e| e.sender),
        }
    }

    fn get(&self, sender: ProcessId) -> Option<&Entry> {
        self.position(sender).ok().map(|at| &self.records[at])
    }

    fn second_of(&self, sender: ProcessId) -> Option<BlockId> {
        self.seconds
            .iter()
            .find(|&&(s, _)| s == sender)
            .map(|&(_, tip)| tip)
    }
}

/// Stores every vote a process has received and answers latest-in-window
/// queries.
///
/// See the crate-level docs for an example.
#[derive(Clone, Debug, Default)]
pub struct VoteStore {
    /// Round → that round's records. Votes expire a round at a time, so
    /// [`VoteStore::prune_below`] pops whole rounds from the front; the
    /// expiration rule's per-sender question walks the few rounds of its
    /// window newest first, one binary search in each.
    by_round: BTreeMap<Round, RoundVotes>,
    /// `newest[s.index()]`: the newest round sender `s` has a record in
    /// (grown on demand; `Round::ZERO` for a sender not seen). When that
    /// record expires, every older one of `s` has expired with it, so
    /// the slot names a round `s` holds exactly when `s` holds any;
    /// the next insert of `s` resets it.
    newest: Vec<Round>,
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
    /// The sender's newest-round slot is indexed by [`ProcessId::index`],
    /// so the sender must be a member of the process set: callers admit
    /// only votes that [`crate::SharedEnvelope::verified`] issued a
    /// [`crate::Sender`] for. The raw key stays while stbench's vote-store
    /// replay inserts votes directly.
    pub fn insert(&mut self, vote: Vote) -> InsertOutcome {
        let (sender, round, tip) = (vote.sender(), vote.round(), vote.tip());
        let votes = self.by_round.entry(round).or_default();
        let (digest, outcome) = match votes.position(sender) {
            Err(at) => {
                let entry = Entry {
                    sender,
                    equivocated: false,
                    tip,
                };
                votes.records.insert(at, entry);
                (
                    record_digest(sender, round, tip, None),
                    InsertOutcome::Recorded,
                )
            }
            Ok(at) => {
                let entry = &mut votes.records[at];
                if entry.tip == tip {
                    return InsertOutcome::Duplicate;
                }
                if entry.equivocated {
                    // A third distinct tip adds no evidence: the record —
                    // and with it the fingerprint — stays as-is.
                    return if votes.second_of(sender) == Some(tip) {
                        InsertOutcome::Duplicate
                    } else {
                        InsertOutcome::Equivocation
                    };
                }
                entry.equivocated = true;
                let first = entry.tip;
                votes.seconds.push((sender, tip));
                let before = record_digest(sender, round, first, None);
                let after = record_digest(sender, round, first, Some(tip));
                (before ^ after, InsertOutcome::Equivocation)
            }
        };
        votes.digest ^= digest;
        votes.votes += 1;
        self.distinct_votes += 1;
        self.fingerprint ^= digest;
        if outcome == InsertOutcome::Recorded {
            self.note_newest(sender, round);
        }
        outcome
    }

    /// Keeps `newest` an upper bound on `sender`'s stored rounds after a
    /// record at `round` was added: a newer round raises it, and an older
    /// one replaces it when the record it names has expired (the sender
    /// then has no other record, so `round` is its newest).
    fn note_newest(&mut self, sender: ProcessId, round: Round) {
        let slot = sender.index();
        if slot >= self.newest.len() {
            self.newest.resize(slot + 1, Round::ZERO);
        }
        let newest = self.newest[slot];
        if round > newest || !self.holds(sender, newest) {
            self.newest[slot] = round;
        }
    }

    /// Whether `sender` has a record in `round`.
    fn holds(&self, sender: ProcessId, round: Round) -> bool {
        self.by_round
            .get(&round)
            .is_some_and(|votes| votes.get(sender).is_some())
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
    ///
    /// Walks the rounds of `[lo, min(hi, newest)]` newest first, where
    /// `newest` bounds the sender's stored rounds, so rounds other
    /// senders filled above the sender's own are never visited.
    pub fn latest_of(
        &self,
        sender: ProcessId,
        lo: Round,
        hi: Round,
    ) -> Option<(Round, Option<BlockId>)> {
        let hi = hi.min(*self.newest.get(sender.index())?);
        if lo > hi {
            return None;
        }
        self.by_round
            .range(lo..=hi)
            .rev()
            .find_map(|(&round, votes)| {
                let entry = votes.get(sender)?;
                Some((round, (!entry.equivocated).then_some(entry.tip)))
            })
    }

    /// Whether `sender` has a record in some round above `hi` — one read
    /// of its newest round unless that round is above `hi`.
    pub fn has_record_above(&self, sender: ProcessId, hi: Round) -> bool {
        self.newest
            .get(sender.index())
            .is_some_and(|&newest| newest > hi && self.holds(sender, newest))
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
        let mut out = LatestVotes::empty();
        self.latest_in_window_into(lo, hi, &mut out);
        out
    }

    /// [`VoteStore::latest_in_window`] into a caller-owned buffer, reusing
    /// its allocations (for callers that query every round).
    ///
    /// Walks the window's rounds newest first into the buffer's dense
    /// per-sender scratch, where the first record seen for a sender is
    /// its latest, then reads the scratch in sender order: the output is
    /// sorted by sender without a sort.
    pub fn latest_in_window_into(&self, lo: Round, hi: Round, out: &mut LatestVotes) {
        out.votes.clear();
        if lo > hi {
            return;
        }
        let latest = &mut out.latest;
        for (&round, votes) in self.by_round.range(lo..=hi).rev() {
            for entry in &votes.records {
                let slot = entry.sender.index();
                if slot >= latest.len() {
                    latest.resize(slot + 1, None);
                }
                if latest[slot].is_none() {
                    latest[slot] = Some((round, (!entry.equivocated).then_some(entry.tip)));
                }
            }
        }
        for (slot, seen) in latest.iter_mut().enumerate() {
            // An equivocated latest record discards the sender.
            if let Some((round, Some(tip))) = seen.take() {
                out.votes.push((ProcessId::new(slot as u32), round, tip));
            }
        }
    }

    /// Drops all votes from rounds strictly below `lo` (they can never
    /// again fall inside an expiration window once `r − η ≥ lo`). Keeps
    /// memory proportional to `n · η`.
    ///
    /// Called once per round from the protocol's send phase, so the cost
    /// scales with what is *actually removed*: whole rounds are popped
    /// from the front while they are expired (usually one, often none),
    /// each leaving the count and the fingerprint in one step, its
    /// records unvisited.
    pub fn prune_below(&mut self, lo: Round) {
        while let Some(first) = self.by_round.first_entry() {
            if *first.key() >= lo {
                break;
            }
            let expired = first.remove();
            self.distinct_votes -= expired.votes;
            self.fingerprint ^= expired.digest;
        }
    }
}

/// The result of a latest-in-window query: at most one vote per sender,
/// equivocators excluded. This is the set `M_i^r` the graded-agreement
/// tally runs over.
#[derive(Clone, Debug, Default)]
pub struct LatestVotes {
    /// `(sender, round the vote was cast in, tip voted for)`, sorted by
    /// sender.
    votes: Vec<(ProcessId, Round, BlockId)>,
    /// Query scratch, indexed by sender: the latest record seen so far
    /// (its tip unless equivocated). Empty between queries.
    latest: Vec<Option<(Round, Option<BlockId>)>>,
}

impl PartialEq for LatestVotes {
    fn eq(&self, other: &LatestVotes) -> bool {
        self.votes == other.votes
    }
}

impl Eq for LatestVotes {}

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
        assert_eq!(s.by_round.len(), 1);
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

    #[test]
    fn record_above_is_exact_across_expiry() {
        let mut s = VoteStore::new();
        let p1 = ProcessId::new(1);
        s.insert(v(1, 9, 90));
        assert!(s.has_record_above(p1, Round::new(8)));
        assert!(!s.has_record_above(p1, Round::new(9)));
        assert!(!s.has_record_above(ProcessId::new(7), Round::ZERO));
        // Round 9 expires; a late round-6 vote is the sender's newest.
        s.prune_below(Round::new(10));
        assert!(!s.has_record_above(p1, Round::new(5)));
        assert_eq!(s.latest_of(p1, Round::ZERO, Round::new(u64::MAX)), None);
        s.insert(v(1, 6, 60));
        assert!(s.has_record_above(p1, Round::new(5)));
        assert!(!s.has_record_above(p1, Round::new(6)));
        assert_eq!(
            s.latest_of(p1, Round::ZERO, Round::new(u64::MAX)),
            Some((Round::new(6), Some(BlockId::new(60))))
        );
    }

    #[test]
    fn a_future_flood_from_one_sender_leaves_the_others_exact() {
        let mut s = VoteStore::new();
        for sender in 0..4 {
            for round in 1..=6 {
                s.insert(v(sender, round, u64::from(sender) * 100 + round));
            }
        }
        s.insert(v(2, 6, 999)); // p2 equivocates in its latest round
        let flooder = ProcessId::new(3);
        for round in 1_000..11_000 {
            s.insert(v(3, round, round));
        }
        let (lo, hi) = (Round::new(2), Round::new(5));
        let window = s.latest_in_window(lo, Round::new(6));
        assert_eq!(window.participation(), 3, "p2 is discarded, p3 counted");
        for sender in [0u32, 1] {
            let p = ProcessId::new(sender);
            let latest = Some(BlockId::new(u64::from(sender) * 100 + 6));
            assert_eq!(window.vote_of(p), latest);
            assert_eq!(
                s.latest_of(p, lo, Round::new(u64::MAX)),
                Some((Round::new(6), latest))
            );
            assert_eq!(
                s.latest_of(p, lo, hi),
                Some((hi, Some(BlockId::new(u64::from(sender) * 100 + 5))))
            );
            assert!(!s.has_record_above(p, Round::new(6)));
        }
        assert_eq!(
            s.latest_of(ProcessId::new(2), lo, Round::new(u64::MAX)),
            Some((Round::new(6), None))
        );
        assert!(s.has_record_above(flooder, Round::new(6)));
        assert_eq!(
            s.latest_of(flooder, lo, Round::new(u64::MAX)),
            Some((Round::new(10_999), Some(BlockId::new(10_999))))
        );
        assert_eq!(s.len(), 4 * 6 + 1 + 10_000);
        // Pruning takes exactly the expired rounds: 1 and 2 of the
        // honest senders, then the flood's rounds below 5 000.
        s.prune_below(Round::new(3));
        assert_eq!(s.len(), 4 * 4 + 1 + 10_000);
        assert_eq!(s.by_round.len(), 4 + 10_000);
        s.prune_below(Round::new(5_000));
        assert_eq!(s.len(), 6_000);
        assert_eq!(s.by_round.len(), 6_000);
        assert_eq!(s.latest_of(ProcessId::new(0), Round::ZERO, hi), None);
        assert!(s
            .latest_in_window(Round::ZERO, Round::new(4_999))
            .is_empty());
    }

    #[test]
    fn a_new_store_holds_no_allocation() {
        let s = VoteStore::new();
        assert_eq!(s.newest.capacity(), 0);
        assert!(s.by_round.is_empty());
        assert_eq!(LatestVotes::empty().latest.capacity(), 0);
    }
}
