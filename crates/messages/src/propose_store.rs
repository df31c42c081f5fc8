//! Per-view proposal store with VRF-based leader selection.

use crate::envelope::KeyDirectory;
use crate::Propose;
use st_crypto::VrfOutput;
use st_types::{BlockId, View};
use std::collections::BTreeMap;

/// Stores the proposals received for each view and selects the leader's
/// proposal: the one with the **largest valid VRF(v)** (Algorithm 1,
/// round 1 of view v).
///
/// Equivocating proposers (several distinct proposals for one view) are
/// allowed by the model; selection applies a caller-supplied admissibility
/// filter (the "not conflicting with `L_{v−1}`" check) and breaks VRF ties
/// deterministically so that all honest processes with the same message set
/// choose the same proposal.
///
/// Each view's proposals are ordered by `(VRF value, tip)`, the order the
/// leader rule reads them in: selection walks down from the largest key
/// and stops at the first admissible proposal — in the common case one
/// compatibility check, not one per proposer — and an insert is one
/// `O(log n)` map probe whatever the arrival order.
///
/// The key is also the duplicate check. A VRF value belongs to one
/// sender and one view, so two proposals share a key only when the same
/// sender proposed the same block, possibly with a different round tag;
/// the second is dropped. Selection cannot tell the two apart: they tie
/// on `(VRF, tip)` and callers read only the selected proposal's tip.
#[derive(Clone, Debug, Default)]
pub struct ProposeStore {
    /// view → (VRF value, tip) → proposal.
    by_view: BTreeMap<View, BTreeMap<(VrfOutput, BlockId), Propose>>,
}

impl ProposeStore {
    /// Creates an empty store.
    pub fn new() -> ProposeStore {
        ProposeStore::default()
    }

    /// Records a proposal after verifying its VRF evaluation; returns
    /// whether it was accepted (invalid VRFs are discarded, duplicates
    /// ignored).
    pub fn insert(&mut self, proposal: Propose, directory: &KeyDirectory) -> bool {
        proposal.vrf_valid(directory) && self.insert_verified(proposal)
    }

    /// [`ProposeStore::insert`] for a proposal whose VRF the caller has
    /// already verified (the verdict [`crate::SharedEnvelope::verified`]
    /// yields, or the process's own evaluation); returns whether it was
    /// new. The two methods stay apart while stbench's proposal-store
    /// replay calls the verifying one.
    pub fn insert_verified(&mut self, proposal: Propose) -> bool {
        let key = (proposal.vrf_value(), proposal.tip());
        let view = self.by_view.entry(proposal.view()).or_default();
        if view.contains_key(&key) {
            return false;
        }
        view.insert(key, proposal);
        true
    }

    /// All proposals recorded for `view`, in `(VRF, tip)` order.
    #[cfg(test)]
    fn proposals_for(&self, view: View) -> Vec<&Propose> {
        self.by_view
            .get(&view)
            .map(|ps| ps.values().collect())
            .unwrap_or_default()
    }

    /// Selects the proposal for `view` with the largest valid VRF among
    /// those satisfying `admissible` (Algorithm 1: "a log in the propose
    /// message with the largest valid VRF(v) not conflicting with
    /// `L_{v−1}`").
    ///
    /// Ties (only possible when one sender equivocates, since VRF values
    /// are sender-unique per view) break by larger tip id so that honest
    /// processes holding the same proposal set agree. `admissible` is
    /// called in descending `(VRF, tip)` order, only until it first
    /// accepts.
    pub fn select_leader_proposal<F>(&self, view: View, mut admissible: F) -> Option<&Propose>
    where
        F: FnMut(&Propose) -> bool,
    {
        self.by_view
            .get(&view)?
            .values()
            .rev()
            .find(|p| admissible(p))
    }

    /// Drops proposals for views strictly below `view` (past views can no
    /// longer be voted on).
    pub fn prune_below(&mut self, view: View) {
        self.by_view = self.by_view.split_off(&view);
    }

    /// Number of views with at least one stored proposal.
    #[cfg(test)]
    fn views_tracked(&self) -> usize {
        self.by_view.len()
    }

    /// The distinct proposers recorded for `view`, in id order.
    #[cfg(test)]
    fn proposers_for(&self, view: View) -> Vec<st_types::ProcessId> {
        let mut senders: Vec<_> = self
            .proposals_for(view)
            .into_iter()
            .map(Propose::sender)
            .collect();
        senders.sort_unstable();
        senders.dedup();
        senders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::KeyDirectory;
    use st_blocktree::Block;
    use st_crypto::Keypair;
    use st_types::{ProcessId, Round, TxId};

    fn mk_proposal(kp: &Keypair, view: u64, tx: u64) -> Propose {
        let (value, proof) = kp.vrf_eval(view);
        let block = Block::build(
            BlockId::GENESIS,
            View::new(view),
            kp.owner(),
            vec![TxId::new(tx)],
        );
        Propose::new(
            kp.owner(),
            Round::new(view.saturating_mul(2).saturating_sub(2)),
            View::new(view),
            block,
            value,
            proof,
        )
    }

    fn setup(n: usize) -> (Vec<Keypair>, KeyDirectory) {
        let kps: Vec<_> = (0..n as u32)
            .map(|i| Keypair::derive(ProcessId::new(i), 7))
            .collect();
        (kps, KeyDirectory::derive(n, 7))
    }

    #[test]
    fn valid_proposal_accepted() {
        let (kps, dir) = setup(2);
        let mut s = ProposeStore::new();
        assert!(s.insert(mk_proposal(&kps[0], 1, 10), &dir));
        assert_eq!(s.proposals_for(View::new(1)).len(), 1);
    }

    #[test]
    fn invalid_vrf_rejected() {
        let (kps, dir) = setup(2);
        let mut s = ProposeStore::new();
        let (value, proof) = kps[0].vrf_eval(2); // VRF for the wrong view
        let block = Block::build(BlockId::GENESIS, View::new(1), kps[0].owner(), vec![]);
        let p = Propose::new(
            kps[0].owner(),
            Round::ZERO,
            View::new(1),
            block,
            value,
            proof,
        );
        assert!(!s.insert(p, &dir));
        assert!(s.proposals_for(View::new(1)).is_empty());
    }

    #[test]
    fn duplicates_ignored() {
        let (kps, dir) = setup(1);
        let mut s = ProposeStore::new();
        let p = mk_proposal(&kps[0], 1, 10);
        assert!(s.insert(p.clone(), &dir));
        assert!(!s.insert(p, &dir));
        assert_eq!(s.proposals_for(View::new(1)).len(), 1);
    }

    #[test]
    fn leader_selection_takes_max_vrf() {
        let (kps, dir) = setup(8);
        let mut s = ProposeStore::new();
        for kp in &kps {
            s.insert(mk_proposal(kp, 3, 100 + kp.owner().as_u32() as u64), &dir);
        }
        let best = s.select_leader_proposal(View::new(3), |_| true).unwrap();
        let max_vrf = kps.iter().map(|k| k.vrf_eval(3).0).max().unwrap();
        assert_eq!(best.vrf_value(), max_vrf);
    }

    #[test]
    fn admissibility_filter_excludes() {
        let (kps, dir) = setup(4);
        let mut s = ProposeStore::new();
        for kp in &kps {
            s.insert(mk_proposal(kp, 1, 100 + kp.owner().as_u32() as u64), &dir);
        }
        let winner_unfiltered = s
            .select_leader_proposal(View::new(1), |_| true)
            .unwrap()
            .sender();
        // Exclude the winner; a different proposer must be selected.
        let second = s
            .select_leader_proposal(View::new(1), |p| p.sender() != winner_unfiltered)
            .unwrap();
        assert_ne!(second.sender(), winner_unfiltered);
        // Excluding everything yields None.
        assert!(s.select_leader_proposal(View::new(1), |_| false).is_none());
    }

    #[test]
    fn equivocating_proposer_tie_breaks_by_tip() {
        let (kps, dir) = setup(1);
        let mut s = ProposeStore::new();
        let p1 = mk_proposal(&kps[0], 1, 10);
        let p2 = mk_proposal(&kps[0], 1, 99);
        let expected = if p1.tip().as_u64() > p2.tip().as_u64() {
            p1.tip()
        } else {
            p2.tip()
        };
        s.insert(p1, &dir);
        s.insert(p2, &dir);
        let best = s.select_leader_proposal(View::new(1), |_| true).unwrap();
        assert_eq!(best.tip(), expected);
    }

    #[test]
    fn prune_below_drops_old_views() {
        let (kps, dir) = setup(1);
        let mut s = ProposeStore::new();
        for view in 1..=5u64 {
            s.insert(mk_proposal(&kps[0], view, view), &dir);
        }
        s.prune_below(View::new(4));
        assert_eq!(s.views_tracked(), 2);
        assert!(s.proposals_for(View::new(3)).is_empty());
        assert!(!s.proposals_for(View::new(4)).is_empty());
    }

    #[test]
    fn proposers_listed_dedup() {
        let (kps, dir) = setup(2);
        let mut s = ProposeStore::new();
        s.insert(mk_proposal(&kps[0], 1, 10), &dir);
        s.insert(mk_proposal(&kps[0], 1, 11), &dir);
        s.insert(mk_proposal(&kps[1], 1, 12), &dir);
        assert_eq!(
            s.proposers_for(View::new(1)),
            vec![ProcessId::new(0), ProcessId::new(1)]
        );
    }
}
