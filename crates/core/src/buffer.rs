//! Proposal bodies that have arrived but are not (yet) in a tree.
//!
//! During asynchrony the adversary can deliver a proposal whose ancestor
//! blocks have not arrived yet (selective delivery), so [`BodyStore`]
//! parks such orphans and retries them whenever a parent lands: a tree
//! only ever contains fully connected chains. It is lazy: a connected
//! body enters the tree only once something references it — a stored
//! vote names it, or a descendant is admitted. Under full participation
//! one of a view's `n` proposals is ever voted for, so the other `n − 1`
//! bodies stay in a compact id → body map instead of becoming arena
//! nodes in every receiver's tree. They leave it once the vote store's
//! pruning edge passes their view, so under synchrony the store holds
//! the bodies of the last `η + 3` views, not of the whole run.

use st_blocktree::{Block, BlockTree};
use st_types::fasthash::mix64;
use st_types::{BlockId, FastMap, Round, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parks the orphan `b` under its parent, once.
fn park(waiting: &mut FastMap<BlockId, Vec<Arc<Block>>>, b: Arc<Block>) {
    let entry = waiting.entry(b.parent()).or_default();
    if !entry.contains(&b) {
        entry.push(b);
    }
}

/// Every proposal body one process holds outside its tree, split by
/// whether its ancestry is known, and kept only while a vote could still
/// name it.
///
/// A body is *connected* once its whole ancestry down to genesis is
/// held. A connected body lives in exactly one of two places: the
/// caller's [`BlockTree`] arena once it is *referenced* — a stored vote
/// names it ([`BodyStore::reference`]) or a descendant was admitted —
/// and this store's `loose` map (one id → `Arc` entry, no arena node)
/// until then. Orphans park until their parent connects.
///
/// A caller that passes every vote it stores to [`BodyStore::reference`]
/// keeps the invariant its tally relies on: no stored vote names a loose
/// body, so every connected body named by a stored vote is in the arena.
/// A tally reads only the chains of the tips its votes name, and an
/// arena member's parents are in the arena too, so a tally over the
/// arena equals the tally over every connected body.
///
/// [`BodyStore::prune_below`] drops the loose and parked bodies of
/// expired views. A loose body stays while a loose descendant of an
/// unexpired view does, so the parent of every loose body is connected
/// and admission never meets a gap. Arena members are never dropped.
#[derive(Clone, Debug, Default)]
pub(crate) struct BodyStore {
    /// Connected bodies not in the arena.
    loose: FastMap<BlockId, Loose>,
    /// parent id → orphans waiting for it.
    waiting: FastMap<BlockId, Vec<Arc<Block>>>,
    /// Tips a stored vote names whose bodies are not connected yet, with
    /// the latest round of such a vote: admitted the moment they connect,
    /// forgotten once every vote naming them has been pruned.
    wanted: FastMap<BlockId, Round>,
    /// XOR of [`mix64`] over the `loose` ids.
    loose_fingerprint: u64,
    /// The same XOR split by [`Loose::newest`]: popping the buckets
    /// below an edge says what leaves the digest, and whether anything
    /// leaves at all.
    by_newest: BTreeMap<View, u64>,
}

/// A connected body outside the arena.
#[derive(Clone, Debug)]
struct Loose {
    block: Arc<Block>,
    /// The newest view among this body and every loose body that has
    /// connected below it. It stays at least the body's own view, so the
    /// body expires only once the last of its loose descendants does, and
    /// it never shrinks, which is sound because a descendant that leaves
    /// either takes this body into the arena with it or has expired.
    newest: View,
}

impl BodyStore {
    /// Creates an empty store.
    pub(crate) fn new() -> BodyStore {
        BodyStore::default()
    }

    /// Number of bodies held outside the arena, loose or parked.
    pub(crate) fn len(&self) -> usize {
        let parked: usize = self
            .waiting
            .iter_sorted()
            .map(|(_, orphans)| orphans.len())
            .sum();
        self.loose.len() + parked
    }

    /// Whether `id`'s body and its whole ancestry are held (in `tree`
    /// or loose here).
    fn is_connected(&self, tree: &BlockTree, id: BlockId) -> bool {
        tree.contains(id) || self.loose.contains_key(&id)
    }

    /// XOR of [`mix64`] over every connected body id: the tree's and the
    /// retained loose ones. The two sets are disjoint, so this is the
    /// [`BlockTree::fingerprint`] of a tree holding exactly the connected
    /// bodies, whichever of them have been admitted. A pruned body is not
    /// connected, so its id is not in the digest.
    pub(crate) fn connected_fingerprint(&self, tree: &BlockTree) -> u64 {
        tree.fingerprint() ^ self.loose_fingerprint
    }

    /// Adds or removes `id`'s term in both loose digests.
    fn toggle(&mut self, id: BlockId, newest: View) {
        let term = mix64(id.as_u64());
        self.loose_fingerprint ^= term;
        *self.by_newest.entry(newest).or_default() ^= term;
    }

    /// Takes a received or self-built body. It parks if its parent is not
    /// connected; otherwise it connects — entering `tree` at once if a
    /// stored vote already names it — and so does every orphan waiting on
    /// it, recursively. Re-delivery of a held body is a no-op; a pruned
    /// one is taken again.
    pub(crate) fn insert(&mut self, tree: &mut BlockTree, block: Arc<Block>) {
        // The work queue allocates only once parked children connect.
        let mut queue = Vec::new();
        let mut next = Some(block);
        while let Some(b) = next.take().or_else(|| queue.pop()) {
            let id = b.id();
            if self.is_connected(tree, id) {
                continue;
            }
            if !self.is_connected(tree, b.parent()) {
                park(&mut self.waiting, b);
                continue;
            }
            if let Some(children) = self.waiting.remove(&id) {
                queue.extend(children);
            }
            let newest = b.view();
            self.raise_newest(b.parent(), newest);
            self.toggle(id, newest);
            self.loose.insert(id, Loose { block: b, newest });
            if self.wanted.remove(&id).is_some() {
                self.admit(tree, id);
            }
        }
    }

    /// Lifts [`Loose::newest`] to at least `view` on the loose body `id`
    /// and its loose ancestors. Each one's `newest` is at least its
    /// children's, so the walk stops at the first body already there.
    fn raise_newest(&mut self, mut id: BlockId, view: View) {
        while let Some(loose) = self.loose.get_mut(&id) {
            if loose.newest >= view {
                return;
            }
            let term = mix64(id.as_u64());
            *self.by_newest.entry(loose.newest).or_default() ^= term;
            *self.by_newest.entry(view).or_default() ^= term;
            loose.newest = view;
            id = loose.block.parent();
        }
    }

    /// Records that a stored vote of `round` names `tip`: admits the body
    /// if it is connected, else remembers the name until it connects.
    pub(crate) fn reference(&mut self, tree: &mut BlockTree, tip: BlockId, round: Round) {
        if !self.admit(tree, tip) {
            let latest = self.wanted.entry(tip).or_insert(round);
            *latest = (*latest).max(round);
        }
    }

    /// Moves the connected body `tip` and every loose ancestor into
    /// `tree`, parents first. Returns whether `tip` is in `tree`
    /// afterwards — `false` exactly when it is not connected.
    fn admit(&mut self, tree: &mut BlockTree, tip: BlockId) -> bool {
        if tree.contains(tip) {
            return true;
        }
        if !self.loose.contains_key(&tip) {
            return false;
        }
        // A loose body's parent is connected, so the walk ends at an
        // arena member.
        let mut path = Vec::new();
        let mut cur = tip;
        while let Some(loose) = self.loose.remove(&cur) {
            self.toggle(cur, loose.newest);
            cur = loose.block.parent();
            path.push(loose.block);
        }
        for b in path.into_iter().rev() {
            match tree.insert_or_get(b) {
                Ok(_) => {}
                #[expect(
                    clippy::unreachable,
                    reason = "the walk above stopped at an arena member and inserts parents first"
                )]
                Err(_) => unreachable!("every parent is admitted before its child"),
            }
        }
        true
    }

    /// Whether `tip` is connected and its log is compatible with the log
    /// of `base`, an arena member. A loose body is never an ancestor of an
    /// arena member (the arena holds the parents of all its members), so
    /// a loose `tip` is compatible exactly when `base` is a prefix of its
    /// nearest arena ancestor's log.
    pub(crate) fn compatible(&self, tree: &BlockTree, tip: BlockId, base: BlockId) -> bool {
        let mut cur = tip;
        while !tree.contains(cur) {
            match self.loose.get(&cur) {
                Some(loose) => cur = loose.block.parent(),
                None => return false,
            }
        }
        if cur == tip {
            tree.compatible(tip, base)
        } else {
            tree.is_ancestor(base, cur)
        }
    }

    /// Forgets what only rounds below `lo` could use — called with the
    /// vote store's own pruning edge, so votes and bodies expire together:
    /// wanted tips that only votes of rounds below `lo` named, and the
    /// loose and parked bodies of every view `v` with `2v − 1 < lo` (the
    /// round in which view-`v` bodies are first voted on). A loose body
    /// stays while a loose descendant of an unexpired view does.
    ///
    /// The digest buckets say whether anything leaves, and only then
    /// does one pass over the loose map drop it: a
    /// view expires every other round, and a sequential pass over the
    /// `(η + 3)·n` bodies held costs less than looking each expired one
    /// up.
    pub(crate) fn prune_below(&mut self, lo: Round) {
        self.wanted.retain(|_, latest| *latest >= lo);
        // The first view v with 2v − 1 ≥ lo.
        let keep_from = View::new(lo.as_u64() / 2 + 1);
        self.waiting.retain(|_, orphans| {
            orphans.retain(|b| b.view() >= keep_from);
            !orphans.is_empty()
        });
        let mut expired = false;
        while let Some(entry) = self.by_newest.first_entry() {
            if *entry.key() >= keep_from {
                break;
            }
            self.loose_fingerprint ^= entry.remove();
            expired = true;
        }
        if expired {
            self.loose.retain(|_, loose| loose.newest >= keep_from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::ProcessId;

    fn blocks_chain(len: usize) -> Vec<Block> {
        let mut out: Vec<Block> = Vec::new();
        let mut parent = BlockId::GENESIS;
        for i in 0..len {
            let b = Block::build(parent, View::new(i as u64 + 1), ProcessId::new(0), vec![]);
            parent = b.id();
            out.push(b);
        }
        out
    }

    #[test]
    fn body_store_admits_only_referenced_bodies_with_their_ancestors() {
        let mut tree = BlockTree::new();
        let mut bodies = BodyStore::new();
        let chain = blocks_chain(3);
        for b in &chain {
            bodies.insert(&mut tree, Arc::new(b.clone()));
        }
        assert!(tree.is_empty(), "nothing referenced yet");
        bodies.reference(&mut tree, chain[1].id(), Round::new(1));
        assert_eq!(tree.len(), 3, "the named body and its parent");
        assert!(!tree.contains(chain[2].id()));
        // The chain's tip is compatible with its admitted parent's log,
        // and not with a sibling of that parent.
        let side = Block::build(chain[0].id(), View::new(9), ProcessId::new(1), vec![]);
        bodies.insert(&mut tree, Arc::new(side.clone()));
        bodies.reference(&mut tree, side.id(), Round::new(1));
        assert!(bodies.compatible(&tree, chain[2].id(), chain[1].id()));
        assert!(!bodies.compatible(&tree, chain[2].id(), side.id()));
    }

    #[test]
    fn named_orphan_enters_on_connect_and_name_expires_with_its_votes() {
        let mut tree = BlockTree::new();
        let mut bodies = BodyStore::new();
        let chain = blocks_chain(3);
        bodies.insert(&mut tree, Arc::new(chain[2].clone()));
        bodies.insert(&mut tree, Arc::new(chain[1].clone()));
        bodies.reference(&mut tree, chain[2].id(), Round::new(4));
        assert!(!bodies.compatible(&tree, chain[2].id(), BlockId::GENESIS));
        bodies.insert(&mut tree, Arc::new(chain[0].clone()));
        assert_eq!(tree.len(), 4, "the whole chain connects into the tree");

        // A name whose votes were all pruned admits nothing.
        let late = Block::build(BlockId::GENESIS, View::new(7), ProcessId::new(2), vec![]);
        bodies.reference(&mut tree, late.id(), Round::new(4));
        bodies.prune_below(Round::new(5));
        bodies.insert(&mut tree, Arc::new(late.clone()));
        assert!(!tree.contains(late.id()));
    }

    #[test]
    fn pruning_keeps_an_expired_body_while_a_loose_child_does() {
        let mut tree = BlockTree::new();
        let mut bodies = BodyStore::new();
        let x = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(0), vec![]);
        let y = Block::build(x.id(), View::new(3), ProcessId::new(0), vec![]);
        let z = Block::build(BlockId::GENESIS, View::new(1), ProcessId::new(1), vec![]);
        let orphan = Block::build(BlockId::new(7), View::new(1), ProcessId::new(2), vec![]);
        for b in [&x, &y, &z, &orphan] {
            bodies.insert(&mut tree, Arc::new(b.clone()));
        }
        assert_eq!(bodies.len(), 4);
        let all = bodies.connected_fingerprint(&tree);
        // Edge 2 expires view 1 (first voted on in round 1): z and the
        // orphan go, x stays for its loose child y.
        bodies.prune_below(Round::new(2));
        assert_eq!(bodies.len(), 2);
        assert_eq!(
            bodies.connected_fingerprint(&tree),
            all ^ mix64(z.id().as_u64())
        );
        // Edge 6 expires view 3: y goes, and x with it.
        bodies.prune_below(Round::new(6));
        assert_eq!(bodies.len(), 0);
        assert_eq!(bodies.connected_fingerprint(&tree), tree.fingerprint());
    }

    #[test]
    fn orphans_park_once_and_connect_when_the_root_lands() {
        let mut tree = BlockTree::new();
        let mut bodies = BodyStore::new();
        let chain = blocks_chain(4);
        // Children first, each twice: every orphan is parked once.
        for b in chain[1..].iter().rev() {
            bodies.insert(&mut tree, Arc::new(b.clone()));
            bodies.insert(&mut tree, Arc::new(b.clone()));
        }
        assert_eq!(bodies.len(), 3);
        // The root connects the whole chain; naming the tip admits it.
        bodies.insert(&mut tree, Arc::new(chain[0].clone()));
        assert_eq!(bodies.len(), 4);
        bodies.reference(&mut tree, chain[3].id(), Round::new(7));
        assert_eq!((bodies.len(), tree.len()), (0, 5));
    }

    #[test]
    fn connected_fingerprint_is_the_eager_trees() {
        let chain = blocks_chain(4);
        let mut eager = BlockTree::new();
        let mut tree = BlockTree::new();
        let mut bodies = BodyStore::new();
        // Children first: orphans are not connected, so neither side
        // counts them until the root lands, and then the eager tree
        // holds the whole chain.
        for b in chain.iter().rev() {
            if b.id() == chain[0].id() {
                for c in &chain {
                    eager.insert(c.clone()).expect("parents first");
                }
            }
            bodies.insert(&mut tree, Arc::new(b.clone()));
            assert_eq!(bodies.connected_fingerprint(&tree), eager.fingerprint());
            bodies.reference(&mut tree, chain[1].id(), Round::new(1));
            assert_eq!(bodies.connected_fingerprint(&tree), eager.fingerprint());
        }
        assert_eq!(tree.len(), 3);
        assert_eq!(eager.len(), 5);
    }
}
