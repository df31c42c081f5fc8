//! Identifier newtypes: processes, rounds, views, blocks, transactions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a process `p_i` in the system `P = {p_1, …, p_n}`.
///
/// Process ids are dense indices in `0..n`, which lets simulator components
/// use them directly as `Vec` indices.
///
/// ```
/// use st_types::ProcessId;
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from its dense index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the dense index of this process (`0..n`).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterator over all process ids of a system of `n` processes.
    ///
    /// ```
    /// use st_types::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids.len(), 3);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> + Clone {
        (0..n as u32).map(ProcessId)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// A protocol round.
///
/// An execution proceeds in rounds `0, 1, 2, …`; each round has a send phase
/// at its beginning and a receive phase at its end (Section 2.1). Round 0 is
/// the single round of view 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Round(u64);

impl Round {
    /// The first round of an execution (view 0's propose round).
    pub const ZERO: Round = Round(0);

    /// Creates a round from its number.
    pub const fn new(r: u64) -> Self {
        Round(r)
    }

    /// Returns the round number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next round.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The previous round, or `None` for round 0.
    pub const fn prev(self) -> Option<Round> {
        match self.0 {
            0 => None,
            r => Some(Round(r - 1)),
        }
    }

    /// Saturating subtraction: `self - k`, clamped at round 0.
    ///
    /// Used to compute the start of an expiration window `[r − η, r]`.
    pub const fn saturating_sub(self, k: u64) -> Round {
        Round(self.0.saturating_sub(k))
    }

    /// Whether this round lies in the closed interval `[lo, hi]`.
    pub fn in_window(self, lo: Round, hi: Round) -> bool {
        lo <= self && self <= hi
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(v: u64) -> Self {
        Round(v)
    }
}

/// A protocol view.
///
/// View 0 lasts one round (round 0); every later view `v ≥ 1` spans the two
/// rounds `2v − 1` and `2v` (Algorithm 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct View(u64);

impl View {
    /// The bootstrap view (a single propose round).
    pub const ZERO: View = View(0);

    /// Creates a view from its number.
    pub const fn new(v: u64) -> Self {
        View(v)
    }

    /// Returns the view number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The next view.
    pub const fn next(self) -> View {
        View(self.0 + 1)
    }

    /// First round of this view: round 0 for view 0, `2v − 1` otherwise.
    /// Only the tests that pin the view↔round mapping need it.
    #[cfg(test)]
    pub const fn first_round(self) -> Round {
        match self.0 {
            0 => Round(0),
            v => Round(2 * v - 1),
        }
    }

    /// Second round of this view, `2v`. View 0 has no second round and
    /// returns `None`. Only the tests that pin the view↔round mapping
    /// need it.
    #[cfg(test)]
    pub const fn second_round(self) -> Option<Round> {
        match self.0 {
            0 => None,
            v => Some(Round(2 * v)),
        }
    }

    /// The view a given round belongs to.
    ///
    /// ```
    /// use st_types::{Round, View};
    /// assert_eq!(View::from_round(Round::new(0)), View::new(0));
    /// assert_eq!(View::from_round(Round::new(1)), View::new(1));
    /// assert_eq!(View::from_round(Round::new(2)), View::new(1));
    /// assert_eq!(View::from_round(Round::new(7)), View::new(4));
    /// ```
    pub const fn from_round(r: Round) -> View {
        View(r.as_u64().div_ceil(2))
    }
}

impl fmt::Debug for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for View {
    fn from(v: u64) -> Self {
        View(v)
    }
}

/// Content-address of a block (a 64-bit hash in this simulation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(u64);

impl BlockId {
    /// The id of the genesis block `b₀`.
    pub const GENESIS: BlockId = BlockId(0);

    /// Creates a block id from a hash value.
    pub const fn new(h: u64) -> Self {
        BlockId(h)
    }

    /// Returns the raw hash value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is the genesis block id.
    pub const fn is_genesis(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_genesis() {
            write!(f, "b0(genesis)")
        } else {
            write!(f, "b{:016x}", self.0)
        }
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a transaction carried in a block payload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxId(u64);

impl TxId {
    /// Creates a transaction id.
    pub const fn new(v: u64) -> Self {
        TxId(v)
    }

    /// Returns the raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.as_u32(), 7);
        assert_eq!(format!("{p}"), "p7");
        assert_eq!(ProcessId::from(7u32), p);
    }

    #[test]
    fn process_id_all_enumerates_dense_indices() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(
            ids,
            vec![
                ProcessId::new(0),
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(3)
            ]
        );
    }

    #[test]
    fn round_arithmetic() {
        let r = Round::new(5);
        assert_eq!(r.next(), Round::new(6));
        assert_eq!(r.prev(), Some(Round::new(4)));
        assert_eq!(Round::ZERO.prev(), None);
        assert_eq!(r.saturating_sub(10), Round::ZERO);
        assert_eq!(r.saturating_sub(2), Round::new(3));
    }

    #[test]
    fn round_window_membership() {
        let r = Round::new(5);
        assert!(r.in_window(Round::new(3), Round::new(5)));
        assert!(r.in_window(Round::new(5), Round::new(5)));
        assert!(!r.in_window(Round::new(6), Round::new(9)));
        assert!(!r.in_window(Round::new(1), Round::new(4)));
    }

    #[test]
    fn view_round_mapping_matches_algorithm_1() {
        // View 0 is round 0 only; view v >= 1 spans rounds 2v-1 and 2v.
        assert_eq!(View::ZERO.first_round(), Round::ZERO);
        assert_eq!(View::ZERO.second_round(), None);
        for v in 1u64..50 {
            let view = View::new(v);
            assert_eq!(view.first_round(), Round::new(2 * v - 1));
            assert_eq!(view.second_round(), Some(Round::new(2 * v)));
            assert_eq!(View::from_round(view.first_round()), view);
            assert_eq!(View::from_round(view.second_round().unwrap()), view);
        }
    }

    #[test]
    fn view_from_round_is_total() {
        for r in 0u64..100 {
            let v = View::from_round(Round::new(r));
            let first = v.first_round().as_u64();
            let last = v.second_round().map(|x| x.as_u64()).unwrap_or(first);
            assert!(first <= r && r <= last, "round {r} not inside view {v}");
        }
    }

    #[test]
    fn block_id_genesis() {
        assert!(BlockId::GENESIS.is_genesis());
        assert!(!BlockId::new(1).is_genesis());
        assert_eq!(format!("{:?}", BlockId::GENESIS), "b0(genesis)");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Round::new(2) < Round::new(10));
        assert!(View::new(2) < View::new(10));
        assert!(ProcessId::new(2) < ProcessId::new(10));
    }
}
