//! The round-indexed environment model.
//!
//! The paper's guarantees are stated against an environment that switches
//! between **synchrony** and adversary-scheduled **asynchrony**, and its
//! central claim — asynchrony *resilience* — is about recovering after
//! **every** asynchronous spell, not just one. A [`Timeline`] makes that
//! environment first-class data instead of a single special-cased window:
//!
//! * a run is synchronous by default;
//! * any number of non-overlapping [`EnvWindow`]s override the default
//!   with [`SegmentKind::Asynchronous`] (the adversary chooses delivery,
//!   as in Section 2.1) or [`SegmentKind::BoundedDelay`] (every message
//!   arrives within `Δ` rounds of being sent — the partial-synchrony
//!   regime; per-(message, receiver) delays are drawn deterministically
//!   from the run seed via [`bounded_delay_of`], or overridden by the
//!   adversary within the bound);
//! * [`Partition`] events overlay any segment for a window: message
//!   reachability is restricted to same-group (sender, receiver) pairs,
//!   and cross-group messages are queued until the partition heals —
//!   messages are delayed, never lost (footnote 2's retention).
//!
//! Each window and partition is a *disruption*: the monitors attach one
//! Definition-5 check (against `D_ra` of that window's last synchronous
//! round) and one recovery record per disruption, which is how a
//! multi-spell run demonstrates the paper's "recovers after every spell"
//! claim quantitatively.

use st_types::{ProcessId, Round};

/// The delivery regime of one timeline segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentKind {
    /// Every message sent in rounds `≤ r` reaches every awake process in
    /// the receive phase of round `r` (the paper's synchronous rounds).
    Synchronous,
    /// The adversary chooses, per receiver, an arbitrary subset of the
    /// available messages (the paper's asynchronous rounds).
    Asynchronous,
    /// Every message is delivered within `delta` rounds of being sent;
    /// the delay of each (message, receiver) pair inside `0..=delta` is
    /// chosen deterministically from the run seed, or by the adversary
    /// within the bound. `delta = 0` behaves synchronously.
    BoundedDelay {
        /// The delivery bound `Δ`, in rounds.
        delta: u64,
    },
}

/// A non-synchronous window `[start, end]` on the round axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvWindow {
    start: Round,
    end: Round,
    kind: SegmentKind,
}

impl EnvWindow {
    /// First round of the window.
    pub fn start(&self) -> Round {
        self.start
    }

    /// Last round of the window.
    pub fn end(&self) -> Round {
        self.end
    }

    /// The window's delivery regime.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// The last synchronous round before the window (`ra` in the paper's
    /// notation; windows never start at round 0).
    #[expect(
        clippy::expect_used,
        reason = "Timeline window constructors reject windows starting at round 0, so prev() always exists"
    )]
    pub fn ra(&self) -> Round {
        self.start
            .prev()
            .expect("window start > 0 enforced at build")
    }

    /// Window length in rounds (always ≥ 1 — the builders reject empty
    /// windows, so there is no `is_empty`).
    #[expect(
        clippy::len_without_is_empty,
        reason = "the builders reject empty windows"
    )]
    pub fn len(&self) -> u64 {
        self.end.as_u64() - self.start.as_u64() + 1
    }

    /// Whether `r` lies inside the window.
    pub fn contains(&self, r: Round) -> bool {
        r.in_window(self.start, self.end)
    }
}

/// A partition event: for rounds `[start, end]`, a message from sender
/// `s` can reach receiver `p` only if both lie in the same group.
/// Processes not listed in any group form one implicit residual group
/// (so a single explicit group already splits the system in two).
/// Cross-group messages are queued, not lost: they arrive once the
/// partition heals (or the adversary delivers them in a later
/// asynchronous round).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    start: Round,
    end: Round,
    groups: Vec<Vec<ProcessId>>,
}

impl Partition {
    /// First round of the partition window.
    pub fn start(&self) -> Round {
        self.start
    }

    /// Last round of the partition window.
    pub fn end(&self) -> Round {
        self.end
    }

    /// The explicit groups (the residual group is implicit).
    pub fn groups(&self) -> &[Vec<ProcessId>] {
        &self.groups
    }

    /// Whether `r` lies inside the partition window.
    pub fn contains(&self, r: Round) -> bool {
        r.in_window(self.start, self.end)
    }

    /// Dense group lookup for a system of `n` processes: `map[p] = g`,
    /// with the residual group as 0 and explicit groups numbered from 1.
    /// Built once per round by the round loop so reachability checks are
    /// two array reads per (sender, receiver) pair.
    pub fn group_map(&self, n: usize) -> Vec<u32> {
        let mut map = vec![0u32; n];
        for (g, group) in self.groups.iter().enumerate() {
            for p in group {
                map[p.index()] = g as u32 + 1;
            }
        }
        map
    }

    /// Whether `a` can exchange messages with `b` under this partition.
    pub fn reachable(&self, a: ProcessId, b: ProcessId) -> bool {
        self.group_of(a) == self.group_of(b)
    }

    fn group_of(&self, p: ProcessId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&p))
    }
}

/// The round-indexed environment model: synchronous by default, with
/// non-overlapping [`EnvWindow`]s and [`Partition`] overlays.
///
/// Built with the consuming builder methods; queried per round by the
/// round loop via [`Timeline::view_at`].
///
/// ```
/// use st_sim::{Timeline, SegmentKind};
/// use st_types::Round;
///
/// let t = Timeline::synchronous()
///     .asynchronous(Round::new(10), 4)
///     .bounded_delay(Round::new(20), 6, 2);
/// assert_eq!(t.kind_at(Round::new(9)), SegmentKind::Synchronous);
/// assert_eq!(t.kind_at(Round::new(12)), SegmentKind::Asynchronous);
/// assert_eq!(t.kind_at(Round::new(21)), SegmentKind::BoundedDelay { delta: 2 });
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    windows: Vec<EnvWindow>,
    partitions: Vec<Partition>,
}

/// One disruption (window or partition) for monitoring purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disruption {
    /// First disrupted round.
    pub start: Round,
    /// Last disrupted round.
    pub end: Round,
    /// `"async"`, `"bounded-delay"` or `"partition"`.
    pub label: &'static str,
}

impl Timeline {
    /// The all-synchronous timeline (no windows, no partitions).
    pub fn synchronous() -> Timeline {
        Timeline::default()
    }

    /// Adds an asynchronous window of `pi` rounds beginning at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `pi == 0`, `start` is round 0, or the window overlaps an
    /// existing one.
    #[must_use]
    pub fn asynchronous(self, start: Round, pi: u64) -> Timeline {
        self.window(start, pi, SegmentKind::Asynchronous)
    }

    /// Adds a bounded-delay window of `len` rounds beginning at `start`
    /// with delivery bound `delta`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Timeline::asynchronous`].
    #[must_use]
    pub fn bounded_delay(self, start: Round, len: u64, delta: u64) -> Timeline {
        self.window(start, len, SegmentKind::BoundedDelay { delta })
    }

    fn window(mut self, start: Round, len: u64, kind: SegmentKind) -> Timeline {
        assert!(len > 0, "environment window must have positive length");
        assert!(
            start > Round::ZERO,
            "the window must start after at least one synchronous round"
        );
        let window = EnvWindow {
            start,
            end: Round::new(start.as_u64() + len - 1),
            kind,
        };
        assert!(
            !self
                .windows
                .iter()
                .any(|w| w.start <= window.end && window.start <= w.end),
            "environment windows must not overlap"
        );
        self.windows.push(window);
        self.windows.sort_by_key(|w| w.start);
        self
    }

    /// Adds a partition event covering rounds `[start, start + len − 1]`
    /// with the given explicit `groups` (unlisted processes form the
    /// implicit residual group).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, `start` is round 0, `groups` is empty, a
    /// process appears in two groups, or the partition overlaps another
    /// partition (overlapping an [`EnvWindow`] is allowed — the overlay
    /// then constrains that window's delivery).
    #[must_use]
    pub fn partition(mut self, start: Round, len: u64, groups: Vec<Vec<ProcessId>>) -> Timeline {
        assert!(len > 0, "partition must have positive length");
        assert!(
            start > Round::ZERO,
            "the partition must start after at least one synchronous round"
        );
        assert!(!groups.is_empty(), "partition needs at least one group");
        let mut seen = st_types::FastSet::default();
        for p in groups.iter().flatten() {
            assert!(seen.insert(*p), "process {p} appears in two groups");
        }
        let part = Partition {
            start,
            end: Round::new(start.as_u64() + len - 1),
            groups,
        };
        assert!(
            !self
                .partitions
                .iter()
                .any(|q| q.start <= part.end && part.start <= q.end),
            "partition events must not overlap each other"
        );
        self.partitions.push(part);
        self.partitions.sort_by_key(|p| p.start);
        self
    }

    /// The configured windows, sorted by start round.
    pub fn windows(&self) -> &[EnvWindow] {
        &self.windows
    }

    /// The configured partition events, sorted by start round.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Whether the timeline has no windows and no partitions.
    pub fn is_fully_synchronous(&self) -> bool {
        self.windows.is_empty() && self.partitions.is_empty()
    }

    /// The window covering round `r`, if any.
    pub fn window_at(&self, r: Round) -> Option<&EnvWindow> {
        self.windows.iter().find(|w| w.contains(r))
    }

    /// The partition event active at round `r`, if any.
    pub fn partition_at(&self, r: Round) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.contains(r))
    }

    /// The delivery regime at round `r`.
    pub fn kind_at(&self, r: Round) -> SegmentKind {
        self.window_at(r)
            .map(|w| w.kind)
            .unwrap_or(SegmentKind::Synchronous)
    }

    /// Every disruption — windows and partitions — sorted by start round.
    /// Monitors attach one Definition-5 check and one recovery record to
    /// each.
    pub fn disruptions(&self) -> Vec<Disruption> {
        let mut out: Vec<Disruption> = self
            .windows
            .iter()
            .map(|w| Disruption {
                start: w.start,
                end: w.end,
                label: match w.kind {
                    SegmentKind::Synchronous => "sync",
                    SegmentKind::Asynchronous => "async",
                    SegmentKind::BoundedDelay { .. } => "bounded-delay",
                },
            })
            .chain(self.partitions.iter().map(|p| Disruption {
                start: p.start,
                end: p.end,
                label: "partition",
            }))
            .collect();
        out.sort_by_key(|d| (d.start, d.end));
        out
    }

    /// The environment as seen at round `r` (by the round loop and, via
    /// [`crate::AdversaryCtx`], by the adversary).
    pub fn view_at(&self, r: Round) -> EnvView {
        let partitioned = self.partition_at(r).is_some();
        match self.window_at(r) {
            None => EnvView {
                kind: SegmentKind::Synchronous,
                offset: 0,
                remaining: 0,
                global_offset: 0,
                partitioned,
            },
            Some(w) => {
                let offset = r.as_u64() - w.start.as_u64();
                let before: u64 = self
                    .windows
                    .iter()
                    .filter(|v| v.end < w.start)
                    .map(|v| v.len())
                    .sum();
                EnvView {
                    kind: w.kind,
                    offset,
                    remaining: w.end.as_u64() - r.as_u64() + 1,
                    global_offset: before + offset,
                    partitioned,
                }
            }
        }
    }
}

/// What one round of the environment looks like: the current segment and
/// the remaining budget of its window. Replaces the bare `is_async` flag
/// the adversary context used to carry — strategies that act relative to
/// a window (blackout prefixes, scripted plays) read the offsets here and
/// automatically re-arm on every new window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnvView {
    /// Delivery regime of the current segment.
    pub kind: SegmentKind,
    /// 0-based index of this round within its window (0 when
    /// synchronous).
    pub offset: u64,
    /// Rounds remaining in the current window, including this one (0 when
    /// synchronous) — the adversary's remaining budget for this spell.
    pub remaining: u64,
    /// Index of this round in the concatenation of *all* window rounds of
    /// the timeline (0 when synchronous) — lets scripted strategies
    /// address a multi-window run with one flat script.
    pub global_offset: u64,
    /// Whether a partition event overlays this round.
    pub partitioned: bool,
}

impl EnvView {
    /// The view of a plain synchronous round.
    pub fn synchronous() -> EnvView {
        EnvView {
            kind: SegmentKind::Synchronous,
            offset: 0,
            remaining: 0,
            global_offset: 0,
            partitioned: false,
        }
    }

    /// Whether the current segment is adversary-scheduled asynchrony.
    pub fn is_async(&self) -> bool {
        self.kind == SegmentKind::Asynchronous
    }

    /// The bounded-delay `Δ`, if the current segment is bounded-delay.
    pub fn delta(&self) -> Option<u64> {
        match self.kind {
            SegmentKind::BoundedDelay { delta } => Some(delta),
            _ => None,
        }
    }
}

/// The deterministic per-(message, receiver) delay of a bounded-delay
/// segment: a value in `0..=delta` derived from the run seed, the
/// message's **global** pool index (stable across
/// [`crate::Network::compact`]) and the receiver — a pure function, so
/// the same message gets the same delay no matter when or how often it
/// is asked, which is what keeps bounded-delay runs byte-reproducible.
pub fn bounded_delay_of(seed: u64, msg_index: usize, receiver: ProcessId, delta: u64) -> u64 {
    if delta == 0 {
        return 0;
    }
    // SplitMix64 finalizer over a mix of the three coordinates.
    let mut z = seed
        .wrapping_add((msg_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(receiver.as_u32()).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % (delta + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_timeline_is_empty() {
        let t = Timeline::synchronous();
        assert!(t.is_fully_synchronous());
        assert_eq!(t.kind_at(Round::new(5)), SegmentKind::Synchronous);
        assert_eq!(t.view_at(Round::new(5)), EnvView::synchronous());
        assert!(t.disruptions().is_empty());
    }

    #[test]
    fn windows_partition_the_round_axis() {
        let t = Timeline::synchronous()
            .asynchronous(Round::new(10), 3)
            .bounded_delay(Round::new(20), 4, 2);
        assert_eq!(t.kind_at(Round::new(9)), SegmentKind::Synchronous);
        assert_eq!(t.kind_at(Round::new(10)), SegmentKind::Asynchronous);
        assert_eq!(t.kind_at(Round::new(12)), SegmentKind::Asynchronous);
        assert_eq!(t.kind_at(Round::new(13)), SegmentKind::Synchronous);
        assert_eq!(
            t.kind_at(Round::new(23)),
            SegmentKind::BoundedDelay { delta: 2 }
        );
        assert_eq!(t.kind_at(Round::new(24)), SegmentKind::Synchronous);
        assert_eq!(t.windows().len(), 2);
        assert_eq!(t.windows()[0].ra(), Round::new(9));
        assert_eq!(t.windows()[0].len(), 3);
    }

    #[test]
    fn view_offsets_and_budget() {
        let t = Timeline::synchronous()
            .asynchronous(Round::new(10), 3)
            .asynchronous(Round::new(20), 2);
        let v = t.view_at(Round::new(11));
        assert_eq!(v.offset, 1);
        assert_eq!(v.remaining, 2);
        assert_eq!(v.global_offset, 1);
        assert!(v.is_async());
        // The second window re-arms the per-window offset but continues
        // the global one.
        let v = t.view_at(Round::new(20));
        assert_eq!(v.offset, 0);
        assert_eq!(v.remaining, 2);
        assert_eq!(v.global_offset, 3);
        // Synchronous gap in between.
        let v = t.view_at(Round::new(15));
        assert_eq!(v, EnvView::synchronous());
    }

    #[test]
    fn disruptions_are_sorted_and_labelled() {
        let t = Timeline::synchronous()
            .bounded_delay(Round::new(30), 2, 1)
            .asynchronous(Round::new(10), 3)
            .partition(Round::new(18), 4, vec![vec![ProcessId::new(0)]]);
        let d = t.disruptions();
        assert_eq!(d.len(), 3);
        assert_eq!(
            d.iter().map(|x| x.label).collect::<Vec<_>>(),
            vec!["async", "partition", "bounded-delay"]
        );
        assert_eq!(d[1].start, Round::new(18));
        assert_eq!(d[1].end, Round::new(21));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_windows_panic() {
        let _ = Timeline::synchronous()
            .asynchronous(Round::new(10), 4)
            .bounded_delay(Round::new(13), 2, 1);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_window_panics() {
        let _ = Timeline::synchronous().asynchronous(Round::new(10), 0);
    }

    #[test]
    #[should_panic(expected = "synchronous round")]
    fn window_at_round_zero_panics() {
        let _ = Timeline::synchronous().asynchronous(Round::ZERO, 2);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn duplicate_partition_membership_panics() {
        let _ = Timeline::synchronous().partition(
            Round::new(5),
            2,
            vec![vec![ProcessId::new(1)], vec![ProcessId::new(1)]],
        );
    }

    #[test]
    fn partition_reachability_and_residual_group() {
        let t = Timeline::synchronous().partition(
            Round::new(5),
            3,
            vec![vec![ProcessId::new(0), ProcessId::new(1)]],
        );
        let p = t.partition_at(Round::new(6)).expect("active");
        assert!(p.reachable(ProcessId::new(0), ProcessId::new(1)));
        assert!(!p.reachable(ProcessId::new(0), ProcessId::new(2)));
        // Unlisted processes form one residual group together.
        assert!(p.reachable(ProcessId::new(2), ProcessId::new(3)));
        let map = p.group_map(4);
        assert_eq!(map, vec![1, 1, 0, 0]);
        assert!(t.partition_at(Round::new(8)).is_none());
        assert!(t.view_at(Round::new(6)).partitioned);
        // A partition alone does not make the segment asynchronous.
        assert_eq!(t.kind_at(Round::new(6)), SegmentKind::Synchronous);
    }

    #[test]
    fn bounded_delay_is_deterministic_and_bounded() {
        for delta in [0u64, 1, 3, 7] {
            for idx in 0..200usize {
                for p in 0..8u32 {
                    let d = bounded_delay_of(42, idx, ProcessId::new(p), delta);
                    assert!(d <= delta);
                    assert_eq!(d, bounded_delay_of(42, idx, ProcessId::new(p), delta));
                }
            }
        }
        // Different coordinates actually vary the delay.
        let spread: st_types::FastSet<u64> = (0..64usize)
            .map(|i| bounded_delay_of(7, i, ProcessId::new(0), 7))
            .collect();
        assert!(spread.len() > 4, "delays are degenerate: {spread:?}");
    }
}
