//! The **closed-form** fixed-quorum baseline: a schedule walk, no
//! messages.
//!
//! The introduction motivates dynamic availability with the observation
//! that "traditional BFT protocols (synchronous or partially synchronous)
//! get stuck when participation drops below their fixed (usually 1/2 or
//! 2/3) quorum threshold". The *simulated* form of that comparator is
//! [`st_core::QuorumProcess`] — a real message-passing [`Protocol`]
//! implementor driven by the same runner, schedules and timelines as the
//! sleepy protocol. This module keeps the original analytical walk: per
//! view, count the honest awake processes at the decision round and
//! compare against `> 2n/3` of **all** `n`.
//!
//! On honest synchronous schedules the two must agree exactly — the walk
//! is the *cross-check* for the simulation (see
//! `crates/sim/tests/quorum_protocol.rs`): every analytically decided
//! view must be decided by some simulated process (the simulation
//! integrates a view's votes one round later, at round `2v + 1`), and no
//! analytically stalled view may ever decide.
//!
//! [`Protocol`]: st_core::Protocol

use crate::schedule::Schedule;
use st_types::View;

/// Outcome of running the static-quorum baseline over a schedule.
#[derive(Clone, Debug, Default)]
pub struct BaselineReport {
    /// Views in which the quorum was met and a decision happened.
    pub decided_views: Vec<View>,
    /// Views that stalled (quorum missed).
    pub stalled_views: Vec<View>,
}

impl BaselineReport {
    /// Number of decisions.
    pub fn decisions(&self) -> usize {
        self.decided_views.len()
    }

    /// Longest run of consecutive stalled views.
    pub fn longest_stall(&self) -> usize {
        let mut longest = 0usize;
        let mut run = 0usize;
        let mut prev: Option<u64> = None;
        for v in &self.stalled_views {
            run = match prev {
                Some(p) if v.as_u64() == p + 1 => run + 1,
                _ => 1,
            };
            prev = Some(v.as_u64());
            longest = longest.max(run);
        }
        longest
    }
}

/// The static-quorum BFT baseline.
///
/// One view per two rounds, mirroring the sleepy protocol's cadence so
/// decision counts are directly comparable. A view decides iff the number
/// of awake honest processes in its *decision round* exceeds `2n/3` —
/// votes from asleep processes cannot arrive, and the quorum is counted
/// against the fixed membership `n`.
#[derive(Clone, Debug)]
pub struct StaticQuorumBft {
    n: usize,
}

impl StaticQuorumBft {
    /// A baseline instance over `n` fixed members.
    pub fn new(n: usize) -> StaticQuorumBft {
        StaticQuorumBft { n }
    }

    /// The quorum size: decisions need strictly more than `2n/3` votes.
    /// Delegates to the message-passing implementation's rule so the
    /// walk and the simulation can never drift apart on the threshold.
    pub fn quorum_exceeded(&self, votes: usize) -> bool {
        st_core::QuorumProcess::quorum_exceeded(self.n, votes)
    }

    /// Runs the baseline over `schedule` for views whose decision rounds
    /// fall within the horizon.
    pub fn run(&self, schedule: &Schedule) -> BaselineReport {
        let mut report = BaselineReport::default();
        let mut v = 1u64;
        loop {
            let view = View::new(v);
            let Some(decision_round) = view.second_round() else {
                v += 1;
                continue;
            };
            if decision_round.as_u64() > schedule.horizon() {
                break;
            }
            let votes = schedule.honest_awake(decision_round).len();
            if self.quorum_exceeded(votes) {
                report.decided_views.push(view);
            } else {
                report.stalled_views.push(view);
            }
            v += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use st_types::Round;

    #[test]
    fn full_participation_decides_every_view() {
        let schedule = Schedule::full(9, 20);
        let report = StaticQuorumBft::new(9).run(&schedule);
        assert_eq!(report.stalled_views.len(), 0);
        assert_eq!(report.decisions(), 10); // views 1..=10 decide at rounds 2..=20
    }

    #[test]
    fn majority_sleep_stalls_baseline() {
        // 60% asleep during rounds 6..=14: every decision round in that
        // span misses the 2n/3 quorum.
        let schedule = Schedule::mass_sleep(10, 20, 0.6, 6, 14);
        let report = StaticQuorumBft::new(10).run(&schedule);
        assert!(
            report.longest_stall() >= 4,
            "stall {} views",
            report.longest_stall()
        );
        // It recovers after the incident.
        assert!(report
            .decided_views
            .iter()
            .any(|v| v.second_round().unwrap() > Round::new(14)));
    }

    #[test]
    fn exact_two_thirds_is_not_enough() {
        let bft = StaticQuorumBft::new(9);
        assert!(!bft.quorum_exceeded(6)); // 6 = 2·9/3 exactly
        assert!(bft.quorum_exceeded(7));
    }
}
