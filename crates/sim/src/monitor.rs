//! Invariant monitors and the simulation report.
//!
//! Monitors observe the execution from outside (they see every process's
//! decisions and a tree of the decided chains) and check the paper's
//! definitions:
//!
//! * **Safety** (Definition 2): all decided logs of well-behaved processes
//!   are pairwise compatible;
//! * **Asynchrony resilience** (Definition 5): no decision during or after
//!   the asynchronous window conflicts with `D_ra`, the set of logs
//!   decided up to the last synchronous round `ra`;
//! * **Liveness** (Definition 2): every submitted transaction eventually
//!   appears in every awake process's decided log, with latency recorded;
//! * **Healing** (Definition 6): after the window closes, how many rounds
//!   pass before decisions resume.

use serde::{Serialize, Value};
use st_blocktree::BlockTree;
use st_core::DecisionEvent;
use st_types::{BlockId, ProcessId, Round, TxId};

/// A pair of conflicting decisions observed by the safety monitor.
#[derive(Clone, Debug, Serialize)]
pub struct SafetyViolation {
    /// The earlier decision.
    pub first: (ProcessId, DecisionEvent),
    /// The decision that conflicts with it.
    pub second: (ProcessId, DecisionEvent),
}

/// Lifecycle of a submitted transaction.
#[derive(Clone, Debug)]
pub struct TxRecord {
    /// The transaction.
    pub tx: TxId,
    /// The round it was submitted in (with a workload configured: the
    /// round it arrived at the mempool, so downstream latencies include
    /// queueing delay).
    pub submitted: Round,
    /// First round at which *every* process awake at that round had the
    /// transaction in its decided log; `None` if that never happened.
    pub included_everywhere: Option<Round>,
    /// First round at which *some* honest awake process had the
    /// transaction in its decided log — the client-observed decision
    /// point ("when did my tx land"); `None` if it never landed.
    pub decided_round: Option<u64>,
}

// Hand-written rather than derived: `decided_round` is serialized only
// when present, and the in-repo serde stand-in has no skip attributes.
// The first three entries match the shape the derive produced before the
// field existed, so legacy report consumers see unchanged records.
impl Serialize for TxRecord {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("tx".to_string(), self.tx.to_value()),
            ("submitted".to_string(), self.submitted.to_value()),
            (
                "included_everywhere".to_string(),
                self.included_everywhere.to_value(),
            ),
        ];
        if let Some(d) = self.decided_round {
            entries.push(("decided_round".to_string(), d.to_value()));
        }
        Value::Map(entries)
    }
}

impl TxRecord {
    /// Inclusion latency in rounds, if included.
    pub fn latency(&self) -> Option<u64> {
        self.included_everywhere
            .map(|r| r.as_u64() - self.submitted.as_u64())
    }

    /// Submit→decide latency in rounds (first honest decided log), if
    /// the transaction ever landed.
    pub fn decide_latency(&self) -> Option<u64> {
        self.decided_round.map(|r| r - self.submitted.as_u64())
    }
}

/// Per-disruption recovery bookkeeping: one record for **every** window
/// and partition event of the configured [`crate::Timeline`], in start
/// order. This is the paper's "recovers after every asynchronous spell"
/// claim made quantitative — a multi-window run must show a decision
/// after each window, not just after the last one.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryRecord {
    /// `"async"`, `"bounded-delay"` or `"partition"`.
    pub kind: String,
    /// First disrupted round.
    pub start: Round,
    /// Last disrupted round.
    pub end: Round,
    /// First decision round strictly after the window, if any.
    pub first_decision_after: Option<Round>,
    /// `first_decision_after − end` — the healing lag of this spell
    /// (Definition 6's `k` per window).
    pub recovery_rounds: Option<u64>,
    /// Definition-5 violations against this window's `D_ra` (decisions
    /// conflicting with the logs decided before the spell began).
    pub violations: usize,
}

/// The outcome of a simulation run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SimReport {
    /// Strategy name of the adversary that ran.
    pub adversary: String,
    /// Rounds executed (0..=rounds_run).
    pub rounds_run: u64,
    /// Total decision events across all honest processes.
    pub decisions_total: usize,
    /// Decision events per process.
    pub per_process_decisions: Vec<usize>,
    /// Conflicting decision pairs (agreement violations).
    pub safety_violations: Vec<SafetyViolation>,
    /// Decisions conflicting with some disruption window's `D_ra`
    /// (Definition 5 violations), concatenated over the timeline's
    /// windows in start order. Empty for fully-synchronous timelines.
    pub resilience_violations: Vec<SafetyViolation>,
    /// Transaction lifecycle records.
    pub txs: Vec<TxRecord>,
    /// Height of the longest decided log at the end of the run.
    pub final_decided_height: u64,
    /// Total messages that entered the network.
    pub messages_sent: usize,
    /// Per-disruption recovery records, in window start order (one per
    /// async/bounded-delay/partition window of the timeline).
    pub recoveries: Vec<RecoveryRecord>,
    /// Rounds in which at least one process decided.
    pub deciding_rounds: usize,
    /// Per-round time series of the execution.
    pub timeline: crate::RoundTrace,
    /// Workload/mempool/latency accounting (all zero without a
    /// configured workload).
    pub workload: crate::workload::WorkloadSummary,
}

impl SimReport {
    /// Whether the run preserved agreement.
    pub fn is_safe(&self) -> bool {
        self.safety_violations.is_empty()
    }

    /// Whether the run satisfied Definition 5 w.r.t. the configured
    /// window (vacuously true without a window).
    pub fn is_asynchrony_resilient(&self) -> bool {
        self.resilience_violations.is_empty()
    }

    /// Whether a decision followed **every** disruption window — the
    /// multi-spell form of the paper's resilience claim (vacuously true
    /// without windows).
    pub fn recovered_after_every_window(&self) -> bool {
        self.recoveries
            .iter()
            .all(|r| r.first_decision_after.is_some())
    }

    /// The worst per-window healing lag across the run, if every window
    /// healed.
    pub fn max_recovery_rounds(&self) -> Option<u64> {
        if self.recoveries.is_empty() || !self.recovered_after_every_window() {
            return None;
        }
        self.recoveries
            .iter()
            .filter_map(|r| r.recovery_rounds)
            .max()
    }

    /// Agreement violations in which **neither** decision is orphanable —
    /// what safety Theorem 3's proof actually forbids. A decision is
    /// *orphanable* when its round lies inside some disruption window or
    /// in that window's first post-window round (`[start, end + 1]` of
    /// any entry in [`SimReport::recoveries`]): it may have been made on
    /// evidence the rest of the network never saw and later superseded,
    /// which Definition 5 explicitly declines to protect (such decisions
    /// are not in `D_ra`) — see EXPERIMENTS.md. The per-window test
    /// matters for multi-window timelines: a conflict decided entirely in
    /// the synchronous gap *between* two spells involves no orphanable
    /// decision and is a genuine violation, not an orphaning. Every
    /// disruption kind counts as an orphanable zone, including
    /// bounded-delay windows (a `Δ`-bounded form of asynchrony — under
    /// `η ≤ Δ`, in-spell decisions can rest on evidence whose peers'
    /// votes are still in flight exactly as under full asynchrony);
    /// assertions that safety holds *through* a bounded period should
    /// check [`SimReport::is_safe`], which counts every violation
    /// regardless of classification.
    pub fn post_window_violations(&self) -> Vec<&SafetyViolation> {
        let orphanable = |r: Round| {
            self.recoveries
                .iter()
                .any(|w| w.start <= r && r.as_u64() <= w.end.as_u64() + 1)
        };
        self.safety_violations
            .iter()
            .filter(|v| !orphanable(v.first.1.round) && !orphanable(v.second.1.round))
            .collect()
    }

    /// Fraction of submitted transactions that were included everywhere.
    pub fn tx_inclusion_rate(&self) -> f64 {
        if self.txs.is_empty() {
            return 1.0;
        }
        self.txs
            .iter()
            .filter(|t| t.included_everywhere.is_some())
            .count() as f64
            / self.txs.len() as f64
    }

    /// Mean transaction inclusion latency in rounds (over included txs).
    pub fn mean_tx_latency(&self) -> Option<f64> {
        let lats: Vec<u64> = self.txs.iter().filter_map(TxRecord::latency).collect();
        if lats.is_empty() {
            None
        } else {
            Some(lats.iter().sum::<u64>() as f64 / lats.len() as f64)
        }
    }
}

/// Tracks decisions and checks agreement incrementally.
///
/// Rather than comparing every new decision against all previous ones
/// (quadratic), the monitor maintains the set of *maximal* decided tips:
/// a new decision only needs compatibility checks against those. The
/// frontier keeps conflicting branches side by side, so entries are
/// pairwise incomparable (no entry is an ancestor of another).
#[derive(Clone, Debug, Default)]
pub(crate) struct SafetyMonitor {
    /// Maximal decided tips with a witness decision each.
    frontier: Vec<(BlockId, ProcessId, DecisionEvent)>,
    /// Conflicting `(process, tip)` pairs already recorded, order-
    /// normalised, mapped to their entry in `violations` — the same pair
    /// of conflicting logs is reported once, not once per re-decision of
    /// either side.
    recorded: st_types::FastMap<(u32, u64, u32, u64), usize>,
    pub(crate) violations: Vec<SafetyViolation>,
}

impl SafetyMonitor {
    /// Records a decision, checking it against the **whole** frontier.
    ///
    /// Every frontier entry is examined before anything is concluded: with
    /// a forked frontier, a new tip can simultaneously extend one branch
    /// and conflict with another, so returning early on the first
    /// "already covered" entry would make the violation count depend on
    /// frontier insertion order.
    pub(crate) fn observe(&mut self, tree: &BlockTree, who: ProcessId, event: DecisionEvent) {
        let tip = event.tip;
        let mut superseded = Vec::new();
        let mut covered = false;
        for (i, (frontier_tip, fp, fe)) in self.frontier.iter().enumerate() {
            if tree.is_ancestor(*frontier_tip, tip) {
                superseded.push(i);
            } else if tree.is_ancestor(tip, *frontier_tip) {
                // Covered by a longer decided log on this branch — but
                // keep scanning: other branches may still conflict.
                covered = true;
            } else {
                let key = Self::pair_key((*fp, fe.tip), (who, tip));
                let occurrence = SafetyViolation {
                    first: (*fp, *fe),
                    second: (who, event),
                };
                match self.recorded.get(&key) {
                    None => {
                        self.recorded.insert(key, self.violations.len());
                        self.violations.push(occurrence);
                    }
                    Some(&i) => {
                        // Same pair, later re-decisions: keep the witness
                        // whose *earlier* decision is latest. Downstream
                        // classification (post-window vs in-window, see
                        // `SimReport::post_window_violations`) looks at
                        // the witness rounds, so a pair that re-conflicts
                        // entirely after the asynchronous window must not
                        // hide behind its first, in-window occurrence.
                        let stored = &self.violations[i];
                        let stored_min = stored.first.1.round.min(stored.second.1.round);
                        let new_min = occurrence.first.1.round.min(occurrence.second.1.round);
                        if new_min > stored_min {
                            self.violations[i] = occurrence;
                        }
                    }
                }
                // Keep both in the frontier so later decisions are judged
                // against both branches.
            }
        }
        for &i in superseded.iter().rev() {
            self.frontier.remove(i);
        }
        if !covered {
            self.frontier.push((tip, who, event));
        }
    }

    /// Order-normalised identity of a conflicting pair: `(p, tip)` on
    /// both sides, smaller side first, so A-vs-B and B-vs-A dedup to one.
    fn pair_key(a: (ProcessId, BlockId), b: (ProcessId, BlockId)) -> (u32, u64, u32, u64) {
        let a = (a.0.as_u32(), a.1.as_u64());
        let b = (b.0.as_u32(), b.1.as_u64());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        (lo.0, lo.1, hi.0, hi.1)
    }
}

/// Checks Definition 5 against a fixed window: decisions made after `ra`
/// must not conflict with any member of `D_ra`.
#[derive(Clone, Debug)]
pub(crate) struct ResilienceMonitor {
    ra: Round,
    /// Maximal tips of `D_ra` with witnesses.
    d_ra: Vec<(BlockId, ProcessId, DecisionEvent)>,
    pub(crate) violations: Vec<SafetyViolation>,
}

impl ResilienceMonitor {
    pub(crate) fn new(ra: Round) -> ResilienceMonitor {
        ResilienceMonitor {
            ra,
            d_ra: Vec::new(),
            violations: Vec::new(),
        }
    }

    pub(crate) fn observe(&mut self, tree: &BlockTree, who: ProcessId, event: DecisionEvent) {
        if event.round <= self.ra {
            // Accumulate D_ra (keep only maximal tips).
            let tip = event.tip;
            self.d_ra.retain(|(t, _, _)| !tree.is_ancestor(*t, tip));
            if !self.d_ra.iter().any(|(t, _, _)| tree.is_ancestor(tip, *t)) {
                self.d_ra.push((tip, who, event));
            }
        } else {
            for (t, fp, fe) in &self.d_ra {
                if tree.conflicting(*t, event.tip) {
                    self.violations.push(SafetyViolation {
                        first: (*fp, *fe),
                        second: (who, event),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_blocktree::Block;
    use st_types::View;

    fn mk_tree() -> (BlockTree, BlockId, BlockId, BlockId) {
        let mut tree = BlockTree::new();
        let a = tree
            .insert(Block::build(
                BlockId::GENESIS,
                View::new(1),
                ProcessId::new(0),
                vec![],
            ))
            .unwrap();
        let a2 = tree
            .insert(Block::build(a, View::new(2), ProcessId::new(0), vec![]))
            .unwrap();
        let b = tree
            .insert(Block::build(
                BlockId::GENESIS,
                View::new(1),
                ProcessId::new(1),
                vec![],
            ))
            .unwrap();
        (tree, a, a2, b)
    }

    fn ev(round: u64, tip: BlockId) -> DecisionEvent {
        DecisionEvent {
            round: Round::new(round),
            view: View::from_round(Round::new(round)),
            tip,
        }
    }

    #[test]
    fn compatible_decisions_pass() {
        let (tree, a, a2, _) = mk_tree();
        let mut m = SafetyMonitor::default();
        m.observe(&tree, ProcessId::new(0), ev(3, a));
        m.observe(&tree, ProcessId::new(1), ev(5, a2));
        m.observe(&tree, ProcessId::new(2), ev(5, a)); // prefix of frontier
        assert!(m.violations.is_empty());
        assert_eq!(m.frontier.len(), 1);
    }

    #[test]
    fn conflicting_decisions_flagged() {
        let (tree, a, _, b) = mk_tree();
        let mut m = SafetyMonitor::default();
        m.observe(&tree, ProcessId::new(0), ev(3, a));
        m.observe(&tree, ProcessId::new(1), ev(3, b));
        assert_eq!(m.violations.len(), 1);
    }

    #[test]
    fn forked_frontier_conflicts_found_regardless_of_insertion_order() {
        // Frontier forked into a2 and b. A new decision for `a` (a prefix
        // of a2, conflicting with b) must be checked against the WHOLE
        // frontier: depending on insertion order the old code early-
        // returned on the covering entry and missed the conflict with the
        // other branch.
        let (tree, a, a2, b) = mk_tree();
        let mut order1 = SafetyMonitor::default();
        order1.observe(&tree, ProcessId::new(0), ev(3, a2));
        order1.observe(&tree, ProcessId::new(1), ev(3, b)); // fork: 1 violation
        order1.observe(&tree, ProcessId::new(2), ev(5, a)); // covered by a2, conflicts b

        let mut order2 = SafetyMonitor::default();
        order2.observe(&tree, ProcessId::new(1), ev(3, b));
        order2.observe(&tree, ProcessId::new(0), ev(3, a2));
        order2.observe(&tree, ProcessId::new(2), ev(5, a));

        assert_eq!(
            order1.violations.len(),
            order2.violations.len(),
            "violation count depends on frontier insertion order"
        );
        assert_eq!(order1.violations.len(), 2); // (a2,b) and (a,b)
                                                // The covered tip did not displace the longer branch tip.
        assert!(order1.frontier.iter().any(|(t, _, _)| *t == a2));
        assert!(order1.frontier.iter().all(|(t, _, _)| *t != a));
    }

    #[test]
    fn repeated_conflicting_pair_recorded_once() {
        let (tree, a, _, b) = mk_tree();
        let mut m = SafetyMonitor::default();
        m.observe(&tree, ProcessId::new(0), ev(3, a));
        m.observe(&tree, ProcessId::new(1), ev(3, b));
        // The same processes re-decide the same conflicting tips on later
        // rounds (steady-state re-decision): no new violation entries.
        m.observe(&tree, ProcessId::new(0), ev(5, a));
        m.observe(&tree, ProcessId::new(1), ev(5, b));
        m.observe(&tree, ProcessId::new(1), ev(7, b));
        assert_eq!(m.violations.len(), 1, "same pair re-recorded");
        // A *different* process deciding one side is a new witness pair.
        m.observe(&tree, ProcessId::new(2), ev(7, a));
        assert_eq!(m.violations.len(), 2);
    }

    #[test]
    fn dedup_upgrades_witness_to_latest_recurrence() {
        // A pair that first conflicts early (say, inside an asynchronous
        // window) and keeps re-conflicting later must expose the *latest*
        // occurrence: `SimReport::post_window_violations` classifies by
        // witness rounds, so keeping only the first occurrence would
        // reclassify a genuine post-window violation as an in-window
        // orphaning.
        let (tree, a, _, b) = mk_tree();
        let mut m = SafetyMonitor::default();
        m.observe(&tree, ProcessId::new(0), ev(5, a)); // in-window
        m.observe(&tree, ProcessId::new(1), ev(5, b)); // conflict @ (5,5)
        m.observe(&tree, ProcessId::new(0), ev(9, a)); // post-window re-decisions
        m.observe(&tree, ProcessId::new(1), ev(9, b));
        assert_eq!(m.violations.len(), 1);
        let v = &m.violations[0];
        assert_eq!(
            v.first.1.round.min(v.second.1.round),
            Round::new(9),
            "witness not upgraded to the post-window recurrence"
        );
    }

    #[test]
    fn resilience_monitor_separates_pre_and_post() {
        let (tree, a, a2, b) = mk_tree();
        let mut m = ResilienceMonitor::new(Round::new(4));
        m.observe(&tree, ProcessId::new(0), ev(3, a)); // in D_ra
                                                       // Post-window extension of a: fine.
        m.observe(&tree, ProcessId::new(1), ev(7, a2));
        assert!(m.violations.is_empty());
        // Post-window conflicting decision: flagged.
        m.observe(&tree, ProcessId::new(2), ev(7, b));
        assert_eq!(m.violations.len(), 1);
    }

    #[test]
    fn resilience_keeps_maximal_d_ra() {
        let (tree, a, a2, _) = mk_tree();
        let mut m = ResilienceMonitor::new(Round::new(4));
        m.observe(&tree, ProcessId::new(0), ev(1, a));
        m.observe(&tree, ProcessId::new(0), ev(3, a2)); // supersedes a
        assert_eq!(m.d_ra.len(), 1);
        assert_eq!(m.d_ra[0].0, a2);
    }

    #[test]
    fn post_window_classification_is_per_window() {
        let (_tree, a, _, b) = mk_tree();
        let mut r = SimReport::default();
        for (s, e) in [(10u64, 13u64), (24, 27)] {
            r.recoveries.push(RecoveryRecord {
                kind: "async".to_string(),
                start: Round::new(s),
                end: Round::new(e),
                first_decision_after: None,
                recovery_rounds: None,
                violations: 0,
            });
        }
        let pair = |ra: u64, rb: u64| SafetyViolation {
            first: (ProcessId::new(0), ev(ra, a)),
            second: (ProcessId::new(1), ev(rb, b)),
        };
        // Decided entirely in the synchronous gap *between* the spells: a
        // genuine agreement violation — classifying per-window matters
        // here (the old last-window boundary called this an orphaning).
        r.safety_violations.push(pair(18, 20));
        // One decision inside window 2: orphanable.
        r.safety_violations.push(pair(26, 30));
        // One decision in window 1's first post-window round (end + 1):
        // still orphanable.
        r.safety_violations.push(pair(14, 20));
        // Entirely after the last window: genuine.
        r.safety_violations.push(pair(30, 31));
        assert_eq!(r.post_window_violations().len(), 2);
        // Without any window, every violation is genuine.
        r.recoveries.clear();
        assert_eq!(r.post_window_violations().len(), 4);
    }

    #[test]
    fn report_helpers() {
        let mut r = SimReport::default();
        assert!(r.is_safe());
        assert!(r.is_asynchrony_resilient());
        assert_eq!(r.tx_inclusion_rate(), 1.0);
        r.txs.push(TxRecord {
            tx: TxId::new(1),
            submitted: Round::new(2),
            included_everywhere: Some(Round::new(8)),
            decided_round: Some(6),
        });
        r.txs.push(TxRecord {
            tx: TxId::new(2),
            submitted: Round::new(3),
            included_everywhere: None,
            decided_round: None,
        });
        assert_eq!(r.tx_inclusion_rate(), 0.5);
        assert_eq!(r.mean_tx_latency(), Some(6.0));
        assert_eq!(r.txs[0].decide_latency(), Some(4));
        assert_eq!(r.txs[1].decide_latency(), None);
        // `decided_round` is serialized only when present — absent
        // records keep the legacy three-entry shape.
        let v0 = r.txs[0].to_value();
        assert!(v0.get("decided_round").is_some());
        let v1 = r.txs[1].to_value();
        assert!(v1.get("decided_round").is_none());
        assert!(v1.get("included_everywhere").is_some());
    }
}
