//! The scripted cluster plan: one JSON document, shared verbatim by every
//! node process and the harness, that fixes the awake matrix, partition
//! windows, kill windows, transaction cadence, and pacing — everything
//! needed to (a) run the cluster and (b) build the byte-equivalent
//! `Schedule`/`Timeline` simulation to cross-check it.
//!
//! All delivery-equivalence arithmetic lives here (required marks,
//! sender-side holdback, the tx counter), so the runtime and the harness
//! cannot drift apart: both ask the same plan the same questions.

use serde::{Deserialize, Serialize};
use st_types::{ProcessId, Round};

/// A partition overlay: for rounds `start..=end`, only processes in the
/// same group exchange messages. Processes listed in no group form the
/// residual group (exactly the simulator's `Partition::group_map`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// First partitioned round (must be ≥ 1).
    pub start: u64,
    /// Last partitioned round (inclusive).
    pub end: u64,
    /// Explicit groups; unlisted processes share the residual group 0.
    pub groups: Vec<Vec<u32>>,
}

/// A kill fault: the harness SIGKILLs `node` once it has completed round
/// `start − 1` (the node parks there until then) and restarts it near
/// the end of the window. The window
/// `start..=end` must be marked asleep for `node` in the awake matrix —
/// physically down and logically asleep coincide, which is what makes the
/// simulator cross-check meaningful.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KillWindow {
    /// The node to kill.
    pub node: u32,
    /// First down round (must be ≥ 1).
    pub start: u64,
    /// Last down round (inclusive).
    pub end: u64,
}

/// The full scripted run: topology, faults, pacing. Serialized to
/// `plan.json`; every `stob serve` process and the harness load the same
/// file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterPlan {
    /// Number of nodes.
    pub n: usize,
    /// System seed (key directory, VRFs) — must match the simulation.
    pub seed: u64,
    /// Message expiration period η.
    pub eta: u64,
    /// Last round executed (rounds `0..=horizon`).
    pub horizon: u64,
    /// Submit one tx to every awake node each `txs_every` rounds
    /// (0 = none); mirrors the simulator's workload injection.
    pub txs_every: u64,
    /// Minimum wall-clock duration of one round, in milliseconds.
    pub tick_ms: u64,
    /// Node `i` listens on `base_port + i`.
    pub base_port: u16,
    /// Round-major awake matrix: `awake[r][p]`. Length `horizon + 1`.
    pub awake: Vec<Vec<bool>>,
    /// Partition overlays (non-overlapping).
    pub partitions: Vec<PartitionWindow>,
    /// Kill faults (windows must be asleep in `awake`).
    pub kills: Vec<KillWindow>,
}

impl ClusterPlan {
    /// A fully-awake plan with no faults; callers carve sleep windows and
    /// faults out of it.
    pub fn full(n: usize, horizon: u64) -> ClusterPlan {
        ClusterPlan {
            n,
            seed: 7,
            eta: 4,
            horizon,
            txs_every: 0,
            tick_ms: 10,
            base_port: 39700,
            awake: vec![vec![true; n]; horizon as usize + 1],
            partitions: Vec::new(),
            kills: Vec::new(),
        }
    }

    /// Marks `node` asleep for rounds `start..=end`.
    pub fn sleep(&mut self, node: u32, start: u64, end: u64) {
        for r in start..=end.min(self.horizon) {
            self.awake[r as usize][node as usize] = false;
        }
    }

    /// Checks internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("plan needs at least one node".into());
        }
        if self.awake.len() != self.horizon as usize + 1 {
            return Err(format!(
                "awake matrix has {} rows, want horizon+1 = {}",
                self.awake.len(),
                self.horizon + 1
            ));
        }
        if self.awake.iter().any(|row| row.len() != self.n) {
            return Err("ragged awake matrix row".into());
        }
        for w in &self.partitions {
            if w.start == 0 || w.end < w.start || w.end > self.horizon {
                return Err(format!("bad partition window [{}, {}]", w.start, w.end));
            }
            if w.groups.iter().flatten().any(|&p| p as usize >= self.n) {
                return Err("partition group member out of range".into());
            }
        }
        for k in &self.kills {
            if k.node as usize >= self.n {
                return Err("kill target out of range".into());
            }
            if k.start == 0 || k.end < k.start || k.end > self.horizon {
                return Err(format!("bad kill window [{}, {}]", k.start, k.end));
            }
            for r in k.start..=k.end {
                if self.awake[r as usize][k.node as usize] {
                    return Err(format!(
                        "node {} is awake at round {r} inside its kill window",
                        k.node
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether `p` is awake at round `r` (rounds past the horizon clamp
    /// to the last row, exactly like `Schedule::is_awake`).
    pub fn is_awake(&self, p: usize, r: u64) -> bool {
        self.awake[r.min(self.horizon) as usize][p]
    }

    /// The partition window covering round `r`, if any.
    fn partition_at(&self, r: u64) -> Option<&PartitionWindow> {
        self.partitions.iter().find(|w| w.start <= r && r <= w.end)
    }

    /// Whether `a` and `b` can exchange messages at round `r` (same
    /// partition group, with unlisted processes in the residual group).
    pub fn same_group(&self, a: usize, b: usize, r: u64) -> bool {
        match self.partition_at(r) {
            None => true,
            Some(w) => {
                let group_of = |p: usize| {
                    w.groups
                        .iter()
                        .position(|g| g.contains(&(p as u32)))
                        .map(|i| i + 1)
                        .unwrap_or(0)
                };
                group_of(a) == group_of(b)
            }
        }
    }

    /// The round mark node `me` must have consumed from peer `q` before
    /// executing round `r` — i.e. the latest send-round of `q` the
    /// simulator would have delivered to `me` by the end of round `r − 1`.
    ///
    /// A message sent by `q` at round `s` is sim-delivered at the first
    /// round `t ≥ s` with `me` awake at `t + 1` and `same_group(me, q, t)`.
    /// So with `t* = max { t ≤ r−1 : same_group(me,q,t) ∧ awake(me,t+1) }`,
    /// the required mark is the last awake round of `q` at or before `t*`.
    /// `None` means nothing is owed yet.
    pub fn required_mark(&self, me: usize, q: usize, r: u64) -> Option<u64> {
        let t_star = (0..r)
            .rev()
            .find(|&t| self.same_group(me, q, t) && self.is_awake(me, t + 1))?;
        (0..=t_star).rev().find(|&s| self.is_awake(q, s))
    }

    /// Sender-side partition enforcement: whether the batch node `me`
    /// produced at round `s` must still be withheld from peer `j`, given
    /// that `me` is currently executing `current_round`. True while the
    /// partition window covering `s` separates the pair and has not yet
    /// elapsed from the sender's point of view — the socket-layer twin of
    /// the simulator's queue-until-heal rule.
    pub fn withheld(&self, s: u64, me: usize, j: usize, current_round: u64) -> bool {
        match self.partition_at(s) {
            Some(w) => !self.same_group(me, j, s) && current_round <= w.end,
            None => false,
        }
    }

    /// The simulator's tx workload, replicated as a pure function of the
    /// plan: at round `r > 0` with `r % txs_every == 0` and at least one
    /// awake process, tx number `count(qualifying rounds ≤ r)` is
    /// submitted to every awake process. Returns that tx id when round
    /// `r` qualifies.
    pub fn tx_for_round(&self, r: u64) -> Option<u64> {
        let k = self.txs_every;
        let qualifies = |r: u64| {
            k > 0 && r > 0 && r.is_multiple_of(k) && (0..self.n).any(|p| self.is_awake(p, r))
        };
        if !qualifies(r) {
            return None;
        }
        Some((1..=r).filter(|&x| qualifies(x)).count() as u64)
    }

    /// The TCP port node `p` listens on.
    pub fn port_of(&self, p: usize) -> u16 {
        self.base_port.wrapping_add(p as u16)
    }

    /// Whether a kill window for `p` starts at round `r` (where `p` parks
    /// until the harness kills it).
    pub fn kill_starts(&self, p: usize, r: u64) -> bool {
        self.kills
            .iter()
            .any(|w| w.node as usize == p && w.start == r)
    }

    /// The last awake round of `p` (its final `Mark`), if it is ever
    /// awake.
    pub fn final_awake_round(&self, p: usize) -> Option<u64> {
        (0..=self.horizon).rev().find(|&r| self.is_awake(p, r))
    }

    /// Serializes the plan to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }

    /// Parses a plan from JSON and validates it.
    pub fn from_json(json: &str) -> Result<ClusterPlan, String> {
        let plan: ClusterPlan =
            serde_json::from_str(json).map_err(|e| format!("plan parse error: {e:?}"))?;
        plan.validate()?;
        Ok(plan)
    }

    /// The awake matrix as the simulator's `Schedule::custom` input.
    pub fn schedule_matrix(&self) -> Vec<Vec<bool>> {
        self.awake.clone()
    }

    /// The partition windows as `(start, len, groups)` triples for
    /// `Timeline::partition`.
    pub fn timeline_partitions(&self) -> Vec<(Round, u64, Vec<Vec<ProcessId>>)> {
        self.partitions
            .iter()
            .map(|w| {
                let groups = w
                    .groups
                    .iter()
                    .map(|g| g.iter().map(|&p| ProcessId::new(p)).collect())
                    .collect();
                (Round::new(w.start), w.end - w.start + 1, groups)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ClusterPlan {
        let mut p = ClusterPlan::full(4, 20);
        p.partitions.push(PartitionWindow {
            start: 8,
            end: 10,
            groups: vec![vec![0, 1]],
        });
        p.sleep(3, 4, 6);
        p.kills.push(KillWindow {
            node: 3,
            start: 4,
            end: 6,
        });
        p
    }

    #[test]
    fn validates_and_round_trips() {
        let p = plan();
        p.validate().expect("plan is consistent");
        let back = ClusterPlan::from_json(&p.to_json()).expect("round trip");
        assert_eq!(back.awake, p.awake);
        assert_eq!(back.partitions.len(), 1);
        assert_eq!(back.kills.len(), 1);
    }

    #[test]
    fn rejects_awake_kill_window() {
        let mut p = ClusterPlan::full(3, 10);
        p.kills.push(KillWindow {
            node: 1,
            start: 3,
            end: 5,
        });
        assert!(p.validate().is_err(), "kill window must be asleep");
    }

    #[test]
    fn residual_group_semantics_match_group_map() {
        let p = plan();
        // 0 and 1 share the explicit group; 2 and 3 share the residual.
        assert!(p.same_group(0, 1, 9));
        assert!(p.same_group(2, 3, 9));
        assert!(!p.same_group(0, 2, 9));
        assert!(p.same_group(0, 2, 7), "outside the window all reachable");
    }

    #[test]
    fn required_mark_tracks_delivery_rounds() {
        let p = plan();
        // Round 0 owes nothing.
        assert_eq!(p.required_mark(0, 1, 0), None);
        // Fully synchronous prefix: round r owes the peer's round r−1.
        assert_eq!(p.required_mark(0, 1, 3), Some(2));
        // Node 3 sleeps rounds 4..=6: at round 6 its latest owed mark is
        // its last awake round, 3.
        assert_eq!(p.required_mark(0, 3, 6), Some(3));
        // Wake-up backlog: node 3 at its wake round 7 owes marks up to 6.
        assert_eq!(p.required_mark(3, 0, 7), Some(6));
        // Cross-cut pairs freeze at the pre-partition round for the whole
        // window [8,10]...
        assert_eq!(p.required_mark(0, 2, 9), Some(7));
        assert_eq!(p.required_mark(0, 2, 11), Some(7));
        // ...and catch up at the first post-heal round boundary.
        assert_eq!(p.required_mark(0, 2, 12), Some(11));
        // Same-group pairs never stall.
        assert_eq!(p.required_mark(0, 1, 9), Some(8));
    }

    #[test]
    fn required_mark_ignores_backlog_while_waking_inside_partition() {
        // A node that wakes *inside* a partition window must not ingest
        // pre-partition backlog from a cross-group peer until heal: the
        // simulator only delivers queued messages once sender and
        // receiver share a group again.
        let mut p = ClusterPlan::full(4, 20);
        p.partitions.push(PartitionWindow {
            start: 8,
            end: 10,
            groups: vec![vec![0, 1]],
        });
        p.sleep(2, 5, 8); // node 2 wakes at round 9, inside the window
        p.validate().unwrap();
        // At wake round 9, node 2 owes node 0 only what was delivered
        // while both were awake and same-group (through round 3) — not
        // the rounds 4..=8 backlog, which stays queued until heal...
        assert_eq!(p.required_mark(2, 0, 9), Some(3));
        // ...but owes node 3 (residual group, same side) the full backlog.
        assert_eq!(p.required_mark(2, 3, 9), Some(8));
        // After heal the cross-group backlog arrives.
        assert_eq!(p.required_mark(2, 0, 12), Some(11));
    }

    #[test]
    fn withheld_releases_when_sender_passes_the_window() {
        let p = plan();
        assert!(p.withheld(8, 0, 2, 9), "cross-group batch inside window");
        assert!(p.withheld(9, 0, 2, 10), "still inside");
        assert!(!p.withheld(8, 0, 1, 9), "same-group batch flows");
        assert!(!p.withheld(7, 0, 2, 9), "pre-window batch flows");
        assert!(!p.withheld(8, 0, 2, 11), "released once sender passes end");
    }

    #[test]
    fn tx_counter_is_a_pure_function_of_the_plan() {
        let mut p = ClusterPlan::full(3, 12);
        p.txs_every = 4;
        assert_eq!(p.tx_for_round(0), None);
        assert_eq!(p.tx_for_round(3), None);
        assert_eq!(p.tx_for_round(4), Some(1));
        assert_eq!(p.tx_for_round(8), Some(2));
        assert_eq!(p.tx_for_round(12), Some(3));
    }
}
