//! `TobProcess` against the literal Algorithm 1 on what a Byzantine
//! sender may send: recorded `Simulation` runs under the seeded
//! `ChaosAdversary` (`support/chaos.rs`), replayed by the literal
//! (`support/replay.rs`), which compares every process's consumed tally,
//! decided tip and admitted bodies, and an honest process's sends (byte
//! for byte) and decisions, every round.
//!
//! The grid's cells draw `n` in 4–7, `η` in 0–4, an asynchronous window
//! of `π` in 0–5 rounds starting in round 4–15, up to `n / 3` corrupted
//! processes (the highest ids, corrupted from round 0) and a seed. Honest
//! processes sleep by a random schedule that satisfies Eq. 1. In the
//! model (`π < η`, no corrupted process) the literal's one deviation,
//! body retention, must never change what it reads.

#[path = "support/chaos.rs"]
mod chaos;
#[path = "support/replay.rs"]
mod replay;

use chaos::ChaosAdversary;
use proptest::TestRng;
use replay::{replay, Recorder, Replayed};
use st_messages::wire::encode_envelope;
use st_messages::Payload;
use st_sim::{Schedule, SimBuilder, SimConfig, SimEvent, Timeline, WorkloadSpec};
use st_types::{BlockId, Params, Round};
use std::rc::Rc;

#[derive(Debug)]
struct Case {
    n: usize,
    eta: u64,
    rounds: u64,
    /// Corrupted processes: the last `byz` ids.
    byz: usize,
    /// The asynchronous window `[from, from + pi)`; `pi = 0` for none.
    from: u64,
    pi: u64,
    seed: u64,
}

impl Case {
    /// Case `k` of the grid.
    fn draw(k: u64) -> Case {
        let mut rng = TestRng::new(k);
        let n = 4 + rng.below(4) as usize;
        Case {
            n,
            eta: rng.below(5),
            rounds: 12 + rng.below(25),
            byz: (rng.below(3) as usize).min(n / 3),
            from: 4 + rng.below(12),
            pi: rng.below(6),
            seed: rng.next_u64(),
        }
    }

    fn in_model(&self) -> bool {
        self.byz == 0 && self.pi < self.eta.max(1)
    }

    /// Awake rows, one per round: every honest process sleeps with
    /// probability 1/4, then as many sleepers are woken (lowest id first)
    /// as Eq. 1 with `γ = 1/4` requires (at most a quarter of those awake
    /// in `[r − η, r − 1]` asleep at `r`), and never nobody. Corrupted
    /// processes never sleep.
    fn schedule(&self) -> Schedule {
        let honest = self.n - self.byz;
        // Not the run seed itself, which the adversary draws from.
        let mut rng = TestRng::new(!self.seed);
        let mut awake: Vec<Vec<bool>> = Vec::new();
        for r in 0..=self.rounds as usize {
            let mut now: Vec<bool> = (0..self.n)
                .map(|i| i >= honest || rng.below(4) != 0)
                .collect();
            let lo = r.saturating_sub(self.eta as usize);
            let recent: Vec<usize> = (0..honest)
                .filter(|&i| awake[lo..r].iter().any(|a| a[i]))
                .collect();
            let budget = recent.len() / 4;
            for &i in &recent {
                if recent.iter().filter(|&&j| !now[j]).count() <= budget {
                    break;
                }
                now[i] = true;
            }
            if !now[..honest].contains(&true) {
                now[0] = true;
            }
            awake.push(now);
        }
        Schedule::custom(awake).with_static_byzantine(self.byz)
    }

    /// The case's run, one transaction every round, replayed.
    fn replay(&self) -> Replayed {
        let params = Params::builder(self.n)
            .expiration(self.eta)
            .build()
            .unwrap();
        let mut timeline = Timeline::synchronous();
        if self.pi > 0 {
            timeline = timeline.asynchronous(Round::new(self.from), self.pi);
        }
        let config = SimConfig::new(params, self.seed)
            .horizon(self.rounds)
            .timeline(timeline);
        let builder = SimBuilder::from_config(config)
            .workload_spec(WorkloadSpec::txs_every(1))
            .schedule(self.schedule())
            .adversary(ChaosAdversary::default());
        let replayed = replay(builder, &format!("{self:?}"));
        if self.in_model() {
            assert_eq!(replayed.deviations, 0, "{self:?}: retention changed a read");
        }
        replayed
    }
}

/// The grid: 256 cells, each replayed. It is not vacuous: at least as
/// many honest steps are compared as the hand-driven differential it
/// replaced stepped (23 615), and cells decide, the hostile ones too.
#[test]
fn chaos_grid_matches_the_literal() {
    let (mut compared, mut decided, mut hostile_decided) = (0, 0, 0);
    for k in 0..256 {
        let case = Case::draw(k);
        let replayed = case.replay();
        compared += replayed.compared;
        decided += replayed.report.decisions_total;
        if case.byz > 0 && case.pi > 0 {
            hostile_decided += replayed.report.decisions_total;
        }
    }
    assert!(compared >= 23_615, "{compared} honest steps compared");
    assert!(decided > compared / 4, "{decided} decisions");
    assert!(hostile_decided > 0);
}

/// Facts of Algorithm 1 worked out by hand for 4 processes under
/// synchrony, which the replay carries over to `TobProcess`: view 0 only
/// proposes `[b₀]` for view 1; in every odd round all vote for one block,
/// and in the next even round `2v` all vote for it again and propose for
/// view `v + 1` on it; nobody decides before round 3; and `η` changes no
/// byte of the trace.
#[test]
fn synchronous_views_match_a_hand_run() {
    let mut traces = Vec::new();
    for eta in [0, 6] {
        let params = Params::builder(4).expiration(eta).build().unwrap();
        let probe = Recorder::default();
        let events = Rc::clone(&probe.0);
        let builder = SimBuilder::from_config(SimConfig::new(params, 7).horizon(10))
            .schedule(Schedule::full(4, 10))
            .observer(probe);
        replay(builder, &format!("hand run, η = {eta}"));
        let (mut votes, mut proposals) = (vec![vec![]; 11], vec![vec![]; 11]);
        let mut first_decision = None;
        let mut trace = Vec::new();
        for event in events.take() {
            match event {
                SimEvent::EnvelopeSent { envelope } => {
                    trace.push(encode_envelope(envelope.envelope()));
                    match envelope.payload() {
                        Payload::Vote(v) => votes[v.round().as_u64() as usize].push(v.tip()),
                        Payload::Propose(p) => proposals[p.round().as_u64() as usize]
                            .push((p.view().as_u64(), p.block().parent())),
                    }
                }
                SimEvent::DecisionObserved { decision, .. } => {
                    first_decision = first_decision.or(Some(decision.round));
                }
                _ => {}
            }
        }
        assert_eq!(first_decision, Some(Round::new(3)));
        let mut elected = BlockId::GENESIS;
        for r in 0..=10 {
            if r % 2 == 1 {
                elected = votes[r][0];
            }
            let voted = vec![elected; if r == 0 { 0 } else { 4 }];
            let proposed = vec![(r as u64 / 2 + 1, elected); if r % 2 == 1 { 0 } else { 4 }];
            assert_eq!((&votes[r], &proposals[r]), (&voted, &proposed), "round {r}");
        }
        traces.push(trace);
    }
    assert!(traces[0] == traces[1], "η changed a synchronous trace");
}
