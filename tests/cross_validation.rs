//! Cross-validation: the `Simulation` engine and a hand-written lock-step
//! driver must produce byte-identical protocol behaviour for the same
//! configuration — guarding against the engine itself distorting the
//! protocol (delivery order, phase sequencing, decision observation).

use sleepy_tob::prelude::*;
use sleepy_tob::sim::{Network, Recipients};

const N: usize = 8;
const HORIZON: u64 = 30;
const SEED: u64 = 1234;

fn params() -> Params {
    Params::builder(N).expiration(3).build().unwrap()
}

/// Hand-written driver: full participation, synchronous, using the same
/// Network primitive.
fn manual_run() -> Vec<TobProcess> {
    let config = TobConfig::new(params(), SEED);
    let mut procs: Vec<TobProcess> = (0..N as u32)
        .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
        .collect();
    let mut network = Network::new(N);
    for r in 0..=HORIZON {
        let round = Round::new(r);
        for (i, p) in procs.iter_mut().enumerate() {
            for env in p.step_send(round) {
                network.send(round, ProcessId::new(i as u32), Recipients::All, env);
            }
        }
        for (i, p) in procs.iter_mut().enumerate() {
            for env in network.deliver_sync(ProcessId::new(i as u32), round) {
                p.on_receive_shared(&env);
            }
        }
    }
    procs
}

#[test]
fn engine_matches_manual_driver() {
    let (tap, log) = DecisionTap::new(N);
    let report = SimBuilder::from_config(SimConfig::new(params(), SEED).horizon(HORIZON))
        .schedule(Schedule::full(N, HORIZON))
        .adversary(SilentAdversary)
        .observer(tap)
        .build()
        .expect("valid simulation")
        .run();
    let mut manual = manual_run();
    let manual_decisions: Vec<Vec<DecisionEvent>> =
        manual.iter_mut().map(|p| p.drain_decisions()).collect();

    // Same decision count per process, same final decided height.
    let manual_heights: Vec<u64> = manual
        .iter()
        .map(|p| p.tree().height(p.decided_tip()).unwrap_or(0))
        .collect();
    assert_eq!(
        report.final_decided_height,
        *manual_heights.iter().max().unwrap()
    );
    let manual_counts: Vec<usize> = manual_decisions.iter().map(Vec::len).collect();
    assert_eq!(report.per_process_decisions, manual_counts);

    // Same decision *contents* on every process (round, view and tip, in
    // order), and the timeline's deciding rounds are process 0's.
    assert_eq!(*log.borrow(), manual_decisions);
    let manual_deciding_rounds: std::collections::BTreeSet<u64> = manual_decisions[0]
        .iter()
        .map(|d| d.round.as_u64())
        .collect();
    let engine_deciding = report
        .timeline
        .samples()
        .iter()
        .filter(|s| s.decisions > 0)
        .map(|s| s.round)
        .collect::<std::collections::BTreeSet<u64>>();
    assert_eq!(manual_deciding_rounds, engine_deciding);
}

#[test]
fn engine_message_count_matches_manual() {
    let report = SimBuilder::from_config(SimConfig::new(params(), SEED).horizon(HORIZON))
        .schedule(Schedule::full(N, HORIZON))
        .adversary(SilentAdversary)
        .build()
        .expect("valid simulation")
        .run();
    // Manual count: every process sends 1 proposal at round 0; 1 vote per
    // odd round; 1 vote + 1 proposal per even round ≥ 2.
    let mut expected = N; // round 0
    for r in 1..=HORIZON {
        expected += if r % 2 == 1 { N } else { 2 * N };
    }
    assert_eq!(report.messages_sent, expected);
}

/// `WorkloadSpec::txs_every`'s drop-when-asleep rule is st-node's
/// `ClusterPlan::tx_for_round`: with every node asleep through a round
/// divisible by `txs_every`, the simulation submits exactly the
/// transactions the plan does, in the same rounds, with the same ids.
#[test]
fn txs_every_drops_the_rounds_the_cluster_plan_skips() {
    let mut plan = sleepy_tob::node::ClusterPlan::full(4, 24);
    plan.txs_every = 3;
    for node in 0..4 {
        plan.sleep(node, 8, 10); // round 9 qualifies but nobody is awake
    }
    let params = Params::builder(plan.n)
        .expiration(plan.eta)
        .build()
        .unwrap();
    let report = SimBuilder::from_config(SimConfig::new(params, plan.seed).horizon(plan.horizon))
        .workload_spec(WorkloadSpec::txs_every(plan.txs_every))
        .schedule(Schedule::custom(plan.schedule_matrix()))
        .run();
    let simulated: Vec<(u64, u64)> = report
        .txs
        .iter()
        .map(|t| (t.submitted.as_u64(), t.tx.as_u64()))
        .collect();
    let planned: Vec<(u64, u64)> = (0..=plan.horizon)
        .filter_map(|r| plan.tx_for_round(r).map(|tx| (r, tx)))
        .collect();
    assert_eq!(simulated, planned);
    assert!(planned.iter().all(|&(r, _)| r != 9), "{planned:?}");
    assert_eq!(report.workload.dropped_asleep, 1);
}
