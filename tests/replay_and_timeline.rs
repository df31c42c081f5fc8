//! Integration tests for replay immunity, the execution timeline, and
//! recovery after every asynchronous window.

use sleepy_tob::prelude::*;
use sleepy_tob::sim::{Network, Recipients, SentMessage};

/// Replays old, *authentic* protocol messages into processes, the way a
/// misbehaving gossip layer (or an attacker echoing recorded traffic)
/// would. Signatures make replayed messages pass verification; the
/// defence is the round tag.
struct ReplayDriver {
    lag: u64,
    replayed_upto: usize,
}

impl ReplayDriver {
    /// Re-delivers every pool message older than `round − lag` to every
    /// process, once. Progress is tracked by each message's global index,
    /// so compaction of the fully-delivered prefix cannot repeat or skip
    /// one.
    fn replay_into(&mut self, pool: &[SentMessage], round: Round, procs: &mut [TobProcess]) {
        let cutoff = round.saturating_sub(self.lag);
        for msg in pool {
            if msg.index < self.replayed_upto {
                continue;
            }
            if msg.round >= cutoff {
                break; // pool is round-sorted: nothing older follows
            }
            for p in procs.iter_mut() {
                p.on_receive_shared(&msg.envelope);
            }
            self.replayed_upto = msg.index + 1;
        }
    }
}

/// Replaying authentic old messages must change nothing: votes are keyed
/// by their round tag, so re-delivery is a duplicate and cannot resurrect
/// expired votes (the property that makes the expiration window sound
/// against recorded-traffic attacks).
#[test]
fn replay_has_no_effect() {
    let n = 6;
    let params = Params::builder(n).expiration(3).build().unwrap();
    let config = TobConfig::new(params, 5);

    let run = |with_replay: bool| -> Vec<(u64, BlockId)> {
        let mut procs: Vec<TobProcess> = (0..n as u32)
            .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
            .collect();
        let mut network = Network::new(n);
        let mut replayer = ReplayDriver {
            lag: 2,
            replayed_upto: 0,
        };
        for r in 0..=24u64 {
            let round = Round::new(r);
            let batches: Vec<Vec<Envelope>> =
                procs.iter_mut().map(|p| p.step_send(round)).collect();
            for (i, batch) in batches.iter().enumerate() {
                for env in batch {
                    network.send(
                        round,
                        ProcessId::new(i as u32),
                        Recipients::All,
                        env.clone(),
                    );
                }
            }
            // Replay all sufficiently old traffic into everyone.
            if with_replay {
                let pool: Vec<_> = network.pool().to_vec();
                replayer.replay_into(&pool, round, &mut procs);
            }
            for i in 0..n {
                for env in network.deliver_sync(ProcessId::new(i as u32), round) {
                    procs[i].on_receive_shared(&env);
                }
            }
        }
        procs[0]
            .drain_decisions()
            .iter()
            .map(|d| (d.round.as_u64(), d.tip))
            .collect()
    };

    let clean = run(false);
    let replayed = run(true);
    assert!(!clean.is_empty());
    assert_eq!(clean, replayed, "replay changed protocol behaviour");
}

/// The timeline shows the chain growing *during* a mass-sleep incident —
/// the time-resolved version of the dynamic-availability claim.
#[test]
fn chain_grows_during_incident() {
    let n = 20;
    let horizon = 80u64;
    let params = Params::builder(n).build().unwrap();
    let report = SimBuilder::from_config(SimConfig::new(params, 3).horizon(horizon))
        .schedule(Schedule::mass_sleep(n, horizon, 0.6, 20, 60))
        .adversary(SilentAdversary)
        .build()
        .expect("valid simulation")
        .run();
    let t = &report.timeline;
    let during = t.growth_in(Round::new(20), Round::new(60));
    let before = t.growth_in(Round::new(0), Round::new(20));
    // ~1 block per view both before and during the outage.
    assert!(
        during >= 15,
        "chain grew only {during} blocks during the incident"
    );
    assert!(before >= 7);
    // Participation drop is visible in the series.
    assert_eq!(t.at(Round::new(30)).unwrap().honest_awake, 8);
    assert_eq!(t.at(Round::new(10)).unwrap().honest_awake, 20);
}

/// During a partition attack on vanilla MMR the per-process decided
/// heights visibly diverge; with η > π they stay tight.
#[test]
fn timeline_divergence_indicator() {
    let run = |eta: u64| {
        let n = 8;
        let horizon = 28u64;
        let params = Params::builder(n).expiration(eta).build().unwrap();
        SimBuilder::from_config(
            SimConfig::new(params, 5)
                .horizon(horizon)
                .timeline(Timeline::synchronous().asynchronous(Round::new(10), 4)),
        )
        .schedule(Schedule::full(n, horizon))
        .adversary(PartitionAttacker::new())
        .build()
        .expect("valid simulation")
        .run()
    };
    let vanilla = run(0);
    let extended = run(6);
    assert!(!vanilla.is_safe());
    assert!(extended.is_safe());
    // The spread indicator is wider for the broken run (both runs pause
    // during the window; only vanilla *diverges*).
    assert!(
        vanilla.timeline.max_height_spread() >= extended.timeline.max_height_spread(),
        "vanilla spread {} < extended spread {}",
        vanilla.timeline.max_height_spread(),
        extended.timeline.max_height_spread()
    );
}

/// One n = 64 timeline cell (EXPERIMENTS.md P3): safe, no Definition-5
/// violation, one recovery per window, each within two rounds.
fn assert_recovers_after_every_window(
    eta: u64,
    timeline: Timeline,
    adversary: impl Adversary + 'static,
    windows: usize,
) {
    let (n, horizon) = (64, 60);
    let params = Params::builder(n).expiration(eta).build().unwrap();
    let report = SimBuilder::from_config(
        SimConfig::new(params, 0x71AE)
            .horizon(horizon)
            .timeline(timeline),
    )
    .workload_spec(WorkloadSpec::txs_every(8))
    .schedule(Schedule::full(n, horizon))
    .adversary(adversary)
    .build()
    .expect("valid timeline cell")
    .run();
    assert!(report.is_safe(), "{:?}", report.safety_violations);
    assert!(report.is_asynchrony_resilient());
    assert!(
        report.recovered_after_every_window(),
        "{:?}",
        report.recoveries
    );
    assert_eq!(report.recoveries.len(), windows);
    assert_eq!(report.max_recovery_rounds(), Some(2));
}

/// The paper's central claim: the extended protocol recovers after
/// *every* asynchronous spell, here three of π = 4 < η = 6 under the
/// partition attacker.
#[test]
fn alternating_partition_recovers_after_every_window() {
    assert_recovers_after_every_window(6, alternating(4, 12, 3), PartitionAttacker::new(), 3);
}

/// The same three spells as a total blackout.
#[test]
fn alternating_blackout_recovers_after_every_window() {
    assert_recovers_after_every_window(6, alternating(4, 12, 3), BlackoutAdversary, 3);
}

/// Partial synchrony: bounded delay Δ = 2 < η = 4 until GST at round 30.
#[test]
fn gst_delta_2_recovers_after_gst() {
    assert_recovers_after_every_window(4, gst(2, Round::new(30)), SilentAdversary, 1);
}

/// Partial synchrony: bounded delay Δ = 4 < η = 6 until GST at round 30.
#[test]
fn gst_delta_4_recovers_after_gst() {
    assert_recovers_after_every_window(6, gst(4, Round::new(30)), SilentAdversary, 1);
}
