//! Property-based tests of the full protocol state machine under random
//! synchronous executions: random participation (with an honest-majority
//! floor), random expiration periods, random transaction workloads.
//!
//! Invariants checked on every execution:
//! * agreement — all decisions of all processes are pairwise compatible;
//! * per-process monotonicity — a process's decided log never regresses;
//! * decision grade soundness — every decided tip is a block that exists
//!   in the decider's own tree;
//! * liveness trend — with enough all-awake suffix rounds, the chain grows.

use proptest::prelude::*;
use st_blocktree::BlockTree;
use st_core::{DecisionEvent, TobConfig, TobProcess};
use st_messages::{Payload, SharedEnvelope};
use st_types::{Params, ProcessId, Round, TxId};

struct Execution {
    procs: Vec<TobProcess>,
    /// Every proposed block: a tree that has seen every proposal.
    global: BlockTree,
    /// Every process's decisions, drained once the run ends.
    decisions: Vec<Vec<DecisionEvent>>,
}

/// Drives `n` processes through `rounds` lock-step rounds; process `p`
/// sleeps in round `r` iff `sleep[r][p]`, except a floor keeps more than
/// 2/3 of the processes awake (the paper's η-sleepiness for the window is
/// then satisfied for modest η). All messages reach all awake processes
/// at each round's end (synchrony).
fn run(n: usize, eta: u64, rounds: u64, sleep_bits: &[u64], txs: &[u8]) -> Execution {
    let params = Params::builder(n)
        .expiration(eta)
        .churn_rate(0.1)
        .build()
        .expect("valid");
    let config = TobConfig::new(params, 7);
    let mut procs: Vec<TobProcess> = (0..n as u32)
        .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
        .collect();
    let min_awake = (2 * n) / 3 + 1;

    // Precompute awake sets: the sleepy model requires a process awake at
    // the beginning of round r+1 to have been awake at the END of round r
    // (it participates in round r's receive phase and drains its queue
    // before it ever sends again).
    let awake_at = |r: u64| -> Vec<bool> {
        let bits = sleep_bits[(r as usize) % sleep_bits.len()];
        let mut awake: Vec<bool> = (0..n).map(|p| bits & (1 << (p % 64)) == 0).collect();
        let mut count = awake.iter().filter(|&&a| a).count();
        let mut idx = 0;
        while count < min_awake {
            if !awake[idx % n] {
                awake[idx % n] = true;
                count += 1;
            }
            idx += 1;
        }
        awake
    };

    // Queued messages for sleeping processes.
    let mut queued: Vec<Vec<SharedEnvelope>> = vec![Vec::new(); n];
    let mut global = BlockTree::new();

    for r in 0..=rounds {
        let round = Round::new(r);
        let awake = awake_at(r);
        let awake_next = awake_at(r + 1);

        // Random transaction submissions to awake processes.
        if let Some(&t) = txs.get(r as usize % txs.len()) {
            let target = (t as usize) % n;
            if awake[target] {
                procs[target].submit_tx(TxId::new(r * 1000 + t as u64));
            }
        }

        // Send phase: processes awake at the beginning of round r.
        let mut batch: Vec<SharedEnvelope> = Vec::new();
        for (i, p) in procs.iter_mut().enumerate() {
            if awake[i] {
                batch.extend(p.step_send(round).into_iter().map(SharedEnvelope::new));
            }
        }
        // A proposal extends a block proposed in an earlier round, so
        // inserting in send order always finds the parent.
        for env in &batch {
            if let Payload::Propose(p) = env.payload() {
                global.insert_or_get(p.block_arc().clone()).unwrap();
            }
        }
        // Receive phase (end of round r): processes awake at the
        // beginning of round r+1 receive everything — queued backlog
        // first, then this round's batch. Others queue.
        for (i, p) in procs.iter_mut().enumerate() {
            if awake_next[i] {
                for env in queued[i].drain(..) {
                    p.on_receive_shared(&env);
                }
                for env in &batch {
                    p.on_receive_shared(env);
                }
            } else {
                queued[i].extend(batch.iter().cloned());
            }
        }
    }
    let decisions = procs.iter_mut().map(|p| p.drain_decisions()).collect();
    Execution {
        procs,
        global,
        decisions,
    }
}

fn check_invariants(ex: &Execution) -> Result<(), TestCaseError> {
    let global = &ex.global;

    // Agreement across all decision events of all processes.
    let mut all: Vec<(usize, st_types::BlockId)> = Vec::new();
    for (i, (p, decisions)) in ex.procs.iter().zip(&ex.decisions).enumerate() {
        for d in decisions {
            prop_assert!(
                p.tree().contains(d.tip),
                "p{i} decided a block missing from its own tree"
            );
            all.push((i, d.tip));
        }
    }
    for (i, (pa, a)) in all.iter().enumerate() {
        for (pb, b) in &all[i + 1..] {
            prop_assert!(
                global.compatible(*a, *b),
                "agreement violated between p{pa} ({a:?}) and p{pb} ({b:?})"
            );
        }
    }

    // Per-process monotonicity.
    for (i, decisions) in ex.decisions.iter().enumerate() {
        let mut prev: Option<st_types::BlockId> = None;
        for d in decisions {
            if let Some(prev_tip) = prev {
                prop_assert!(
                    global.is_ancestor(prev_tip, d.tip) || global.is_ancestor(d.tip, prev_tip),
                    "p{i}'s decisions regressed"
                );
            }
            prev = Some(d.tip);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_synchronous_executions_are_safe(
        n in 4usize..10,
        eta in 0u64..6,
        sleep_bits in prop::collection::vec(any::<u64>(), 1..8),
        txs in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        let ex = run(n, eta, 30, &sleep_bits, &txs);
        check_invariants(&ex)?;
    }

    #[test]
    fn full_participation_always_progresses(
        n in 4usize..10,
        eta in 0u64..6,
    ) {
        let ex = run(n, eta, 30, &[0u64], &[0]);
        check_invariants(&ex)?;
        for (p, decisions) in ex.procs.iter().zip(&ex.decisions) {
            prop_assert!(
                decisions.len() >= 10,
                "only {} decisions with full participation",
                decisions.len()
            );
            let height = p.tree().height(p.decided_tip()).unwrap_or(0);
            prop_assert!(height >= 10, "chain stalled at height {height}");
        }
    }
}
