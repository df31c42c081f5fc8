//! The node's main loop: simulator rounds mapped onto wall-clock ticks,
//! with delivery equivalence enforced by a per-peer **mark barrier**.
//!
//! Before executing round `r` the node ingests, for every peer `q`,
//! exactly the round-batches the lockstep simulator would have delivered
//! by the end of round `r − 1` ([`ClusterPlan::required_mark`]): it
//! blocks until the required mark is consumed and never feeds a batch
//! beyond it. Batches are deduplicated wholesale by round (reconnecting
//! writers re-send their full history), so the protocol sees each
//! `(sender, round)` batch exactly once, at the correct round boundary.
//! Within a boundary the process already tolerates duplicates and
//! reordering — see `st_core::Protocol::on_receive_shared`.
//!
//! Pacing: each awake round takes at least `tick_ms`, except when the
//! node is demonstrably behind the cluster (a peer's mark is ahead of
//! it) — then ticks are skipped, which is what makes kill/restart
//! recovery by plain re-execution fast.
//!
//! Waiting: every wait blocks on the event it waits for. The barrier,
//! the kill-window park and the end-of-run linger block on the inbox
//! channel, so a batch wakes the node the moment its reader forwards it;
//! the flush confirmation blocks on the writers' flush condvar
//! ([`Outbound::wait_flushed`]). Each inbox wait is bounded by `POLL`,
//! and only waits that time out count towards a cap. The one
//! `thread::sleep` left is tick pacing. No clock is read here: the caps
//! are counts of timed-out waits.
//!
//! Kill placement: a node named by a `KillWindow` parks before the
//! window's first round until the harness kills it, so the kill lands on
//! the planned round boundary however short rounds are.

use crate::frame::{self, NodeFrame};
use crate::io::{self, Liveness, Outbound, PeerStat, RoundBatch};
use crate::plan::ClusterPlan;
use serde::{Deserialize, Serialize};
use st_core::{DecisionEvent, TobConfig, TobProcess};
use st_messages::SharedEnvelope;
use st_types::{Params, ProcessId, Round, TxId};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Longest single wait on the inbox.
const POLL: Duration = Duration::from_millis(1);
/// Timed-out barrier waits before the node gives up and reports itself
/// stuck (the harness enforces its own global timeout well below this).
const BARRIER_POLL_CAP: u64 = 120_000;
/// Bound on the best-effort per-round flush confirmation.
const FLUSH_WAIT: Duration = Duration::from_millis(500);
/// Timed-out waits of the end-of-run linger (keeps our history servable
/// while slower peers finish), and of the park before a kill window.
const LINGER_POLL_CAP: u64 = 15_000;

/// What a node writes to its `--out` file: the decided chain plus link
/// diagnostics. The harness compares `decisions` (and the tip)
/// against the equivalent simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// This node's id.
    pub node: u32,
    /// Rounds executed (horizon + 1 on a clean run).
    pub rounds_executed: u64,
    /// Every decision event, in emission order.
    pub decisions: Vec<DecisionEvent>,
    /// Final decided tip (block id).
    pub decided_tip: u64,
    /// Per-peer link stats at exit.
    pub peers: Vec<PeerReport>,
}

/// Per-peer link diagnostics in the node report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PeerReport {
    /// Peer id.
    pub peer: u32,
    /// Link stats snapshot.
    pub stat: PeerStat,
    /// Highest mark seen from this peer.
    pub last_mark: Option<u64>,
}

/// Per-peer inbound state: round-keyed batches plus consumption cursor.
/// A `BTreeMap` keyed by round makes ingestion robust to the brief
/// reconnect window where an old and a new connection interleave — order
/// is recovered by key, duplicates collapse (batch content is
/// deterministic, so overwriting is the identity).
#[derive(Default)]
struct PeerInbox {
    batches: BTreeMap<u64, Vec<st_messages::Envelope>>,
    consumed: Option<u64>,
    max_mark: Option<u64>,
}

/// Waits up to `wait` for a batch on `inbox`, then moves it and everything
/// else queued into the per-peer inboxes. Errs on a wait that timed out
/// and once the listener side has hung up. A batch marked past `horizon`
/// is dropped untouched: no node running this plan can mark past it, and
/// letting it raise `max_mark` would switch pacing off and end the linger
/// early.
fn drain(
    inbox: &Receiver<RoundBatch>,
    peers: &mut [PeerInbox],
    horizon: u64,
    wait: Duration,
) -> Result<(), RecvTimeoutError> {
    let first = inbox.recv_timeout(wait)?;
    for (from, round, batch) in std::iter::once(first).chain(inbox.try_iter()) {
        let Some(p) = peers.get_mut(from.index()) else {
            continue;
        };
        if round > horizon {
            continue;
        }
        p.max_mark = p.max_mark.max(Some(round));
        if p.consumed.is_some_and(|c| round <= c) {
            continue; // stale re-send of an already-consumed round
        }
        p.batches.insert(round, batch);
    }
    Ok(())
}

/// Blocks on `inbox` until `done` holds, filing every batch that arrives.
/// Gives up — `Ok(false)` — after `cap` waits that time out; a batch that
/// arrives does not count, so a chatty peer cannot use the cap up.
fn wait_until(
    inbox: &Receiver<RoundBatch>,
    peers: &mut [PeerInbox],
    horizon: u64,
    cap: u64,
    mut done: impl FnMut(&mut [PeerInbox]) -> bool,
) -> Result<bool, String> {
    let mut timeouts = 0u64;
    while !done(peers) {
        match drain(inbox, peers, horizon, POLL) {
            Ok(()) => {}
            Err(RecvTimeoutError::Timeout) if timeouts < cap => timeouts += 1,
            Err(RecvTimeoutError::Timeout) => return Ok(false),
            Err(RecvTimeoutError::Disconnected) => return Err("listener channel closed".into()),
        }
    }
    Ok(true)
}

/// Feeds `proc` peer `p`'s batches up to round `required`, in round
/// order; true once `required` is consumed. `drain` files only rounds
/// past `consumed`, and this pops in key order, so every filed batch is
/// new.
fn ingest(proc: &mut TobProcess, p: &mut PeerInbox, required: u64) -> bool {
    while let Some(entry) = p.batches.first_entry().filter(|e| *e.key() <= required) {
        p.consumed = Some(*entry.key());
        for env in entry.remove() {
            proc.on_receive_shared(&SharedEnvelope::new(env));
        }
    }
    p.consumed >= Some(required)
}

/// Whether node `me` still owes some peer the batch of round `r`: the
/// peer's writer is connected, the batch is not withheld from it (a
/// partition holds it back on purpose), and fewer than `target` batches
/// are flushed on its connection.
fn lagging(
    plan: &ClusterPlan,
    me: usize,
    r: u64,
    stats: &[PeerStat],
    flushed: &[u64],
    target: u64,
) -> bool {
    (0..plan.n).any(|j| {
        j != me && stats[j].connected && !plan.withheld(r, me, j, r) && flushed[j] < target
    })
}

/// Runs node `id` of `plan` to completion. Blocks for the whole run;
/// spawns the listener, reader, and writer threads internally.
pub fn run_node(plan: &ClusterPlan, id: ProcessId) -> Result<NodeOutcome, String> {
    plan.validate()?;
    let me = id.index();
    let n = plan.n;
    let params = Params::builder(n)
        .expiration(plan.eta)
        .build()
        .map_err(|e| format!("bad params: {e:?}"))?;
    let mut proc = TobProcess::new(id, TobConfig::new(params, plan.seed));

    let board = Arc::new(Liveness::new(n));
    let (tx, inbox) = std::sync::mpsc::channel::<RoundBatch>();
    let listener =
        io::bind_listener(plan.port_of(me)).map_err(|e| format!("bind node {me}: {e}"))?;
    io::spawn_listener(listener, id, tx, board.clone());
    let outbound = Arc::new(Outbound::new(n));
    let plan_arc = Arc::new(plan.clone());
    for j in 0..n {
        if j != me {
            io::spawn_writer(id, j, plan_arc.clone(), outbound.clone(), board.clone());
        }
    }

    let mut peers: Vec<PeerInbox> = (0..n).map(|_| PeerInbox::default()).collect();
    let mut decisions: Vec<DecisionEvent> = Vec::new();
    let mut rounds_executed = 0u64;
    let stdout = std::io::stdout();

    for r in 0..=plan.horizon {
        if plan.kill_starts(me, r) {
            // The harness kills us once we have reported round r − 1.
            // Parking here makes the kill land on that boundary even when
            // a round is shorter than the harness's poll. Bounded: run
            // without the harness, the node sleeps through the window.
            wait_until(&inbox, &mut peers, plan.horizon, LINGER_POLL_CAP, |_| false)?;
        }
        outbound.set_round(r);
        if !plan.is_awake(me, r) {
            // Logically asleep: no barrier, no send, no mark. Report the
            // round immediately so the harness sees progress.
            let mut out = stdout.lock();
            let _ = writeln!(out, "ROUND {r}");
            let _ = out.flush();
            rounds_executed += 1;
            continue;
        }

        // Mark barrier: consume exactly what the simulator would have
        // delivered by the end of round r − 1, peer by peer.
        for q in 0..n {
            if q == me {
                continue;
            }
            let Some(required) = plan.required_mark(me, q, r) else {
                continue;
            };
            let met = wait_until(
                &inbox,
                &mut peers,
                plan.horizon,
                BARRIER_POLL_CAP,
                |peers| ingest(&mut proc, &mut peers[q], required),
            )?;
            if !met {
                return Err(format!(
                    "node {me} stuck at round {r}: waiting for mark {required} from peer {q} \
                     (have {:?})",
                    peers[q].consumed
                ));
            }
        }

        // Workload: the simulator's tx counter, derived from the plan.
        if let Some(txid) = plan.tx_for_round(r) {
            proc.submit_tx(TxId::new(txid));
        }

        // Send phase + decision readout (the simulator drains decisions
        // right after the send phase; ingestion above corresponds to its
        // end-of-previous-round receive phase, so the drained set and
        // order coincide).
        let envs = proc.step_send(Round::new(r));
        decisions.extend(proc.drain_decisions());
        let mut bytes = Vec::new();
        for env in &envs {
            bytes.extend_from_slice(&frame::encode_frame(&NodeFrame::Env(env.clone())));
        }
        bytes.extend_from_slice(&frame::encode_frame(&NodeFrame::Mark { round: r }));
        outbound.push(r, bytes);

        // Best-effort: wait for connected writers to flush this round
        // before reporting it, so a kill right after the report rarely
        // loses the round's frames (and if it does, reconnect re-sends).
        // Writers a partition holds back are not waited for.
        let target = outbound.len() as u64;
        outbound.wait_flushed(FLUSH_WAIT, |flushed| {
            lagging(plan, me, r, &board.snapshot(), flushed, target)
        });

        let mut out = stdout.lock();
        let _ = writeln!(out, "ROUND {r}");
        let _ = out.flush();
        drop(out);
        rounds_executed += 1;

        // Pacing: a round costs one tick unless we are provably behind
        // the cluster (replay after restart, or waking from sleep).
        let behind = peers.iter().any(|p| p.max_mark.is_some_and(|m| m > r + 1));
        if !behind && plan.tick_ms > 0 {
            thread::sleep(Duration::from_millis(plan.tick_ms));
        }
    }

    // Linger: keep our writer threads (and their full history) alive
    // until every peer has reported its own final awake round — a peer's
    // final mark implies it completed its run and no longer needs to pull
    // replay history from us. Bounded so a peer that died for good cannot
    // hold us hostage.
    let _ = wait_until(&inbox, &mut peers, plan.horizon, LINGER_POLL_CAP, |peers| {
        (0..n).all(|q| {
            q == me
                || plan
                    .final_awake_round(q)
                    .is_none_or(|fin| peers[q].max_mark >= Some(fin))
        })
    });

    let outcome = NodeOutcome {
        node: id.as_u32(),
        rounds_executed,
        decisions,
        decided_tip: proc.decided_tip().as_u64(),
        peers: (0..n)
            .filter(|&j| j != me)
            .map(|j| PeerReport {
                peer: j as u32,
                stat: board.snapshot()[j].clone(),
                last_mark: peers[j].max_mark,
            })
            .collect(),
    };
    Ok(outcome)
}

/// The `stob serve` entrypoint: loads the plan, runs a [`TobProcess`]
/// node (lingering at the end so peers can finish pulling history), then
/// writes the [`NodeOutcome`] JSON to `out_path`.
pub fn serve(plan_path: &str, id: u32, out_path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(plan_path)
        .map_err(|e| format!("cannot read plan {plan_path}: {e}"))?;
    let plan = ClusterPlan::from_json(&json)?;
    if id as usize >= plan.n {
        return Err(format!("node id {id} out of range (n = {})", plan.n));
    }
    let outcome = run_node(&plan, ProcessId::new(id))?;
    let rendered = serde_json::to_string(&outcome).map_err(|e| format!("render outcome: {e:?}"))?;
    std::fs::write(out_path, rendered).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_drops_a_mark_beyond_the_horizon() {
        let (tx, inbox) = std::sync::mpsc::channel::<RoundBatch>();
        let mut peers: Vec<PeerInbox> = (0..3).map(|_| PeerInbox::default()).collect();
        tx.send((ProcessId::new(1), 4, Vec::new())).unwrap();
        assert_eq!(drain(&inbox, &mut peers, 10, Duration::ZERO), Ok(()));
        tx.send((ProcessId::new(1), u64::MAX, Vec::new())).unwrap();
        assert_eq!(drain(&inbox, &mut peers, 10, Duration::ZERO), Ok(()));
        assert_eq!(peers[1].max_mark, Some(4));
        assert_eq!(
            peers[1].batches.keys().copied().collect::<Vec<_>>(),
            vec![4]
        );
        assert_eq!(
            drain(&inbox, &mut peers, 10, Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            drain(&inbox, &mut peers, 10, Duration::ZERO),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn barrier_cap_counts_only_timed_out_waits() {
        let (tx, inbox) = std::sync::mpsc::channel::<RoundBatch>();
        let mut peers: Vec<PeerInbox> = (0..2).map(|_| PeerInbox::default()).collect();
        // Five batches queued one at a time: each arrival wakes the wait
        // without spending the cap of one timeout.
        let mut arrivals = 0;
        let met = wait_until(&inbox, &mut peers, 10, 1, |_| {
            arrivals += 1;
            if arrivals <= 5 {
                tx.send((ProcessId::new(1), arrivals, Vec::new())).unwrap();
            }
            false
        });
        assert_eq!(met, Ok(false));
        assert_eq!(peers[1].max_mark, Some(5));
        // Two timed-out waits after the last arrival exceed the cap.
        assert_eq!(arrivals, 5 + 2);
    }

    #[test]
    fn a_withheld_peer_is_not_lagging() {
        let mut plan = ClusterPlan::full(4, 20);
        plan.partitions.push(crate::plan::PartitionWindow {
            start: 8,
            end: 10,
            groups: vec![vec![0, 1]],
        });
        let up = PeerStat {
            connected: true,
            ..PeerStat::default()
        };
        let mut stats = vec![up; 4];
        // Node 0 at round 9 has pushed 10 batches. Peer 1 (its group) has
        // them all; peers 2 and 3 are across the partition and have only
        // the 9 before this round's.
        let flushed = [0, 10, 9, 9];
        assert!(!lagging(&plan, 0, 9, &stats, &flushed, 10));
        // Peer 1 missing this round's batch does lag.
        assert!(lagging(&plan, 0, 9, &stats, &[0, 9, 9, 9], 10));
        // Once the window has passed, peers 2 and 3 are owed it too...
        assert!(lagging(&plan, 0, 11, &stats, &flushed, 10));
        // ...unless their writers are down.
        stats[2].connected = false;
        stats[3].connected = false;
        assert!(!lagging(&plan, 0, 11, &stats, &flushed, 10));
    }
}
