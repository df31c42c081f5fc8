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
//! Within a boundary the `Protocol` contract already tolerates duplicates
//! and reordering — see `Protocol::on_receive_shared`.
//!
//! Pacing: each awake round takes at least `tick_ms`, except when the
//! node is demonstrably behind the cluster (a peer's mark is ahead of
//! it) — then ticks are skipped, which is what makes kill/restart
//! recovery by plain re-execution fast.

use crate::frame::{self, NodeFrame};
use crate::io::{self, Liveness, Outbound, PeerStat, RoundBatch};
use crate::plan::ClusterPlan;
use serde::{Deserialize, Serialize};
use st_core::{DecisionEvent, Protocol, TobConfig, TobProcess};
use st_messages::SharedEnvelope;
use st_types::{Params, ProcessId, Round, TxId};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Barrier poll interval.
const POLL: Duration = Duration::from_millis(1);
/// Barrier poll cap before the node gives up and reports itself stuck
/// (the harness enforces its own global timeout well below this).
const BARRIER_POLL_CAP: u64 = 120_000;
/// Poll cap for the best-effort per-round flush confirmation.
const FLUSH_POLL_CAP: u64 = 500;
/// Poll cap for the end-of-run linger (keeps our history servable while
/// slower peers finish).
const LINGER_POLL_CAP: u64 = 15_000;

/// What a node writes to its `--out` file: the decided chain plus link
/// diagnostics. The harness byte-compares `decisions` (and the tip)
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

/// Moves everything queued on `inbox` into the per-peer inboxes; `false`
/// once the listener side has hung up. A batch marked past `horizon` is
/// dropped untouched: no node running this plan can mark past it, and
/// letting it raise `max_mark` would switch pacing off and end the linger
/// early.
fn drain(inbox: &Receiver<RoundBatch>, peers: &mut [PeerInbox], horizon: u64) -> bool {
    loop {
        match inbox.try_recv() {
            Ok((from, round, batch)) => {
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
            Err(TryRecvError::Empty) => return true,
            Err(TryRecvError::Disconnected) => return false,
        }
    }
}

/// Runs `P` as node `id` of `plan` to completion. Blocks for the whole
/// run; spawns the listener, reader, and writer threads internally.
pub fn run_node<P: Protocol>(plan: &ClusterPlan, id: ProcessId) -> Result<NodeOutcome, String> {
    plan.validate()?;
    let me = id.index();
    let n = plan.n;
    let params = Params::builder(n)
        .expiration(plan.eta)
        .build()
        .map_err(|e| format!("bad params: {e:?}"))?;
    let mut proc = P::new(id, TobConfig::new(params, plan.seed));

    let board = Arc::new(Liveness::new(n));
    let (tx, inbox) = std::sync::mpsc::channel::<RoundBatch>();
    let listener =
        io::bind_listener(plan.port_of(me)).map_err(|e| format!("bind node {me}: {e}"))?;
    io::spawn_listener(listener, tx, board.clone());
    let outbound = Arc::new(Outbound::new());
    let flushed: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let plan_arc = Arc::new(plan.clone());
    for j in 0..n {
        if j != me {
            io::spawn_writer(
                id,
                j,
                plan_arc.clone(),
                outbound.clone(),
                board.clone(),
                flushed.clone(),
            );
        }
    }

    let mut peers: Vec<PeerInbox> = (0..n).map(|_| PeerInbox::default()).collect();
    let mut decisions: Vec<DecisionEvent> = Vec::new();
    let mut rounds_executed = 0u64;
    let stdout = std::io::stdout();

    for r in 0..=plan.horizon {
        outbound.round.store(r, Ordering::Release);
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
            let mut polls = 0u64;
            loop {
                if !drain(&inbox, &mut peers, plan.horizon) {
                    return Err("listener channel closed".into());
                }
                let p = &mut peers[q];
                loop {
                    match p.batches.first_key_value() {
                        Some((&br, _)) if p.consumed.is_some_and(|c| br <= c) => {
                            p.batches.pop_first();
                        }
                        Some((&br, _)) if br <= required => {
                            let Some((br, batch)) = p.batches.pop_first() else {
                                break;
                            };
                            for env in batch {
                                proc.on_receive_shared(&SharedEnvelope::new(env));
                            }
                            p.consumed = Some(br);
                        }
                        _ => break,
                    }
                }
                if p.consumed >= Some(required) {
                    break;
                }
                polls += 1;
                if polls > BARRIER_POLL_CAP {
                    return Err(format!(
                        "node {me} stuck at round {r}: waiting for mark {required} from peer {q} \
                         (have {:?})",
                        peers[q].consumed
                    ));
                }
                thread::sleep(POLL);
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
        let target = outbound.len() as u64;
        for _ in 0..FLUSH_POLL_CAP {
            let stats = board.snapshot();
            let lagging = (0..n).any(|j| {
                j != me && stats[j].connected && flushed[j].load(Ordering::Acquire) < target
            });
            if !lagging {
                break;
            }
            thread::sleep(POLL);
        }

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
    for _ in 0..LINGER_POLL_CAP {
        drain(&inbox, &mut peers, plan.horizon);
        let all_done = (0..n).all(|q| {
            q == me
                || match plan.final_awake_round(q) {
                    None => true,
                    Some(fin) => peers[q].max_mark >= Some(fin),
                }
        });
        if all_done {
            break;
        }
        thread::sleep(POLL);
    }

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
    let outcome = run_node::<TobProcess>(&plan, ProcessId::new(id))?;
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
        assert!(drain(&inbox, &mut peers, 10));
        tx.send((ProcessId::new(1), u64::MAX, Vec::new())).unwrap();
        assert!(drain(&inbox, &mut peers, 10));
        assert_eq!(peers[1].max_mark, Some(4));
        assert_eq!(
            peers[1].batches.keys().copied().collect::<Vec<_>>(),
            vec![4]
        );
    }
}
