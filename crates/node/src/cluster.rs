//! Multi-process cluster harness: spawns one OS process per node, injects
//! the plan's kill faults by killing and restarting real processes, and
//! collects every node's [`NodeOutcome`] for the simulator cross-check.
//!
//! Sleep and partition faults are enforced by the nodes themselves (the
//! awake matrix and the writer-side holdback both live in the shared
//! [`ClusterPlan`]); kill faults are the harness's job because only it can
//! destroy a process. Progress is observed through the `ROUND r` lines
//! each node prints after completing a round; a kill window fires once its
//! victim has completed `start − 1`, and the victim is restarted once it
//! has been down for `RESTART_DELAY` and every other node has passed the
//! window's end (with a stall fallback for the case where survivors block
//! on history lost with the victim — restart-and-replay is what unblocks
//! them).
//!
//! The victim parks before the window's first round until it is killed
//! (see [`crate::runtime`]), so the kill lands on the planned round even
//! when rounds are far shorter than a harness poll. Its new life runs its
//! own plan file, `plan_<node>_<window>.json`: the same plan without the
//! windows that have fired, so it does not park at them again.
//!
//! No wall clock is read here (st-lint D2 holds for this file): timeouts
//! and stall detection are poll counters over `thread::sleep`.

use crate::plan::ClusterPlan;
use crate::runtime::NodeOutcome;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Polls of global silence before a pending restart fires early (covers
/// history lost with the victim: survivors stall until it replays).
const STALL_POLLS: u64 = 400;
/// Least time a killed node stays down, as a process supervisor holds a
/// crashed service before restarting it. A kill window is counted in
/// rounds, and at tick 0 its rounds take microseconds: without this floor
/// the outage is one process spawn, too short for the survivors to
/// notice, and a fault run's wall is thread-scheduling noise. With it,
/// the outage is this second plus the survivors' redial on their fixed
/// backoff schedule (`io::spawn_writer`), the same in every run.
const RESTART_DELAY: Duration = Duration::from_secs(1);

/// How to run a cluster.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// The scenario: schedule, faults, workload, ports.
    pub plan: ClusterPlan,
    /// Argv prefix for a node process (e.g. `["./stob", "serve"]`); the
    /// harness appends `--plan`, `--id`, and `--out` arguments.
    pub exec: Vec<String>,
    /// Directory for the plan file, per-node outcome files, and stderr
    /// logs. Created if absent.
    pub dir: PathBuf,
    /// Harness poll interval in milliseconds.
    pub poll_ms: u64,
    /// Give up (kill everything) after this many polls.
    pub timeout_polls: u64,
}

/// One node's lifecycle summary.
#[derive(Clone, Debug)]
pub struct NodeRun {
    /// Node id.
    pub node: u32,
    /// Times the harness killed and restarted this node.
    pub restarts: u64,
    /// Exit code of the final process run (`None` if killed by signal).
    pub exit_code: Option<i32>,
    /// The node's report, if its final run completed and wrote one.
    pub outcome: Option<NodeOutcome>,
}

/// What a cluster run produced.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Per-node lifecycle and report.
    pub nodes: Vec<NodeRun>,
    /// Whether the harness hit its global timeout and killed the cluster.
    pub timed_out: bool,
    /// Polls elapsed (multiply by `poll_ms` for wall-clock milliseconds).
    pub polls: u64,
}

/// Progress observed from one node's stdout, shared with reader threads.
struct Progress {
    /// Highest completed round + 1 (0 = nothing yet); monotonic across
    /// restarts, so kill/restart triggers see pre-kill progress.
    completed: AtomicU64,
    /// Bumped on every `ROUND` line, including replay after a restart —
    /// this is what stall detection watches.
    ticks: AtomicU64,
}

struct NodeProc {
    child: Child,
    exit_code: Option<i32>,
    done: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum KillState {
    Pending,
    Down,
    Done,
}

/// The plan a restarted victim runs: the harness's plan keeping only the
/// kill windows still pending. A node parks before each window that names
/// it, so without this its new life would park again, at a window the
/// harness has already fired and will never kill it for. The awake
/// matrix, and so every decision, is unchanged.
fn restart_plan(plan: &ClusterPlan, states: &[KillState]) -> ClusterPlan {
    let mut plan = plan.clone();
    plan.kills = plan
        .kills
        .into_iter()
        .zip(states)
        .filter(|(_, st)| **st == KillState::Pending)
        .map(|(win, _)| win)
        .collect();
    plan
}

fn spawn_node(
    opts: &ClusterOptions,
    plan_path: &std::path::Path,
    i: usize,
    progress: &Arc<Progress>,
) -> Result<Child, String> {
    let out_path = opts.dir.join(format!("node_{i}.json"));
    let err_path = opts.dir.join(format!("node_{i}.stderr.log"));
    let err_file = std::fs::File::options()
        .create(true)
        .append(true)
        .open(&err_path)
        .map_err(|e| format!("open {}: {e}", err_path.display()))?;
    let mut cmd = Command::new(&opts.exec[0]);
    cmd.args(&opts.exec[1..])
        .arg("--plan")
        .arg(plan_path)
        .arg("--id")
        .arg(i.to_string())
        .arg("--out")
        .arg(&out_path)
        .stdout(Stdio::piped())
        .stderr(err_file)
        .stdin(Stdio::null());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn node {i} ({}): {e}", opts.exec[0]))?;
    let stdout = child.stdout.take().ok_or("no stdout handle")?;
    let progress = progress.clone();
    thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Some(r) = line
                .strip_prefix("ROUND ")
                .and_then(|s| s.parse::<u64>().ok())
            {
                progress.completed.fetch_max(r + 1, Ordering::Relaxed);
                progress.ticks.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    Ok(child)
}

/// Runs the cluster to completion: spawns all nodes, drives the kill
/// schedule, and collects each node's outcome file.
pub fn run_cluster(opts: &ClusterOptions) -> Result<ClusterOutcome, String> {
    opts.plan.validate()?;
    if opts.exec.is_empty() {
        return Err("exec must name a program".into());
    }
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("mkdir {}: {e}", opts.dir.display()))?;
    let plan_path = opts.dir.join("plan.json");
    std::fs::write(&plan_path, opts.plan.to_json()).map_err(|e| format!("write plan: {e}"))?;

    let n = opts.plan.n;
    let progress: Vec<Arc<Progress>> = (0..n)
        .map(|_| {
            Arc::new(Progress {
                completed: AtomicU64::new(0),
                ticks: AtomicU64::new(0),
            })
        })
        .collect();
    let mut procs: Vec<NodeProc> = Vec::with_capacity(n);
    for i in 0..n {
        procs.push(NodeProc {
            child: spawn_node(opts, &plan_path, i, &progress[i])?,
            exit_code: None,
            done: false,
        });
    }
    let mut restarts = vec![0u64; n];
    let mut kill_states: Vec<KillState> = vec![KillState::Pending; opts.plan.kills.len()];

    let mut polls = 0u64;
    let mut timed_out = false;
    let mut last_ticks = 0u64;
    let mut quiet_polls = 0u64;
    loop {
        // Stall detector: total ROUND lines across the cluster.
        let total_ticks: u64 = progress
            .iter()
            .map(|p| p.ticks.load(Ordering::Relaxed))
            .sum();
        if total_ticks == last_ticks {
            quiet_polls += 1;
        } else {
            quiet_polls = 0;
            last_ticks = total_ticks;
        }

        // Drive the kill schedule.
        for (w, win) in opts.plan.kills.iter().enumerate() {
            let k = win.node as usize;
            match kill_states[w] {
                KillState::Pending => {
                    if procs[k].done {
                        // Victim already finished; killing and replaying a
                        // deterministic node reproduces the same outcome,
                        // so the window degenerates to a no-op.
                        kill_states[w] = KillState::Done;
                    } else if progress[k].completed.load(Ordering::Relaxed) >= win.start {
                        let _ = procs[k].child.kill();
                        let _ = procs[k].child.wait();
                        // Blocking is harmless: every other node runs on
                        // its own or is parked, waiting to be killed.
                        thread::sleep(RESTART_DELAY);
                        kill_states[w] = KillState::Down;
                    }
                }
                KillState::Down => {
                    let others_past = (0..n)
                        .all(|i| i == k || progress[i].completed.load(Ordering::Relaxed) > win.end);
                    // Survivors can stall before passing the window if
                    // frames they still need died with the victim; replay
                    // after restart is what feeds them, so restart early.
                    if others_past || quiet_polls >= STALL_POLLS {
                        let path = opts.dir.join(format!("plan_{k}_{w}.json"));
                        let plan = restart_plan(&opts.plan, &kill_states);
                        std::fs::write(&path, plan.to_json())
                            .map_err(|e| format!("write {}: {e}", path.display()))?;
                        procs[k].child = spawn_node(opts, &path, k, &progress[k])?;
                        procs[k].exit_code = None;
                        procs[k].done = false;
                        restarts[k] += 1;
                        quiet_polls = 0;
                        kill_states[w] = KillState::Done;
                    }
                }
                KillState::Done => {}
            }
        }

        // Reap finished children (skip nodes currently held down).
        for (i, p) in procs.iter_mut().enumerate() {
            let down = opts
                .plan
                .kills
                .iter()
                .zip(&kill_states)
                .any(|(win, st)| win.node as usize == i && *st == KillState::Down);
            if p.done || down {
                continue;
            }
            if let Ok(Some(status)) = p.child.try_wait() {
                p.exit_code = status.code();
                p.done = true;
            }
        }

        let all_done = procs.iter().enumerate().all(|(i, p)| {
            p.done
                && !opts
                    .plan
                    .kills
                    .iter()
                    .zip(&kill_states)
                    .any(|(win, st)| win.node as usize == i && *st != KillState::Done)
        });
        if all_done {
            break;
        }
        polls += 1;
        if polls >= opts.timeout_polls {
            timed_out = true;
            for p in &mut procs {
                if !p.done {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                }
            }
            break;
        }
        thread::sleep(Duration::from_millis(opts.poll_ms));
    }

    let nodes = (0..n)
        .map(|i| {
            let out_path = opts.dir.join(format!("node_{i}.json"));
            let outcome = std::fs::read_to_string(&out_path)
                .ok()
                .and_then(|s| serde_json::from_str::<NodeOutcome>(&s).ok());
            NodeRun {
                node: i as u32,
                restarts: restarts[i],
                exit_code: procs[i].exit_code,
                outcome,
            }
        })
        .collect();
    Ok(ClusterOutcome {
        nodes,
        timed_out,
        polls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::KillWindow;

    #[test]
    fn restart_plan_drops_the_fired_windows_only() {
        let mut plan = ClusterPlan::full(3, 30);
        for (node, start, end) in [(2, 5, 7), (1, 10, 12), (2, 20, 22)] {
            plan.sleep(node, start, end);
            plan.kills.push(KillWindow { node, start, end });
        }
        // Node 2's first window is being restarted; node 1's is still to
        // come, and so is node 2's second.
        let states = [KillState::Down, KillState::Pending, KillState::Pending];
        let next = restart_plan(&plan, &states);
        let windows = |p: &ClusterPlan| {
            p.kills
                .iter()
                .map(|w| (w.node, w.start, w.end))
                .collect::<Vec<_>>()
        };
        assert_eq!(windows(&next), vec![(1, 10, 12), (2, 20, 22)]);
        assert_eq!(next.awake, plan.awake, "the schedule is unchanged");
        next.validate().expect("a restart plan is a valid plan");

        // Restarting node 2 again after its second window: nothing of
        // node 2's is left to park at, and a fired window never returns.
        let states = [KillState::Done, KillState::Done, KillState::Down];
        assert_eq!(windows(&restart_plan(&plan, &states)), vec![]);
        let states = [KillState::Done, KillState::Pending, KillState::Down];
        assert_eq!(windows(&restart_plan(&plan, &states)), vec![(1, 10, 12)]);
    }
}
