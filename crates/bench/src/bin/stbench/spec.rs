//! The normative names: the five workloads, the end-to-end metrics with
//! their regression bounds, and the per-layer metrics. `BENCHMARK.json`
//! at the repo root repeats these; a test keeps the two in step.

use st_load::{ConstantRate, FlashCrowd, Workload};
use st_node::{ClusterPlan, KillWindow, PartitionWindow};
use st_sim::adversary::{PartitionAttacker, SilentAdversary};
use st_sim::{ChurnOptions, Schedule, SimBuilder, SimConfig, Simulation, Timeline, WorkloadSpec};
use st_types::{Params, Round};

/// Every horizon in the issue's workload table is divided by this one
/// factor so that a run (set-up, warm-up, at least three repetitions)
/// fits the benchmark driver's per-run budget. Nothing else is scaled.
pub(crate) const HORIZON_DIV: u64 = 2;

/// Mempool capacity and per-round submission batch of every simulated
/// workload (the `exp_workload` knee configuration).
pub(crate) const CAPACITY: usize = 64;
pub(crate) const BATCH: usize = 4;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric and the share of the baseline by which it may
/// worsen before `--compare` (and the driver) call it a regression.
pub(crate) struct EndToEnd {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: Better,
    pub(crate) bound: f64,
    /// Absolute slack: a change smaller than this never regresses,
    /// whatever the share says (`setup_s` is tens of milliseconds on the
    /// simulated workloads, where 25 % is scheduler noise).
    pub(crate) floor: f64,
    /// A function of the seed alone. Between two result files of one
    /// seed `--compare` allows it no increase at all; `bound` is for
    /// medians over different seeds (the driver's comparison).
    pub(crate) exact_per_seed: bool,
    /// Measured per `Simulation::step()`. A cluster's rounds cannot be
    /// seen from outside a node, so on `cluster_*` the figure is one
    /// repetition's wall ÷ rounds — `rounds_per_s` again — printed
    /// because the driver wants every metric on every workload, and
    /// left out of `--compare`.
    pub(crate) sim_only: bool,
}

pub(crate) const END_TO_END: [EndToEnd; 8] = [
    measured("rounds_per_s", "1/s", Better::Higher, 0.25),
    EndToEnd {
        sim_only: true,
        ..measured("round_ms_p50", "ms", Better::Lower, 0.25)
    },
    EndToEnd {
        sim_only: true,
        ..measured("round_ms_p95", "ms", Better::Lower, 0.25)
    },
    EndToEnd {
        exact_per_seed: true,
        ..measured("decide_latency_rounds_p50", "rounds", Better::Lower, 0.10)
    },
    EndToEnd {
        exact_per_seed: true,
        ..measured("decide_latency_rounds_p95", "rounds", Better::Lower, 0.10)
    },
    EndToEnd {
        exact_per_seed: true,
        ..measured("ops_failed_share", "ratio", Better::Lower, 0.15)
    },
    measured("peak_rss_mb", "MB", Better::Lower, 0.10),
    EndToEnd {
        floor: 0.05,
        ..measured("setup_s", "s", Better::Lower, 0.25)
    },
];

/// A wall-clock or memory metric on every workload, no absolute floor.
const fn measured(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor: 0.0,
        exact_per_seed: false,
        sim_only: false,
    }
}

/// `(name, unit, better)` of every per-layer metric, grouped by layer.
/// A workload that does not exercise a layer reports 0 for its metrics.
pub(crate) const PER_LAYER: [(&str, &str, Better); 54] = [
    ("crypto.sign_ns", "ns", Better::Lower),
    ("crypto.verify_ns", "ns", Better::Lower),
    ("crypto.verifies", "count", Better::Lower),
    ("wire.encode_ns", "ns", Better::Lower),
    ("wire.decode_ns", "ns", Better::Lower),
    ("wire.bytes_per_envelope", "B", Better::Lower),
    ("vote_store.insert_ns", "ns", Better::Lower),
    ("vote_store.prune_ns", "ns", Better::Lower),
    ("vote_store.window_ns", "ns", Better::Lower),
    ("vote_store.dup_ratio", "ratio", Better::Lower),
    ("propose_store.insert_ns", "ns", Better::Lower),
    ("blocktree.insert_ns", "ns", Better::Lower),
    ("blocktree.is_ancestor_ns", "ns", Better::Lower),
    ("blocktree.log_of_us", "us", Better::Lower),
    ("blocktree.depth", "count", Better::Lower),
    ("blocktree.blocks", "count", Better::Lower),
    ("ga.set_vote_ns", "ns", Better::Lower),
    ("ga.outputs_us", "us", Better::Lower),
    ("ga.tallies", "count", Better::Lower),
    ("core.ingest_ns", "ns", Better::Lower),
    ("core.ingest_vote_ns", "ns", Better::Lower),
    ("core.ingest_propose_ns", "ns", Better::Lower),
    ("core.step_send_us_p50", "us", Better::Lower),
    ("core.step_send_us_p95", "us", Better::Lower),
    ("core.deliveries", "count", Better::Lower),
    ("core.steps", "count", Better::Lower),
    ("core.decisions", "count", Better::Higher),
    ("core.ingest_share", "ratio", Better::Lower),
    ("core.step_send_share", "ratio", Better::Lower),
    ("network.fanout_ns", "ns", Better::Lower),
    ("network.pool_high_water", "count", Better::Lower),
    ("runner.messages", "count", Better::Lower),
    ("runner.deliveries", "count", Better::Lower),
    ("runner.round_ms_max", "ms", Better::Lower),
    ("runner.finish_ms", "ms", Better::Lower),
    ("runner.report_json_ms", "ms", Better::Lower),
    ("runner.report_bytes", "B", Better::Lower),
    ("runner.residual_share", "ratio", Better::Lower),
    ("runner.trace_overhead_share", "ratio", Better::Lower),
    ("load.offer_ns", "ns", Better::Lower),
    ("load.drain_ns", "ns", Better::Lower),
    ("load.histogram_record_ns", "ns", Better::Lower),
    ("load.offered", "count", Better::Higher),
    ("load.dropped_share", "ratio", Better::Lower),
    ("load.mempool_high_water", "count", Better::Lower),
    ("node.frame_encode_ns", "ns", Better::Lower),
    ("node.frame_decode_ns", "ns", Better::Lower),
    ("node.wire_bytes_per_round", "B", Better::Lower),
    ("node.ms_per_round", "ms", Better::Lower),
    ("node.protocol_cpu_share", "ratio", Better::Lower),
    ("node.reconnects", "count", Better::Lower),
    ("node.restarts", "count", Better::Lower),
    ("node.harness_polls", "count", Better::Lower),
    ("node.spawn_ms", "ms", Better::Lower),
];

/// How awake/asleep is generated.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Participation {
    /// `Schedule::full`.
    Full,
    /// `Schedule::random_churn(n, h, 0.02, seed, {min_awake 0.6, wake 0.3})`.
    Churn,
}

/// The environment of a simulated workload.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Environment {
    /// Synchronous throughout, silent adversary, constant client rate.
    Sync,
    /// Every `period` rounds from `first`: an asynchronous window of
    /// π = 3 rounds, then 12 rounds later a bounded-delay window of 8
    /// rounds with Δ = 2; `PartitionAttacker`; flash-crowd clients.
    AsyncCycle { first: u64, period: u64 },
}

/// A workload run on `Simulation`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SimSpec {
    pub(crate) n: usize,
    pub(crate) eta: u64,
    pub(crate) gamma: f64,
    pub(crate) horizon: u64,
    pub(crate) participation: Participation,
    pub(crate) environment: Environment,
}

/// A workload run on the `stob serve` cluster.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClusterSpec {
    pub(crate) n: usize,
    pub(crate) horizon: u64,
    pub(crate) base_port: u16,
    /// Minimum wall of one round in milliseconds (0: as fast as the mark
    /// barrier allows).
    pub(crate) tick_ms: u64,
    /// Kill/restart, a sleep window and a partition (see
    /// [`ClusterSpec::plan`]).
    pub(crate) faults: bool,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum Kind {
    Sim(SimSpec),
    Cluster(ClusterSpec),
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WorkloadDef {
    pub(crate) name: &'static str,
    pub(crate) why: &'static str,
    pub(crate) kind: Kind,
}

pub(crate) const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "wide_sync",
        why: "n=256 full sync: message-densest, per-receiver ingest dominates, tally served from the cohort cache",
        kind: Kind::Sim(SimSpec {
            n: 256,
            eta: 2,
            gamma: 0.0,
            horizon: 100 / HORIZON_DIV,
            participation: Participation::Full,
            environment: Environment::Sync,
        }),
    },
    WorkloadDef {
        name: "deep_horizon",
        why: "n=64 long chain: per-round cost and RSS grow with height, so chain walks and retained state dominate",
        kind: Kind::Sim(SimSpec {
            n: 64,
            eta: 2,
            gamma: 0.0,
            horizon: 800 / HORIZON_DIV,
            participation: Participation::Full,
            environment: Environment::Sync,
        }),
    },
    WorkloadDef {
        name: "churn_async",
        why: "n=128 churn + async + bounded-delay windows (pi<eta): fallback tally, backlog flushes, mempool past its knee",
        kind: Kind::Sim(SimSpec {
            n: 128,
            eta: 4,
            gamma: 0.1,
            horizon: 160 / HORIZON_DIV,
            participation: Participation::Churn,
            environment: Environment::AsyncCycle {
                first: 20,
                period: 40,
            },
        }),
    },
    WorkloadDef {
        name: "cluster_steady",
        why: "4 stob-serve processes over localhost TCP, no faults: wire codec, framing, sockets and the mark barrier",
        kind: Kind::Cluster(ClusterSpec {
            n: 4,
            horizon: 2000 / HORIZON_DIV,
            base_port: 40100,
            tick_ms: 0,
            faults: false,
        }),
    },
    WorkloadDef {
        name: "cluster_faults",
        why: "same cluster with kill/restart, a sleep window and a partition: time without service and catch-up replay",
        kind: Kind::Cluster(ClusterSpec {
            n: 4,
            horizon: 1000 / HORIZON_DIV,
            base_port: 40200,
            tick_ms: 0,
            faults: true,
        }),
    },
];

pub(crate) fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The client traffic of a simulated workload (an enum rather than a
/// `Box<dyn Workload>` because `WorkloadSpec::new` takes the generator
/// by value and the probe needs its own copy).
#[derive(Clone, Debug)]
pub(crate) enum Load {
    Constant(ConstantRate),
    Flash(FlashCrowd),
}

impl Workload for Load {
    fn name(&self) -> &str {
        match self {
            Load::Constant(w) => w.name(),
            Load::Flash(w) => w.name(),
        }
    }

    fn clients(&self) -> usize {
        match self {
            Load::Constant(w) => w.clients(),
            Load::Flash(w) => w.clients(),
        }
    }

    fn arrivals(&self, round: u64, client: usize) -> u64 {
        match self {
            Load::Constant(w) => w.arrivals(round, client),
            Load::Flash(w) => w.arrivals(round, client),
        }
    }
}

/// Everything a simulation is built from, generated from the workload
/// seed. The program under test only ever sees these. Simulated
/// workloads get theirs from [`SimSpec::inputs`]; cluster workloads get
/// the oracle simulation's from [`ClusterSpec::oracle_inputs`].
#[derive(Clone, Debug)]
pub(crate) struct SimInputs {
    pub(crate) seed: u64,
    pub(crate) horizon: u64,
    pub(crate) params: Params,
    pub(crate) schedule: Schedule,
    pub(crate) timeline: Timeline,
    pub(crate) load: Load,
    pub(crate) capacity: usize,
    pub(crate) batch: usize,
    /// `PartitionAttacker` instead of `SilentAdversary`.
    pub(crate) attacker: bool,
}

fn params(n: usize, eta: u64, gamma: f64) -> Params {
    Params::builder(n)
        .expiration(eta)
        .churn_rate(gamma)
        .build()
        .expect("workload parameters are valid")
}

impl SimSpec {
    /// Generates the inputs: parameters, schedule, timeline, client load.
    pub(crate) fn inputs(&self, seed: u64) -> SimInputs {
        let schedule = match self.participation {
            Participation::Full => Schedule::full(self.n, self.horizon),
            Participation::Churn => Schedule::random_churn(
                self.n,
                self.horizon,
                0.02,
                seed,
                &ChurnOptions {
                    min_awake_frac: 0.6,
                    wake_prob: 0.3,
                    ..ChurnOptions::default()
                },
            ),
        };
        let mut timeline = Timeline::synchronous();
        let load = match self.environment {
            Environment::Sync => Load::Constant(ConstantRate::per_round(4).clients(4)),
            Environment::AsyncCycle { first, period } => {
                let mut r = first;
                while r <= self.horizon {
                    timeline = timeline.asynchronous(Round::new(r), 3).bounded_delay(
                        Round::new(r + 12),
                        8,
                        2,
                    );
                    r += period;
                }
                Load::Flash(
                    FlashCrowd::new(2)
                        .clients(4)
                        .burst(first + 10, 20, 16)
                        .jitter(seed),
                )
            }
        };
        SimInputs {
            seed,
            horizon: self.horizon,
            params: params(self.n, self.eta, self.gamma),
            schedule,
            timeline,
            load,
            capacity: CAPACITY,
            batch: BATCH,
            attacker: matches!(self.environment, Environment::AsyncCycle { .. }),
        }
    }

    /// The same workload at a size a debug-build test can afford.
    #[cfg(test)]
    pub(crate) fn tiny(&self) -> SimSpec {
        SimSpec {
            n: 8,
            horizon: 20,
            environment: match self.environment {
                Environment::Sync => Environment::Sync,
                Environment::AsyncCycle { .. } => Environment::AsyncCycle {
                    first: 4,
                    period: 40,
                },
            },
            ..*self
        }
    }
}

impl SimInputs {
    /// The builder loaded with the generated inputs (callers may add
    /// observers before building).
    pub(crate) fn builder(&self) -> SimBuilder {
        let builder = SimBuilder::from_config(
            SimConfig::new(self.params, self.seed)
                .horizon(self.horizon)
                .timeline(self.timeline.clone()),
        )
        .schedule(self.schedule.clone())
        .workload_spec(
            WorkloadSpec::new(self.load.clone())
                .capacity(self.capacity)
                .batch(self.batch),
        );
        if self.attacker {
            builder.adversary(PartitionAttacker::new())
        } else {
            builder.adversary(SilentAdversary)
        }
    }

    pub(crate) fn build(&self) -> Simulation {
        self.builder()
            .build()
            .expect("generated inputs are consistent")
    }
}

impl ClusterSpec {
    /// The cluster plan: η = 4, one transaction per round. With `faults`,
    /// in fractions of the horizon that give the issue's rounds at
    /// h = 1000: node n−1 is killed for [h/2, h/2 + max(h/50, 3)] (asleep
    /// in the plan, restarted by the harness), node 1 sleeps for
    /// [7h/10, 7h/10 + 3], and the lower half of the nodes is partitioned
    /// from the rest for [8h/10, 8h/10 + 4].
    pub(crate) fn plan(&self, seed: u64) -> ClusterPlan {
        let h = self.horizon;
        let mut plan = ClusterPlan::full(self.n, h);
        plan.seed = seed;
        plan.eta = 4;
        plan.tick_ms = self.tick_ms;
        plan.txs_every = 1;
        plan.base_port = self.base_port;
        if self.faults && h >= 10 {
            let victim = self.n as u32 - 1;
            let (ks, ke) = (h / 2, h / 2 + (h / 50).max(3));
            plan.sleep(victim, ks, ke);
            plan.kills.push(KillWindow {
                node: victim,
                start: ks,
                end: ke,
            });
            let ss = 7 * h / 10;
            plan.sleep(1 % self.n as u32, ss, (ss + 3).min(h - 1));
            let ps = 8 * h / 10;
            plan.partitions.push(PartitionWindow {
                start: ps,
                end: (ps + 4).min(h - 1),
                groups: vec![(0..self.n as u32 / 2).collect()],
            });
        }
        plan
    }

    /// The equivalent simulation of `plan`: the same awake matrix,
    /// partitions and seed, one transaction per round with unbounded
    /// admission and batch (what `ClusterPlan::tx_for_round` submits).
    pub(crate) fn oracle_inputs(plan: &ClusterPlan) -> SimInputs {
        let mut timeline = Timeline::synchronous();
        for (start, len, groups) in plan.timeline_partitions() {
            timeline = timeline.partition(start, len, groups);
        }
        SimInputs {
            seed: plan.seed,
            horizon: plan.horizon,
            params: params(plan.n, plan.eta, 0.0),
            schedule: Schedule::custom(plan.schedule_matrix()),
            timeline,
            load: Load::Constant(ConstantRate::every(plan.txs_every.max(1))),
            capacity: usize::MAX,
            batch: usize::MAX,
            attacker: false,
        }
    }

    /// The shortest run of the same cluster: spawn, bind, connect, two
    /// rounds, linger, collect. Its wall is the cluster's set-up time.
    /// Not horizon 0 as the issue has it: with no barrier before the last
    /// round a node can exit before a writer that has not connected yet
    /// delivers its only batch, and the peer then lingers for the node
    /// runtime's full 15 s cap (seen on 6 of 10 horizon-0 runs here).
    pub(crate) fn setup_plan(&self, seed: u64) -> ClusterPlan {
        let mut plan = ClusterSpec {
            horizon: 1,
            faults: false,
            ..*self
        }
        .plan(seed);
        plan.txs_every = 0;
        plan
    }

    /// The same workload at a size a debug-build test can afford. The
    /// fault plan needs more room than the steady one: a survivor's
    /// writer learns that the victim died only from a failed write, so
    /// the survivors must have a few rounds to send while the victim is
    /// down and not yet needed (three paced nodes, a 3-round window); and
    /// at tick 0 a victim that needs nothing more from its peers can
    /// finish before the harness sees it reach the kill round.
    #[cfg(test)]
    pub(crate) fn tiny(&self) -> ClusterSpec {
        ClusterSpec {
            n: if self.faults { 3 } else { 2 },
            horizon: if self.faults { 50 } else { 10 },
            // Tests run beside each other and beside other packages'
            // tests: keep clear of the real workloads' ports.
            base_port: self.base_port + 50,
            tick_ms: 2,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is written by hand; it must say what this file
    /// says, and survive the in-repo serde stand-in unchanged.
    #[test]
    fn benchmark_json_matches_the_spec_and_round_trips() {
        use serde::Value;
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let again: Value =
            serde_json::from_str(&serde_json::to_string(&doc).unwrap()).expect("round trip");
        assert_eq!(doc, again);

        let Value::Map(entries) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(crate::DEFAULT_SECONDS as u64))
        );
        let str_of = |v: &Value, k: &str| match v.get(k) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let seq = |k: &str| match doc.get(k) {
            Some(Value::Seq(items)) => items.clone(),
            other => panic!("{k}: {other:?}"),
        };
        let workloads = seq("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "why"), want.why);
        }
        let e2e = seq("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(got, "name"), want.name);
            assert_eq!(str_of(got, "unit"), want.unit);
            assert_eq!(str_of(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound"), Some(&Value::F64(want.bound)));
        }
        let layers = seq("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(got, "name"), want.0);
            assert_eq!(str_of(got, "unit"), want.1);
            assert_eq!(str_of(got, "better"), want.2.as_str());
        }
    }

    /// The `[dependencies]` of a manifest as `(name, rest of the line)`.
    fn dependencies(manifest: &str) -> Vec<(&str, &str)> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split_once(" = "))
            .collect()
    }

    /// This directory is built through two manifests (see `Cargo.toml`
    /// here); only st-bench's is built by the workspace gates. The other
    /// must list exactly the crates the sources name, each a dependency
    /// of st-bench too, at a path that holds the crate of that name.
    #[test]
    fn standalone_manifest_lists_what_the_sources_use() {
        let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let here = if manifest_dir.join("main.rs").exists() {
            manifest_dir.to_path_buf()
        } else {
            manifest_dir.join("src/bin/stbench")
        };
        let own = include_str!("Cargo.toml");
        let st_bench = include_str!("../../../Cargo.toml");
        let mut listed: Vec<String> = dependencies(own)
            .iter()
            .map(|(name, _)| name.replace('-', "_"))
            .collect();
        listed.sort_unstable();
        for (name, rest) in dependencies(own) {
            assert!(
                dependencies(st_bench).iter().any(|(n, _)| *n == name),
                "{name} is not a dependency of st-bench"
            );
            let path = rest.split('"').nth(1).expect("a path dependency");
            let theirs = std::fs::read_to_string(here.join(path).join("Cargo.toml"))
                .unwrap_or_else(|e| panic!("{name} at {path}: {e}"));
            assert!(theirs.contains(&format!("name = \"{name}\"")), "{path}");
        }
        let mut used = Vec::new();
        for entry in std::fs::read_dir(&here).unwrap() {
            let file = entry.unwrap().path();
            if file.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&file).unwrap();
                for (i, _) in text.match_indices("::") {
                    let head = &text[..i];
                    let start = head
                        .rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                        .map_or(0, |j| j + 1);
                    let word = &head[start..];
                    if word.starts_with("st_") || word.starts_with("serde") {
                        used.push(word.to_string());
                    }
                }
            }
        }
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, listed);
    }

    #[test]
    fn fault_plan_matches_the_issue_at_h_1000() {
        let plan = ClusterSpec {
            n: 4,
            horizon: 1000,
            base_port: 1,
            tick_ms: 0,
            faults: true,
        }
        .plan(3);
        plan.validate().expect("valid");
        assert_eq!(
            (plan.kills[0].node, plan.kills[0].start, plan.kills[0].end),
            (3, 500, 520)
        );
        assert!(!plan.is_awake(1, 700) && !plan.is_awake(1, 703) && plan.is_awake(1, 704));
        assert_eq!(
            (plan.partitions[0].start, plan.partitions[0].end),
            (800, 804)
        );
        assert_eq!(plan.partitions[0].groups, vec![vec![0, 1]]);
    }
}
