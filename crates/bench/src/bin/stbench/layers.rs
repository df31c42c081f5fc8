//! The traced pass: one untraced reference run, one run with a span per
//! round, the lockstep probe, the component replays and (for cluster
//! workloads) one cluster run — assembled into the per-layer metrics and
//! written out as `<workload>.trace.jsonl`.

use crate::cluster_run::{self, check_match, cluster_rep, work_dir, Oracle};
use crate::outcome::{out_dir, Outcome};
use crate::probe::probe;
use crate::replay;
use crate::sim_run::{check_report, report_digest, sim_rep};
use crate::spec::{ClusterSpec, Kind, SimInputs, WorkloadDef, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::Trace;
use st_core::TobConfig;
use st_node::ClusterPlan;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the one cluster run of a traced pass contributes.
#[derive(Default)]
struct NodeLayer {
    ms_per_round: f64,
    protocol_cpu_share: f64,
    reconnects: f64,
    restarts: f64,
    harness_polls: f64,
    spawn_ms: f64,
}

pub(crate) fn traced(def: &WorkloadDef, seed: u64) -> Outcome {
    match def.kind {
        Kind::Sim(spec) => traced_inputs(def.name, &spec.inputs(seed), None),
        Kind::Cluster(spec) => {
            let plan = spec.plan(seed);
            traced_inputs(def.name, &ClusterSpec::oracle_inputs(&plan), Some(&plan))
        }
    }
}

/// Wall of spawning and reaping one node process that exits at once.
fn spawn_ms() -> f64 {
    let Ok(exe) = std::env::current_exe() else {
        return 0.0;
    };
    let argv = cluster_run::node_exec(exe.display().to_string());
    let t = Instant::now();
    let _ = Command::new(&argv[0])
        .args(&argv[1..])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
    t.elapsed().as_secs_f64() * 1e3
}

fn node_layer(
    name: &str,
    plan: &ClusterPlan,
    oracle: &Oracle,
    trace: &mut Trace,
    out: &mut Outcome,
) -> NodeLayer {
    let span = trace.open("node.run_cluster", 0, None);
    let rep = cluster_rep(plan, &work_dir(name, plan));
    trace.close(span, plan.horizon + 1);
    let rep = match rep {
        Ok(rep) => rep,
        Err(e) => {
            out.checks.check(false, || format!("cluster harness: {e}"));
            return NodeLayer::default();
        }
    };
    check_match(&rep.outcome, oracle, &mut out.checks);
    let outcomes = || rep.outcome.nodes.iter().filter_map(|n| n.outcome.as_ref());
    NodeLayer {
        ms_per_round: rep.wall.as_secs_f64() * 1e3 / (plan.horizon + 1) as f64,
        protocol_cpu_share: oracle.rep.wall.as_secs_f64() / rep.wall.as_secs_f64(),
        reconnects: outcomes()
            .flat_map(|o| &o.peers)
            .map(|p| p.stat.reconnects)
            .sum::<u64>() as f64,
        restarts: rep.outcome.nodes.iter().map(|n| n.restarts).sum::<u64>() as f64,
        harness_polls: rep.outcome.polls as f64,
        spawn_ms: spawn_ms(),
    }
}

/// Appends the next per-layer metric; its unit is the spec's at that
/// position.
fn push_layer(
    out: &mut Outcome,
    name: &'static str,
    summary: impl FnOnce(&'static str) -> Summary,
) {
    let unit = PER_LAYER.get(out.metrics.len()).map_or("", |m| m.1);
    out.push(name, summary(unit), false);
}

/// A per-layer metric measured once.
fn once(out: &mut Outcome, name: &'static str, value: f64) {
    push_layer(out, name, |unit| Summary::once(unit, value));
}

/// A per-layer metric that is the `p`-th percentile of pooled samples.
fn pooled(out: &mut Outcome, name: &'static str, samples: &[f64], p: f64) {
    push_layer(out, name, |unit| Summary::percentile_of(unit, samples, p));
}

pub(crate) fn traced_inputs(
    name: &'static str,
    inputs: &SimInputs,
    cluster: Option<&ClusterPlan>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut trace = Trace::new(name);
    let config = TobConfig::new(inputs.params, inputs.seed);
    let n = inputs.params.n();
    let rounds = inputs.horizon + 1;

    // The reference: an untraced run (for a cluster workload, the oracle
    // with its decision tap), then the same run with a span per round.
    let oracle = match cluster {
        Some(plan) => cluster_run::oracle(plan, &mut out.checks),
        None => {
            let rep = sim_rep(inputs.build(), None);
            check_report(inputs, &rep.report, &mut out.checks);
            Oracle {
                decisions: Vec::new(),
                rep,
            }
        }
    };
    let reference = &oracle.rep;
    let root = trace.open("sim.traced", 0, None);
    let traced = sim_rep(inputs.build(), Some((&mut trace, root)));
    trace.close(root, rounds);
    out.checks.check(
        report_digest(&traced.report) == report_digest(&reference.report),
        || "the traced run produced a different report".into(),
    );

    let root = trace.open("probe", 0, None);
    let p = probe(inputs, &mut trace, root);
    trace.close(root, rounds);
    if inputs.timeline.is_fully_synchronous() {
        out.checks.check(
            p.tips == reference.tips && p.decisions as usize == reference.report.decisions_total,
            || {
                format!(
                    "probe diverged from Simulation: {} decisions vs {}",
                    p.decisions, reference.report.decisions_total
                )
            },
        );
    }

    let root = trace.open("replay", 0, None);
    let crypto = replay::crypto(&p.stream, &config, &mut trace, root, &mut out.checks);
    let wire = replay::wire(&p.stream, &mut trace, root, &mut out.checks);
    let frames = replay::frames(&p.stream, &mut trace, root, &mut out.checks);
    let votes = replay::vote_store(&p.stream, inputs.params.expiration(), &mut trace, root);
    let proposes = replay::propose_store(&p.stream, &config, &mut trace, root);
    let tree = replay::blocktree(&p.stream, &mut trace, root);
    let ga = replay::ga(&p.stream, &tree.tree, &config, &mut trace, root);
    let fanout = replay::network_fanout(&p.stream, n, &mut trace, root);
    let latencies: Vec<u64> = reference
        .report
        .txs
        .iter()
        .filter_map(|t| t.decide_latency())
        .collect();
    let histogram = replay::histogram_record(&latencies, &mut trace, root);
    let span = trace.open("runner.report_json", 0, Some(root));
    let json = serde_json::to_string(&reference.report).unwrap_or_default();
    let report_json_ms = trace.close(span, json.len() as u64) as f64 / 1e6;
    trace.close(root, 0);

    let node = match cluster {
        Some(plan) => node_layer(name, plan, &oracle, &mut trace, &mut out),
        None => NodeLayer::default(),
    };

    let envelopes: u64 = p.stream.iter().map(|r| r.len() as u64).sum();
    let deliveries: u64 = reference
        .report
        .timeline
        .samples()
        .iter()
        .map(|s| s.messages_delivered as u64)
        .sum();
    let wall_ns = reference.wall.as_nanos() as f64;
    let steps = p.step_send_us.len() as f64;
    let step_send_ns = p.step_send_us.iter().sum::<f64>() * 1e3;
    // What each layer's measured cost per operation implies for the
    // reference run's wall: ns/op × the run's own operation count.
    let ingest_share = p.ingest.mean_ns() * deliveries as f64 / wall_ns;
    let step_send_share = step_send_ns / wall_ns;
    let implied = ingest_share
        + step_send_share
        + fanout.mean_ns() * deliveries as f64 / wall_ns
        + (p.offer.ns + p.drain.ns) as f64 / wall_ns
        + reference.finish_ms * 1e6 / wall_ns;
    // Round by round, how much longer the traced run took; the median
    // keeps one descheduled round from deciding the figure.
    let ratios: Vec<f64> = traced
        .round_ms
        .iter()
        .zip(&reference.round_ms)
        .map(|(t, r)| t / r - 1.0)
        .collect();
    let trace_overhead = median(&ratios);
    let w = &reference.report.workload;
    let round_ms_max = reference.round_ms.iter().copied().fold(0.0, f64::max);

    // Pushed in the order of the spec, which supplies the units (the test
    // below holds names and order to it).
    once(&mut out, "crypto.sign_ns", crypto.sign.mean_ns());
    once(&mut out, "crypto.verify_ns", crypto.verify.mean_ns());
    once(&mut out, "crypto.verifies", p.verifies as f64);
    once(&mut out, "wire.encode_ns", wire.encode.mean_ns());
    once(&mut out, "wire.decode_ns", wire.decode.mean_ns());
    once(
        &mut out,
        "wire.bytes_per_envelope",
        wire.bytes as f64 / envelopes.max(1) as f64,
    );
    once(&mut out, "vote_store.insert_ns", votes.insert.mean_ns());
    once(&mut out, "vote_store.prune_ns", votes.prune.mean_ns());
    once(&mut out, "vote_store.window_ns", votes.window.mean_ns());
    once(
        &mut out,
        "vote_store.dup_ratio",
        votes.duplicates as f64 / votes.insert.ops.max(1) as f64,
    );
    once(&mut out, "propose_store.insert_ns", proposes.mean_ns());
    once(&mut out, "blocktree.insert_ns", tree.insert.mean_ns());
    once(
        &mut out,
        "blocktree.is_ancestor_ns",
        tree.is_ancestor.mean_ns(),
    );
    once(&mut out, "blocktree.log_of_us", tree.log_of.mean_ns() / 1e3);
    once(&mut out, "blocktree.depth", tree.depth as f64);
    once(&mut out, "blocktree.blocks", tree.tree.len() as f64);
    once(&mut out, "ga.set_vote_ns", ga.set_vote.mean_ns());
    once(&mut out, "ga.outputs_us", ga.outputs.mean_ns() / 1e3);
    once(&mut out, "ga.tallies", ga.outputs.ops as f64);
    once(&mut out, "core.ingest_ns", p.ingest.mean_ns());
    once(&mut out, "core.ingest_vote_ns", p.ingest_vote.mean_ns());
    once(
        &mut out,
        "core.ingest_propose_ns",
        p.ingest_propose.mean_ns(),
    );
    pooled(&mut out, "core.step_send_us_p50", &p.step_send_us, 50.0);
    pooled(&mut out, "core.step_send_us_p95", &p.step_send_us, 95.0);
    once(&mut out, "core.deliveries", p.ingest.ops as f64);
    once(&mut out, "core.steps", steps);
    once(&mut out, "core.decisions", p.decisions as f64);
    once(&mut out, "core.ingest_share", ingest_share);
    once(&mut out, "core.step_send_share", step_send_share);
    once(&mut out, "network.fanout_ns", fanout.mean_ns());
    once(
        &mut out,
        "network.pool_high_water",
        p.pool_high_water as f64,
    );
    once(
        &mut out,
        "runner.messages",
        reference.report.messages_sent as f64,
    );
    once(&mut out, "runner.deliveries", deliveries as f64);
    once(&mut out, "runner.round_ms_max", round_ms_max);
    once(&mut out, "runner.finish_ms", reference.finish_ms);
    once(&mut out, "runner.report_json_ms", report_json_ms);
    once(&mut out, "runner.report_bytes", json.len() as f64);
    once(&mut out, "runner.residual_share", 1.0 - implied);
    once(&mut out, "runner.trace_overhead_share", trace_overhead);
    once(&mut out, "load.offer_ns", p.offer.mean_ns());
    once(&mut out, "load.drain_ns", p.drain.mean_ns());
    once(&mut out, "load.histogram_record_ns", histogram.mean_ns());
    once(&mut out, "load.offered", w.offered as f64);
    once(&mut out, "load.dropped_share", w.drop_rate);
    once(
        &mut out,
        "load.mempool_high_water",
        w.mempool_high_water as f64,
    );
    once(&mut out, "node.frame_encode_ns", frames.encode.mean_ns());
    once(&mut out, "node.frame_decode_ns", frames.decode.mean_ns());
    once(
        &mut out,
        "node.wire_bytes_per_round",
        (frames.bytes * (n as u64 - 1)) as f64 / rounds as f64,
    );
    once(&mut out, "node.ms_per_round", node.ms_per_round);
    once(&mut out, "node.protocol_cpu_share", node.protocol_cpu_share);
    once(&mut out, "node.reconnects", node.reconnects);
    once(&mut out, "node.restarts", node.restarts);
    once(&mut out, "node.harness_polls", node.harness_polls);
    once(&mut out, "node.spawn_ms", node.spawn_ms);

    let path = out_dir().join(format!("{name}.trace.jsonl"));
    match trace.write(&path) {
        Ok(()) => println!("  trace: {} spans in {}", trace.len(), path.display()),
        Err(e) => out
            .checks
            .check(false, || format!("cannot write {}: {e}", path.display())),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn tiny_traced_pass_reports_every_per_layer_metric() {
        for w in &WORKLOADS {
            let out = match w.kind {
                Kind::Sim(spec) => traced_inputs(w.name, &spec.tiny().inputs(4), None),
                Kind::Cluster(spec) => {
                    let mut tiny = spec.tiny();
                    tiny.base_port += 10; // the timed pass's test runs beside this one
                    let plan = tiny.plan(4);
                    traced_inputs(w.name, &ClusterSpec::oracle_inputs(&plan), Some(&plan))
                }
            };
            assert_eq!(out.checks.failures, Vec::<String>::new(), "{}", w.name);
            assert_eq!(out.metrics.len(), PER_LAYER.len());
            for ((name, _, _), m) in PER_LAYER.iter().zip(&out.metrics) {
                assert_eq!(*name, m.name);
                assert!(m.summary.value.is_finite(), "{} {name}", w.name);
            }
            // Layers every workload exercises measure something.
            for name in [
                "core.ingest_ns",
                "wire.encode_ns",
                "ga.outputs_us",
                "runner.messages",
            ] {
                assert!(out.value(name).unwrap() > 0.0, "{} {name}", w.name);
            }
            let on_cluster = matches!(w.kind, Kind::Cluster(_));
            assert_eq!(out.value("node.ms_per_round").unwrap() > 0.0, on_cluster);
            let file = out_dir().join(format!("{}.trace.jsonl", w.name));
            assert!(std::fs::metadata(file).unwrap().len() > 0);
        }
    }
}
