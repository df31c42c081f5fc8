//! The lockstep layer probe: `n` `TobProcess`es driven through the
//! `Protocol` surface over an `st_sim::Network`, under the workload's
//! awake matrix, with every call into a layer timed from here.
//!
//! The probe is not `Simulation`: it has no adversary, no observers and
//! no shared-tally cohort pass (those hooks are slated to leave
//! `Protocol`), so its `step_send` cost is the unshared one that
//! `churn_async` and every `stob serve` node pay. Asynchronous rounds are
//! a blackout (nothing is delivered; the backlog flushes when the window
//! closes); bounded-delay windows and partitions deliver synchronously.
//! On fully synchronous workloads it must decide exactly what
//! `Simulation` decides.

use crate::spec::SimInputs;
use crate::trace::Trace;
use st_core::{Protocol, TobConfig, TobProcess};
use st_load::{Mempool, Workload};
use st_messages::{Payload, SharedEnvelope};
use st_sim::{Network, Recipients, SegmentKind};
use st_types::{ProcessId, Round, TxId};
use std::time::Instant;

/// Total nanoseconds spent on a number of operations.
#[derive(Clone, Copy, Default)]
pub(crate) struct PerOp {
    pub(crate) ns: u64,
    pub(crate) ops: u64,
}

impl PerOp {
    pub(crate) fn add(&mut self, ns: u64, ops: u64) {
        self.ns += ns;
        self.ops += ops;
    }

    /// Mean nanoseconds per operation; 0 when nothing ran.
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

pub(crate) struct ProbeResult {
    /// Every envelope sent, by round, in pool order — the input of the
    /// component replays.
    pub(crate) stream: Vec<Vec<SharedEnvelope>>,
    pub(crate) tips: Vec<u64>,
    pub(crate) decisions: u64,
    /// Microseconds of each `step_send` call.
    pub(crate) step_send_us: Vec<f64>,
    /// All receivers, timed per round.
    pub(crate) ingest: PerOp,
    /// One sampled receiver per round, timed per envelope.
    pub(crate) ingest_vote: PerOp,
    pub(crate) ingest_propose: PerOp,
    pub(crate) offer: PerOp,
    pub(crate) drain: PerOp,
    pub(crate) pool_high_water: usize,
    pub(crate) verifies: u64,
}

pub(crate) fn probe(inputs: &SimInputs, trace: &mut Trace, parent: usize) -> ProbeResult {
    let n = inputs.params.n();
    let config = TobConfig::new(inputs.params, inputs.seed);
    let mut procs: Vec<TobProcess> = ProcessId::all(n)
        .map(|p| <TobProcess as Protocol>::new(p, config.clone()))
        .collect();
    let mut net = Network::new(n);
    let mut mempool = Mempool::new(inputs.capacity, inputs.load.clients());
    let mut tx_counter = 0u64;
    let verifies_before = st_crypto::verification_count();
    let mut res = ProbeResult {
        stream: Vec::with_capacity(inputs.horizon as usize + 1),
        tips: Vec::new(),
        decisions: 0,
        step_send_us: Vec::new(),
        ingest: PerOp::default(),
        ingest_vote: PerOp::default(),
        ingest_propose: PerOp::default(),
        offer: PerOp::default(),
        drain: PerOp::default(),
        pool_high_water: 0,
        verifies: 0,
    };

    for r in 0..=inputs.horizon {
        let round = Round::new(r);
        let round_span = trace.open("probe.round", r, Some(parent));
        let awake = inputs.schedule.honest_awake(round);

        // Workload injection, exactly as the runner does it: offer this
        // round's arrivals, drain one batch if anyone is awake, hand each
        // drained transaction to every awake process.
        let span = trace.open("load.offer", r, Some(round_span));
        let mut offered = 0;
        for client in 0..inputs.load.clients() {
            for _ in 0..inputs.load.arrivals(r, client) {
                mempool.offer(client, r);
                offered += 1;
            }
        }
        res.offer.add(trace.close(span, offered), offered);
        let span = trace.open("load.drain", r, Some(round_span));
        let drained = if awake.is_empty() {
            mempool.hold_over();
            Vec::new()
        } else {
            mempool.drain(inputs.batch)
        };
        res.drain.add(trace.close(span, drained.len() as u64), 1);
        let span = trace.open("core.submit_tx", r, Some(round_span));
        for _ in &drained {
            tx_counter += 1;
            for &p in &awake {
                Protocol::submit_tx(&mut procs[p.index()], TxId::new(tx_counter));
            }
        }
        trace.close(span, (drained.len() * awake.len()) as u64);

        // Send phase.
        let mut sent = Vec::new();
        for &p in &awake {
            let span = trace.open("core.step_send", r, Some(round_span));
            let envs = Protocol::step_send(&mut procs[p.index()], round);
            let ns = trace.close(span, envs.len() as u64);
            res.step_send_us.push(ns as f64 / 1e3);
            res.decisions += Protocol::drain_decisions(&mut procs[p.index()]).len() as u64;
            sent.extend(envs.into_iter().map(|env| (p, SharedEnvelope::new(env))));
        }
        let span = trace.open("network.send", r, Some(round_span));
        for (p, env) in &sent {
            net.send(round, *p, Recipients::All, env.clone());
        }
        trace.close(span, sent.len() as u64);
        res.pool_high_water = res.pool_high_water.max(net.pool().len());
        res.stream
            .push(sent.into_iter().map(|(_, env)| env).collect());

        // Receive phase: processes awake at the start of the next round.
        if inputs.timeline.kind_at(round) != SegmentKind::Asynchronous {
            let receivers: Vec<ProcessId> = ProcessId::all(n)
                .filter(|&p| inputs.schedule.is_awake(p, round.next()))
                .collect();
            let sampled = receivers.get(r as usize % receivers.len().max(1)).copied();
            let span = trace.open("core.ingest", r, Some(round_span));
            let mut delivered = 0;
            for &p in &receivers {
                let proc = &mut procs[p.index()];
                let count = if Some(p) == sampled {
                    let (vote, propose) = (&mut res.ingest_vote, &mut res.ingest_propose);
                    net.deliver_sync_with(p, round, |env| {
                        let t = Instant::now();
                        Protocol::on_receive_shared(proc, env);
                        let ns = t.elapsed().as_nanos() as u64;
                        match env.payload() {
                            Payload::Vote(_) => vote.add(ns, 1),
                            Payload::Propose(_) => propose.add(ns, 1),
                        }
                    })
                } else {
                    net.deliver_sync_with(p, round, |env| Protocol::on_receive_shared(proc, env))
                };
                delivered += count as u64;
            }
            res.ingest.add(trace.close(span, delivered), delivered);
        }
        let span = trace.open("network.compact", r, Some(round_span));
        let dropped = net.compact();
        trace.close(span, dropped as u64);
        trace.close(round_span, awake.len() as u64);
    }

    res.tips = procs
        .iter()
        .map(|p| Protocol::decided_tip(p).as_u64())
        .collect();
    res.verifies = st_crypto::verification_count() - verifies_before;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_run::sim_rep;
    use crate::spec::{Kind, WORKLOADS};

    #[test]
    fn probe_decides_what_the_simulation_decides_under_full_synchrony() {
        for w in &WORKLOADS[..2] {
            let Kind::Sim(spec) = w.kind else {
                unreachable!()
            };
            let inputs = spec.tiny().inputs(9);
            let sim = sim_rep(inputs.build(), None);
            let mut trace = Trace::new("test");
            let root = trace.open("probe", 0, None);
            let p = probe(&inputs, &mut trace, root);
            assert_eq!(p.tips, sim.tips, "{}", w.name);
            assert_eq!(p.decisions as usize, sim.report.decisions_total);
            assert_eq!(
                p.stream.iter().map(Vec::len).sum::<usize>(),
                sim.report.messages_sent
            );
            assert!(p.decisions > 0 && p.ingest.ops > 0 && p.ingest_vote.ops > 0);
            assert_eq!(p.step_send_us.len(), 8 * 21);
        }
    }

    #[test]
    fn blackout_rounds_deliver_nothing_and_flush_afterwards() {
        let Kind::Sim(spec) = WORKLOADS[2].kind else {
            unreachable!()
        };
        let inputs = spec.tiny().inputs(9);
        let mut trace = Trace::new("test");
        let root = trace.open("probe", 0, None);
        let p = probe(&inputs, &mut trace, root);
        // Three blackout rounds hold the pool back: more than one round
        // of traffic is retained at the high-water mark.
        assert!(
            p.pool_high_water > p.stream[5].len(),
            "{}",
            p.pool_high_water
        );
        assert!(p.decisions > 0);
    }
}
