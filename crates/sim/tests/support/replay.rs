//! The literal Algorithm 1 (st-core's `tests/support/literal.rs`)
//! replaying a recorded `Simulation`: the production simulator's oracle.
//! Shared by `determinism_equivalence.rs` and the facade's Tier-1
//! `tests/guards.rs` (included by path).
//!
//! A [`Recorder`] registered on the run keeps the round's events with the
//! per-envelope ones on. After each `step()` the replay feeds `n`
//! `LiteralProcess`es what the round gave each process, in recorded
//! order: the submitted transactions, a `step_send` for every machine
//! that stepped (honest awake processes and corrupted machines), and the
//! deliveries, receiver by receiver. Then every process must match its
//! literal twin (`literal::assert_matches`): the consumed tally, the
//! decided tip and the admitted bodies, and for an honest process that
//! stepped, byte-equal sends and equal decisions.

#[path = "../../../core/tests/support/literal.rs"]
pub mod literal;

use literal::{assert_matches, encoded, LiteralProcess, Output};
use st_core::TobConfig;
use st_messages::wire::encode_envelope;
use st_sim::{ObsCtx, Observer, SimBuilder, SimEvent, SimReport};
use st_types::{ProcessId, Round};
use std::cell::RefCell;
use std::rc::Rc;

/// Keeps every event of the round in progress, for the replay to drain.
#[derive(Default)]
pub struct Recorder(pub Rc<RefCell<Vec<SimEvent>>>);

impl Observer for Recorder {
    fn wants_delivery_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, _ctx: &ObsCtx<'_>, event: &SimEvent, _emit: &mut Vec<SimEvent>) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// What a replayed run checked.
pub struct Replayed {
    pub report: SimReport,
    /// Honest (process, round ≥ 1) steps whose tally, sends and decisions
    /// were compared.
    pub compared: usize,
    /// How often the literal's retention rule changed what it read
    /// (`LiteralProcess::deviations`, summed): 0 in the model.
    pub deviations: usize,
}

/// Runs `builder`'s simulation with the literal replaying it, round by
/// round.
pub fn replay(builder: SimBuilder, label: &str) -> Replayed {
    let recorder = Recorder::default();
    let log = Rc::clone(&recorder.0);
    let mut sim = builder.observer(recorder).build().expect("valid sim");
    let config = TobConfig::new(*sim.config().params(), sim.config().seed());
    let n = sim.processes().len();
    let mut lits: Vec<LiteralProcess> = ProcessId::all(n)
        .map(|p| LiteralProcess::new(p, config.clone()))
        .collect();
    let mut compared = 0;
    while let Some(round) = sim.step() {
        let mut recorded: Vec<Output> = vec![Output::default(); n];
        let mut deliveries = Vec::new();
        let honest = sim.schedule().honest_awake(round);
        for event in log.take() {
            match event {
                SimEvent::TxSubmitted { tx, .. } => {
                    honest.iter().for_each(|p| lits[p.index()].submit_tx(tx));
                }
                SimEvent::EnvelopeSent { envelope } => {
                    let sender = envelope.payload().sender().index();
                    recorded[sender]
                        .0
                        .push(encode_envelope(envelope.envelope()));
                }
                SimEvent::DecisionObserved { process, decision } => {
                    recorded[process.index()].1.push(decision);
                }
                SimEvent::EnvelopeDelivered {
                    receiver, envelope, ..
                } => deliveries.push((receiver, envelope)),
                _ => {}
            }
        }
        let corrupted = sim.schedule().byzantine(round);
        let mut stepped: Vec<Option<Output>> = vec![None; n];
        for &p in honest.iter().chain(&corrupted) {
            let lit = &mut lits[p.index()];
            stepped[p.index()] = Some((encoded(&lit.step_send(round)), lit.drain_decisions()));
        }
        for (receiver, envelope) in &deliveries {
            lits[receiver.index()].on_receive_shared(envelope);
        }
        for (tob, lit) in sim.processes().iter().zip(&lits) {
            let p = tob.id();
            // The adversary speaks for a corrupted machine, and its
            // decisions do not count: only its state is compared.
            let outputs = honest.contains(&p).then(|| {
                let lit = stepped[p.index()].as_ref().expect("stepped");
                (&recorded[p.index()], lit)
            });
            compared += usize::from(outputs.is_some() && round > Round::ZERO);
            assert_matches(label, round, tob, lit, outputs);
        }
    }
    assert!(compared > 0, "{label}: nothing compared");
    Replayed {
        report: sim.finish(),
        compared,
        deviations: lits.iter().map(LiteralProcess::deviations).sum(),
    }
}
