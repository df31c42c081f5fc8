//! Every proposal's payload against the stateless rule: "what I was submitted, in order, minus the log I extend"
//! (`literal::payload_rule`, the rule the literal Algorithm 1 proposes
//! by). The pool behind `step_send` evaluates that rule relative to the
//! decided tip and walks only the undecided suffix; these cases cover
//! the transactions whose status the decided chain changes. (The
//! recorded-run replay compares every simulated proposal with the
//! literal's, both arms included, and the Tier-1 `tests/guards.rs`
//! checks the from-genesis arm with transactions submitted out of id
//! order.)

#[path = "support/literal.rs"]
mod literal;

use literal::payload_rule;
use proptest::prelude::*;
use st_core::{TobConfig, TobProcess};
use st_messages::{Envelope, Payload, SharedEnvelope};
use st_types::{Params, ProcessId, Round, TxId};

/// `n` processes, each proposal checked against the rule.
struct Net {
    procs: Vec<TobProcess>,
    /// Per process: every transaction submitted, deduplicated, in order.
    submitted: Vec<Vec<TxId>>,
    /// Proposals compared with the rule.
    checked: usize,
}

impl Net {
    fn new(n: usize, eta: u64, seed: u64) -> Net {
        let params = Params::builder(n).expiration(eta).build().unwrap();
        let config = TobConfig::new(params, seed);
        Net {
            procs: (0..n as u32)
                .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
                .collect(),
            submitted: vec![Vec::new(); n],
            checked: 0,
        }
    }

    fn submit(&mut self, i: usize, tx: TxId) {
        self.procs[i].submit_tx(tx);
        if !self.submitted[i].contains(&tx) {
            self.submitted[i].push(tx);
        }
    }

    /// Every process's send phase of `round` (the sleepy protocol's
    /// round-0 proposal is genesis itself, which carries no payload).
    fn send(&mut self, round: Round) -> Vec<Envelope> {
        let mut out = Vec::new();
        for (i, p) in self.procs.iter_mut().enumerate() {
            for env in p.step_send(round) {
                if let Payload::Propose(prop) = env.payload() {
                    let block = prop.block();
                    if !block.id().is_genesis() {
                        let expected = payload_rule(&self.submitted[i], p.tree(), block.parent());
                        assert_eq!(block.payload(), expected.as_slice(), "p{i} {round:?}");
                        self.checked += 1;
                    }
                }
                out.push(env);
            }
        }
        out
    }

    fn lockstep(&mut self, round: Round) {
        for env in self.send(round) {
            let env = SharedEnvelope::new(env);
            for p in self.procs.iter_mut() {
                p.on_receive_shared(&env);
            }
        }
    }
}

/// A transaction decided and then submitted again, and one decided
/// elsewhere and then submitted here, stay out of every later payload.
#[test]
fn resubmitted_transactions_stay_out_sleepy() {
    let mut net = Net::new(4, 2, 11);
    let (mine, theirs) = (TxId::new(5), TxId::new(6));
    for i in 0..4 {
        net.submit(i, mine);
    }
    net.submit(1, theirs);
    let decided = |net: &Net, tx| {
        let p = &net.procs[0];
        p.tree().log_transactions(p.decided_tip()).contains(&tx)
    };
    let mut r = 0;
    while !(decided(&net, mine) && decided(&net, theirs)) {
        net.lockstep(Round::new(r));
        r += 1;
        assert!(r < 40, "never decided");
    }
    net.submit(0, mine);
    net.submit(0, theirs);
    let before = net.checked;
    for r in r..r + 8 {
        net.lockstep(Round::new(r));
    }
    assert!(net.checked >= before + 4);
}

/// Random per-round delivery: each envelope reaches each receiver now or
/// joins that receiver's backlog, which is flushed on a random later
/// round. Submissions draw from a small id space, so transactions are
/// re-submitted, submitted after being decided elsewhere, and proposed on
/// competing branches.
fn random_delivery(n: usize, eta: u64, masks: &[u64], txs: &[u8]) -> usize {
    let mut net = Net::new(n, eta, 3);
    let mut backlog: Vec<Vec<SharedEnvelope>> = vec![Vec::new(); n];
    for r in 0..40u64 {
        let t = txs[r as usize % txs.len()];
        net.submit(t as usize % n, TxId::new(u64::from(t % 16)));
        let mask = masks[r as usize % masks.len()];
        for (k, env) in net.send(Round::new(r)).into_iter().enumerate() {
            let env = SharedEnvelope::new(env);
            for (j, queue) in backlog.iter_mut().enumerate() {
                if mask.rotate_left((k * n + j) as u32 % 64) & 3 != 0 {
                    net.procs[j].on_receive_shared(&env);
                } else {
                    queue.push(env.clone());
                }
            }
        }
        let flush = masks[(r as usize + 1) % masks.len()];
        for (j, queue) in backlog.iter_mut().enumerate() {
            if flush >> j & 1 == 1 {
                for env in queue.drain(..) {
                    net.procs[j].on_receive_shared(&env);
                }
            }
        }
    }
    net.checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_delivery_subsets_match_the_reference(
        n in 4usize..7,
        eta in 0u64..4,
        masks in prop::collection::vec(any::<u64>(), 1..12),
        txs in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        prop_assert!(random_delivery(n, eta, &masks, &txs) > 0);
    }
}
