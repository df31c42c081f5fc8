//! Every proposal's payload against the stateless rule, for both
//! protocols: "what I was submitted, in order, minus the log I extend".
//! The pool behind `step_send` evaluates that rule relative to the decided
//! tip and walks only the undecided suffix; these cases cover both of its
//! arms and the transactions whose status the decided chain changes.

#[path = "support/oracle_net.rs"]
mod oracle_net;

use oracle_net::{forked_lockstep, OracleNet};
use proptest::prelude::*;
use st_core::{Protocol, QuorumProcess, TobProcess};
use st_messages::SharedEnvelope;
use st_types::{Round, TxId};

/// A proposal on a branch that conflicts with the decided tip re-proposes
/// a transaction decided off that branch and leaves out one on it.
#[test]
fn forked_parent_uses_the_from_genesis_rule() {
    let (net, [a, _], solo) = forked_lockstep(7);
    assert!(net.checked > 0);
    let expected: Vec<TxId> = std::iter::once(a).chain(solo).collect();
    assert_eq!(
        net.off_decided.first(),
        Some(&expected),
        "the fork was not proposed on"
    );
}

/// A transaction decided and then submitted again, and one decided
/// elsewhere and then submitted here, stay out of every later payload.
fn resubmission_after_decision<P: Protocol>() {
    let mut net = OracleNet::<P>::new(4, 2, 11);
    let (mine, theirs) = (TxId::new(5), TxId::new(6));
    for i in 0..4 {
        net.submit(i, mine);
    }
    net.submit(1, theirs);
    let decided = |net: &OracleNet<P>, tx| {
        let p = &net.procs[0];
        p.tree().log_transactions(p.decided_tip()).contains(&tx)
    };
    let mut r = 0;
    while !(decided(&net, mine) && decided(&net, theirs)) {
        net.lockstep(Round::new(r));
        r += 1;
        assert!(r < 40, "{}: never decided", P::NAME);
    }
    net.submit(0, mine);
    net.submit(0, theirs);
    let before = net.checked;
    for r in r..r + 8 {
        net.lockstep(Round::new(r));
    }
    assert!(net.checked >= before + 4, "{}", P::NAME);
}

#[test]
fn resubmitted_transactions_stay_out_sleepy() {
    resubmission_after_decision::<TobProcess>();
}

#[test]
fn resubmitted_transactions_stay_out_quorum() {
    resubmission_after_decision::<QuorumProcess>();
}

/// Random per-round delivery: each envelope reaches each receiver now or
/// joins that receiver's backlog, which is flushed on a random later
/// round. Submissions draw from a small id space, so transactions are
/// re-submitted, submitted after being decided elsewhere, and proposed on
/// competing branches.
fn random_delivery<P: Protocol>(n: usize, eta: u64, masks: &[u64], txs: &[u8]) -> usize {
    let mut net = OracleNet::<P>::new(n, eta, 3);
    let mut backlog: Vec<Vec<SharedEnvelope>> = vec![Vec::new(); n];
    for r in 0..40u64 {
        let t = txs[r as usize % txs.len()];
        net.submit(t as usize % n, TxId::new(u64::from(t % 16)));
        let mask = masks[r as usize % masks.len()];
        for (k, env) in net.send(Round::new(r)).into_iter().enumerate() {
            let env = SharedEnvelope::new(env);
            for (j, queue) in backlog.iter_mut().enumerate() {
                if mask.rotate_left((k * n + j) as u32 % 64) & 3 != 0 {
                    net.deliver(j, &env);
                } else {
                    queue.push(env.clone());
                }
            }
        }
        let flush = masks[(r as usize + 1) % masks.len()];
        for (j, queue) in backlog.iter_mut().enumerate() {
            if flush >> j & 1 == 1 {
                for env in queue.drain(..) {
                    net.deliver(j, &env);
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
        prop_assert!(random_delivery::<TobProcess>(n, eta, &masks, &txs) > 0);
        prop_assert!(random_delivery::<QuorumProcess>(n, eta, &masks, &txs) > 0);
    }
}
