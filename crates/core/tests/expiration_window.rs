//! Blocks plus the unexpired window are all the state a tally reads.
//!
//! The expiration period η means the round-`r` tally reads only the latest
//! votes from `[r − 1 − η, r − 1]`. So a process fed every block (as the
//! signed proposals that carried it) but only the votes of that window
//! must tally, and vote, in round `r` exactly like one that replayed the
//! whole history. The history includes a sender that went silent more
//! than η rounds before `r`: only the full replay holds its last vote, and
//! that vote must not count.

use st_core::{TobConfig, TobProcess};
use st_ga::GaOutput;
use st_messages::{Envelope, Payload, SharedEnvelope, Vote};
use st_types::{Params, ProcessId, Round};

const N: usize = 4;
const ETA: u64 = 2;
/// p3 sends nothing from this round on.
const SILENT_FROM: u64 = 6;
const HORIZON: u64 = 24;

/// Every envelope of a lock-step run of `N` processes over rounds
/// `0..HORIZON`, in send order; p3 is asleep from `SILENT_FROM` on.
fn history(config: &TobConfig) -> Vec<Envelope> {
    let mut procs: Vec<TobProcess> = (0..N as u32)
        .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
        .collect();
    let mut sent = Vec::new();
    for r in 0..HORIZON {
        let awake = |p: &TobProcess| p.id().index() != 3 || r < SILENT_FROM;
        let mut batch = Vec::new();
        for p in procs.iter_mut().filter(|p| awake(p)) {
            batch.extend(p.step_send(Round::new(r)));
        }
        for env in &batch {
            let shared = SharedEnvelope::new(env.clone());
            for p in procs.iter_mut().filter(|p| awake(p)) {
                p.on_receive_shared(&shared);
            }
        }
        sent.extend(batch);
    }
    sent
}

/// A fresh p0 fed the envelopes of `sent` sent before `round` that
/// `keep` admits, then stepped through `round`: the tally it read and the
/// vote it cast.
fn tally_and_vote(
    config: &TobConfig,
    sent: &[Envelope],
    keep: impl Fn(&Payload) -> bool,
    round: Round,
) -> (GaOutput, Option<Vote>) {
    let mut p = TobProcess::new(ProcessId::new(0), config.clone());
    for env in sent {
        if env.payload().round() < round && keep(env.payload()) {
            p.on_receive_shared(&SharedEnvelope::new(env.clone()));
        }
    }
    let vote = p
        .step_send(round)
        .iter()
        .find_map(|env| match env.payload() {
            Payload::Vote(v) => Some(*v),
            Payload::Propose(_) => None,
        });
    let tally = p.last_ga_output().cloned().expect("a round ≥ 1 tallies");
    (tally, vote)
}

#[test]
fn blocks_plus_the_unexpired_window_is_all_a_tally_reads() {
    let config = TobConfig::new(Params::builder(N).expiration(ETA).build().unwrap(), 7);
    let sent = history(&config);
    // Every compared round is more than η rounds after p3's last vote, and
    // covers both round kinds (a view's first and second round).
    for r in SILENT_FROM + ETA + 2..HORIZON {
        let (round, lo) = (Round::new(r), Round::new(r - 1 - ETA));
        let full = tally_and_vote(&config, &sent, |_| true, round);
        let in_window = |payload: &Payload| match payload {
            Payload::Propose(_) => true,
            Payload::Vote(v) => v.round() >= lo,
        };
        let window = tally_and_vote(&config, &sent, in_window, round);
        assert_eq!(
            full.0.participation(),
            N - 1,
            "round {r}: the silent sender's expired vote was counted"
        );
        assert!(full.1.is_some(), "round {r}: no vote cast");
        assert_eq!(window, full, "round {r}");
    }
}
