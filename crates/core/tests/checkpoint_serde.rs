//! Serde round-trip for the checkpoint payload — the remaining
//! wire-crossing type (a joiner fetches checkpoints from peers over the
//! same transport as envelopes, so its serialized form must survive the
//! trip and still validate and bootstrap).

use st_core::{Checkpoint, TobConfig, TobProcess};
use st_messages::Envelope;
use st_types::{Params, ProcessId, Round};

#[test]
fn checkpoint_roundtrip_validates_and_bootstraps() {
    let params = Params::builder(4).expiration(2).build().unwrap();
    let config = TobConfig::new(params, 7);
    let mut procs: Vec<TobProcess> = (0..4)
        .map(|i| TobProcess::new(ProcessId::new(i), config.clone()))
        .collect();
    let mut retained: Vec<Envelope> = Vec::new();
    let horizon = 12u64;
    for r in 0..=horizon {
        let round = Round::new(r);
        let batches: Vec<Vec<Envelope>> = procs.iter_mut().map(|p| p.step_send(round)).collect();
        for batch in batches {
            for env in batch {
                for p in procs.iter_mut() {
                    p.on_receive(env.clone());
                }
                retained.push(env);
            }
        }
    }
    assert!(!procs[0].drain_decisions().is_empty(), "run must decide");

    let cp = Checkpoint::capture(&procs[0], Round::new(horizon), &retained);
    let json = serde_json::to_string(&cp).unwrap();
    let back: Checkpoint = serde_json::from_str(&json).unwrap();

    assert_eq!(back.taken_at(), cp.taken_at());
    assert_eq!(back.decided_tip(), cp.decided_tip());
    assert_eq!(back.block_count(), cp.block_count());
    assert_eq!(back.message_count(), cp.message_count());
    assert!(back.validate(), "round-tripped checkpoint must validate");
    // Serialization is canonical: encoding the decoded value reproduces
    // the exact bytes (the JSON oracle property the binary codec is
    // cross-checked against).
    assert_eq!(serde_json::to_string(&back).unwrap(), json);

    // And it still bootstraps: the joiner built from the round-tripped
    // checkpoint knows the decided tip at the same height as one built
    // from the original.
    let from_orig = cp.bootstrap(ProcessId::new(3), config.clone());
    let from_back = back.bootstrap(ProcessId::new(3), config);
    let tip = cp.decided_tip();
    assert!(from_back.tree().contains(tip));
    assert_eq!(from_back.tree().height(tip), from_orig.tree().height(tip));
}
