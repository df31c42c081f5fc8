//! Component replays: the envelope stream the probe recorded, fed
//! through each store and codec on its own, one span per (layer, round).
//! What a layer costs when nothing else runs between its calls.

use crate::outcome::Checks;
use crate::probe::PerOp;
use crate::trace::Trace;
use st_blocktree::BlockTree;
use st_core::TobConfig;
use st_crypto::Keypair;
use st_ga::SupportIndex;
use st_load::Histogram;
use st_messages::wire::{decode_envelope, encode_envelope};
use st_messages::{
    Envelope, InsertOutcome, LatestVotes, Payload, ProposeStore, SharedEnvelope, VoteStore,
};
use st_node::frame::{decode_frame, encode_frame};
use st_node::NodeFrame;
use st_sim::{Network, Recipients};
use st_types::{BlockId, ProcessId, Round, RoundKind, View};
use std::hint::black_box;

/// The recorded stream, by round, in pool order.
pub(crate) type Stream = [Vec<SharedEnvelope>];

/// Runs `body` once per round under a span named `name`; `body` returns
/// how many operations it performed.
fn per_round(
    trace: &mut Trace,
    parent: usize,
    name: &'static str,
    stream: &Stream,
    mut body: impl FnMut(u64, &[SharedEnvelope]) -> u64,
) -> PerOp {
    let mut total = PerOp::default();
    for (r, envs) in stream.iter().enumerate() {
        let span = trace.open(name, r as u64, Some(parent));
        let ops = body(r as u64, envs);
        total.add(trace.close(span, ops), ops);
    }
    total
}

pub(crate) struct Crypto {
    pub(crate) sign: PerOp,
    pub(crate) verify: PerOp,
}

pub(crate) fn crypto(
    stream: &Stream,
    config: &TobConfig,
    trace: &mut Trace,
    parent: usize,
    checks: &mut Checks,
) -> Crypto {
    let keys: Vec<Keypair> = ProcessId::all(config.params().n())
        .map(|p| Keypair::derive(p, config.seed()))
        .collect();
    // Signing consumes the payload; the clones are made outside the span.
    let mut payloads: Vec<Payload> = Vec::new();
    let mut sign = PerOp::default();
    for (r, envs) in stream.iter().enumerate() {
        payloads.extend(envs.iter().map(|e| e.payload().clone()));
        let span = trace.open("crypto.sign", r as u64, Some(parent));
        let ops = payloads.len() as u64;
        for payload in payloads.drain(..) {
            let key = &keys[payload.sender().index()];
            black_box(Envelope::sign(key, payload));
        }
        sign.add(trace.close(span, ops), ops);
    }
    let mut valid = true;
    let verify = per_round(trace, parent, "crypto.verify", stream, |_, envs| {
        for env in envs {
            valid &= env.envelope().verify(config.directory());
        }
        envs.len() as u64
    });
    checks.check(valid, || "a recorded envelope failed verification".into());
    Crypto { sign, verify }
}

pub(crate) struct Codec {
    pub(crate) encode: PerOp,
    pub(crate) decode: PerOp,
    /// Encoded bytes in total.
    pub(crate) bytes: u64,
}

/// Encodes every envelope with `encode`, then checks with `intact` that
/// each encoding decodes back to its envelope; spans are named `names`.
fn codec(
    stream: &Stream,
    trace: &mut Trace,
    parent: usize,
    names: [&'static str; 2],
    encode: impl Fn(&Envelope) -> Vec<u8>,
    intact: impl Fn(&[u8], &Envelope) -> bool,
) -> (Codec, bool) {
    let mut encoded: Vec<Vec<Vec<u8>>> = Vec::with_capacity(stream.len());
    let encode = per_round(trace, parent, names[0], stream, |_, envs| {
        encoded.push(envs.iter().map(|e| encode(e.envelope())).collect());
        envs.len() as u64
    });
    let mut all_intact = true;
    let decode = per_round(trace, parent, names[1], stream, |r, envs| {
        for (bytes, env) in encoded[r as usize].iter().zip(envs) {
            all_intact &= intact(bytes, env.envelope());
        }
        envs.len() as u64
    });
    let bytes = encoded.iter().flatten().map(|b| b.len() as u64).sum();
    (
        Codec {
            encode,
            decode,
            bytes,
        },
        all_intact,
    )
}

/// `wire::encode_envelope` / `decode_envelope`; every envelope must
/// survive the round trip unchanged.
pub(crate) fn wire(
    stream: &Stream,
    trace: &mut Trace,
    parent: usize,
    checks: &mut Checks,
) -> Codec {
    let (codec, intact) = codec(
        stream,
        trace,
        parent,
        ["wire.encode", "wire.decode"],
        encode_envelope,
        |bytes, env| decode_envelope(bytes).is_ok_and(|d| d == *env),
    );
    checks.check(intact, || {
        "an envelope changed across the wire codec".into()
    });
    codec
}

/// `node::frame::encode_frame` / `decode_frame` over `Env` frames (the
/// clone into the frame is the runtime's own and is timed with it).
/// `bytes` also counts one `Mark` frame per (sender, round).
pub(crate) fn frames(
    stream: &Stream,
    trace: &mut Trace,
    parent: usize,
    checks: &mut Checks,
) -> Codec {
    let (mut codec, intact) = codec(
        stream,
        trace,
        parent,
        ["node.frame_encode", "node.frame_decode"],
        |env| encode_frame(&NodeFrame::Env(env.clone())),
        |bytes, env| decode_frame(bytes).is_ok_and(|d| matches!(d, NodeFrame::Env(d) if d == *env)),
    );
    checks.check(intact, || {
        "an envelope changed across the node framing".into()
    });
    let mark = encode_frame(&NodeFrame::Mark { round: 0 }).len() as u64;
    // A round's stream is grouped by sender, so adjacent dedup counts them.
    let marks: u64 = stream
        .iter()
        .map(|envs| {
            let mut senders: Vec<ProcessId> = envs.iter().map(|e| e.payload().sender()).collect();
            senders.dedup();
            senders.len() as u64
        })
        .sum();
    codec.bytes += marks * mark;
    codec
}

pub(crate) struct VoteStoreCost {
    pub(crate) insert: PerOp,
    pub(crate) prune: PerOp,
    pub(crate) window: PerOp,
    pub(crate) duplicates: u64,
}

/// The vote store as process 0 uses it: at each round a window query
/// (`latest_in_window_into` over `[r−1−η, r−1]`), its own vote, the prune
/// `step_send` does, then the round's whole multicast stream — which
/// brings its own vote back as a duplicate.
pub(crate) fn vote_store(
    stream: &Stream,
    eta: u64,
    trace: &mut Trace,
    parent: usize,
) -> VoteStoreCost {
    let me = ProcessId::new(0);
    let mut store = VoteStore::new();
    let mut scratch = LatestVotes::empty();
    let mut cost = VoteStoreCost {
        insert: PerOp::default(),
        prune: PerOp::default(),
        window: PerOp::default(),
        duplicates: 0,
    };
    for (r, envs) in stream.iter().enumerate() {
        let round = Round::new(r as u64);
        let votes = || {
            envs.iter().filter_map(|e| match e.payload() {
                Payload::Vote(v) if v.round() > Round::ZERO => Some(*v),
                _ => None,
            })
        };
        if let Some(prev) = round.prev() {
            let span = trace.open("vote_store.window", r as u64, Some(parent));
            store.latest_in_window_into(prev.saturating_sub(eta), prev, &mut scratch);
            cost.window.add(trace.close(span, 1), 1);
        }
        let span = trace.open("vote_store.insert", r as u64, Some(parent));
        let mut inserts = 0;
        for vote in votes().filter(|v| v.sender() == me).chain(votes()) {
            inserts += 1;
            if store.insert(vote) == InsertOutcome::Duplicate {
                cost.duplicates += 1;
            }
        }
        cost.insert.add(trace.close(span, inserts), inserts);
        let span = trace.open("vote_store.prune", r as u64, Some(parent));
        store.prune_below(round.saturating_sub(2 * eta + 4));
        cost.prune.add(trace.close(span, 1), 1);
    }
    black_box(&scratch);
    cost
}

/// `ProposeStore::insert` (VRF check + per-(view, sender) bucket) over
/// every proposal, pruned per view as `step_send` does.
pub(crate) fn propose_store(
    stream: &Stream,
    config: &TobConfig,
    trace: &mut Trace,
    parent: usize,
) -> PerOp {
    let mut store = ProposeStore::new();
    per_round(trace, parent, "propose_store.insert", stream, |r, envs| {
        let view = RoundKind::of(Round::new(r)).view().as_u64();
        if view > 1 {
            store.prune_below(View::new(view - 1));
        }
        let mut ops = 0;
        for env in envs {
            if let Payload::Propose(p) = env.payload() {
                store.insert(p.clone(), config.directory());
                ops += 1;
            }
        }
        ops
    })
}

pub(crate) struct TreeCost {
    pub(crate) insert: PerOp,
    pub(crate) is_ancestor: PerOp,
    pub(crate) log_of: PerOp,
    pub(crate) depth: u64,
    pub(crate) tree: BlockTree,
}

/// `BlockTree::insert` of every proposed block in stream order (parents
/// precede children), then genesis↔deepest-tip `is_ancestor` and
/// `log_of` at the final depth.
pub(crate) fn blocktree(stream: &Stream, trace: &mut Trace, parent: usize) -> TreeCost {
    let mut tree = BlockTree::new();
    let mut tip = (0u64, BlockId::GENESIS);
    let insert = per_round(trace, parent, "blocktree.insert", stream, |_, envs| {
        let mut ops = 0;
        for env in envs {
            if let Payload::Propose(p) = env.payload() {
                // Round 0 re-proposes genesis: a duplicate, not an insert.
                if let Ok(id) = tree.insert(p.block_arc().clone()) {
                    ops += 1;
                    tip = tip.max((tree.height(id).unwrap_or(0), id));
                }
            }
        }
        ops
    });
    let timed = |name, iters: u64, trace: &mut Trace, f: &dyn Fn()| {
        let span = trace.open(name, stream.len() as u64, Some(parent));
        for _ in 0..iters {
            f();
        }
        PerOp {
            ns: trace.close(span, iters),
            ops: iters,
        }
    };
    let is_ancestor = timed("blocktree.is_ancestor", 1000, trace, &|| {
        black_box(tree.is_ancestor(black_box(BlockId::GENESIS), black_box(tip.1)));
    });
    let log_of = timed("blocktree.log_of", 100, trace, &|| {
        black_box(tree.log_of(black_box(tip.1)));
    });
    TreeCost {
        insert,
        is_ancestor,
        log_of,
        depth: tip.0,
        tree,
    }
}

pub(crate) struct GaCost {
    pub(crate) set_vote: PerOp,
    pub(crate) outputs: PerOp,
}

/// `SupportIndex::set_vote` for every vote whose tip is known, and one
/// `outputs` per round — the per-process fallback tally.
pub(crate) fn ga(
    stream: &Stream,
    tree: &BlockTree,
    config: &TobConfig,
    trace: &mut Trace,
    parent: usize,
) -> GaCost {
    let mut index = SupportIndex::new();
    let mut cost = GaCost {
        set_vote: PerOp::default(),
        outputs: PerOp::default(),
    };
    for (r, envs) in stream.iter().enumerate() {
        let span = trace.open("ga.set_vote", r as u64, Some(parent));
        let mut ops = 0;
        for env in envs {
            if let Payload::Vote(v) = env.payload() {
                ops += u64::from(index.set_vote(tree, v.sender(), v.tip()));
            }
        }
        cost.set_vote.add(trace.close(span, ops), ops);
        let span = trace.open("ga.outputs", r as u64, Some(parent));
        black_box(index.outputs(tree, config.thresholds(), index.participation()));
        cost.outputs.add(trace.close(span, 1), 1);
    }
    cost
}

/// The pool's fan-out alone: every envelope sent, then delivered to all
/// `n` receivers through a receiver that does nothing.
pub(crate) fn network_fanout(stream: &Stream, n: usize, trace: &mut Trace, parent: usize) -> PerOp {
    let mut net = Network::new(n);
    per_round(trace, parent, "network.fanout", stream, |r, envs| {
        let round = Round::new(r);
        for env in envs {
            net.send(round, env.payload().sender(), Recipients::All, env.clone());
        }
        let mut delivered = 0;
        for p in ProcessId::all(n) {
            delivered += net.deliver_sync_with(p, round, |env| {
                black_box(env);
            });
        }
        net.compact();
        delivered as u64
    })
}

/// `Histogram::record` over the run's decide latencies (repeated so the
/// span is long enough to time).
pub(crate) fn histogram_record(latencies: &[u64], trace: &mut Trace, parent: usize) -> PerOp {
    const PASSES: u64 = 200;
    let mut histogram = Histogram::new();
    let span = trace.open("load.histogram_record", 0, Some(parent));
    for _ in 0..PASSES {
        for &l in latencies {
            histogram.record(black_box(l));
        }
    }
    let ops = PASSES * latencies.len() as u64;
    let ns = trace.close(span, ops);
    black_box(histogram.count());
    PerOp { ns, ops }
}
