//! **P2 — scale & fast-path benchmark**: how fast does the simulator run
//! as the system grows, and what does the shared-envelope fast path buy?
//!
//! Sweeps `n ∈ {64, 256, 1024} × horizon ∈ {100, 400}` plus the
//! `n = 4096, horizon = 100` flagship cell under full participation
//! (the message-densest case: every process multicasts every round) and
//! reports rounds/sec, messages/sec and the shared-tally cache hit rate
//! per cell (under full synchrony the once-per-round tally serves
//! `(n − 1)/n` of honest tallies from the round's memo — that sharing,
//! plus the incremental fallback, is what makes per-round work scale
//! with messages rather than `n ×` messages and lands n = 4096).
//!
//! Before anything is timed, a **consistency spot-check** runs one cell
//! under a [`st_sim::TallyOracle`], which compares every tally a process
//! consumed (memo-shared or incremental) with the stateless window
//! tally; a mismatch exits with status 2 without touching
//! `BENCH_sim.json`. The same check gates the `--smoke` CI pass.
//!
//! A second measurement isolates the **delivery subsystem** — pool
//! storage, fan-out and signature checking for the message volume of the
//! `n = 256, horizon = 400` cell, no protocol processing — against an
//! emulation, through public APIs only, of per-receiver deep clone +
//! fresh verification with no compaction: the `O(n²·horizon)` wall the
//! shared-envelope path avoids. The simulation's *model* signatures
//! verify in ~60 ns, so the verification count per message
//! ([`st_crypto::verification_count`]; `verifies/msg`: 1 vs n) is the
//! structural invariant that transfers to real (µs-scale) signatures.
//!
//! The committed `exp_scale` section of `BENCH_sim.json` predates the
//! removal of the simulator's naive mode: its `mode: "naive"` row and
//! `speedup_fast_over_naive_e2e` are frozen history (EXPERIMENTS.md P2)
//! that a fresh full run no longer produces.
//!
//! Results are printed as a table, written as CSV next to the other
//! experiments, and merged into `BENCH_sim.json` under the `"exp_scale"`
//! key, preserving the other experiments' sections. Smoke runs write to
//! the separate `"exp_scale_smoke"` section, so a `--smoke` pass can
//! never overwrite the committed full-grid numbers.
//!
//! Run with `cargo run --release -p st-bench --bin exp_scale [--smoke]`.
//! `--smoke` restricts the sweep to `n = 64, horizon = 100` for CI.

use serde::Serialize;
use st_analysis::Table;
use st_bench::{bench_section, emit, f3, write_bench_section};
use st_sim::adversary::SilentAdversary;
use st_sim::{Schedule, SimBuilder, SimConfig, Sweep, TallyOracle};
use st_types::Params;
use std::time::Instant;

/// One measured run.
#[derive(Clone, Debug, Serialize)]
struct Measurement {
    n: usize,
    horizon: u64,
    seconds: f64,
    rounds_per_sec: f64,
    messages_per_sec: f64,
    messages: usize,
    /// Signature verifications performed during the run.
    sig_verifications: u64,
    /// Verifications per unique message — ≈ 1: each multicast envelope
    /// is verified once, not once per receiver.
    verifies_per_message: f64,
    /// Fraction of honest tallies served from the shared once-per-round
    /// cache — `(n − 1)/n` under full synchronous participation.
    tally_cache_hit_rate: f64,
    decisions: usize,
    safe: bool,
}

/// The isolated delivery-subsystem measurement: same message volume as
/// the comparison cell, delivery + signature checking only.
#[derive(Clone, Debug, Serialize)]
struct DeliveryBench {
    n: usize,
    rounds: u64,
    deliveries: usize,
    fast_seconds: f64,
    naive_seconds: f64,
    /// Wall-clock ratio naive/fast — the fast path's speedup on the
    /// subsystem the refactor replaced.
    speedup: f64,
    fast_verifications: u64,
    naive_verifications: u64,
}

#[derive(Clone, Debug, Serialize)]
struct BenchReport {
    experiment: &'static str,
    smoke: bool,
    runs: Vec<Measurement>,
    delivery: DeliveryBench,
}

fn cell_config(n: usize, horizon: u64) -> SimConfig {
    let params = Params::builder(n)
        .expiration(2)
        .build()
        .expect("valid params");
    SimConfig::new(params, 0xBE7C).horizon(horizon).txs_every(8)
}

fn measure(n: usize, horizon: u64) -> Measurement {
    // Grid cells report the shared-tally hit rate; the counters are
    // instrument-gated.
    let sim = SimBuilder::from_config(cell_config(n, horizon).instrument())
        .schedule(Schedule::full(n, horizon))
        .adversary(SilentAdversary)
        .build()
        .expect("valid scale cell");
    st_crypto::reset_verification_count();
    let start = Instant::now();
    let report = sim.run();
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    let sig_verifications = st_crypto::verification_count();
    Measurement {
        n,
        horizon,
        seconds,
        rounds_per_sec: (horizon + 1) as f64 / seconds,
        messages_per_sec: report.messages_sent as f64 / seconds,
        messages: report.messages_sent,
        sig_verifications,
        verifies_per_message: sig_verifications as f64 / report.messages_sent.max(1) as f64,
        tally_cache_hit_rate: report.timeline.tally_cache_hit_rate(),
        decisions: report.decisions_total,
        safe: report.is_safe(),
    }
}

/// The consistency spot-check: one uninstrumented cell under the tally
/// oracle. Every tally a process consumed — almost all adopted from the
/// round's memo at full participation — must equal the stateless window
/// tally over that process's own state; anything else means two
/// processes with different tally inputs shared a memo key. Exits the
/// process with status 2 on mismatch.
fn assert_tallies_consistent(n: usize, horizon: u64) {
    let (oracle, log) = TallyOracle::new();
    SimBuilder::from_config(cell_config(n, horizon))
        .schedule(Schedule::full(n, horizon))
        .adversary(SilentAdversary)
        .observer(oracle)
        .run();
    let check = log.borrow();
    if check.checked == 0 || !check.mismatches.is_empty() {
        eprintln!(
            "FATAL: {} of {} consumed tallies diverged from the stateless window tally at \
             n={n} horizon={horizon} (first: {:?}); refusing to record benchmark numbers",
            check.mismatches.len(),
            check.checked,
            check.mismatches.first()
        );
        std::process::exit(2);
    }
    println!(
        "[tally-oracle spot-check passed at n={n} horizon={horizon}: {} tallies, 0 mismatches]",
        check.checked
    );
}

/// Times the delivery subsystem alone: `rounds` rounds of `2n` signed
/// multicasts each, fanned out to `n` receivers who check every
/// signature — via the shared path, or an emulation of per-receiver
/// deep clone + fresh verification with no compaction.
fn delivery_bench(n: usize, rounds: u64) -> DeliveryBench {
    use st_blocktree::Block;
    use st_messages::{KeyDirectory, Payload, Propose, Vote};
    use st_sim::{Network, Recipients};
    use st_types::{BlockId, ProcessId, Round, TxId, View};

    let dir = KeyDirectory::derive(n, 7);
    let keypairs: Vec<st_crypto::Keypair> = (0..n as u32)
        .map(|i| st_crypto::Keypair::derive(ProcessId::new(i), 7))
        .collect();
    // Pre-sign all traffic so only delivery + verification are timed. The
    // mix mirrors a real round: every process multicasts one vote and one
    // proposal (proposals carry a block, so their per-receiver deep clone
    // and re-serialisation are what the naive path actually paid).
    let batches: Vec<Vec<st_messages::Envelope>> = (1..=rounds)
        .map(|r| {
            let view = View::new(r);
            (0..n as u32)
                .flat_map(|i| {
                    let p = ProcessId::new(i);
                    let kp = &keypairs[p.index()];
                    let vote = Vote::new(p, Round::new(r), BlockId::new(u64::from(i)));
                    // A modestly loaded block (16 txs): the production
                    // workload the ROADMAP targets ships full blocks, and
                    // payload bytes are exactly what the naive path's
                    // per-receiver deep clone and re-serialisation paid
                    // for.
                    let payload: Vec<TxId> = (0..16)
                        .map(|t| TxId::new(r * 1024 + u64::from(i) * 16 + t))
                        .collect();
                    let block = Block::build(BlockId::GENESIS, view, p, payload);
                    let (vrf_value, vrf_proof) = kp.vrf_eval(view.as_u64());
                    let prop = Propose::new(p, Round::new(r), view, block, vrf_value, vrf_proof);
                    [
                        st_messages::Envelope::sign(kp, Payload::Vote(vote)),
                        st_messages::Envelope::sign(kp, Payload::Propose(prop)),
                    ]
                })
                .collect()
        })
        .collect();
    let mut deliveries = 0usize;

    let run = |naive: bool, deliveries: &mut usize| -> (f64, u64) {
        let mut net = Network::new(n);
        st_crypto::reset_verification_count();
        let start = Instant::now();
        let mut accepted = 0usize;
        for (ri, batch) in batches.iter().enumerate() {
            let round = Round::new(ri as u64 + 1);
            for env in batch {
                net.send(round, env.payload().sender(), Recipients::All, env.clone());
            }
            for p in 0..n as u32 {
                net.deliver_sync_with(ProcessId::new(p), round, |env| {
                    *deliveries += 1;
                    if naive {
                        let owned = env.envelope().clone();
                        accepted += owned.verify(&dir) as usize;
                    } else {
                        accepted += env.verify_cached(&dir) as usize;
                    }
                });
            }
            if !naive {
                net.compact();
            }
        }
        assert_eq!(accepted, rounds as usize * 2 * n * n);
        (
            start.elapsed().as_secs_f64().max(1e-9),
            st_crypto::verification_count(),
        )
    };

    let (fast_seconds, fast_verifications) = run(false, &mut deliveries);
    let total_deliveries = deliveries;
    deliveries = 0;
    let (naive_seconds, naive_verifications) = run(true, &mut deliveries);
    DeliveryBench {
        n,
        rounds,
        deliveries: total_deliveries,
        fast_seconds,
        naive_seconds,
        speedup: naive_seconds / fast_seconds,
        fast_verifications,
        naive_verifications,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // `volume` is the (n, rounds) traffic the delivery microbench replays;
    // the spot-check runs at the same n.
    let (grid, volume): (Vec<(usize, u64)>, (usize, u64)) = if smoke {
        (vec![(64, 100)], (64, 100))
    } else {
        (
            vec![
                (64, 100),
                (64, 400),
                (256, 100),
                (256, 400),
                (1024, 100),
                (1024, 400),
                // The flagship cell the shared + incremental tally lands.
                (4096, 100),
            ],
            (256, 400),
        )
    };

    // Gate everything on the consistency spot-check (exit 2 on
    // divergence, before any timing or JSON writing happens).
    assert_tallies_consistent(volume.0, 100);

    // The verification counter is process-global and every cell reports
    // wall-clock, so the sweep runs `sequential()`: each measurement's
    // counter window stays exclusive and timings don't contend. The grid
    // itself, per-cell execution and row order all come from the same
    // `Sweep` driver the library experiments use. Seeds are fixed inside
    // `measure` (the committed-grid semantics), so the derived per-cell
    // seed is ignored.
    let runs: Vec<Measurement> = Sweep::over(grid)
        .sequential()
        .run(|&(n, horizon), _seed| measure(n, horizon));
    let delivery = delivery_bench(volume.0, volume.1);

    let mut table = Table::new(vec![
        "n",
        "horizon",
        "seconds",
        "rounds/s",
        "msgs/s",
        "verifies/msg",
        "tally hit%",
        "decisions",
        "safe",
    ]);
    for m in &runs {
        table.row(vec![
            m.n.to_string(),
            m.horizon.to_string(),
            f3(m.seconds),
            format!("{:.0}", m.rounds_per_sec),
            format!("{:.0}", m.messages_per_sec),
            f3(m.verifies_per_message),
            format!("{:.1}", m.tally_cache_hit_rate * 100.0),
            m.decisions.to_string(),
            m.safe.to_string(),
        ]);
    }
    emit(
        "exp_scale",
        "scale sweep + shared-envelope fast path",
        &table,
    );

    println!(
        "\nDelivery subsystem (pool + fan-out + signature checks, {} deliveries\n\
         at n={}): {:.1}x faster ({}s vs {}s; {} vs {} signature\n\
         verifications). This is the O(n²·horizon) clone+re-verify wall the\n\
         shared-envelope path avoids; the simulation's model signatures are\n\
         ~60ns (real signatures are micro-seconds, where verify-once\n\
         dominates).",
        delivery.deliveries,
        delivery.n,
        delivery.speedup,
        f3(delivery.fast_seconds),
        f3(delivery.naive_seconds),
        delivery.fast_verifications,
        delivery.naive_verifications,
    );

    let bench = BenchReport {
        experiment: "exp_scale",
        smoke,
        runs,
        delivery,
    };
    match write_bench_section(&bench_section("exp_scale", smoke), &bench) {
        Ok(()) => println!("\n[merged exp_scale into BENCH_sim.json]"),
        Err(e) => println!("\n[could not write BENCH_sim.json: {e}]"),
    }
}
