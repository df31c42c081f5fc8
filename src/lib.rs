//! # sleepy-tob
//!
//! A complete, executable reproduction of **"Asynchrony-Resilient Sleepy
//! Total-Order Broadcast Protocols"** (D'Amato, Losa, Zanolini —
//! PODC 2024, arXiv:2309.05347).
//!
//! The paper shows how to make a *dynamically available* total-order
//! broadcast protocol — the Malkhi–Momose–Ren (MMR) protocol, which keeps
//! working even when most participants go offline — tolerate **bounded
//! periods of asynchrony** of up to `π` rounds. The mechanism is a
//! configurable **message expiration period** `η > π`: instead of counting
//! only current-round votes, every graded agreement counts the *latest
//! unexpired* vote of each process, at the price of a bounded churn rate
//! `γ` and a reduced failure ratio `β̃ = (β − γ)/(γ(β − 2) + 1)`.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `st-types` | ids, rounds/views, validated parameters, the Figure-1 formula `adjusted_failure_ratio` |
//! | [`crypto`] | `st-crypto` | simulated signatures + VRF |
//! | [`blocktree`] | `st-blocktree` | logs as chains in a block tree |
//! | [`messages`] | `st-messages` | votes/proposals, expiration-window stores |
//! | [`ga`] | `st-ga` | graded agreement (Figures 2–3, Lemma 1) |
//! | [`core`] | `st-core` | Algorithm 1 with expiration (the contribution), and with a fixed denominator the fixed-quorum baseline |
//! | [`load`] | `st-load` | open-loop workload generators, bounded mempool, latency histograms |
//! | [`sim`] | `st-sim` | sleepy-model simulator, adversaries, monitors, workload injection, Eq. 1–5 checkers |
//! | [`node`] | `st-node` | deployable socket node runtime (`stob serve`) + multi-process cluster harness |
//!
//! # Quickstart
//!
//! ```
//! use sleepy_tob::prelude::*;
//!
//! // Protocol parameters: η = 4 tolerates any asynchronous period π ≤ 3.
//! let params = Params::builder(10).expiration(4).churn_rate(0.05).build()?;
//!
//! // Run it through a 2-round network partition: safety holds. The
//! // config holds the run's values (horizon, environment timeline, so π
//! // too); the builder adds its parts — the schedule defaults to full
//! // participation, the adversary is typed (no Box).
//! let config = SimConfig::new(params, 42)
//!     .horizon(30)
//!     .timeline(Timeline::synchronous().asynchronous(Round::new(10), 2));
//! let report = SimBuilder::from_config(config)
//!     .adversary(PartitionAttacker::new())
//!     .build()?
//!     .run();
//! assert!(report.is_safe());
//! assert!(report.is_asynchrony_resilient()); // Theorem 2: π = 2 < η = 4
//!
//! // The paper's claim is recovery after *every* spell: a two-spell
//! // timeline yields one recovery record per window.
//! let config = SimConfig::new(params, 42).horizon(40).timeline(
//!     Timeline::synchronous()
//!         .asynchronous(Round::new(10), 2)
//!         .asynchronous(Round::new(24), 2),
//! );
//! let report = SimBuilder::from_config(config)
//!     .adversary(PartitionAttacker::new())
//!     .build()?
//!     .run();
//! assert!(report.is_safe());
//! assert_eq!(report.recoveries.len(), 2);
//! assert!(report.recovered_after_every_window());
//!
//! // Execution is steppable: pause mid-run, inspect, intervene, resume.
//! let mut sim = SimBuilder::from_config(SimConfig::new(params, 42).horizon(20)).build()?;
//! sim.run_until(Round::new(10));
//! assert_eq!(sim.next_round(), Some(Round::new(11)));
//! let report = sim.finish(); // or keep stepping to the horizon
//! assert!(report.is_safe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # One encoding per message
//!
//! Votes and proposals leave a process only as frames of the binary wire
//! codec ([`messages::wire`]). They have no second encoding: `serde` is
//! derived only by what reports, cluster plans and node outcomes carry.
//!
//! ```compile_fail,E0277
//! fn to_json<T: serde::Serialize>(_: &T) {}
//! fn ship(env: &sleepy_tob::messages::Envelope) {
//!     to_json(env);
//! }
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

pub use st_blocktree as blocktree;
pub use st_core as core;
pub use st_crypto as crypto;
pub use st_ga as ga;
pub use st_load as load;
pub use st_messages as messages;
pub use st_node as node;
pub use st_sim as sim;
pub use st_types as types;

// The README's Rust quickstart runs as a doctest, so it cannot drift
// from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme {}

/// One-stop imports for the common API surface.
///
/// Everything a simulation driver touches is here: the
/// [`SimBuilder`](st_sim::SimBuilder) chain (schedule, timeline, typed
/// adversary, observers), the stepping surface on
/// [`Simulation`](st_sim::Simulation), the
/// [`Observer`](st_sim::Observer)/[`SimEvent`](st_sim::SimEvent) stream
/// with the [`DecisionTap`](st_sim::DecisionTap) that keeps decisions past
/// a run, the [`Sweep`](st_sim::Sweep) grid driver, the
/// [`Scenario`](st_sim::scenario::Scenario) presets, and the report /
/// trace types they produce — plus the
/// [`Adversary`](st_sim::Adversary) trait itself with its context and
/// message types, so a custom strategy compiles from the prelude alone.
/// The protocol layer is here too: the process
/// [`TobProcess`](st_core::TobProcess) and the
/// [`Participation`](st_types::Participation) rule that turns it into
/// the fixed-quorum baseline, so head-to-head experiments build from the
/// prelude alone (`examples/baseline_comparison.rs`). The workload layer
/// rides along:
/// the [`Workload`](st_load::Workload) generators, the
/// [`WorkloadSpec`](st_sim::WorkloadSpec) admission/batch knobs and the
/// [`WorkloadSummary`](st_sim::WorkloadSummary) latency percentiles in
/// every report.
pub mod prelude {
    pub use st_blocktree::{Block, BlockTree};
    pub use st_core::{DecisionEvent, TobConfig, TobProcess};
    pub use st_ga::{tally, GaOutput, Thresholds};
    pub use st_load::{ConstantRate, Diurnal, FlashCrowd, Histogram, Mempool, Workload};
    pub use st_messages::{Envelope, Payload, Propose, Vote, VoteStore};
    pub use st_sim::adversary::{
        BlackoutAdversary, EquivocatingVoter, PartitionAttacker, ReorgAttacker, SilentAdversary,
    };
    pub use st_sim::conditions::check_conditions;
    pub use st_sim::scenario::{alternating, gst, Scenario};
    pub use st_sim::{
        diurnal_schedule, Adversary, AdversaryCtx, BuildError, DecisionTap, EnvView, ObsCtx,
        Observer, Recipients, RecoveryRecord, RoundSample, RoundTrace, SafetyViolation, Schedule,
        SegmentKind, SentMessage, SimBuilder, SimConfig, SimEvent, SimReport, Simulation, Sweep,
        SweepReports, TargetedMessage, Timeline, TxRecord, ViolationKind, WorkloadSpec,
        WorkloadSummary,
    };
    pub use st_types::{
        adjusted_failure_ratio, BlockId, Grade, Params, Participation, ProcessId, Round, RoundKind,
        TxId, View,
    };
}
