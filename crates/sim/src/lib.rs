//! The sleepy-model execution substrate.
//!
//! The paper's theorems are stated in a lock-step round model
//! (Section 2.1): each round has a send phase (processes in `O_r`
//! multicast) and a receive phase (processes awake at the end of the round
//! receive). Under synchrony every message sent in rounds `≤ r` reaches
//! every process awake in the receive phase of round `r`; during an
//! asynchronous period the adversary delivers an arbitrary subset. Asleep
//! processes have their messages queued and delivered on wake-up; messages
//! are never lost.
//!
//! This crate *is* that model, executable:
//!
//! * [`Schedule`] — who is awake (`H_r`) and who is corrupted (`B_r`,
//!   growing adversary) in every round, with generators for full
//!   participation, bounded random churn, mass-sleep incidents and
//!   oscillating participation;
//! * [`Timeline`] — the round-indexed environment model: synchronous by
//!   default, with any number of asynchronous and bounded-delay windows
//!   plus partition overlays, so repeated async spells, partial synchrony
//!   (GST) and split-brain scenarios are data, not special cases;
//! * [`Network`] — the global message pool with per-process delivery
//!   cursors implementing exactly the synchronous/asynchronous/
//!   bounded-delay delivery rules above;
//! * [`Adversary`] — full-knowledge Byzantine strategy hook: fabricates
//!   signed messages from corrupted processes (equivocation, targeted
//!   sends) and controls delivery during asynchronous rounds. Includes the
//!   paper's split-vote safety attack (Section 1) among several strategies;
//! * [`SimConfig`] + [`SimBuilder`] — the driving API: the config holds
//!   the run's values (parameters, seed, horizon, timeline), the builder
//!   its pluggable parts (schedule, workload, typed adversary, user
//!   observers), with a proper error path;
//! * [`Simulation`] — the round loop over one [`st_core::TobProcess`] per
//!   process (the fixed-quorum baseline is
//!   [`st_types::Participation::Fixed`] in the run's parameters) — steppable
//!   ([`Simulation::step`] / [`Simulation::run_until`] /
//!   [`Simulation::finish`]) with mid-run inspection and intervention;
//! * [`Observer`] + [`SimEvent`] — the execution narrated as an event
//!   stream; the built-in monitors ride the same trait user probes do,
//!   and the report is assembled from the observer pipeline;
//! * [`Sweep`] — cartesian config grids with deterministic per-cell
//!   seeds, run across worker threads in input order (a head-to-head
//!   runs one sweep twice, so both sides get the same per-cell seeds);
//! * [`Workload`] / [`WorkloadSpec`] — the open-loop workload layer
//!   (st-load) threaded into the round loop: per-round arrivals enter a
//!   bounded mempool, drained batches reach `submit_tx`, and
//!   [`SimReport::workload`] carries throughput, drop accounting and
//!   exact submit→decide latency percentiles
//!   ([`diurnal_schedule`] derives participation from the same trace);
//! * [`SimReport`] — decisions, safety/resilience violations (Definitions
//!   2 and 5), transaction-liveness statistics, per-window recovery
//!   records;
//! * [`conditions::check_conditions`] — the paper's model conditions
//!   (Equations 1–5) verified round by round against a [`Schedule`].
//!
//! Nothing here checks the protocol against the paper: st-core's literal
//! Algorithm 1 (`crates/core/tests/support/literal.rs`) does, and
//! `tests/determinism_equivalence.rs` has it replay each recorded run
//! (the [`SimEvent`] stream with the per-envelope events on) and compares
//! every process, every round.
//!
//! # Example: a synchronous run with churn
//!
//! ```
//! use st_sim::{Schedule, SimBuilder, SimConfig, WorkloadSpec, adversary::SilentAdversary};
//! use st_types::Params;
//!
//! let params = Params::builder(10).expiration(2).churn_rate(0.05).build()?;
//! let report = SimBuilder::from_config(SimConfig::new(params, 123).horizon(40))
//!     .workload_spec(WorkloadSpec::txs_every(4))
//!     .schedule(Schedule::random_churn(10, 40, 0.02, 99, &Default::default()))
//!     .adversary(SilentAdversary)
//!     .build()?
//!     .run();
//! assert!(report.safety_violations.is_empty());
//! assert!(report.decisions_total > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

pub mod adversary;
mod builder;
pub mod conditions;
pub mod env;
pub mod explore;
mod metrics;
mod monitor;
mod network;
mod observer;
mod runner;
pub mod scenario;
mod schedule;
mod sweep;
pub mod workload;

pub use adversary::{Adversary, AdversaryCtx, TargetedMessage};
pub use builder::{BuildError, SimBuilder};
pub use env::{bounded_delay_of, Disruption, EnvView, EnvWindow, Partition, SegmentKind, Timeline};
pub use metrics::{RoundSample, RoundTrace};
pub use monitor::{RecoveryRecord, SafetyViolation, SimReport, TxRecord};
pub use network::{Network, Recipients, SentMessage};
pub use observer::{DecisionLog, DecisionTap, ObsCtx, Observer, SimEvent, ViolationKind};
pub use runner::{SimConfig, Simulation};
pub use schedule::{ChurnOptions, Schedule};
pub use sweep::{Sweep, SweepReports};
pub use workload::{diurnal_schedule, WorkloadSpec, WorkloadSummary};

// The workload layer's own vocabulary (generators, mempool, histogram),
// re-exported so simulation drivers need only this crate in scope.
pub use st_load::{
    ConstantRate, Diurnal, FlashCrowd, Histogram, LatencyStats, Mempool, MempoolStats, PendingTx,
    Workload,
};
