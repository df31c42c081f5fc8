//! The paper's core contribution: the Malkhi–Momose–Ren total-order
//! broadcast protocol (Algorithm 1) parameterised by a **message expiration
//! period** `η`.
//!
//! * `η = 0` — the vanilla MMR protocol of Section 3.1: every graded
//!   agreement tallies only votes cast in the immediately preceding round.
//!   Dynamically available, but loses safety the moment the network turns
//!   asynchronous (the split-vote attack of Section 1).
//! * `η > 0` — the asynchrony-resilient extension of Section 3.3: every
//!   graded agreement tallies the **latest unexpired** vote of each process
//!   over the window `[r − 1 − η, r − 1]`. Tolerates any asynchronous
//!   period of `π < η` rounds (Theorem 2) at the price of a bounded churn
//!   rate `γ` and a reduced failure ratio `β̃` (Section 2.3).
//!
//! The protocol proceeds in views of two rounds (view 0 is a single
//! bootstrap propose round). In the first round of view `v` each awake
//! process computes the outputs of `GA_{v−1,2}`, **decides** every grade-1
//! log, and votes in `GA_{v,1}` for the proposal with the largest valid
//! VRF that does not conflict with the longest output `L_{v−1}`. In the
//! second round it computes `GA_{v,1}`, votes its longest grade-1 output in
//! `GA_{v,2}`, and proposes a new block extending the longest any-grade
//! output `C_v` for view `v + 1`.
//!
//! [`TobProcess`] is a deterministic, I/O-free state machine: the driver
//! (the `st-sim` simulator, a test, or a real network shim) feeds received
//! envelopes via [`TobProcess::on_receive_shared`] and asks for a round's
//! outgoing messages via [`TobProcess::step_send`]. This makes the exact
//! same protocol code testable under lock-step simulation, adversarial
//! delivery, and property-based exploration.
//!
//! Both runtimes, st-sim's `Simulation` and st-node's `stob serve`, drive
//! [`TobProcess`] directly. The classic fixed-quorum BFT baseline the
//! paper compares against is the same process under
//! [`st_types::Participation::Fixed`], which grades support against all
//! `n` processes instead of the perceived participation. The driving
//! surface is also written down as a trait, [`Protocol`] (see the
//! [`protocol`] module), which `TobProcess` alone implements.
//!
//! # Example: three processes, one synchronous view cycle
//!
//! ```
//! use st_core::{TobConfig, TobProcess};
//! use st_messages::SharedEnvelope;
//! use st_types::{ProcessId, Round};
//!
//! let config = TobConfig::new(st_types::Params::builder(3).expiration(2).build()?, 7);
//! let mut procs: Vec<TobProcess> =
//!     (0..3).map(|i| TobProcess::new(ProcessId::new(i), config.clone())).collect();
//!
//! // Drive a few lock-step rounds: everyone sends, everyone receives all
//! // (each envelope wrapped once, so its signature is checked once).
//! for r in 0..=6u64 {
//!     let round = Round::new(r);
//!     let batches: Vec<_> = procs.iter_mut().map(|p| p.step_send(round)).collect();
//!     for env in batches.into_iter().flatten().map(SharedEnvelope::new) {
//!         for p in procs.iter_mut() {
//!             p.on_receive_shared(&env);
//!         }
//!     }
//! }
//! // By round 5 every process has decided the view-1 common log.
//! assert!(procs.iter_mut().all(|p| !p.drain_decisions().is_empty()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod buffer;
mod config;
mod decision;
mod process;
pub mod protocol;
mod txpool;

pub use config::TobConfig;
pub use decision::DecisionEvent;
pub use process::TobProcess;
pub use protocol::Protocol;
