//! A deployable socket-based node runtime for the sleepy TOB protocol.
//!
//! Every line of protocol code in this workspace is a deterministic,
//! I/O-free state machine, [`st_core::TobProcess`]; until this crate it
//! had only ever been driven by the lockstep simulator. `st-node` is the
//! second runtime: a standalone process (`stob serve`) that runs one
//! `TobProcess` over real TCP sockets using
//! thread-per-peer `std::net` I/O — no async runtime, std only — plus a
//! local multi-process cluster harness (`stob cluster`) that spawns N
//! node processes, injects sleep / kill / partition faults at the socket
//! layer on a scripted timeline, and collects each node's decided chain.
//!
//! # Equivalence by construction
//!
//! The node maps simulator rounds onto wall-clock ticks and reproduces
//! the simulator's delivery semantics exactly, so a cluster run and a
//! [`Simulation`](../st_sim/index.html) run over the equivalent
//! `Schedule`/`Timeline` decide **byte-identical** chains:
//!
//! * **Round marks.** Each node ends every awake round `s` with a `Mark`
//!   control frame after that round's envelopes. Before executing round
//!   `r`, a node ingests, per peer, exactly the batches the simulator
//!   would have delivered by the end of round `r − 1` — no fewer (it
//!   blocks on the required mark) and no more (ingestion never passes
//!   it).
//! * **Socket-layer partitions.** A sender withholds a round-`s` batch
//!   from a cross-group peer while the partition window covering `s` is
//!   still active, releasing it when its own round passes the window —
//!   matching the simulator's queue-until-heal delivery.
//! * **Kill/restart.** The protocol is deterministic and peers re-send
//!   their full outbound history on reconnect, so a killed node recovers
//!   by plain re-execution from round 0 — no WAL — and regenerates its
//!   own past sends byte-identically.
//!
//! The cluster harness byte-compares every node's serialized decision log
//! against the simulator's, and `stob cluster` exits non-zero on any
//! divergence — the acceptance gate wired into CI.
//!
//! Layering: depends on `st-types`/`st-messages`/`st-core` only; nothing
//! but st-bench and the facade may depend on it (checked on Cargo's graph
//! by the facade's `tests/workspace_graph.rs`). All of the crate is
//! wallclock-free except [`io`], whose module-level
//! `expect(clippy::disallowed_methods)` admits `Instant::now` for socket
//! timeouts and backoff.

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod io;
pub mod plan;
pub mod runtime;

pub use cluster::{run_cluster, ClusterOptions, ClusterOutcome, NodeRun};
pub use frame::NodeFrame;
pub use plan::{ClusterPlan, KillWindow, PartitionWindow};
pub use runtime::{run_node, serve, NodeOutcome, PeerReport};
