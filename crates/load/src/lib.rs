//! The open-loop workload layer: deterministic traffic generators, a
//! bounded admission mempool, and exact latency percentiles.
//!
//! One transaction every `k` rounds (the simulator's
//! `WorkloadSpec::txs_every`) is enough to measure *inclusion*, useless
//! for asking
//! what an operator cares about: **throughput-latency curves under
//! offered load**. This crate supplies the three missing pieces:
//!
//! * [`Workload`] — an *open-loop* generator: per-round, per-client
//!   transaction arrival counts that do not depend on how fast the
//!   system drains them (arrivals keep coming whether or not consensus
//!   keeps up, which is what makes saturation knees visible).
//!   Implementations: [`ConstantRate`] (cumulative-rational rate, so
//!   `1/k` per round is exactly the `txs_every(k)` trace),
//!   [`FlashCrowd`] (burst windows layered on a base rate, optionally
//!   jittered by [`SplitMix64`]), and [`Diurnal`] (a cosine day/night
//!   wave whose [`Workload::load_fraction`] doubles as a participation
//!   trace — "users sleeping at night" literally drives the sleepy
//!   model when the simulator derives its `Schedule` from it).
//! * [`Mempool`] — bounded admission between the generator and
//!   `submit_tx`: a capacity cap, a per-client fairness cap, FIFO
//!   batched draining, and full drop/hold-over accounting
//!   ([`MempoolStats`]).
//! * [`Histogram`] — submit→decide round latencies with **exact**
//!   nearest-rank percentiles (sorted values, no sampling, no buckets).
//!
//! # Determinism contract
//!
//! Everything here is a pure function of its inputs: no wall clock, no
//! global state, no platform-dependent iteration order, and the only
//! randomness is the explicitly seeded [`SplitMix64`]. Two runs with
//! the same configuration produce byte-identical traces — the property
//! the simulator's equivalence suites and its hasher-perturbation test
//! assert across the whole stack.

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod latency;
mod mempool;
mod rng;
mod workload;

pub use latency::{Histogram, LatencyStats};
pub use mempool::{Mempool, MempoolStats, PendingTx};
pub use rng::SplitMix64;
pub use workload::{ConstantRate, Diurnal, FlashCrowd, Workload};
