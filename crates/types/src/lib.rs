//! Core identifier and parameter types for the sleepy-tob workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! reproduction of *Asynchrony-Resilient Sleepy Total-Order Broadcast
//! Protocols* (D'Amato, Losa, Zanolini — PODC 2024):
//!
//! * [`ProcessId`], [`Round`], [`View`] — newtypes for the actors and the
//!   round/view structure of the protocol (views of two rounds each,
//!   Algorithm 1 of the paper);
//! * [`Params`] — the protocol parameters `(n, β, γ, η)` and the tally's
//!   [`Participation`] rule, together with the derived adjusted failure
//!   ratio `β̃` of Section 2.3;
//! * [`Grade`] — graded-agreement output grades;
//! * [`TypesError`] — validation errors for parameters.
//!
//! # Example
//!
//! ```
//! use st_types::{Params, View, Round};
//!
//! let params = Params::builder(40)
//!     .expiration(4)
//!     .churn_rate(0.05)
//!     .build()?;
//! assert!(params.adjusted_failure_ratio() < params.failure_ratio());
//! assert_eq!(View::from_round(Round::new(5)), View::new(3));
//! # Ok::<(), st_types::TypesError>(())
//! ```

// Determinism and panic discipline (clippy.toml; DESIGN §6), tests exempt.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![warn(missing_docs)]

mod error;
pub mod fasthash;
mod grade;
mod ids;
mod params;
mod phase;

pub use error::TypesError;
pub use fasthash::{FastMap, FastSet};
pub use grade::Grade;
pub use ids::{BlockId, ProcessId, Round, TxId, View};
pub use params::{
    adjusted_failure_ratio, Params, ParamsBuilder, Participation, DEFAULT_FAILURE_RATIO,
};
pub use phase::{Phase, RoundKind};
