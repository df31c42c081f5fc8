//! The fluent simulation builder, [`SimBuilder`].

use crate::adversary::Adversary;
use crate::adversary::SilentAdversary;
use crate::monitor::SimReport;
use crate::observer::Observer;
use crate::runner::{SimConfig, Simulation};
use crate::schedule::Schedule;
use crate::workload::WorkloadSpec;
use st_types::ProcessId;

/// Why a [`SimBuilder::build`] was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The schedule covers a different number of processes than the
    /// protocol parameters specify.
    ScheduleMismatch {
        /// `params.n()`.
        expected: usize,
        /// `schedule.n()`.
        got: usize,
    },
    /// A partition group of the configured timeline names a process
    /// outside the system.
    PartitionMemberOutOfRange {
        /// The out-of-range member.
        member: ProcessId,
        /// The system size.
        n: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ScheduleMismatch { expected, got } => write!(
                f,
                "schedule covers {got} processes but params specify {expected}"
            ),
            BuildError::PartitionMemberOutOfRange { member, n } => write!(
                f,
                "partition group member {member} is outside the system (n = {n})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Fluent builder for a [`Simulation`], and the one way to construct one.
/// The run's values — parameters, seed, horizon, environment timeline —
/// live in a [`SimConfig`]; the builder adds only the pluggable parts:
/// schedule, workload, a *typed* adversary (no mandatory `Box`) and any
/// number of user [`Observer`]s. [`SimBuilder::build`] validates the whole
/// configuration with a proper error path instead of panicking:
///
/// ```
/// use st_sim::{adversary::PartitionAttacker, SimBuilder, SimConfig, Timeline, WorkloadSpec};
/// use st_types::{Params, Round};
///
/// let params = Params::builder(10).expiration(6).build()?;
/// let config = SimConfig::new(params, 42)
///     .horizon(30)
///     .timeline(Timeline::synchronous().asynchronous(Round::new(12), 4));
/// let report = SimBuilder::from_config(config)
///     .workload_spec(WorkloadSpec::txs_every(4))
///     .adversary(PartitionAttacker::new())
///     .build()?
///     .run();
/// assert!(report.is_safe());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The schedule defaults to full participation over the configured
/// horizon; the adversary defaults to [`SilentAdversary`]; without a
/// workload no transaction is submitted. The processes are
/// [`st_core::TobProcess`]es; the fixed-quorum baseline is
/// [`st_types::Participation::Fixed`] in the config's parameters.
pub struct SimBuilder {
    config: SimConfig,
    schedule: Option<Schedule>,
    adversary: Box<dyn Adversary>,
    observers: Vec<Box<dyn Observer>>,
    workload: Option<WorkloadSpec>,
}

impl SimBuilder {
    /// Starts a builder for the run `config` describes, with full
    /// participation, a silent adversary and no workload.
    pub fn from_config(config: SimConfig) -> SimBuilder {
        SimBuilder {
            config,
            schedule: None,
            adversary: Box::new(SilentAdversary),
            observers: Vec::new(),
            workload: None,
        }
    }

    /// Installs a [`WorkloadSpec`]: an open-loop generator plus the
    /// mempool's capacity and submission batch. Per-round arrivals enter
    /// the mempool and drained batches reach `submit_tx` on rounds with
    /// an awake honest proposer ([`WorkloadSpec::txs_every`] is the
    /// one-transaction-every-`k`-rounds workload).
    #[must_use]
    pub fn workload_spec(mut self, spec: WorkloadSpec) -> SimBuilder {
        self.workload = Some(spec);
        self
    }

    /// Sets the participation/corruption [`Schedule`]. Defaults to
    /// [`Schedule::full`] over the configured horizon.
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> SimBuilder {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the adversary — typed, no `Box` required.
    #[must_use]
    pub fn adversary(mut self, adversary: impl Adversary + 'static) -> SimBuilder {
        self.adversary = Box::new(adversary);
        self
    }

    /// Sets an adversary chosen at runtime (already boxed). Prefer
    /// [`SimBuilder::adversary`] when the strategy type is known
    /// statically.
    #[must_use]
    pub fn adversary_boxed(mut self, adversary: Box<dyn Adversary>) -> SimBuilder {
        self.adversary = adversary;
        self
    }

    /// Registers a user [`Observer`]. Observers run after the built-in
    /// monitors, in registration order, and see every [`crate::SimEvent`]
    /// of the run.
    #[must_use]
    pub fn observer(mut self, observer: impl Observer + 'static) -> SimBuilder {
        self.observers.push(Box::new(observer));
        self
    }

    /// Validates the configuration and builds the [`Simulation`].
    ///
    /// # Errors
    ///
    /// [`BuildError::ScheduleMismatch`] if the schedule's process count
    /// differs from `params.n()`;
    /// [`BuildError::PartitionMemberOutOfRange`] if a timeline partition
    /// group names a process outside the system.
    pub fn build(self) -> Result<Simulation, BuildError> {
        let schedule = self.schedule.unwrap_or_else(|| {
            Schedule::full(self.config.params().n(), self.config.horizon_rounds())
        });
        Simulation::assemble(
            self.config,
            schedule,
            self.adversary,
            self.observers,
            self.workload,
        )
    }

    /// Builds and runs to completion in one call — a convenience for
    /// tests and examples.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (the [`BuildError`] message);
    /// library code that wants to handle configuration errors should call
    /// [`SimBuilder::build`] instead.
    #[expect(
        clippy::panic,
        reason = "documented panic contract of this convenience entry point; the fallible path is build()"
    )]
    pub fn run(self) -> SimReport {
        self.build().unwrap_or_else(|e| panic!("{e}")).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Timeline;
    use st_types::{Params, Round};

    fn params(n: usize, eta: u64) -> Params {
        Params::builder(n).expiration(eta).build().unwrap()
    }

    #[test]
    fn builder_defaults_run_green() {
        let report = SimBuilder::from_config(SimConfig::new(params(8, 2), 1).horizon(20)).run();
        assert!(report.is_safe());
        assert!(report.decisions_total > 0);
    }

    #[test]
    fn schedule_mismatch_is_an_error_not_a_panic() {
        let err = SimBuilder::from_config(SimConfig::new(params(4, 0), 1).horizon(10))
            .schedule(Schedule::full(5, 10))
            .build()
            .err()
            .expect("mismatched schedule accepted");
        assert_eq!(
            err,
            BuildError::ScheduleMismatch {
                expected: 4,
                got: 5
            }
        );
        assert!(err.to_string().contains("schedule covers 5"));
    }

    #[test]
    fn partition_member_out_of_range_is_an_error_not_a_panic() {
        let timeline =
            Timeline::synchronous().partition(Round::new(5), 2, vec![vec![ProcessId::new(12)]]);
        let err = SimBuilder::from_config(SimConfig::new(params(8, 2), 1).timeline(timeline))
            .build()
            .err()
            .expect("out-of-range partition member accepted");
        assert_eq!(
            err,
            BuildError::PartitionMemberOutOfRange {
                member: ProcessId::new(12),
                n: 8
            }
        );
        assert!(err.to_string().contains("outside the system (n = 8)"));
    }
}
