//! Named, pre-configured scenarios.
//!
//! The examples, the CLI and several experiments all want the same handful
//! of set-pieces (the paper's attack, the Ethereum incident, a healthy
//! baseline…). A [`Scenario`] packages parameters + schedule + adversary +
//! window so callers get a one-liner:
//!
//! ```
//! use st_sim::scenario::Scenario;
//! let report = Scenario::PartitionAttackVanilla.run(42);
//! assert!(!report.is_safe()); // the Section-1 attack lands
//! let report = Scenario::PartitionAttackExtended.run(42);
//! assert!(report.is_safe()); // Theorem 2 holds
//! ```

use crate::adversary::{
    Adversary, BlackoutAdversary, PartitionAttacker, ReorgAttacker, SilentAdversary,
};
use crate::builder::SimBuilder;
use crate::env::Timeline;
use crate::monitor::SimReport;
use crate::runner::SimConfig;
use crate::schedule::Schedule;
use crate::workload::WorkloadSpec;
use st_types::{Params, Round, TypesError};

/// Unwraps a preset's parameter build. Every [`Scenario`] arm feeds
/// constants chosen to satisfy the [`Params`] validation rules, and the
/// `all_presets_build` test exercises each arm.
#[expect(
    clippy::expect_used,
    reason = "preset parameters are compile-time constants validated by the all_presets_build test"
)]
fn preset(params: Result<Params, TypesError>) -> Params {
    params.expect("scenario presets are statically valid")
}

/// Timeline preset: `k` asynchronous spells of `pi` rounds each,
/// separated by `spacing` synchronous rounds (which also precede the
/// first spell). The paper's resilience claim quantifies over *every*
/// spell — this is the canonical multi-window shape the claim is
/// exercised against.
///
/// # Panics
///
/// Panics if `pi == 0`, `spacing == 0` or `k == 0`.
pub fn alternating(pi: u64, spacing: u64, k: usize) -> Timeline {
    assert!(pi > 0 && spacing > 0 && k > 0, "degenerate alternation");
    let mut t = Timeline::synchronous();
    let mut start = spacing;
    for _ in 0..k {
        t = t.asynchronous(Round::new(start), pi);
        start += pi + spacing;
    }
    t
}

/// Timeline preset: partial synchrony with a global stabilisation time —
/// bounded-delay delivery (`Δ = delta`) from round 1 up to and including
/// round `gst_round − 1`, fully synchronous from `gst_round` on.
///
/// # Panics
///
/// Panics if `gst_round < 2`.
pub fn gst(delta: u64, gst_round: Round) -> Timeline {
    assert!(
        gst_round.as_u64() >= 2,
        "GST must leave at least one pre-GST round"
    );
    Timeline::synchronous().bounded_delay(Round::new(1), gst_round.as_u64() - 1, delta)
}

/// A named set-piece configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Scenario {
    /// Healthy synchronous run: n = 12, η = 4, no adversary, tx workload.
    Healthy,
    /// The May-2023 Ethereum incident: 60% offline for half the run.
    EthereumIncident,
    /// The Section-1 attack against vanilla MMR (η = 0, π = 4 partition):
    /// agreement breaks.
    PartitionAttackVanilla,
    /// The same attack against the extended protocol (η = 6 > π = 4):
    /// safety holds.
    PartitionAttackExtended,
    /// The strict Definition-5 reorg attack against vanilla MMR (f = 3 of
    /// 10, one asynchronous round): `D_ra` is reverted.
    ReorgAttackVanilla,
    /// The reorg attack against the extended protocol (η = 4 > π = 1).
    ReorgAttackExtended,
    /// A 3-round total blackout under the extended protocol: safe, heals
    /// in one view.
    BlackoutExtended,
    /// Two 4-round partition spells separated by synchrony, against
    /// `η = 6` ([`alternating`]): the protocol recovers after **every**
    /// spell — the paper's resilience claim in its multi-window form.
    AlternatingAsynchrony,
    /// Partial synchrony ([`gst`]): bounded-delay delivery (`Δ = 2`)
    /// until GST at round 21, synchronous after — safe throughout, fully
    /// healed after GST.
    PartialSynchrony,
}

impl Scenario {
    /// All scenarios, for enumeration in CLIs and docs.
    pub const ALL: [Scenario; 9] = [
        Scenario::Healthy,
        Scenario::EthereumIncident,
        Scenario::PartitionAttackVanilla,
        Scenario::PartitionAttackExtended,
        Scenario::ReorgAttackVanilla,
        Scenario::ReorgAttackExtended,
        Scenario::BlackoutExtended,
        Scenario::AlternatingAsynchrony,
        Scenario::PartialSynchrony,
    ];

    /// The scenario's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Healthy => "healthy",
            Scenario::EthereumIncident => "ethereum-incident",
            Scenario::PartitionAttackVanilla => "partition-vanilla",
            Scenario::PartitionAttackExtended => "partition-extended",
            Scenario::ReorgAttackVanilla => "reorg-vanilla",
            Scenario::ReorgAttackExtended => "reorg-extended",
            Scenario::BlackoutExtended => "blackout-extended",
            Scenario::AlternatingAsynchrony => "alternating-async",
            Scenario::PartialSynchrony => "partial-synchrony",
        }
    }

    /// Looks a scenario up by its CLI name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// One-line description for help output.
    pub fn describe(&self) -> &'static str {
        match self {
            Scenario::Healthy => "synchronous baseline: n=12, η=4, tx workload, no adversary",
            Scenario::EthereumIncident => "60% of processes offline for rounds 20–60 (n=20)",
            Scenario::PartitionAttackVanilla => {
                "4-round delivery partition vs vanilla MMR — agreement breaks"
            }
            Scenario::PartitionAttackExtended => "the same partition vs η=6 — Theorem 2 holds",
            Scenario::ReorgAttackVanilla => {
                "1 async round, f=3 Byzantine genesis-fork votes vs vanilla — D_ra reverted"
            }
            Scenario::ReorgAttackExtended => "the same reorg vs η=4 — D_ra protected",
            Scenario::BlackoutExtended => "3-round total blackout vs η=5 — safe, heals in one view",
            Scenario::AlternatingAsynchrony => {
                "two 4-round partition spells vs η=6 — recovers after every spell"
            }
            Scenario::PartialSynchrony => "bounded-delay Δ=2 until GST at round 21 vs η=4 — safe",
        }
    }

    /// The expected outcome, as a `(safe, resilient)` pair, for
    /// documentation and self-tests.
    pub fn expected(&self) -> (bool, bool) {
        match self {
            Scenario::Healthy
            | Scenario::EthereumIncident
            | Scenario::PartitionAttackExtended
            | Scenario::ReorgAttackExtended
            | Scenario::BlackoutExtended
            | Scenario::AlternatingAsynchrony
            | Scenario::PartialSynchrony => (true, true),
            Scenario::PartitionAttackVanilla => (false, true), // forward divergence only
            Scenario::ReorgAttackVanilla => (false, false),
        }
    }

    /// The scenario as a pre-loaded [`SimBuilder`] — the one-line entry
    /// point that still composes: chain further builder calls (extra
    /// observers, a different horizon) before building.
    ///
    /// ```
    /// use st_sim::scenario::Scenario;
    /// let report = Scenario::PartitionAttackExtended
    ///     .builder(42)
    ///     .build()
    ///     .expect("scenario presets are valid")
    ///     .run();
    /// assert!(report.is_safe());
    /// ```
    pub fn builder(&self, seed: u64) -> SimBuilder {
        let (params, schedule, adversary, timeline, horizon): (
            Params,
            Schedule,
            Box<dyn Adversary>,
            Option<Timeline>,
            u64,
        ) = match self {
            Scenario::Healthy => (
                preset(Params::builder(12).expiration(4).build()),
                Schedule::full(12, 40),
                Box::new(SilentAdversary),
                None,
                40,
            ),
            Scenario::EthereumIncident => (
                preset(Params::builder(20).build()),
                Schedule::mass_sleep(20, 80, 0.6, 20, 60),
                Box::new(SilentAdversary),
                None,
                80,
            ),
            Scenario::PartitionAttackVanilla => (
                preset(Params::builder(10).expiration(0).build()),
                Schedule::full(10, 30),
                Box::new(PartitionAttacker::new()),
                Some(Timeline::synchronous().asynchronous(Round::new(12), 4)),
                30,
            ),
            Scenario::PartitionAttackExtended => (
                preset(Params::builder(10).expiration(6).build()),
                Schedule::full(10, 30),
                Box::new(PartitionAttacker::new()),
                Some(Timeline::synchronous().asynchronous(Round::new(12), 4)),
                30,
            ),
            Scenario::ReorgAttackVanilla => (
                preset(Params::builder(10).expiration(0).build()),
                Schedule::full(10, 26).with_static_byzantine(3),
                Box::new(ReorgAttacker::new()),
                Some(Timeline::synchronous().asynchronous(Round::new(12), 1)),
                26,
            ),
            Scenario::ReorgAttackExtended => (
                preset(Params::builder(10).expiration(4).build()),
                Schedule::full(10, 26).with_static_byzantine(3),
                Box::new(ReorgAttacker::new()),
                Some(Timeline::synchronous().asynchronous(Round::new(12), 1)),
                26,
            ),
            Scenario::BlackoutExtended => (
                preset(Params::builder(10).expiration(5).build()),
                Schedule::full(10, 32),
                Box::new(BlackoutAdversary),
                Some(Timeline::synchronous().asynchronous(Round::new(12), 3)),
                32,
            ),
            Scenario::AlternatingAsynchrony => (
                preset(Params::builder(10).expiration(6).build()),
                Schedule::full(10, 44),
                Box::new(PartitionAttacker::new()),
                Some(alternating(4, 11, 2)),
                44,
            ),
            Scenario::PartialSynchrony => (
                preset(Params::builder(10).expiration(4).build()),
                Schedule::full(10, 40),
                Box::new(SilentAdversary),
                Some(gst(2, Round::new(21))),
                40,
            ),
        };
        let config = SimConfig::new(params, seed)
            .horizon(horizon)
            .timeline(timeline.unwrap_or_default());
        SimBuilder::from_config(config)
            .workload_spec(WorkloadSpec::txs_every(4))
            .schedule(schedule)
            .adversary_boxed(adversary)
    }

    /// Builds and runs the scenario under `seed` (shorthand for
    /// [`Scenario::builder`]` + build + run`).
    #[expect(
        clippy::expect_used,
        reason = "preset schedules and timelines are compile-time constants validated by the all_presets_build test"
    )]
    pub fn run(&self, seed: u64) -> SimReport {
        self.builder(seed)
            .build()
            .expect("scenario presets are valid")
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::by_name(s.name()), Some(s));
            assert!(!s.describe().is_empty());
        }
        assert_eq!(Scenario::by_name("nonsense"), None);
    }

    #[test]
    fn all_presets_build() {
        // Backs the `expect(clippy::expect_used)` on `preset` and
        // `Scenario::run`: every arm's constants pass validation.
        for s in Scenario::ALL {
            s.builder(1).build().unwrap();
        }
    }

    #[test]
    fn every_scenario_meets_its_expected_outcome() {
        for s in Scenario::ALL {
            let report = s.run(7);
            let (safe, resilient) = s.expected();
            assert_eq!(report.is_safe(), safe, "{} safety mismatch", s.name());
            assert_eq!(
                report.is_asynchrony_resilient(),
                resilient,
                "{} resilience mismatch",
                s.name()
            );
        }
    }

    #[test]
    fn alternating_scenario_recovers_after_every_spell() {
        let report = Scenario::AlternatingAsynchrony.run(7);
        assert_eq!(report.recoveries.len(), 2);
        assert!(report.recovered_after_every_window());
        for rec in &report.recoveries {
            assert_eq!(rec.violations, 0);
        }
    }

    #[test]
    fn partial_synchrony_scenario_heals_after_gst() {
        let report = Scenario::PartialSynchrony.run(7);
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].kind, "bounded-delay");
        assert_eq!(report.recoveries[0].end, Round::new(20));
        assert!(report.recovered_after_every_window());
    }

    #[test]
    fn preset_shapes() {
        let t = alternating(4, 11, 2);
        assert_eq!(t.windows().len(), 2);
        assert_eq!(t.windows()[0].start(), Round::new(11));
        assert_eq!(t.windows()[0].end(), Round::new(14));
        assert_eq!(t.windows()[1].start(), Round::new(26));
        let t = gst(2, Round::new(21));
        assert_eq!(t.windows().len(), 1);
        assert_eq!(t.windows()[0].start(), Round::new(1));
        assert_eq!(t.windows()[0].end(), Round::new(20));
        assert_eq!(
            t.kind_at(Round::new(10)),
            crate::SegmentKind::BoundedDelay { delta: 2 }
        );
        assert_eq!(t.kind_at(Round::new(21)), crate::SegmentKind::Synchronous);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = Scenario::PartitionAttackVanilla.run(5);
        let b = Scenario::PartitionAttackVanilla.run(5);
        assert_eq!(a.safety_violations.len(), b.safety_violations.len());
        assert_eq!(a.final_decided_height, b.final_decided_height);
    }
}
