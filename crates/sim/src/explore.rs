//! Bounded exhaustive exploration of adversarial delivery strategies.
//!
//! Theorem 2 quantifies over *every* adversary. Sampling attacks (the
//! strategies in [`crate::adversary`]) shows specific ones fail; this
//! module goes further for small instances: it enumerates **all**
//! delivery strategies from a structured menu — per asynchronous round,
//! per receiver, one [`DeliveryPattern`] — and runs the full protocol
//! under each. For the extended protocol with `π < η` the checker must
//! find *zero* violating strategies; for vanilla MMR it finds concrete
//! witnesses (the parity partition is in the menu).
//!
//! The menu is expressive enough to contain the known attacks (blackout,
//! partition, eclipse-one-side) while keeping the strategy space
//! enumerable: `|menu|^(n·π)` executions.

use crate::adversary::{Adversary, AdversaryCtx, TargetedMessage};
use crate::builder::SimBuilder;
use crate::env::{SegmentKind, Timeline};
use crate::network::SentMessage;
use crate::runner::SimConfig;
use crate::schedule::Schedule;
use crate::sweep::Sweep;
use st_types::{Params, ProcessId};

/// What a receiver gets in one asynchronous round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryPattern {
    /// Everything available (the round behaves synchronously for this
    /// receiver).
    All,
    /// Nothing (blackout).
    Nothing,
    /// Only messages from even-id senders.
    EvenSenders,
    /// Only messages from odd-id senders.
    OddSenders,
}

impl DeliveryPattern {
    /// The full menu, in enumeration order.
    pub const MENU: [DeliveryPattern; 4] = [
        DeliveryPattern::All,
        DeliveryPattern::Nothing,
        DeliveryPattern::EvenSenders,
        DeliveryPattern::OddSenders,
    ];

    fn admits(self, sender: ProcessId) -> bool {
        match self {
            DeliveryPattern::All => true,
            DeliveryPattern::Nothing => false,
            DeliveryPattern::EvenSenders => sender.index().is_multiple_of(2),
            DeliveryPattern::OddSenders => sender.index() % 2 == 1,
        }
    }
}

/// A complete adversarial strategy: `patterns[offset][receiver]` is the
/// delivery pattern for the `offset`-th asynchronous round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Strategy {
    patterns: Vec<Vec<DeliveryPattern>>,
}

impl Strategy {
    /// Decodes strategy number `index` (base-`|menu|` digits over the
    /// `n·pi` pattern slots).
    pub fn decode(index: u64, n: usize, pi: u64) -> Strategy {
        let m = DeliveryPattern::MENU.len() as u64;
        let mut digits = index;
        let patterns = (0..pi)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let d = (digits % m) as usize;
                        digits /= m;
                        DeliveryPattern::MENU[d]
                    })
                    .collect()
            })
            .collect();
        Strategy { patterns }
    }

    /// The number of distinct strategies for `n` receivers over `pi`
    /// asynchronous rounds.
    pub fn space_size(n: usize, pi: u64) -> u64 {
        (DeliveryPattern::MENU.len() as u64).pow((n as u64 * pi) as u32)
    }

    /// The pattern assigned to `receiver` in the `offset`-th asynchronous
    /// round (defaults to `All` outside the scripted window).
    pub fn pattern(&self, offset: usize, receiver: ProcessId) -> DeliveryPattern {
        self.patterns
            .get(offset)
            .and_then(|row| row.get(receiver.index()))
            .copied()
            .unwrap_or(DeliveryPattern::All)
    }
}

/// An adversary that executes a fixed [`Strategy`] (pure delivery
/// control; no Byzantine messages). Pattern slots are indexed by the
/// environment view's *global* asynchronous-round offset, so one flat
/// script addresses every window of a multi-window timeline.
struct ScriptedAdversary {
    strategy: Strategy,
}

impl Adversary for ScriptedAdversary {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn send(&mut self, _ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        Vec::new()
    }

    fn deliver(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        receiver: ProcessId,
        available: &[&SentMessage],
    ) -> Vec<usize> {
        let offset = ctx.env.global_offset as usize;
        let pattern = self.strategy.pattern(offset, receiver);
        available
            .iter()
            .filter(|msg| pattern.admits(msg.sender))
            .map(|msg| msg.index)
            .collect()
    }
}

/// The verdict of an exhaustive sweep.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Strategies executed.
    pub strategies_run: u64,
    /// Strategy indices that produced agreement violations among
    /// **post-window** decisions — what Theorem 3's proof forbids.
    pub violating: Vec<u64>,
    /// Strategy indices that produced `D_ra` conflicts (Definition 5).
    pub dra_violating: Vec<u64>,
    /// Strategy indices whose only conflicts involve a decision made
    /// *inside* the window (orphanable in-window decisions — outside the
    /// paper's guarantees; see EXPERIMENTS.md).
    pub orphaning_only: Vec<u64>,
}

impl ExploreReport {
    /// Whether no strategy broke any *guaranteed* property (Definition 5
    /// and post-window agreement). In-window orphanings are reported
    /// separately via [`ExploreReport::orphaning_only`].
    pub fn all_safe(&self) -> bool {
        self.violating.is_empty() && self.dra_violating.is_empty()
    }
}

/// A network-wide pattern applied for one whole asynchronous round — the
/// coarse menu of the *coupled* exploration mode, which trades
/// per-receiver freedom for longer windows (`5^π` instead of `4^(n·π)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundPattern {
    /// Synchronous behaviour.
    All,
    /// Total blackout.
    Nothing,
    /// Parity partition: every receiver gets only same-parity senders.
    Partition,
    /// Even receivers get nothing; odd receivers get everything.
    EclipseEvens,
    /// Odd receivers get nothing; even receivers get everything.
    EclipseOdds,
}

impl RoundPattern {
    /// The coupled-mode menu, in enumeration order.
    pub const MENU: [RoundPattern; 5] = [
        RoundPattern::All,
        RoundPattern::Nothing,
        RoundPattern::Partition,
        RoundPattern::EclipseEvens,
        RoundPattern::EclipseOdds,
    ];

    fn admits(self, sender: ProcessId, receiver: ProcessId) -> bool {
        match self {
            RoundPattern::All => true,
            RoundPattern::Nothing => false,
            RoundPattern::Partition => sender.index() % 2 == receiver.index() % 2,
            RoundPattern::EclipseEvens => receiver.index() % 2 == 1,
            RoundPattern::EclipseOdds => receiver.index().is_multiple_of(2),
        }
    }
}

/// A coupled strategy: one [`RoundPattern`] per asynchronous round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoupledStrategy {
    patterns: Vec<RoundPattern>,
}

impl CoupledStrategy {
    /// Decodes strategy number `index` (base-5 digits over `pi` rounds).
    pub fn decode(index: u64, pi: u64) -> CoupledStrategy {
        let m = RoundPattern::MENU.len() as u64;
        let mut digits = index;
        let patterns = (0..pi)
            .map(|_| {
                let d = (digits % m) as usize;
                digits /= m;
                RoundPattern::MENU[d]
            })
            .collect();
        CoupledStrategy { patterns }
    }

    /// Strategy-space size for a `pi`-round window.
    pub fn space_size(pi: u64) -> u64 {
        (RoundPattern::MENU.len() as u64).pow(pi as u32)
    }

    /// The pattern for the `offset`-th asynchronous round.
    pub fn pattern(&self, offset: usize) -> RoundPattern {
        self.patterns
            .get(offset)
            .copied()
            .unwrap_or(RoundPattern::All)
    }
}

struct CoupledAdversary {
    strategy: CoupledStrategy,
}

impl Adversary for CoupledAdversary {
    fn name(&self) -> &'static str {
        "scripted-coupled"
    }

    fn send(&mut self, _ctx: &AdversaryCtx<'_>) -> Vec<TargetedMessage> {
        Vec::new()
    }

    fn deliver(
        &mut self,
        ctx: &AdversaryCtx<'_>,
        receiver: ProcessId,
        available: &[&SentMessage],
    ) -> Vec<usize> {
        let offset = ctx.env.global_offset as usize;
        let pattern = self.strategy.pattern(offset);
        available
            .iter()
            .filter(|msg| pattern.admits(msg.sender, receiver))
            .map(|msg| msg.index)
            .collect()
    }
}

/// One strategy's verdict: post-window agreement broken, D_ra broken,
/// and orphaning-only conflicts present.
#[derive(Clone, Copy, Debug, Default)]
struct Verdict {
    post_window_broken: bool,
    dra_broken: bool,
    orphaning_only: bool,
}

fn classify(outcome: &crate::SimReport) -> Verdict {
    let post = !outcome.post_window_violations().is_empty();
    Verdict {
        post_window_broken: post,
        dra_broken: !outcome.resilience_violations.is_empty(),
        orphaning_only: !post && !outcome.safety_violations.is_empty(),
    }
}

/// Total asynchronous rounds of a timeline (the coupled strategy space
/// exponent for [`exhaustive_check_coupled_timeline`]).
fn async_rounds_of(timeline: &Timeline) -> u64 {
    timeline
        .windows()
        .iter()
        .filter(|w| w.kind() == SegmentKind::Asynchronous)
        .map(|w| w.len())
        .sum()
}

/// Exhausts the coupled strategy space over an arbitrary **timeline**
/// (`5^k` runs for `k` total asynchronous rounds across all windows):
/// every sequence of network-wide round patterns, applied to the
/// timeline's asynchronous rounds in order. This is how Theorem 2's
/// *every-spell* form is checked exhaustively: with two windows the
/// menu contains, e.g., "behave synchronously in the first window, run
/// the partition play in the second".
///
/// # Panics
///
/// Panics if the timeline contains bounded-delay windows (their delivery
/// is environment-driven, not scripted).
pub fn exhaustive_check_coupled_timeline(
    params: Params,
    timeline: &Timeline,
    horizon: u64,
) -> ExploreReport {
    // stlint::allow(deadpub, reason = "the coupled exhaustive check (5^π strategies) that reaches π = 3, 4; explore.rs's Theorem-2 tests run it, stob explore runs the per-receiver form")
    assert!(
        timeline
            .windows()
            .iter()
            .all(|w| w.kind() == SegmentKind::Asynchronous),
        "scripted exploration covers asynchronous windows only"
    );
    let rounds = async_rounds_of(timeline);
    let total = CoupledStrategy::space_size(rounds);
    let verdicts = Sweep::over(0..total).run(|&index, _seed| {
        let strategy = CoupledStrategy::decode(index, rounds);
        let report = SimBuilder::from_config(
            SimConfig::new(params, 1)
                .horizon(horizon)
                .timeline(timeline.clone()),
        )
        .schedule(Schedule::full(params.n(), horizon))
        .adversary(CoupledAdversary { strategy })
        .run();
        classify(&report)
    });
    collect_verdicts(total, &verdicts)
}

/// Folds per-strategy verdicts (in strategy order) into an
/// [`ExploreReport`].
fn collect_verdicts(total: u64, verdicts: &[Verdict]) -> ExploreReport {
    let mut report = ExploreReport {
        strategies_run: total,
        violating: Vec::new(),
        dra_violating: Vec::new(),
        orphaning_only: Vec::new(),
    };
    for (index, verdict) in verdicts.iter().enumerate() {
        let index = index as u64;
        if verdict.post_window_broken {
            report.violating.push(index);
        }
        if verdict.dra_broken {
            report.dra_violating.push(index);
        }
        if verdict.orphaning_only {
            report.orphaning_only.push(index);
        }
    }
    report
}

/// Runs the protocol under **every** strategy in the space (a parallel
/// [`Sweep`] over the strategy indices — deterministic per index, so
/// parallelism only changes wall-clock) and reports the violating ones.
///
/// Cost is `|menu|^(n·π)` simulations — keep `n ≤ 4` and `π ≤ 2`
/// (`4^8 = 65 536` runs) unless you have time to spare.
///
/// # Panics
///
/// Panics unless the timeline holds exactly one window, and that window
/// is asynchronous (the strategy space is per receiver over its `π`
/// rounds; [`exhaustive_check_coupled_timeline`] covers several windows).
pub fn exhaustive_check(params: Params, timeline: &Timeline, horizon: u64) -> ExploreReport {
    let windows = timeline.windows();
    assert!(
        windows.len() == 1 && windows[0].kind() == SegmentKind::Asynchronous,
        "exhaustive_check covers exactly one asynchronous window"
    );
    let pi = windows[0].len();
    let total = Strategy::space_size(params.n(), pi);
    let verdicts = Sweep::over(0..total).run(|&index, _seed| {
        let strategy = Strategy::decode(index, params.n(), pi);
        let report = SimBuilder::from_config(
            SimConfig::new(params, 1)
                .horizon(horizon)
                .timeline(timeline.clone()),
        )
        .schedule(Schedule::full(params.n(), horizon))
        .adversary(ScriptedAdversary { strategy })
        .run();
        classify(&report)
    });
    collect_verdicts(total, &verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_types::Round;

    #[test]
    fn strategy_codec_roundtrips_the_space() {
        let n = 3;
        let pi = 1;
        let total = Strategy::space_size(n, pi);
        assert_eq!(total, 64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            let s = Strategy::decode(i, n, pi);
            assert!(seen.insert(format!("{:?}", s.patterns)), "duplicate at {i}");
        }
    }

    #[test]
    fn pattern_admission() {
        assert!(DeliveryPattern::All.admits(ProcessId::new(1)));
        assert!(!DeliveryPattern::Nothing.admits(ProcessId::new(1)));
        assert!(DeliveryPattern::EvenSenders.admits(ProcessId::new(2)));
        assert!(!DeliveryPattern::EvenSenders.admits(ProcessId::new(3)));
        assert!(DeliveryPattern::OddSenders.admits(ProcessId::new(3)));
    }

    #[test]
    fn out_of_window_pattern_defaults_to_all() {
        let s = Strategy::decode(0, 2, 1);
        assert_eq!(s.pattern(5, ProcessId::new(0)), DeliveryPattern::All);
        assert_eq!(s.pattern(0, ProcessId::new(9)), DeliveryPattern::All);
    }

    /// One-round exhaustive sweep at n = 4: the extended protocol must
    /// survive **all 256** delivery strategies; this is Theorem 2 checked
    /// exhaustively (within the menu) rather than sampled.
    #[test]
    fn extended_survives_every_one_round_strategy() {
        let params = Params::builder(4).expiration(3).build().unwrap();
        let timeline = Timeline::synchronous().asynchronous(Round::new(10), 1);
        let report = exhaustive_check(params, &timeline, 18);
        assert_eq!(report.strategies_run, 256);
        assert!(
            report.all_safe(),
            "violating strategies: {:?} / {:?}",
            report.violating,
            report.dra_violating
        );
    }

    /// Two one-round asynchronous windows, coupled sweep over both
    /// (`5² = 25` scripts, including "behave synchronously in the first
    /// window, attack only the second"): the extended protocol with
    /// `η = 3` must survive every one — Theorem 2's every-spell form.
    #[test]
    fn coupled_timeline_sweep_covers_both_windows() {
        let params = Params::builder(4).expiration(3).build().unwrap();
        let timeline = Timeline::synchronous()
            .asynchronous(Round::new(10), 1)
            .asynchronous(Round::new(16), 1);
        let report = exhaustive_check_coupled_timeline(params, &timeline, 24);
        assert_eq!(report.strategies_run, 25);
        assert!(
            report.all_safe(),
            "violating strategies: {:?} / {:?}",
            report.violating,
            report.dra_violating
        );
    }

    #[test]
    fn coupled_codec_roundtrips() {
        let total = CoupledStrategy::space_size(3);
        assert_eq!(total, 125);
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            let s = CoupledStrategy::decode(i, 3);
            assert!(seen.insert(format!("{:?}", s.patterns)));
        }
    }

    /// Coupled three-round sweep: the menu contains the partition play,
    /// so vanilla MMR must fall to at least one strategy while the
    /// extended protocol survives all 125.
    #[test]
    fn coupled_sweep_separates_vanilla_from_extended() {
        let window = Timeline::synchronous().asynchronous(Round::new(10), 3);
        let vanilla = exhaustive_check_coupled_timeline(
            Params::builder(4).expiration(0).build().unwrap(),
            &window,
            22,
        );
        assert!(
            vanilla.violating.len() + vanilla.orphaning_only.len() > 0,
            "no witness found against vanilla MMR at π = 3"
        );
        let extended = exhaustive_check_coupled_timeline(
            Params::builder(4).expiration(4).build().unwrap(),
            &window,
            26,
        );
        assert!(
            extended.all_safe(),
            "extended protocol broken by coupled strategies {:?}",
            extended.violating
        );
        assert!(
            extended.orphaning_only.is_empty(),
            "unexpected orphanings at π = 3 < η = 4: {:?}",
            extended.orphaning_only
        );
    }
}
