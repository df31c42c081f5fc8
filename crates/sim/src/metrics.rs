//! Round-by-round execution time series.
//!
//! The scalar [`crate::SimReport`] answers "did the run satisfy the
//! definitions"; the [`RoundTrace`] answers *when*: chain growth round by
//! round, participation, message volume and decision activity. Experiment
//! binaries use it to show, e.g., that the chain kept growing *during*
//! the mass-sleep incident rather than merely recovering afterwards.

use serde::Serialize;
use st_types::Round;

/// One round's sample.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RoundSample {
    /// The sampled round.
    pub round: u64,
    /// `|H_r|` — honest processes awake at the round's beginning.
    pub honest_awake: usize,
    /// `|B_r|` — Byzantine processes.
    pub byzantine: usize,
    /// Whether the round was inside an asynchronous window.
    pub is_async: bool,
    /// The bounded-delay `Δ` if the round was inside a bounded-delay
    /// window, `None` otherwise.
    pub delta: Option<u64>,
    /// Whether a partition event overlaid the round.
    pub partitioned: bool,
    /// Messages sent during the round (honest + adversarial).
    pub messages_sent: usize,
    /// Messages delivered to honest receivers in the round's receive
    /// phase (excludes the corrupted machines' full-knowledge feed). 0
    /// across a blackout; throttled during partitions and bounded-delay
    /// segments.
    pub messages_delivered: usize,
    /// Decision events recorded this round across all honest processes.
    pub decisions: usize,
    /// Maximum decided-log height over honest processes after the round.
    pub max_decided_height: u64,
    /// Minimum decided-log height over honest *awake* processes.
    pub min_decided_height: u64,
    /// Honest `step_send` tallies adopted from the round's shared memo
    /// (another process with equal tally state had already computed it).
    pub tally_cache_hits: u64,
    /// Honest `step_send` tallies computed rather than adopted (the first
    /// process with each distinct tally state, and every process of a
    /// protocol that shares nothing).
    pub tally_cache_misses: u64,
}

/// The per-round history of a simulation.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RoundTrace {
    samples: Vec<RoundSample>,
}

impl RoundTrace {
    /// An empty timeline.
    pub fn new() -> RoundTrace {
        RoundTrace::default()
    }

    /// Appends a sample (rounds must be pushed in order).
    pub(crate) fn push(&mut self, sample: RoundSample) {
        debug_assert!(
            self.samples
                .last()
                .map(|s| s.round < sample.round)
                .unwrap_or(true),
            "timeline samples must be pushed in round order"
        );
        self.samples.push(sample);
    }

    /// All samples, in round order.
    pub fn samples(&self) -> &[RoundSample] {
        &self.samples
    }

    /// Number of sampled rounds.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no rounds were sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sample for a specific round, if recorded.
    pub fn at(&self, round: Round) -> Option<&RoundSample> {
        self.samples
            .binary_search_by_key(&round.as_u64(), |s| s.round)
            .ok()
            .map(|i| &self.samples[i])
    }

    /// Chain growth (max decided height delta) over a closed round range.
    pub fn growth_in(&self, from: Round, to: Round) -> u64 {
        // stlint::allow(deadpub, reason = "chain growth over a round range, the quantity the dynamic-availability and recovery claims are stated in (tests/long_horizon.rs, tests/replay_and_timeline.rs)")
        let h = |r: Round| self.at(r).map(|s| s.max_decided_height);
        match (h(from), h(to)) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Total messages sent over the whole run.
    #[cfg(test)]
    pub(crate) fn total_messages(&self) -> usize {
        self.samples.iter().map(|s| s.messages_sent).sum()
    }

    /// Fraction of honest tallies served from the shared cache over the
    /// whole run: `hits / (hits + misses)`, or 0.0 when no round tallied.
    /// On a fully synchronous full-participation run this approaches
    /// `(n − 1) / n` — one computed tally per round, shared with everyone
    /// else.
    pub fn tally_cache_hit_rate(&self) -> f64 {
        // stlint::allow(deadpub, reason = "the non-vacuity check of the tally-sharing guards (tests/guards.rs, determinism_equivalence.rs)")
        let hits: u64 = self.samples.iter().map(|s| s.tally_cache_hits).sum();
        let misses: u64 = self.samples.iter().map(|s| s.tally_cache_misses).sum();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }

    /// The largest spread between the most- and least-advanced honest
    /// awake process over the run — a divergence indicator (large spreads
    /// appear during asynchrony and close again after healing).
    pub fn max_height_spread(&self) -> u64 {
        // stlint::allow(deadpub, reason = "the divergence indicator tests/replay_and_timeline.rs asserts opens and closes around a window")
        self.samples
            .iter()
            .map(|s| s.max_decided_height.saturating_sub(s.min_decided_height))
            .max()
            .unwrap_or(0)
    }

    /// Renders a CSV of the full series.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,honest_awake,byzantine,is_async,delta,partitioned,messages_sent,messages_delivered,decisions,\
             max_decided_height,min_decided_height,tally_cache_hits,tally_cache_misses\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.round,
                s.honest_awake,
                s.byzantine,
                s.is_async,
                s.delta.map(|d| d.to_string()).unwrap_or_default(),
                s.partitioned,
                s.messages_sent,
                s.messages_delivered,
                s.decisions,
                s.max_decided_height,
                s.min_decided_height,
                s.tally_cache_hits,
                s.tally_cache_misses
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64, decisions: usize, max_h: u64, min_h: u64) -> RoundSample {
        RoundSample {
            round,
            honest_awake: 8,
            byzantine: 2,
            is_async: false,
            delta: None,
            partitioned: false,
            messages_sent: 10,
            messages_delivered: 10,
            decisions,
            max_decided_height: max_h,
            min_decided_height: min_h,
            ..RoundSample::default()
        }
    }

    fn timeline() -> RoundTrace {
        let mut t = RoundTrace::new();
        t.push(sample(0, 0, 0, 0));
        t.push(sample(1, 0, 0, 0));
        t.push(sample(2, 3, 1, 0));
        t.push(sample(3, 0, 1, 1));
        t.push(sample(4, 5, 2, 1));
        t
    }

    #[test]
    fn lookup_and_growth() {
        let t = timeline();
        assert_eq!(t.len(), 5);
        assert_eq!(t.at(Round::new(2)).unwrap().decisions, 3);
        assert!(t.at(Round::new(9)).is_none());
        assert_eq!(t.growth_in(Round::new(0), Round::new(4)), 2);
        assert_eq!(t.growth_in(Round::new(2), Round::new(3)), 0);
        // Out-of-range endpoints yield zero growth.
        assert_eq!(t.growth_in(Round::new(0), Round::new(99)), 0);
    }

    #[test]
    fn total_messages() {
        assert_eq!(timeline().total_messages(), 50);
    }

    #[test]
    fn height_spread() {
        let t = timeline();
        assert_eq!(t.max_height_spread(), 1);
        assert_eq!(RoundTrace::new().max_height_spread(), 0);
    }

    #[test]
    fn cache_hit_rate_is_the_run_wide_ratio() {
        let mut t = RoundTrace::new();
        let mut a = sample(0, 0, 0, 0);
        a.tally_cache_hits = 9;
        a.tally_cache_misses = 1;
        let mut b = sample(1, 0, 0, 0);
        b.tally_cache_hits = 3;
        b.tally_cache_misses = 7;
        t.push(a);
        t.push(b);
        assert!((t.tally_cache_hit_rate() - 0.6).abs() < 1e-9);
        // Runs without a tallied round (all zeros) report 0.0, not NaN.
        assert_eq!(timeline().tally_cache_hit_rate(), 0.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let t = timeline();
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("round,"));
    }
}
