//! Open-loop traffic generators.
//!
//! A [`Workload`] answers one question per round: *how many new
//! transactions does each client hand the system?* The answer is a pure
//! function of `(round, client)` — open-loop, so arrivals never slow
//! down because the system is congested. Rate-to-count conversion is
//! done with **cumulative integer arithmetic** (`⌊r·num/den⌋` deltas)
//! rather than per-round floating-point rounding, so fractional rates
//! distribute exactly: `1/k` per round yields one arrival at every
//! round divisible by `k` — bit-for-bit the trace of the simulator's
//! `WorkloadSpec::txs_every(k)` and of st-node's `ClusterPlan`.

use crate::rng::SplitMix64;

/// An open-loop workload: per-round, per-client transaction arrivals.
pub trait Workload {
    /// Short generator name (lands in reports and bench tables).
    fn name(&self) -> &str;

    /// Number of distinct traffic-generating clients.
    fn clients(&self) -> usize;

    /// Transactions client `client` injects at round `round`. Must be a
    /// pure function of its arguments.
    fn arrivals(&self, round: u64, client: usize) -> u64;

    /// The offered-load profile as a fraction of peak, in `[0, 1]`.
    /// Workloads with a participation story (diurnal traces) override
    /// this; the simulator derives a sleepy-model `Schedule` from it so
    /// workload and participation stay coupled by construction.
    fn load_fraction(&self, round: u64) -> f64 {
        let _ = round;
        1.0
    }
}

/// Global arrival index split: of the first `total` transactions ever
/// generated, how many belong to client `c` under round-robin
/// assignment (transaction `i` → client `(i − 1) mod clients`)?
fn round_robin_share(total: u64, clients: u64, c: u64) -> u64 {
    if total > c {
        (total - c).div_ceil(clients)
    } else {
        0
    }
}

/// A constant offered rate of `num/den` transactions per round,
/// spread round-robin across the configured clients.
#[derive(Clone, Debug)]
pub struct ConstantRate {
    num: u64,
    den: u64,
    clients: usize,
}

impl ConstantRate {
    /// `rate` transactions per round.
    pub fn per_round(rate: u64) -> ConstantRate {
        ConstantRate::rational(rate, 1)
    }

    /// One transaction every `k` rounds (an arrival at each round
    /// `r > 0` with `r % k == 0`, none elsewhere; `k = 0` counts as 1).
    pub fn every(k: u64) -> ConstantRate {
        ConstantRate::rational(1, k.max(1))
    }

    /// `num/den` transactions per round, as an exact rational rate.
    pub fn rational(num: u64, den: u64) -> ConstantRate {
        ConstantRate {
            num,
            den: den.max(1),
            clients: 1,
        }
    }

    /// Spreads the same total rate across `clients` clients
    /// (round-robin by global arrival index).
    #[must_use]
    pub fn clients(mut self, clients: usize) -> ConstantRate {
        self.clients = clients.max(1);
        self
    }

    /// Total arrivals in rounds `1..=round` (cumulative floor — the
    /// integer form that distributes fractional rates exactly).
    fn cumulative(&self, round: u64) -> u64 {
        ((round as u128 * self.num as u128) / self.den as u128) as u64
    }
}

impl Workload for ConstantRate {
    fn name(&self) -> &str {
        "constant-rate"
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn arrivals(&self, round: u64, client: usize) -> u64 {
        if round == 0 || client >= self.clients {
            return 0;
        }
        let (cl, c) = (self.clients as u64, client as u64);
        round_robin_share(self.cumulative(round), cl, c)
            - round_robin_share(self.cumulative(round - 1), cl, c)
    }
}

/// One burst window of a [`FlashCrowd`].
#[derive(Clone, Copy, Debug)]
struct Burst {
    start: u64,
    len: u64,
    rate: u64,
}

/// A base rate with flash-crowd burst windows layered on top: during
/// `[start, start + len)` every round offers `rate` extra transactions
/// (optionally jittered, deterministically from a seed).
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    base: ConstantRate,
    bursts: Vec<Burst>,
    jitter_seed: Option<u64>,
}

impl FlashCrowd {
    /// A flash-crowd workload over a base rate of `base_rate`
    /// transactions per round.
    pub fn new(base_rate: u64) -> FlashCrowd {
        FlashCrowd {
            base: ConstantRate::per_round(base_rate),
            bursts: Vec::new(),
            jitter_seed: None,
        }
    }

    /// Spreads the load across `clients` clients.
    #[must_use]
    pub fn clients(mut self, clients: usize) -> FlashCrowd {
        self.base = self.base.clients(clients);
        self
    }

    /// Adds a burst window: `rate` extra transactions per round for
    /// `len` rounds starting at `start`.
    #[must_use]
    pub fn burst(mut self, start: u64, len: u64, rate: u64) -> FlashCrowd {
        self.bursts.push(Burst { start, len, rate });
        self
    }

    /// Perturbs each burst round's extra arrivals by up to ±25 %,
    /// deterministically keyed on `(seed, round)` via [`SplitMix64`] —
    /// ragged crowd edges without giving up reproducibility.
    #[must_use]
    pub fn jitter(mut self, seed: u64) -> FlashCrowd {
        self.jitter_seed = Some(seed);
        self
    }

    /// Total extra arrivals the burst windows inject at `round`.
    fn burst_total(&self, round: u64) -> u64 {
        let mut total = 0u64;
        for b in &self.bursts {
            if round >= b.start && round < b.start + b.len {
                let mut rate = b.rate;
                if let Some(seed) = self.jitter_seed {
                    let span = (b.rate / 2).max(1); // ±25 % of rate
                    let draw = SplitMix64::new(seed ^ round.wrapping_mul(0x9e37_79b9))
                        .next_below(span + 1);
                    rate = b.rate - b.rate / 4 + draw;
                }
                total += rate;
            }
        }
        total
    }
}

impl Workload for FlashCrowd {
    fn name(&self) -> &str {
        "flash-crowd"
    }

    fn clients(&self) -> usize {
        self.base.clients
    }

    fn arrivals(&self, round: u64, client: usize) -> u64 {
        if round == 0 || client >= self.base.clients {
            return 0;
        }
        // Burst extras are split per round (first clients carry the
        // remainder) — a per-round split, unlike the base's cumulative
        // one, because bursts are local events, not long-run rates.
        let (cl, c) = (self.base.clients as u64, client as u64);
        self.base.arrivals(round, client) + round_robin_share(self.burst_total(round), cl, c)
    }
}

/// A diurnal (day/night) wave: offered load follows the same cosine the
/// simulator's oscillating participation schedule uses, peaking at
/// `peak_rate` transactions per round and bottoming out at
/// `peak_rate · min_frac`. [`Workload::load_fraction`] exposes the wave
/// so a `Schedule` can be derived from the *same* trace — users asleep
/// at night are users not submitting transactions.
#[derive(Clone, Debug)]
pub struct Diurnal {
    peak_rate: u64,
    min_frac: f64,
    period: u64,
    clients: usize,
}

impl Diurnal {
    /// A wave peaking at `peak_rate` tx/round, dipping to
    /// `peak_rate · min_frac`, with the given period in rounds.
    pub fn new(peak_rate: u64, min_frac: f64, period: u64) -> Diurnal {
        Diurnal {
            peak_rate,
            min_frac: min_frac.clamp(0.0, 1.0),
            period: period.max(2),
            clients: 1,
        }
    }

    /// Spreads the load across `clients` clients.
    #[must_use]
    pub fn clients(mut self, clients: usize) -> Diurnal {
        self.clients = clients.max(1);
        self
    }

    /// The wave's period in rounds.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The cosine wave value at `round` — the same formula as the
    /// simulator's oscillating schedule, so a participation trace
    /// derived from this workload matches `Schedule::oscillating`
    /// awake-set for awake-set.
    fn frac(&self, round: u64) -> f64 {
        let phase = (round % self.period) as f64 / self.period as f64 * std::f64::consts::TAU;
        self.min_frac + (1.0 - self.min_frac) * (0.5 + 0.5 * phase.cos())
    }
}

impl Workload for Diurnal {
    fn name(&self) -> &str {
        "diurnal"
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn arrivals(&self, round: u64, client: usize) -> u64 {
        if round == 0 || client >= self.clients {
            return 0;
        }
        let total = (self.peak_rate as f64 * self.frac(round)).round() as u64;
        round_robin_share(total, self.clients as u64, client as u64)
    }

    fn load_fraction(&self, round: u64) -> f64 {
        self.frac(round).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(w: &impl Workload, round: u64) -> u64 {
        (0..w.clients()).map(|c| w.arrivals(round, c)).sum()
    }

    #[test]
    fn every_k_reproduces_the_legacy_trace() {
        let w = ConstantRate::every(4);
        assert_eq!(w.name(), "constant-rate");
        for r in 0..=40 {
            let expected = u64::from(r > 0 && r % 4 == 0);
            assert_eq!(w.arrivals(r, 0), expected, "round {r}");
        }
    }

    #[test]
    fn per_round_rate_is_exact() {
        let w = ConstantRate::per_round(3);
        assert_eq!(w.arrivals(0, 0), 0, "round 0 never offers load");
        for r in 1..=20 {
            assert_eq!(w.arrivals(r, 0), 3);
        }
    }

    #[test]
    fn rational_rate_distributes_without_drift() {
        // 2/3 per round: cumulative floor means totals never drift from
        // ⌊2r/3⌋ and per-round arrivals are always 0 or 1.
        let w = ConstantRate::rational(2, 3);
        let mut cum = 0;
        for r in 1..=30 {
            let a = w.arrivals(r, 0);
            assert!(a <= 1);
            cum += a;
            assert_eq!(cum, 2 * r / 3);
        }
    }

    #[test]
    fn client_split_conserves_the_total() {
        let w = ConstantRate::per_round(5).clients(3);
        // The inherent builder method shadows the trait getter on the
        // concrete type, so name the trait explicitly.
        assert_eq!(Workload::clients(&w), 3);
        let mut per_client = vec![0u64; 3];
        for r in 1..=12 {
            assert_eq!(total(&w, r), 5, "round {r}");
            for (c, acc) in per_client.iter_mut().enumerate() {
                *acc += w.arrivals(r, c);
            }
        }
        // Round-robin keeps clients within one tx of each other.
        let (min, max) = (per_client.iter().min(), per_client.iter().max());
        assert!(max.unwrap() - min.unwrap() <= 1, "{per_client:?}");
        // Out-of-range clients contribute nothing.
        assert_eq!(w.arrivals(5, 3), 0);
    }

    #[test]
    fn flash_crowd_bursts_on_schedule() {
        let w = FlashCrowd::new(1).burst(10, 3, 6);
        assert_eq!(w.name(), "flash-crowd");
        assert_eq!(total(&w, 9), 1);
        for r in 10..13 {
            assert_eq!(total(&w, r), 7, "round {r}");
        }
        assert_eq!(total(&w, 13), 1);
        // Multi-client split conserves the burst.
        let w = FlashCrowd::new(1).clients(2).burst(10, 3, 6);
        assert_eq!(total(&w, 11), 7);
    }

    #[test]
    fn flash_crowd_jitter_is_deterministic_and_bounded() {
        let a = FlashCrowd::new(0).burst(5, 10, 8).jitter(99);
        let b = FlashCrowd::new(0).burst(5, 10, 8).jitter(99);
        for r in 5..15 {
            let x = total(&a, r);
            assert_eq!(x, total(&b, r), "round {r}");
            // rate − rate/4 ≤ jittered ≤ rate − rate/4 + rate/2
            assert!((6..=10).contains(&x), "round {r}: {x}");
        }
        // A different seed produces a different ragged edge somewhere.
        let c = FlashCrowd::new(0).burst(5, 10, 8).jitter(100);
        assert!((5..15).any(|r| total(&a, r) != total(&c, r)));
    }

    #[test]
    fn diurnal_wave_peaks_and_troughs() {
        let w = Diurnal::new(10, 0.2, 8);
        assert_eq!(w.name(), "diurnal");
        assert_eq!(w.period(), 8);
        // Phase 0 is the peak, half-period the trough.
        assert_eq!(total(&w, 8), 10);
        assert_eq!(total(&w, 12), 2);
        assert!((w.load_fraction(8) - 1.0).abs() < 1e-9);
        assert!((w.load_fraction(12) - 0.2).abs() < 1e-9);
        // The wave is periodic and bounded.
        for r in 1..=32 {
            let t = total(&w, r);
            assert!((2..=10).contains(&t), "round {r}: {t}");
            assert_eq!(t, total(&w, r + 8));
        }
        // Client split conserves the wave.
        let w3 = Diurnal::new(10, 0.2, 8).clients(3);
        for r in 1..=16 {
            assert_eq!(total(&w3, r), total(&w, r));
        }
    }

    #[test]
    fn default_load_fraction_is_flat() {
        let w = ConstantRate::per_round(2);
        assert!((w.load_fraction(0) - 1.0).abs() < 1e-12);
        assert!((w.load_fraction(17) - 1.0).abs() < 1e-12);
    }
}
