//! Participation schedules: `H_r`, `B_r`, `O_r` for every round.
//!
//! A [`Schedule`] fixes, for a whole execution, which processes are awake
//! in each round and from which round each corrupted process is Byzantine
//! (the growing-adversary model: `B_r ⊆ B_{r+1}`). Byzantine processes
//! never sleep (Section 2.1), so awake flags only govern well-behaved
//! processes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_types::{ProcessId, Round};

/// Options for the bounded-churn random schedule generator.
#[derive(Clone, Debug)]
pub struct ChurnOptions {
    /// Probability that an awake process goes to sleep in a given round.
    pub sleep_prob: f64,
    /// Probability that an asleep process wakes in a given round.
    pub wake_prob: f64,
    /// Minimum fraction of processes kept awake every round (guard against
    /// degenerate empty rounds).
    pub min_awake_frac: f64,
    /// Churn envelope: a process may start sleeping only while fewer than
    /// `max(1, ⌊max_dropped_frac · |recently awake|⌋)` processes that were
    /// awake within the last [`ChurnOptions::drop_window`] rounds are
    /// currently asleep. This is what makes the generator *bounded*-churn:
    /// Equation 1 compares the recently-awake-but-now-asleep set against
    /// `γ·|H_{r−η,r−1}|`, so uncapped independent sleep events cluster past
    /// any small `γ` at realistic `n`. Set to `1.0` to disable the envelope
    /// and get raw independent per-round sleep events (ablations and stress
    /// sweeps that deliberately drive churn past `γ` do this).
    pub max_dropped_frac: f64,
    /// How many rounds back a process still counts as "recently awake" for
    /// the [`ChurnOptions::max_dropped_frac`] envelope. Must cover the
    /// expiration window `η` the schedule will be checked against.
    pub drop_window: u64,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions {
            sleep_prob: 0.0, // overridden by the per-η churn target
            wake_prob: 0.25,
            min_awake_frac: 0.25,
            max_dropped_frac: 0.1,
            drop_window: 8,
        }
    }
}

/// A complete participation schedule for `n` processes over `horizon + 1`
/// rounds (rounds `0..=horizon`).
#[derive(Clone, Debug)]
pub struct Schedule {
    n: usize,
    horizon: u64,
    /// Round-major awake flags for well-behaved processes: round `r`'s
    /// row is `awake[r·n .. (r+1)·n]`.
    awake: Vec<bool>,
    /// `corrupt_from[p] = Some(r)` means `p ∈ B_{r'}` for all `r' ≥ r`
    /// (until `corrupt_until[p]`, if set).
    corrupt_from: Vec<Option<u64>>,
    /// `corrupt_until[p] = Some(r)` bounds the corruption: `p` is honest
    /// again from round `r` on. `None` (the paper's growing-adversary
    /// model) means corruption never ends.
    corrupt_until: Vec<Option<u64>>,
}

impl Schedule {
    /// Everyone awake in every round, nobody corrupted.
    pub fn full(n: usize, horizon: u64) -> Schedule {
        Schedule::with_rows(n, horizon, vec![true; n * (horizon as usize + 1)])
    }

    /// A schedule over the flat round-major `awake` flags, nobody
    /// corrupted.
    fn with_rows(n: usize, horizon: u64, awake: Vec<bool>) -> Schedule {
        Schedule {
            n,
            horizon,
            awake,
            corrupt_from: vec![None; n],
            corrupt_until: vec![None; n],
        }
    }

    /// A schedule whose flag for (round `r`, process `p`) is `awake(r, p)`.
    fn from_fn(n: usize, horizon: u64, mut awake: impl FnMut(u64, usize) -> bool) -> Schedule {
        let mut rows = Vec::with_capacity(n * (horizon as usize + 1));
        for r in 0..=horizon {
            rows.extend((0..n).map(|p| awake(r, p)));
        }
        Schedule::with_rows(n, horizon, rows)
    }

    /// A schedule from an explicit round-major awake matrix
    /// (`awake[r][p]`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty or ragged.
    pub fn custom(awake: Vec<Vec<bool>>) -> Schedule {
        assert!(!awake.is_empty(), "schedule must cover at least round 0");
        let n = awake[0].len();
        assert!(
            awake.iter().all(|row| row.len() == n),
            "ragged awake matrix"
        );
        Schedule::with_rows(n, awake.len() as u64 - 1, awake.concat())
    }

    /// Random bounded churn: each round, awake processes fall asleep with
    /// `sleep_prob` and asleep ones wake with `opts.wake_prob`, never
    /// dropping below `opts.min_awake_frac`. Round 0 starts fully awake.
    ///
    /// `sleep_prob` is the *per-round* drop probability; unconstrained, it
    /// induces a per-`η` churn rate of roughly `1 − (1 − sleep_prob)^η`.
    /// Sleep events are additionally admitted only within the
    /// [`ChurnOptions::max_dropped_frac`] envelope, which keeps the
    /// recently-awake-but-asleep set (the quantity Equation 1 bounds by
    /// `γ`) small by construction; when the envelope binds, realized churn
    /// is below the formula. Set `max_dropped_frac: 1.0` for raw
    /// independent sleep events, and use
    /// [`check_conditions`](crate::conditions::check_conditions) to verify
    /// what a generated schedule actually satisfies.
    pub fn random_churn(
        n: usize,
        horizon: u64,
        sleep_prob: f64,
        seed: u64,
        opts: &ChurnOptions,
    ) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5c4e);
        let min_awake = ((n as f64) * opts.min_awake_frac).ceil().max(1.0) as usize;
        let dropped_frac = opts.max_dropped_frac.clamp(0.0, 1.0);
        let mut awake = Vec::with_capacity(n * (horizon as usize + 1));
        // The row being built: round r's flags start as round r − 1's.
        let mut next = vec![true; n];
        // last_awake[p] = most recent round p was awake (round 0: everyone).
        let mut last_awake = vec![0u64; n];
        let mut order: Vec<usize> = (0..n).collect();
        awake.extend_from_slice(&next);
        for r in 1..=horizon {
            // Processes asleep now but awake within the drop window: the
            // set Equation 1 measures. Counted once per round, maintained
            // incrementally; new sleep events are admitted only while it
            // stays within the envelope.
            let mut dropped = next
                .iter()
                .zip(&last_awake)
                .filter(|&(&a, &la)| !a && la + opts.drop_window >= r)
                .count();
            // The envelope cap is normalized by the recently-awake count —
            // the generator's stand-in for Equation 1's `|H_{r−η,r−1}|` —
            // not by `n`, so low-participation stretches stay bounded too.
            // Like min_awake, rounding is guarded: any positive fraction
            // admits at least one concurrent sleeper, else small systems
            // would silently produce zero churn.
            let recently_awake = last_awake
                .iter()
                .filter(|&&la| la + opts.drop_window >= r)
                .count();
            let max_dropped = if dropped_frac <= 0.0 {
                0
            } else {
                (((recently_awake as f64) * dropped_frac).floor() as usize).max(1)
            };
            // Visit processes in a fresh random order so envelope slots
            // are not biased toward low indices when the cap binds.
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &p in &order {
                if next[p] {
                    if dropped < max_dropped && rng.random_bool(sleep_prob.clamp(0.0, 1.0)) {
                        next[p] = false;
                        dropped += 1;
                    }
                } else if rng.random_bool(opts.wake_prob.clamp(0.0, 1.0)) {
                    next[p] = true;
                    if last_awake[p] + opts.drop_window >= r {
                        dropped -= 1;
                    }
                }
            }
            // Enforce the floor by waking random sleepers.
            let mut awake_count = next.iter().filter(|&&a| a).count();
            while awake_count < min_awake {
                let idx = rng.random_range(0..n);
                if !next[idx] {
                    next[idx] = true;
                    awake_count += 1;
                }
            }
            for (p, &a) in next.iter().enumerate() {
                if a {
                    last_awake[p] = r;
                }
            }
            awake.extend_from_slice(&next);
        }
        Schedule::with_rows(n, horizon, awake)
    }

    /// A mass-sleep incident: a fraction `frac` of the processes (the
    /// highest-numbered ones) are asleep during rounds `[from, to]` —
    /// the May-2023 Ethereum scenario from the introduction.
    pub fn mass_sleep(n: usize, horizon: u64, frac: f64, from: u64, to: u64) -> Schedule {
        let sleepers = ((n as f64) * frac.clamp(0.0, 1.0)).floor() as usize;
        Schedule::from_fn(n, horizon, |r, p| {
            !((from..=to).contains(&r) && p >= n - sleepers)
        })
    }

    /// Adversarially-paced churn: a group of `⌊γ·n⌋` processes sleeps for
    /// exactly `eta` rounds, then wakes as the next group (round-robin)
    /// goes to sleep.
    ///
    /// This is the worst-case pattern for the expiration mechanism: at
    /// every round, a full `γ` fraction of the recently-awake processes
    /// is asleep with **unexpired** stale votes, maximising the perceived
    /// participation inflation that the adjusted failure ratio `β̃` of
    /// Section 2.3 prices in. Used by the empirical Figure-1 boundary.
    pub fn rotating_sleep(n: usize, horizon: u64, gamma: f64, eta: u64) -> Schedule {
        // stlint::allow(deadpub, reason = "the worst-case expiration pattern of the Figure-1 budget test (tests/conditions_and_formulas.rs)")
        let group = ((n as f64) * gamma.clamp(0.0, 0.9)).floor() as usize;
        let eta = eta.max(1);
        Schedule::from_fn(n, horizon, |r, p| {
            if group == 0 {
                return true;
            }
            let phase = (r / eta) as usize;
            let start = (phase * group) % n;
            // Sleeping window [start, start+group) cyclically.
            let offset = (p + n - start) % n;
            offset >= group
        })
    }

    /// Oscillating participation: the awake fraction swings between
    /// `min_frac` and 1.0 with the given period (diurnal pattern).
    pub fn oscillating(n: usize, horizon: u64, min_frac: f64, period: u64) -> Schedule {
        // stlint::allow(deadpub, reason = "the diurnal participation of the dynamic-availability theorem test (tests/theorems.rs)")
        let period = period.max(2);
        let awake_count = |r: u64| {
            let phase = (r % period) as f64 / period as f64 * std::f64::consts::TAU;
            let frac = min_frac + (1.0 - min_frac) * (0.5 + 0.5 * phase.cos());
            ((n as f64) * frac).round().max(1.0) as usize
        };
        let counts: Vec<usize> = (0..=horizon).map(awake_count).collect();
        Schedule::from_fn(n, horizon, |r, p| p < counts[r as usize])
    }

    /// Marks `p` as corrupted from round `from` onward (growing
    /// adversary). Corrupting at round 0 models a static adversary.
    /// Returns `self` for chaining.
    #[must_use]
    pub fn with_corrupted(mut self, p: ProcessId, from: Round) -> Schedule {
        // stlint::allow(deadpub, reason = "the growing adversary of the Eq.-2 and adversary-behaviour tests")
        self.corrupt_from[p.index()] = Some(match self.corrupt_from[p.index()] {
            // Growing adversary: corruption can only move earlier, never
            // be revoked.
            Some(existing) => existing.min(from.as_u64()),
            None => from.as_u64(),
        });
        // Unbounded corruption supersedes any previously configured
        // recovery window — "never revoked" must win over an earlier
        // `with_corrupted_window` call on the same process.
        self.corrupt_until[p.index()] = None;
        self
    }

    /// Marks `p` as corrupted for the round window `[from, until)` only:
    /// Byzantine at `from`, honest again from `until` on. This steps
    /// outside the paper's growing-adversary model (`B_r ⊆ B_{r+1}`) —
    /// it exists for corruption-churn experiments, where a machine is
    /// compromised, cleaned, and rejoins as a well-behaved process. Its
    /// decisions made while corrupted do not count as honest decisions
    /// anywhere (monitors skip them).
    ///
    /// # Panics
    ///
    /// Panics if `until <= from` (an empty window is no corruption).
    #[must_use]
    pub fn with_corrupted_window(mut self, p: ProcessId, from: Round, until: Round) -> Schedule {
        // stlint::allow(deadpub, reason = "the corruption-churn cells of the guard grid and the tally-sharing property test")
        assert!(until > from, "corruption window must be non-empty");
        let idx = p.index();
        if let (Some(existing), None) = (self.corrupt_from[idx], self.corrupt_until[idx]) {
            // `p` is already unboundedly corrupted: a window cannot revoke
            // that ("never revoked" wins in either call order) — at most
            // it moves the onset earlier.
            self.corrupt_from[idx] = Some(existing.min(from.as_u64()));
            return self;
        }
        self.corrupt_from[idx] = Some(from.as_u64());
        self.corrupt_until[idx] = Some(until.as_u64());
        self
    }

    /// Corrupts the `f` highest-numbered processes from round 0 (the
    /// common static-adversary setup).
    #[must_use]
    pub fn with_static_byzantine(mut self, f: usize) -> Schedule {
        let n = self.n;
        for p in n.saturating_sub(f)..n {
            self.corrupt_from[p] = Some(0);
            self.corrupt_until[p] = None; // static = never recovers
        }
        self
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The last round covered.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Whether well-behaved process `p` is awake at (the beginning of)
    /// round `r`. Rounds beyond the horizon repeat the final row.
    pub fn is_awake(&self, p: ProcessId, r: Round) -> bool {
        let row = (r.as_u64().min(self.horizon)) as usize;
        self.awake[row * self.n..(row + 1) * self.n][p.index()]
    }

    /// Whether `p` is Byzantine at round `r`.
    pub fn is_byzantine(&self, p: ProcessId, r: Round) -> bool {
        match self.corrupt_from[p.index()] {
            Some(from) => {
                r.as_u64() >= from
                    && self.corrupt_until[p.index()]
                        .map(|until| r.as_u64() < until)
                        .unwrap_or(true)
            }
            None => false,
        }
    }

    /// `H_r`: well-behaved processes awake at round `r`.
    pub fn honest_awake(&self, r: Round) -> Vec<ProcessId> {
        ProcessId::all(self.n)
            .filter(|&p| self.is_awake(p, r) && !self.is_byzantine(p, r))
            .collect()
    }

    /// `B_r`: Byzantine processes at round `r` (they never sleep).
    pub fn byzantine(&self, r: Round) -> Vec<ProcessId> {
        ProcessId::all(self.n)
            .filter(|&p| self.is_byzantine(p, r))
            .collect()
    }

    /// `O_r = H_r ∪ B_r`.
    pub fn online(&self, r: Round) -> Vec<ProcessId> {
        ProcessId::all(self.n)
            .filter(|&p| self.is_byzantine(p, r) || self.is_awake(p, r))
            .collect()
    }

    /// `H_{s,r} = ∪_{s ≤ r' ≤ r} H_{r'}` (the union of honest-awake sets
    /// over a window, Section 2.3).
    pub fn honest_awake_union(&self, s: Round, r: Round) -> Vec<ProcessId> {
        let mut seen = vec![false; self.n];
        let mut r_cur = s;
        while r_cur <= r {
            for p in self.honest_awake(r_cur) {
                seen[p.index()] = true;
            }
            r_cur = r_cur.next();
        }
        ProcessId::all(self.n).filter(|p| seen[p.index()]).collect()
    }

    /// `O_{s,r} = ∪_{s ≤ r' ≤ r} O_{r'}`.
    pub fn online_union(&self, s: Round, r: Round) -> Vec<ProcessId> {
        let mut seen = vec![false; self.n];
        let mut r_cur = s;
        while r_cur <= r {
            for p in self.online(r_cur) {
                seen[p.index()] = true;
            }
            r_cur = r_cur.next();
        }
        ProcessId::all(self.n).filter(|p| seen[p.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_schedule_everyone_always_awake() {
        let s = Schedule::full(4, 10);
        for r in 0..=10 {
            assert_eq!(s.honest_awake(Round::new(r)).len(), 4);
            assert!(s.byzantine(Round::new(r)).is_empty());
        }
    }

    #[test]
    fn static_byzantine_marks_tail_processes() {
        let s = Schedule::full(6, 5).with_static_byzantine(2);
        let byz = s.byzantine(Round::ZERO);
        assert_eq!(byz, vec![ProcessId::new(4), ProcessId::new(5)]);
        assert_eq!(s.honest_awake(Round::ZERO).len(), 4);
        // O_r includes everyone (Byzantine never sleep).
        assert_eq!(s.online(Round::ZERO).len(), 6);
    }

    #[test]
    fn growing_adversary_is_monotone() {
        let s = Schedule::full(4, 20)
            .with_corrupted(ProcessId::new(1), Round::new(5))
            .with_corrupted(ProcessId::new(2), Round::new(10));
        for r in 0..20u64 {
            let now = s.byzantine(Round::new(r)).len();
            let next = s.byzantine(Round::new(r + 1)).len();
            assert!(next >= now, "B_r shrank at {r}");
        }
        assert!(!s.is_byzantine(ProcessId::new(1), Round::new(4)));
        assert!(s.is_byzantine(ProcessId::new(1), Round::new(5)));
    }

    #[test]
    fn corruption_never_revoked() {
        let s = Schedule::full(2, 10)
            .with_corrupted(ProcessId::new(0), Round::new(3))
            .with_corrupted(ProcessId::new(0), Round::new(8)); // later mark ignored
        assert!(s.is_byzantine(ProcessId::new(0), Round::new(3)));
        let s2 = Schedule::full(2, 10)
            .with_corrupted(ProcessId::new(0), Round::new(8))
            .with_corrupted(ProcessId::new(0), Round::new(3)); // earlier wins
        assert!(s2.is_byzantine(ProcessId::new(0), Round::new(3)));
    }

    #[test]
    fn corruption_window_ends() {
        let s = Schedule::full(4, 20).with_corrupted_window(
            ProcessId::new(2),
            Round::new(5),
            Round::new(12),
        );
        assert!(!s.is_byzantine(ProcessId::new(2), Round::new(4)));
        assert!(s.is_byzantine(ProcessId::new(2), Round::new(5)));
        assert!(s.is_byzantine(ProcessId::new(2), Round::new(11)));
        assert!(!s.is_byzantine(ProcessId::new(2), Round::new(12)));
        assert!(s.honest_awake(Round::new(12)).contains(&ProcessId::new(2)));
        // Unbounded corruption stays unbounded.
        let s = Schedule::full(4, 20).with_corrupted(ProcessId::new(1), Round::new(5));
        assert!(s.is_byzantine(ProcessId::new(1), Round::new(20)));
    }

    #[test]
    fn unbounded_corruption_supersedes_window() {
        let p = ProcessId::new(1);
        let s = Schedule::full(4, 20)
            .with_corrupted_window(p, Round::new(5), Round::new(10))
            .with_corrupted(p, Round::ZERO);
        // "Never revoked" wins: the earlier window's recovery is cleared.
        assert!(s.is_byzantine(p, Round::new(15)));
        let s = Schedule::full(4, 20)
            .with_corrupted_window(p, Round::new(5), Round::new(10))
            .with_static_byzantine(4);
        assert!(s.is_byzantine(p, Round::new(15)));
        // And in the other call order: a window cannot revoke unbounded
        // corruption (it can only move the onset earlier).
        let s = Schedule::full(4, 20)
            .with_corrupted(p, Round::new(3))
            .with_corrupted_window(p, Round::new(5), Round::new(10));
        assert!(s.is_byzantine(p, Round::new(3)));
        assert!(s.is_byzantine(p, Round::new(15)));
        let s = Schedule::full(4, 20)
            .with_static_byzantine(4)
            .with_corrupted_window(p, Round::new(5), Round::new(10));
        assert!(s.is_byzantine(p, Round::ZERO));
        assert!(s.is_byzantine(p, Round::new(15)));
    }

    #[test]
    fn mass_sleep_window() {
        let s = Schedule::mass_sleep(10, 20, 0.6, 5, 8);
        assert_eq!(s.honest_awake(Round::new(4)).len(), 10);
        assert_eq!(s.honest_awake(Round::new(5)).len(), 4);
        assert_eq!(s.honest_awake(Round::new(8)).len(), 4);
        assert_eq!(s.honest_awake(Round::new(9)).len(), 10);
    }

    #[test]
    fn random_churn_respects_floor_and_determinism() {
        let opts = ChurnOptions {
            min_awake_frac: 0.3,
            ..Default::default()
        };
        let a = Schedule::random_churn(20, 50, 0.2, 7, &opts);
        let b = Schedule::random_churn(20, 50, 0.2, 7, &opts);
        for r in 0..=50 {
            let round = Round::new(r);
            assert_eq!(
                a.honest_awake(round),
                b.honest_awake(round),
                "nondeterministic"
            );
            assert!(a.honest_awake(round).len() >= 6, "floor violated at {r}");
        }
        // Some churn actually happened.
        let changes: usize = (1..=50)
            .map(|r| {
                let prev = a.honest_awake(Round::new(r - 1));
                let cur = a.honest_awake(Round::new(r));
                prev.iter().filter(|p| !cur.contains(p)).count()
            })
            .sum();
        assert!(changes > 0, "no churn generated");
    }

    #[test]
    fn random_churn_respects_drop_envelope() {
        // Aggressive sleep pressure against a tight envelope: at every
        // round, the recently-awake-but-asleep set (the quantity
        // Equation 1 bounds) must stay within
        // max(1, ⌊frac · |recently awake|⌋).
        let opts = ChurnOptions {
            min_awake_frac: 0.2,
            wake_prob: 0.3,
            max_dropped_frac: 0.1,
            drop_window: 6,
            ..Default::default()
        };
        for (n, seed) in [(20usize, 1u64), (15, 2), (6, 3)] {
            let s = Schedule::random_churn(n, 80, 0.3, seed, &opts);
            for r in 1..=80u64 {
                let lo = Round::new(r.saturating_sub(opts.drop_window));
                let hi = Round::new(r - 1);
                let recent = s.honest_awake_union(lo, hi);
                let now = s.honest_awake(Round::new(r));
                let dropped = recent.iter().filter(|p| !now.contains(p)).count();
                let cap = ((recent.len() as f64) * opts.max_dropped_frac)
                    .floor()
                    .max(1.0);
                assert!(
                    dropped as f64 <= cap,
                    "n={n} seed={seed} round {r}: {dropped} dropped exceeds cap {cap}"
                );
            }
        }
        // A disabled envelope (frac = 1.0) with heavy sleep pressure
        // produces more churn than the tight one: the cap is real.
        let free = ChurnOptions {
            max_dropped_frac: 1.0,
            ..opts.clone()
        };
        let total = |s: &Schedule| -> usize {
            (1..=80u64)
                .map(|r| {
                    let prev = s.honest_awake(Round::new(r - 1));
                    let cur = s.honest_awake(Round::new(r));
                    prev.iter().filter(|p| !cur.contains(p)).count()
                })
                .sum()
        };
        let capped = Schedule::random_churn(20, 80, 0.3, 1, &opts);
        let uncapped = Schedule::random_churn(20, 80, 0.3, 1, &free);
        assert!(total(&uncapped) > total(&capped), "envelope had no effect");
    }

    #[test]
    fn rotating_sleep_keeps_constant_stale_mass() {
        let s = Schedule::rotating_sleep(10, 40, 0.2, 4);
        for r in 0..=40 {
            assert_eq!(s.honest_awake(Round::new(r)).len(), 8, "round {r}");
        }
        // The sleeping group changes every η rounds.
        let g0 = s.honest_awake(Round::new(0));
        let g1 = s.honest_awake(Round::new(4));
        assert_ne!(g0, g1);
        // γ = 0 degenerates to full participation.
        let full = Schedule::rotating_sleep(10, 10, 0.0, 4);
        assert_eq!(full.honest_awake(Round::new(5)).len(), 10);
    }

    #[test]
    fn oscillating_hits_min_and_max() {
        let s = Schedule::oscillating(10, 40, 0.4, 8);
        let counts: Vec<usize> = (0..=40)
            .map(|r| s.honest_awake(Round::new(r)).len())
            .collect();
        assert!(counts.contains(&10));
        assert!(counts.iter().any(|&c| c <= 5));
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn unions_accumulate() {
        let s = Schedule::mass_sleep(4, 10, 0.5, 3, 6);
        // During the incident only p0, p1 are awake, but the union over
        // [0, 5] still contains everyone.
        assert_eq!(s.honest_awake(Round::new(4)).len(), 2);
        assert_eq!(s.honest_awake_union(Round::ZERO, Round::new(5)).len(), 4);
        assert_eq!(s.online_union(Round::new(3), Round::new(4)).len(), 2);
    }

    #[test]
    fn beyond_horizon_repeats_last_row() {
        let s = Schedule::mass_sleep(4, 5, 0.5, 5, 5);
        assert_eq!(s.honest_awake(Round::new(5)).len(), 2);
        // Round 6 is past the horizon: repeats round 5's row.
        assert_eq!(s.honest_awake(Round::new(6)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn custom_rejects_ragged() {
        let _ = Schedule::custom(vec![vec![true, true], vec![true]]);
    }
}
