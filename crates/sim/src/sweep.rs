//! The grid sweep driver, [`Sweep`].

use crate::monitor::SimReport;
use crate::runner::Simulation;

/// A deterministic cartesian sweep over configuration cells.
///
/// Grid experiments share one shape: a cartesian grid of configurations,
/// one deterministic simulation per cell, and an aggregate over the
/// per-cell [`SimReport`]s. `Sweep` makes that shape a library call
/// instead of a hand-rolled loop: it owns the cell list, derives a
/// **deterministic per-cell seed** from the sweep seed and the cell's
/// position (re-running a grid reproduces every cell exactly, and
/// *appending* cells never perturbs existing ones; inserting or
/// reordering shifts positions and thus seeds), and executes cells
/// across scoped worker threads in input order — cells are pure
/// functions of `(cell, seed)`, so parallelism can only change
/// wall-clock, never results.
///
/// ```
/// use st_sim::{adversary::PartitionAttacker, SimBuilder, SimConfig, Sweep, Timeline};
/// use st_types::{Params, Round};
///
/// // η × π grid: Theorem 2 says every η > π cell shrugs the attack off.
/// let sweep = Sweep::grid(vec![5u64, 6], vec![2u64, 4]).seed(7);
/// let outcome = sweep.run_reports(|&(eta, pi), seed| {
///     let params = Params::builder(8).expiration(eta).build().unwrap();
///     let config = SimConfig::new(params, seed)
///         .horizon(26)
///         .timeline(Timeline::synchronous().asynchronous(Round::new(10), pi));
///     SimBuilder::from_config(config)
///         .adversary(PartitionAttacker::new())
///         .build()
///         .expect("valid cell")
/// });
/// assert_eq!(outcome.len(), 4);
/// assert!(outcome.all_safe());
/// ```
#[derive(Clone, Debug)]
pub struct Sweep<C> {
    cells: Vec<C>,
    seed: u64,
}

impl<C: Sync> Sweep<C> {
    /// A sweep over an explicit cell list (any iterable).
    pub fn over(cells: impl IntoIterator<Item = C>) -> Sweep<C> {
        Sweep {
            cells: cells.into_iter().collect(),
            seed: 0,
        }
    }

    /// Sets the sweep seed every per-cell seed is derived from
    /// (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Sweep<C> {
        self.seed = seed;
        self
    }

    /// The cells, in run order.
    pub fn cells(&self) -> &[C] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The deterministic seed of cell `index`: a SplitMix64 mix of the
    /// sweep seed and the cell index. Stable across runs, machines and
    /// worker counts; position-derived, so appending cells keeps earlier
    /// seeds, while inserting or reordering shifts them.
    pub fn cell_seed(&self, index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0xA076_1D64_78BD_642F);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs `job(cell, cell_seed)` for every cell and returns the outputs
    /// in input order. Parallel across scoped worker threads (striped,
    /// one per core); the job must be a pure function of its arguments
    /// for the determinism guarantee to mean anything.
    #[expect(
        clippy::expect_used,
        reason = "a poisoned slot means a worker already panicked, so propagating is the right response; the striped loop assigns every index below cells.len() to exactly one worker, so each slot is filled"
    )]
    pub fn run<R, F>(&self, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&C, u64) -> R + Sync,
    {
        if self.cells.len() <= 1 {
            return self
                .cells
                .iter()
                .enumerate()
                .map(|(i, c)| job(c, self.cell_seed(i)))
                .collect();
        }
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(self.cells.len());
        let slots: Vec<std::sync::Mutex<Option<R>>> = (0..self.cells.len())
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let cells = &self.cells;
                let job = &job;
                let slots = &slots;
                let sweep = &self;
                scope.spawn(move || {
                    let mut i = w;
                    while i < cells.len() {
                        let out = job(&cells[i], sweep.cell_seed(i));
                        *slots[i].lock().expect("sweep slot poisoned") = Some(out);
                        i += workers;
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("sweep cell never ran")
            })
            .collect()
    }

    /// Builds one [`Simulation`] per cell, runs them all, and returns the
    /// collected reports with aggregate helpers.
    ///
    /// A head-to-head is two calls on one sweep: the cells and per-cell
    /// seeds are the same on both sides by construction, so building both
    /// from the same per-cell inputs leaves the parameters as the only
    /// difference.
    ///
    /// ```
    /// use st_sim::{Schedule, SimBuilder, SimConfig, Sweep};
    /// use st_types::{Params, Participation};
    ///
    /// // 50% of processes sleep mid-run: the sleepy protocol keeps
    /// // deciding, its fixed-quorum baseline stalls.
    /// let sweep = Sweep::over(vec![9usize]).seed(3);
    /// let side = |participation| {
    ///     sweep.run_reports(|&n, seed| {
    ///         let params = Params::builder(n).participation(participation).build().unwrap();
    ///         SimBuilder::from_config(SimConfig::new(params, seed).horizon(30))
    ///             .schedule(Schedule::mass_sleep(n, 30, 0.5, 8, 24))
    ///             .build()
    ///             .expect("valid cell")
    ///     })
    /// };
    /// let (sleepy, fixed) = (side(Participation::Perceived), side(Participation::Fixed));
    /// assert!(sleepy.reports[0].decisions_total > fixed.reports[0].decisions_total);
    /// ```
    pub fn run_reports<F>(&self, build: F) -> SweepReports
    where
        F: Fn(&C, u64) -> Simulation + Sync,
    {
        SweepReports {
            reports: self.run(|cell, seed| build(cell, seed).run()),
        }
    }
}

impl<A: Clone + Sync, B: Clone + Sync> Sweep<(A, B)> {
    /// The cartesian grid `xs × ys`, row-major (`ys` varies fastest).
    pub fn grid(xs: Vec<A>, ys: Vec<B>) -> Sweep<(A, B)> {
        // stlint::allow(deadpub, reason = "the cartesian cell grid the determinism, stepping and workload guards sweep")
        Sweep::over(
            xs.iter()
                .flat_map(|x| ys.iter().map(move |y| (x.clone(), y.clone())))
                .collect::<Vec<_>>(),
        )
    }
}

/// The reports of a [`Sweep::run_reports`] call, in cell order, with
/// grid-level aggregates.
#[derive(Clone, Debug)]
pub struct SweepReports {
    /// One report per cell, in cell order.
    pub reports: Vec<SimReport>,
}

impl SweepReports {
    /// Number of cells.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the sweep had no cells.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Whether every cell preserved agreement (Definition 2).
    pub fn all_safe(&self) -> bool {
        self.reports.iter().all(SimReport::is_safe)
    }

    /// The worst per-window healing lag across all cells, if every cell
    /// with windows healed everywhere.
    pub fn max_recovery_rounds(&self) -> Option<u64> {
        self.reports
            .iter()
            .filter_map(SimReport::max_recovery_rounds)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SilentAdversary;
    use crate::builder::SimBuilder;
    use crate::runner::SimConfig;
    use st_types::Params;

    #[test]
    fn grid_is_row_major_and_sized() {
        let s = Sweep::grid(vec![1u64, 2], vec!["a", "b", "c"]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.cells()[0], (1, "a"));
        assert_eq!(s.cells()[2], (1, "c"));
        assert_eq!(s.cells()[3], (2, "a"));
    }

    #[test]
    fn cell_seeds_are_deterministic_and_spread() {
        let s = Sweep::over(0..16u32).seed(42);
        let seeds: Vec<u64> = (0..16).map(|i| s.cell_seed(i)).collect();
        assert_eq!(seeds, (0..16).map(|i| s.cell_seed(i)).collect::<Vec<_>>());
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len(), "cell seeds collide");
        // A different sweep seed moves every cell seed.
        let other = Sweep::over(0..16u32).seed(43);
        assert!((0..16).all(|i| s.cell_seed(i) != other.cell_seed(i)));
    }

    #[test]
    fn run_returns_outputs_in_input_order_equal_to_a_plain_loop() {
        let s = Sweep::over(0..23u64).seed(9);
        let plain: Vec<(u64, u64)> = (0..23).map(|c| (c, s.cell_seed(c as usize))).collect();
        assert_eq!(s.run(|&c, seed| (c, seed)), plain);
        // Empty sweeps are fine.
        assert!(Sweep::over(Vec::<u64>::new()).run(|&c, _| c).is_empty());
    }

    #[test]
    fn run_reports_aggregates() {
        let outcome = Sweep::grid(vec![4usize, 6], vec![12u64, 16]).run_reports(|&(n, h), seed| {
            SimBuilder::from_config(
                SimConfig::new(Params::builder(n).expiration(2).build().unwrap(), seed).horizon(h),
            )
            .adversary(SilentAdversary)
            .build()
            .expect("valid cell")
        });
        assert_eq!(outcome.len(), 4);
        assert!(outcome.all_safe());
        assert!(outcome.reports.iter().all(|r| r.decisions_total > 0));
        assert_eq!(outcome.max_recovery_rounds(), None);
    }
}
