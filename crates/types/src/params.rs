//! Protocol parameters `(n, β, γ, η)`, the tally's participation rule,
//! and the derived adjusted failure ratio `β̃` of Section 2.3 of the
//! paper.

use crate::TypesError;

/// The failure ratio `β = 1/3` of the MMR protocol (decision threshold
/// `1 − β = 2/3`), used throughout the paper's Figure 1.
pub const DEFAULT_FAILURE_RATIO: f64 = 1.0 / 3.0;

/// The denominator a graded-agreement tally grades support against.
///
/// The paper's protocol counts against *perceived* participation `m`, the
/// number of processes whose latest unexpired vote the tally counts: that
/// is what keeps it deciding while most processes sleep. A traditional BFT
/// protocol counts against the fixed membership `n` instead, and stalls
/// unless more than `(1 − β)·n` processes vote ("traditional BFT
/// protocols get stuck when participation drops below their fixed quorum
/// threshold"). `Fixed` is that baseline: the same protocol with the one
/// value changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Participation {
    /// Grade against perceived participation `m` (the paper's protocol).
    Perceived,
    /// Grade against all `n` processes (the fixed-quorum baseline).
    Fixed,
}

/// Protocol and model parameters.
///
/// * `n` — total number of processes;
/// * `beta` (`β`) — failure ratio tolerated by the *original* dynamically
///   available protocol (1/3 for MMR);
/// * `gamma` (`γ`) — maximum churn rate per `η` rounds (Equation 1);
/// * `eta` (`η`) — message expiration period in rounds; `η = 0` recovers the
///   vanilla protocol that only uses current-round votes;
/// * `participation` — the tally's denominator ([`Participation`]),
///   perceived participation unless set to the fixed-quorum baseline.
///
/// The asynchronous period `π` belongs to the environment, not the
/// protocol: a run states it in its `Timeline`, and Theorem 2's `π < η`
/// is checked on the report.
///
/// Use [`Params::builder`] to construct validated parameters.
///
/// ```
/// use st_types::Params;
/// let p = Params::builder(100).expiration(8).churn_rate(0.1).build()?;
/// assert_eq!(p.n(), 100);
/// assert_eq!(p.expiration(), 8);
/// # Ok::<(), st_types::TypesError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    n: usize,
    beta: f64,
    gamma: f64,
    eta: u64,
    participation: Participation,
}

impl Params {
    /// Starts building parameters for a system of `n` processes.
    pub fn builder(n: usize) -> ParamsBuilder {
        ParamsBuilder::new(n)
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The base failure ratio `β` of the original protocol.
    pub fn failure_ratio(&self) -> f64 {
        self.beta
    }

    /// The churn-rate bound `γ` (Equation 1).
    pub fn churn_rate(&self) -> f64 {
        self.gamma
    }

    /// The message expiration period `η` in rounds.
    pub fn expiration(&self) -> u64 {
        self.eta
    }

    /// The tally's denominator: perceived participation, or all `n`.
    pub fn participation(&self) -> Participation {
        self.participation
    }

    /// The adjusted failure ratio `β̃ = (β − γ) / (γ(β − 2) + 1)` that the
    /// modified protocol must enforce per round (Equation 2, Section 2.3).
    ///
    /// For `γ = 0` this reduces to `β`; it decreases monotonically in `γ`
    /// and reaches 0 at `γ = β`.
    ///
    /// ```
    /// use st_types::Params;
    /// let p = Params::builder(10).churn_rate(0.0).build().unwrap();
    /// assert!((p.adjusted_failure_ratio() - 1.0 / 3.0).abs() < 1e-12);
    /// ```
    pub fn adjusted_failure_ratio(&self) -> f64 {
        adjusted_failure_ratio(self.beta, self.gamma)
    }
}

/// Computes `β̃ = (β − γ) / (γ(β − 2) + 1)` (Section 2.3).
///
/// This is the failure ratio that must be enforced per round once the
/// protocol counts latest unexpired messages over an `η`-round window with
/// churn bounded by `γ`: asleep processes' stale votes hand the adversary
/// extra leverage that this discount pays for. A free function so
/// callers (Figure 1's table, `stob curve`, the condition checker) can
/// sweep it without building full parameter sets.
///
/// ```
/// use st_types::adjusted_failure_ratio;
/// let beta = 1.0 / 3.0;
/// // γ = 0 gives β: static participation costs nothing.
/// assert!((adjusted_failure_ratio(beta, 0.0) - beta).abs() < 1e-12);
/// // Strictly decreasing in γ on [0, β].
/// let curve: Vec<f64> = (0..=33)
///     .map(|i| adjusted_failure_ratio(beta, i as f64 / 100.0))
///     .collect();
/// assert!(curve.windows(2).all(|w| w[1] < w[0]));
/// // Figure 1's specialisation: β = 1/3 gives (1 − 3γ)/(3 − 5γ).
/// for g in [0.0, 0.1, 0.2, 0.3] {
///     let lhs = adjusted_failure_ratio(beta, g);
///     let rhs = (1.0 - 3.0 * g) / (3.0 - 5.0 * g);
///     assert!((lhs - rhs).abs() < 1e-12);
/// }
/// ```
pub fn adjusted_failure_ratio(beta: f64, gamma: f64) -> f64 {
    (beta - gamma) / (gamma * (beta - 2.0) + 1.0)
}

/// Builder for [`Params`] (C-BUILDER).
///
/// All setters are chainable; [`ParamsBuilder::build`] validates the
/// combination.
#[derive(Clone, Debug)]
pub struct ParamsBuilder {
    n: usize,
    beta: f64,
    gamma: f64,
    eta: u64,
    participation: Participation,
}

impl ParamsBuilder {
    fn new(n: usize) -> Self {
        ParamsBuilder {
            n,
            beta: DEFAULT_FAILURE_RATIO,
            gamma: 0.0,
            eta: 0,
            participation: Participation::Perceived,
        }
    }

    /// Sets the base failure ratio `β` (default 1/3).
    pub fn failure_ratio(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the churn-rate bound `γ` (default 0).
    pub fn churn_rate(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the message expiration period `η` in rounds (default 0 =
    /// vanilla protocol).
    pub fn expiration(mut self, eta: u64) -> Self {
        self.eta = eta;
        self
    }

    /// Sets the tally's denominator (default
    /// [`Participation::Perceived`]; [`Participation::Fixed`] is the
    /// fixed-quorum baseline).
    pub fn participation(mut self, participation: Participation) -> Self {
        self.participation = participation;
        self
    }

    /// Validates and builds the parameter set.
    ///
    /// # Errors
    ///
    /// * [`TypesError::EmptySystem`] if `n == 0`;
    /// * [`TypesError::InvalidFailureRatio`] if `β ∉ (0, 1/2]`;
    /// * [`TypesError::InvalidChurnRate`] if `γ < 0`, or `γ ≥ β` (the paper
    ///   requires `γ < β`, else Equation 2 demands `|B_r| < 0`).
    pub fn build(self) -> Result<Params, TypesError> {
        if self.n == 0 {
            return Err(TypesError::EmptySystem);
        }
        if !(self.beta > 0.0 && self.beta <= 0.5 && self.beta.is_finite()) {
            return Err(TypesError::InvalidFailureRatio(self.beta));
        }
        if !(0.0..1.0).contains(&self.gamma) || !self.gamma.is_finite() {
            return Err(TypesError::InvalidChurnRate(self.gamma));
        }
        // γ must be strictly below β whenever expiration is in effect,
        // otherwise the adjusted failure ratio is non-positive and no
        // adversary at all can be tolerated (Section 2.3).
        if self.eta > 0 && self.gamma >= self.beta {
            return Err(TypesError::ChurnExceedsFailureRatio {
                gamma: self.gamma,
                beta: self.beta,
            });
        }
        Ok(Params {
            n: self.n,
            beta: self.beta,
            gamma: self.gamma,
            eta: self.eta,
            participation: self.participation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_vanilla_mmr() {
        let p = Params::builder(10).build().unwrap();
        assert_eq!(p.n(), 10);
        assert_eq!(p.expiration(), 0);
        assert_eq!(p.participation(), Participation::Perceived);
        assert!((p.failure_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_system_rejected() {
        assert!(matches!(
            Params::builder(0).build(),
            Err(TypesError::EmptySystem)
        ));
    }

    #[test]
    fn invalid_failure_ratio_rejected() {
        assert!(Params::builder(4).failure_ratio(0.0).build().is_err());
        assert!(Params::builder(4).failure_ratio(0.6).build().is_err());
        assert!(Params::builder(4).failure_ratio(f64::NAN).build().is_err());
        assert!(Params::builder(4).failure_ratio(0.5).build().is_ok());
    }

    #[test]
    fn churn_must_be_below_beta_when_expiring() {
        // With η > 0 the paper requires γ < β.
        let err = Params::builder(4)
            .expiration(4)
            .churn_rate(1.0 / 3.0)
            .build();
        assert!(matches!(
            err,
            Err(TypesError::ChurnExceedsFailureRatio { .. })
        ));
        // With η = 0 the requirement is vacuous (H_{r−η,r−1} = ∅).
        assert!(Params::builder(4)
            .expiration(0)
            .churn_rate(1.0 / 3.0)
            .build()
            .is_ok());
    }

    #[test]
    fn adjusted_ratio_matches_figure_1_formula() {
        // β̃_{2/3} = (1 − 3γ)/(3 − 5γ) from the Figure 1 caption.
        for i in 0..=33 {
            let gamma = i as f64 / 100.0;
            let general = adjusted_failure_ratio(1.0 / 3.0, gamma);
            let fig1 = (1.0 - 3.0 * gamma) / (3.0 - 5.0 * gamma);
            assert!(
                (general - fig1).abs() < 1e-12,
                "mismatch at γ={gamma}: {general} vs {fig1}"
            );
        }
    }

    #[test]
    fn adjusted_ratio_boundary_values() {
        // γ = 0 ⇒ β̃ = β (no stronger assumption under static participation).
        assert!((adjusted_failure_ratio(1.0 / 3.0, 0.0) - 1.0 / 3.0).abs() < 1e-12);
        // γ = β ⇒ β̃ = 0 (system may stall even without failures).
        assert!(adjusted_failure_ratio(1.0 / 3.0, 1.0 / 3.0).abs() < 1e-12);
        // Monotone decreasing in γ.
        let mut prev = f64::INFINITY;
        for i in 0..=33 {
            let v = adjusted_failure_ratio(1.0 / 3.0, i as f64 / 100.0);
            assert!(v < prev);
            prev = v;
        }
    }
}
