//! Error types for parameter validation.

use std::error::Error;
use std::fmt;

/// Errors produced when validating protocol parameters.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TypesError {
    /// The system must contain at least one process.
    EmptySystem,
    /// The failure ratio `β` must lie in `(0, 1/2]`.
    InvalidFailureRatio(f64),
    /// The churn rate `γ` must lie in `[0, 1)`.
    InvalidChurnRate(f64),
    /// With message expiration in effect, `γ` must be strictly below `β`
    /// (Section 2.3: otherwise Equation 2 requires `|B_r| < 0`).
    ChurnExceedsFailureRatio {
        /// The offending churn rate.
        gamma: f64,
        /// The failure ratio it must stay below.
        beta: f64,
    },
}

impl fmt::Display for TypesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypesError::EmptySystem => write!(f, "system must contain at least one process"),
            TypesError::InvalidFailureRatio(b) => {
                write!(f, "failure ratio β must lie in (0, 1/2], got {b}")
            }
            TypesError::InvalidChurnRate(g) => {
                write!(f, "churn rate γ must lie in [0, 1), got {g}")
            }
            TypesError::ChurnExceedsFailureRatio { gamma, beta } => write!(
                f,
                "churn rate γ = {gamma} must be strictly below failure ratio β = {beta} \
                 when message expiration is enabled"
            ),
        }
    }
}

impl Error for TypesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = TypesError::ChurnExceedsFailureRatio {
            gamma: 0.4,
            beta: 1.0 / 3.0,
        };
        let s = e.to_string();
        assert!(s.contains("0.4"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TypesError>();
    }
}
