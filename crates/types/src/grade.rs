//! Graded-agreement output grades.

use std::fmt;

/// The grade attached to a log output by a graded-agreement instance
/// (Definition 4 of the paper).
///
/// * [`Grade::One`] — the log was supported by more than `2m/3` of the `m`
///   perceived participants; grade-1 outputs trigger decisions.
/// * [`Grade::Zero`] — supported by more than `m/3` but at most `2m/3`.
///
/// `Grade` is ordered: `Zero < One`.
///
/// ```
/// use st_types::Grade;
/// assert!(Grade::Zero < Grade::One);
/// assert_eq!(Grade::One.as_bit(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Grade {
    /// Support exceeded `m/3` (but not `2m/3`).
    Zero,
    /// Support exceeded `2m/3`; a decision-grade output.
    One,
}

impl Grade {
    /// The grade bit as in the paper's `(Λ, g)` notation.
    pub const fn as_bit(self) -> u8 {
        match self {
            Grade::Zero => 0,
            Grade::One => 1,
        }
    }
}

impl fmt::Debug for Grade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grade{}", self.as_bit())
    }
}

impl fmt::Display for Grade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grade_ordering_and_bits() {
        assert!(Grade::Zero < Grade::One);
        assert_eq!(Grade::Zero.as_bit(), 0);
        assert_eq!(Grade::One.as_bit(), 1);
    }
}
