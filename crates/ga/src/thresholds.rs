//! Quorum thresholds for grading.

/// The quorum thresholds of a graded-agreement instance, parameterised by
/// the failure ratio `β`: grade 1 requires support `> (1 − β)·m`, grade 0
/// requires support `> β·m`.
///
/// The MMR protocol uses `β = 1/3` (grade 1 ⇔ `> 2m/3`, grade 0 ⇔
/// `> m/3`); other deterministically-safe sleepy protocols use other
/// ratios, so the tally is kept generic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    beta: f64,
}

impl Thresholds {
    /// Thresholds for a given failure ratio `β ∈ (0, 1/2]`.
    ///
    /// # Panics
    ///
    /// Panics if `β` is outside `(0, 1/2]` — parameter validation belongs
    /// to [`st_types::Params`]; this type is constructed from an already
    /// validated `β`.
    pub fn new(beta: f64) -> Thresholds {
        assert!(
            beta > 0.0 && beta <= 0.5 && beta.is_finite(),
            "β must lie in (0, 1/2], got {beta}"
        );
        Thresholds { beta }
    }

    /// The MMR thresholds (`β = 1/3`).
    pub fn mmr() -> Thresholds {
        Thresholds {
            beta: st_types::DEFAULT_FAILURE_RATIO,
        }
    }

    /// The failure ratio `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Whether `support` of `m` exceeds the grade-1 quorum `(1 − β)·m`.
    pub fn meets_grade1(&self, support: usize, m: usize) -> bool {
        (support as f64) > (1.0 - self.beta) * (m as f64)
    }

    /// Whether `support` of `m` exceeds the grade-0 quorum `β·m`.
    pub fn meets_grade0(&self, support: usize, m: usize) -> bool {
        (support as f64) > self.beta * (m as f64)
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::mmr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmr_thresholds_are_thirds() {
        let t = Thresholds::mmr();
        // m = 9: grade 1 needs > 6, grade 0 needs > 3.
        assert!(!t.meets_grade1(6, 9));
        assert!(t.meets_grade1(7, 9));
        assert!(!t.meets_grade0(3, 9));
        assert!(t.meets_grade0(4, 9));
    }

    #[test]
    fn grade1_implies_grade0() {
        let t = Thresholds::mmr();
        for m in 1..60 {
            for s in 0..=m {
                if t.meets_grade1(s, m) {
                    assert!(t.meets_grade0(s, m), "s={s} m={m}");
                }
            }
        }
    }

    #[test]
    fn conflicting_grade1_impossible() {
        // Two disjoint supports both > 2m/3 would sum to > 4m/3 > m.
        let t = Thresholds::mmr();
        for m in 1..60 {
            for s1 in 0..=m {
                for s2 in 0..=(m - s1) {
                    assert!(
                        !(t.meets_grade1(s1, m) && t.meets_grade1(s2, m)),
                        "disjoint supports {s1},{s2} of {m} both grade-1"
                    );
                }
            }
        }
    }

    #[test]
    fn at_most_two_conflicting_grade0() {
        // Three disjoint supports all > m/3 would sum to > m.
        let t = Thresholds::mmr();
        for m in 1..40 {
            for s1 in 0..=m {
                for s2 in 0..=(m - s1) {
                    let s3 = m - s1 - s2;
                    assert!(
                        !(t.meets_grade0(s1, m) && t.meets_grade0(s2, m) && t.meets_grade0(s3, m)),
                        "three disjoint supports {s1},{s2},{s3} of {m} all graded"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "β must lie")]
    fn invalid_beta_panics() {
        let _ = Thresholds::new(0.7);
    }
}
