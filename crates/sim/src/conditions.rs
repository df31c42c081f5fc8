//! Round-by-round verification of the paper's model conditions
//! (Equations 1–5) against a concrete schedule.
//!
//! The theorems hold *conditionally*: Theorem 1 under Equations 1–2 (plus
//! η-sleepiness), Theorem 2 additionally under Equations 4–5 during the
//! asynchronous window. Tests use this checker both to certify that a
//! run's assumptions held and, in ablations, to confirm that a failing run
//! indeed violated them.

use crate::env::EnvWindow;
use crate::schedule::Schedule;
use st_types::{adjusted_failure_ratio, Round};

/// Which of the paper's conditions held over a schedule.
#[derive(Clone, Debug, Default)]
pub struct ConditionReport {
    /// Rounds violating Equation 1 (churn bound):
    /// `|H_{r−η,r−1} \ H_r| ≤ γ·|H_{r−η,r−1}|`.
    pub churn_violations: Vec<Round>,
    /// Rounds violating Equation 2 (failure ratio): `|B_r| < β̃·|O_r|`.
    pub failure_ratio_violations: Vec<Round>,
    /// Rounds violating Equation 3 (η-sleepiness):
    /// `|H_r| > (1 − β)·|O_{r−η,r}|`.
    pub eta_sleepiness_violations: Vec<Round>,
    /// Rounds in `[ra+1, ra+π+1]` violating Equation 4:
    /// `|H_ra \ B_r| > (1 − β)·|O_{r−η,r}|`.
    pub eq4_violations: Vec<Round>,
    /// Whether Equation 5 (`H_ra ⊆ H_{ra+1}`) held.
    pub eq5_holds: bool,
}

impl ConditionReport {
    /// Whether the synchronous-operation conditions (Equations 1–3) held.
    pub fn synchronous_conditions_hold(&self) -> bool {
        self.churn_violations.is_empty()
            && self.failure_ratio_violations.is_empty()
            && self.eta_sleepiness_violations.is_empty()
    }
}

/// Checks Equations 1–5 for every round `1..=horizon` of `schedule`, with
/// protocol parameters `beta` (original failure ratio), `gamma` (churn
/// bound) and `eta` (expiration), and optionally an asynchronous window
/// for Equations 4–5 (a run's is `timeline.windows().first()`).
pub fn check_conditions(
    schedule: &Schedule,
    beta: f64,
    gamma: f64,
    eta: u64,
    window: Option<&EnvWindow>,
) -> ConditionReport {
    let bt = adjusted_failure_ratio(beta, gamma);
    let mut report = ConditionReport {
        eq5_holds: true,
        ..Default::default()
    };

    for r_num in 1..=schedule.horizon() {
        let r = Round::new(r_num);
        let window_lo = r.saturating_sub(eta);

        // Equation 1: churn. H_{r−η,r−1} \ H_r bounded by γ·|H_{r−η,r−1}|.
        let prev_union = schedule.honest_awake_union(window_lo, Round::new(r_num - 1));
        if !prev_union.is_empty() {
            let h_r = schedule.honest_awake(r);
            let dropped = prev_union.iter().filter(|p| !h_r.contains(p)).count();
            if (dropped as f64) > gamma * (prev_union.len() as f64) {
                report.churn_violations.push(r);
            }
        }

        // Equation 2: |B_r| < β̃·|O_r| — the comparison must treat a
        // non-finite β̃ as a violation, hence the negated form.
        let b_r = schedule.byzantine(r).len();
        let o_r = schedule.online(r).len();
        #[expect(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "NaN must count as a violation"
        )]
        if !((b_r as f64) < bt * (o_r as f64)) && (b_r > 0 || o_r == 0) {
            report.failure_ratio_violations.push(r);
        }

        // Equation 3: η-sleepiness |H_r| > (1 − β)·|O_{r−η,r}|.
        let h_r = schedule.honest_awake(r).len();
        let o_union = schedule.online_union(window_lo, r).len();
        #[expect(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "NaN must count as a violation"
        )]
        if !((h_r as f64) > (1.0 - beta) * (o_union as f64)) {
            report.eta_sleepiness_violations.push(r);
        }
    }

    if let Some(w) = window {
        let ra = w.ra();
        let h_ra = schedule.honest_awake(ra);
        // Equation 5: H_ra ⊆ H_{ra+1}.
        let h_next = schedule.honest_awake(w.start());
        report.eq5_holds = h_ra.iter().all(|p| h_next.contains(p));
        // Equation 4 for r ∈ [ra+1, ra+π+1].
        for r_num in w.start().as_u64()..=(w.end().as_u64() + 1) {
            let r = Round::new(r_num);
            let survivors = h_ra
                .iter()
                .filter(|&&p| !schedule.is_byzantine(p, r))
                .count();
            let o_union = schedule.online_union(r.saturating_sub(eta), r).len();
            #[expect(
                clippy::neg_cmp_op_on_partial_ord,
                reason = "NaN must count as a violation"
            )]
            if !((survivors as f64) > (1.0 - beta) * (o_union as f64)) {
                report.eq4_violations.push(r);
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Timeline;

    const BETA: f64 = 1.0 / 3.0;

    #[test]
    fn full_participation_satisfies_everything() {
        let s = Schedule::full(9, 20);
        let t = Timeline::synchronous().asynchronous(Round::new(8), 2);
        let report = check_conditions(&s, BETA, 0.1, 4, t.windows().first());
        assert!(report.synchronous_conditions_hold(), "{report:?}");
        assert!(
            report.eq4_violations.is_empty() && report.eq5_holds,
            "{report:?}"
        );
    }

    #[test]
    fn mass_sleep_violates_churn_bound() {
        // 60% dropping at once blows any small γ.
        let s = Schedule::mass_sleep(10, 20, 0.6, 8, 12);
        let report = check_conditions(&s, BETA, 0.05, 4, None);
        assert!(!report.churn_violations.is_empty());
        // The drop round itself is flagged.
        assert!(report.churn_violations.contains(&Round::new(8)));
    }

    #[test]
    fn mass_sleep_with_eta_zero_passes_churn() {
        // η = 0 ⇒ H_{r−η,r−1} is over an empty window of *past* rounds?
        // No: with η = 0 the window [r, r−1] is empty, so Equation 1 is
        // vacuous — fully dynamic participation is allowed (Section 2.3).
        let s = Schedule::mass_sleep(10, 20, 0.6, 8, 12);
        let report = check_conditions(&s, BETA, 0.0, 0, None);
        assert!(report.churn_violations.is_empty());
    }

    #[test]
    fn too_many_byzantine_flagged() {
        // 4 of 10 Byzantine exceeds β̃ = β = 1/3 (γ = 0).
        let s = Schedule::full(10, 10).with_static_byzantine(4);
        let report = check_conditions(&s, BETA, 0.0, 0, None);
        assert!(!report.failure_ratio_violations.is_empty());
        // 3 of 10 is fine (3 < 10/3).
        let s_ok = Schedule::full(10, 10).with_static_byzantine(3);
        let report_ok = check_conditions(&s_ok, BETA, 0.0, 0, None);
        assert!(report_ok.failure_ratio_violations.is_empty());
    }

    #[test]
    fn tighter_gamma_needs_fewer_byzantine() {
        // With γ = 0.2, β̃_{2/3} = (1−0.6)/(3−1) ≈ 0.2: 3 of 10 now
        // violates Equation 2.
        let s = Schedule::full(10, 10).with_static_byzantine(3);
        let report = check_conditions(&s, BETA, 0.2, 4, None);
        assert!(!report.failure_ratio_violations.is_empty());
    }

    #[test]
    fn eta_sleepiness_violated_by_deep_drop() {
        // Dropping to 3 awake of 10 online-union breaks |H_r| > 2/3|O|.
        let s = Schedule::mass_sleep(10, 20, 0.7, 8, 12);
        let report = check_conditions(&s, BETA, 0.0, 2, None);
        assert!(!report.eta_sleepiness_violations.is_empty());
    }

    #[test]
    fn eq5_detects_sleeper_at_window_edge() {
        // p9 awake at ra = 5 but asleep at ra+1 = 6: Equation 5 fails.
        let mut awake = vec![vec![true; 10]; 21];
        awake[6][9] = false;
        let s = Schedule::custom(awake);
        let t = Timeline::synchronous().asynchronous(Round::new(6), 2);
        let report = check_conditions(&s, BETA, 0.0, 4, t.windows().first());
        assert!(!report.eq5_holds);
    }

    #[test]
    fn eq4_detects_corruption_of_h_ra() {
        // Corrupt 4 of 9 of H_ra during the window: survivors 5 of 9
        // online fails 5 > 6.
        let s = Schedule::full(9, 20)
            .with_corrupted(st_types::ProcessId::new(0), Round::new(9))
            .with_corrupted(st_types::ProcessId::new(1), Round::new(9))
            .with_corrupted(st_types::ProcessId::new(2), Round::new(9))
            .with_corrupted(st_types::ProcessId::new(3), Round::new(9));
        let t = Timeline::synchronous().asynchronous(Round::new(9), 2);
        let report = check_conditions(&s, BETA, 0.0, 2, t.windows().first());
        assert!(!report.eq4_violations.is_empty());
    }
}
