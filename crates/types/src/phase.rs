//! Round phases and round kinds of the sleepy model.

use crate::{Round, View};
use std::fmt;

/// The two phases of a round (Section 2.1): a send phase at the beginning
/// (processes in `O_r` multicast) and a receive phase at the end (processes
/// awake at the end of the round, i.e. in `O_{r+1}`, receive).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Beginning of a round: awake processes multicast their messages.
    Send,
    /// End of a round: processes awake at the end receive messages.
    Receive,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Send => write!(f, "send"),
            Phase::Receive => write!(f, "receive"),
        }
    }
}

/// What a round means to Algorithm 1: the bootstrap propose round, the
/// first round of a view, or the second (decision) round of a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoundKind {
    /// Round 0 — view 0's single propose round.
    Bootstrap,
    /// Round `2v − 1`, the first round of view `v ≥ 1`: compute
    /// `GA_{v−1,2}` outputs, decide, vote in `GA_{v,1}`.
    ViewFirst(View),
    /// Round `2v`, the second round of view `v ≥ 1`: compute `GA_{v,1}`
    /// outputs, vote in `GA_{v,2}`, propose for view `v + 1`.
    ViewSecond(View),
}

impl RoundKind {
    /// Classifies a round per Algorithm 1's view structure.
    ///
    /// ```
    /// use st_types::{Round, RoundKind, View};
    /// assert_eq!(RoundKind::of(Round::new(0)), RoundKind::Bootstrap);
    /// assert_eq!(RoundKind::of(Round::new(3)), RoundKind::ViewFirst(View::new(2)));
    /// assert_eq!(RoundKind::of(Round::new(4)), RoundKind::ViewSecond(View::new(2)));
    /// ```
    pub fn of(round: Round) -> RoundKind {
        let r = round.as_u64();
        if r == 0 {
            RoundKind::Bootstrap
        } else if r % 2 == 1 {
            RoundKind::ViewFirst(View::new(r.div_ceil(2)))
        } else {
            RoundKind::ViewSecond(View::new(r / 2))
        }
    }

    /// The view this round belongs to.
    pub fn view(self) -> View {
        match self {
            RoundKind::Bootstrap => View::ZERO,
            RoundKind::ViewFirst(v) | RoundKind::ViewSecond(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_view_structure() {
        assert_eq!(RoundKind::of(Round::new(0)), RoundKind::Bootstrap);
        for v in 1u64..20 {
            assert_eq!(
                RoundKind::of(Round::new(2 * v - 1)),
                RoundKind::ViewFirst(View::new(v))
            );
            assert_eq!(
                RoundKind::of(Round::new(2 * v)),
                RoundKind::ViewSecond(View::new(v))
            );
        }
    }

    #[test]
    fn kind_view_agrees_with_view_from_round() {
        for r in 0u64..50 {
            let round = Round::new(r);
            assert_eq!(RoundKind::of(round).view(), View::from_round(round));
        }
    }
}
