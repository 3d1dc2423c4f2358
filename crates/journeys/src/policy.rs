//! Waiting policies — the knob the whole paper is about.
//!
//! A journey is *direct* when each hop departs exactly when the previous
//! one arrives, and *indirect* when pauses are allowed. The paper's three
//! regimes are [`WaitingPolicy::NoWait`] (direct journeys only,
//! `L_nowait`), [`WaitingPolicy::Bounded`] (pauses of at most `d` time
//! units, `L_wait[d]`), and [`WaitingPolicy::Unbounded`] (arbitrary
//! pauses, `L_wait`).

use std::fmt;
use tvg_model::Time;

/// How long a journey may pause at a node between consecutive hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitingPolicy<T> {
    /// Direct journeys only: `t_{i+1} = t_i + ζ(e_i, t_i)`.
    NoWait,
    /// Pauses of at most `d` time units: `t_{i+1} ≤ t_i + ζ(e_i, t_i) + d`.
    ///
    /// `Bounded(T::zero())` is equivalent to [`WaitingPolicy::NoWait`].
    Bounded(T),
    /// Arbitrary pauses: `t_{i+1} ≥ t_i + ζ(e_i, t_i)` — store-carry-forward.
    Unbounded,
}

impl<T: Time> WaitingPolicy<T> {
    /// The latest admissible departure from a node reached at `ready`,
    /// given a hard search horizon. `None` if the window is empty, i.e.
    /// `ready` is past the horizon. A `wait[d]` window whose end
    /// `ready + d` overflows the time type ends at the horizon.
    #[must_use]
    pub fn latest_departure(&self, ready: &T, horizon: &T) -> Option<T> {
        match self {
            WaitingPolicy::NoWait => (ready <= horizon).then(|| ready.clone()),
            WaitingPolicy::Bounded(d) => bounded_latest(ready, d, horizon),
            WaitingPolicy::Unbounded => (ready <= horizon).then(|| horizon.clone()),
        }
    }

    /// Whether departing at `depart` after becoming ready at `ready` is
    /// admissible under this policy (ignoring horizons).
    #[must_use]
    pub fn admits(&self, ready: &T, depart: &T) -> bool {
        if depart < ready {
            return false;
        }
        match self {
            WaitingPolicy::NoWait => depart == ready,
            WaitingPolicy::Bounded(d) => match depart.checked_sub(ready) {
                Some(pause) => pause <= *d,
                None => false,
            },
            WaitingPolicy::Unbounded => true,
        }
    }
}

/// The end of the `wait[d]` window from `ready`: `ready + d` clamped to
/// `horizon`, and the horizon itself when the sum overflows the time
/// type (it is then past any horizon). `None` once `ready` is past the
/// horizon. The exact explorer's `wait[d]` loop computes its windows
/// here too.
pub(crate) fn bounded_latest<T: Time>(ready: &T, d: &T, horizon: &T) -> Option<T> {
    if ready > horizon {
        return None;
    }
    Some(match ready.checked_add(d) {
        Some(end) if end < *horizon => end,
        _ => horizon.clone(),
    })
}

impl<T: fmt::Display> fmt::Display for WaitingPolicy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitingPolicy::NoWait => write!(f, "nowait"),
            WaitingPolicy::Bounded(d) => write!(f, "wait[{d}]"),
            WaitingPolicy::Unbounded => write!(f, "wait"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_matches_definitions() {
        let nowait = WaitingPolicy::<u64>::NoWait;
        assert!(nowait.admits(&5, &5));
        assert!(!nowait.admits(&5, &6));
        assert!(!nowait.admits(&5, &4));

        let bounded = WaitingPolicy::Bounded(3u64);
        assert!(bounded.admits(&5, &5));
        assert!(bounded.admits(&5, &8));
        assert!(!bounded.admits(&5, &9));

        let unbounded = WaitingPolicy::<u64>::Unbounded;
        assert!(unbounded.admits(&5, &1_000_000));
        assert!(!unbounded.admits(&5, &4));
    }

    #[test]
    fn bounded_zero_equals_nowait() {
        let b0 = WaitingPolicy::Bounded(0u64);
        for ready in 0u64..10 {
            for depart in 0u64..10 {
                assert_eq!(
                    b0.admits(&ready, &depart),
                    WaitingPolicy::<u64>::NoWait.admits(&ready, &depart)
                );
            }
        }
    }

    #[test]
    fn latest_departure_windows() {
        assert_eq!(
            WaitingPolicy::<u64>::NoWait.latest_departure(&5, &100),
            Some(5)
        );
        assert_eq!(
            WaitingPolicy::Bounded(3u64).latest_departure(&5, &100),
            Some(8)
        );
        assert_eq!(
            WaitingPolicy::Bounded(3u64).latest_departure(&5, &6),
            Some(6)
        );
        assert_eq!(
            WaitingPolicy::<u64>::Unbounded.latest_departure(&5, &100),
            Some(100)
        );
        // Ready already past the horizon: empty window.
        assert_eq!(
            WaitingPolicy::<u64>::Unbounded.latest_departure(&101, &100),
            None
        );
        assert_eq!(
            WaitingPolicy::<u64>::NoWait.latest_departure(&101, &100),
            None
        );
    }

    /// A window end past the time domain is past the horizon too, so
    /// the window ends at the horizon; it is empty only past it.
    #[test]
    fn latest_departure_overflow_safe() {
        assert_eq!(
            WaitingPolicy::Bounded(u64::MAX).latest_departure(&2, &100),
            Some(100)
        );
        assert_eq!(
            WaitingPolicy::Bounded(u64::MAX).latest_departure(&101, &100),
            None
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(WaitingPolicy::<u64>::NoWait.to_string(), "nowait");
        assert_eq!(WaitingPolicy::Bounded(4u64).to_string(), "wait[4]");
        assert_eq!(WaitingPolicy::<u64>::Unbounded.to_string(), "wait");
    }
}
