//! Journeys: paths over time.
//!
//! A journey is a walk `⟨e₁, …, e_k⟩` together with departure instants
//! `⟨t₁, …, t_k⟩` such that edge `eᵢ` is present at `tᵢ` and
//! `t_{i+1} ≥ tᵢ + ζ(eᵢ, tᵢ)` (with equality for direct journeys). The
//! word spelled by the labels of its edges is what the TVG "expresses" —
//! the object Theorems 2.1–2.3 classify.

use crate::WaitingPolicy;
use std::error::Error;
use std::fmt;
use tvg_langs::Word;
use tvg_model::{EdgeId, NodeId, Time, Tvg};

/// One hop of a journey: an edge crossed at a departure instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop<T> {
    /// The edge crossed.
    pub edge: EdgeId,
    /// Departure instant (edge must be present then).
    pub depart: T,
    /// Arrival instant (`depart + ζ(edge, depart)`).
    pub arrive: T,
}

/// Why a journey fails validation against a TVG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JourneyError {
    /// A hop's edge does not start where the previous hop ended.
    Disconnected {
        /// Index of the offending hop.
        hop: usize,
    },
    /// A hop departs before the traveler is ready (time travel).
    DepartsTooEarly {
        /// Index of the offending hop.
        hop: usize,
    },
    /// A hop's pause exceeds what the waiting policy admits.
    WaitTooLong {
        /// Index of the offending hop.
        hop: usize,
    },
    /// A hop departs at an instant where its edge is absent.
    EdgeAbsent {
        /// Index of the offending hop.
        hop: usize,
    },
    /// A hop's recorded arrival does not equal `depart + ζ(depart)`.
    WrongArrival {
        /// Index of the offending hop.
        hop: usize,
    },
    /// The journey does not start at the required node.
    WrongSource,
}

impl fmt::Display for JourneyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JourneyError::Disconnected { hop } => {
                write!(f, "hop {hop} does not start where the previous hop ended")
            }
            JourneyError::DepartsTooEarly { hop } => {
                write!(f, "hop {hop} departs before the traveler arrives")
            }
            JourneyError::WaitTooLong { hop } => {
                write!(f, "pause before hop {hop} exceeds the waiting bound")
            }
            JourneyError::EdgeAbsent { hop } => {
                write!(f, "edge of hop {hop} is absent at its departure time")
            }
            JourneyError::WrongArrival { hop } => {
                write!(f, "arrival of hop {hop} does not match the edge latency")
            }
            JourneyError::WrongSource => write!(f, "journey does not start at the required node"),
        }
    }
}

impl Error for JourneyError {}

/// A journey: a sequence of hops (possibly empty — "stay where you are").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey<T> {
    hops: Vec<Hop<T>>,
}

impl<T: Time> Journey<T> {
    /// The empty journey.
    #[must_use]
    pub fn empty() -> Self {
        Journey { hops: Vec::new() }
    }

    /// A journey from a list of hops.
    #[must_use]
    pub fn from_hops(hops: Vec<Hop<T>>) -> Self {
        Journey { hops }
    }

    /// The hops, in travel order.
    #[must_use]
    pub fn hops(&self) -> &[Hop<T>] {
        &self.hops
    }

    /// Number of hops (the journey's *topological length*).
    #[must_use]
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// `true` iff the journey has no hops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Arrival instant of the last hop, if any.
    #[must_use]
    pub fn arrival(&self) -> Option<&T> {
        self.hops.last().map(|h| &h.arrive)
    }

    /// Departure instant of the first hop, if any.
    #[must_use]
    pub fn departure(&self) -> Option<&T> {
        self.hops.first().map(|h| &h.depart)
    }

    /// The journey's *temporal length* (duration): last arrival minus
    /// first departure. Zero for the empty journey.
    #[must_use]
    pub fn duration(&self) -> T {
        match (self.departure(), self.arrival()) {
            (Some(d), Some(a)) => a
                .checked_sub(d)
                .expect("arrivals never precede departures in a valid journey"),
            _ => T::zero(),
        }
    }

    /// The word spelled by the edge labels along `g`.
    #[must_use]
    pub fn word(&self, g: &Tvg<T>) -> Word {
        self.hops.iter().map(|h| g.edge(h.edge).label()).collect()
    }

    /// Destination node along `g` given the starting node.
    #[must_use]
    pub fn destination(&self, g: &Tvg<T>, start: NodeId) -> NodeId {
        self.hops.last().map_or(start, |h| g.edge(h.edge).dst())
    }

    /// Validates this journey against `g`.
    ///
    /// Checks: starts at `src`; hops are contiguous; the first hop departs
    /// no earlier than `start_time` and every pause (including the initial
    /// one) satisfies `policy`; every edge is present at its departure;
    /// every recorded arrival equals `depart + ζ(depart)`.
    ///
    /// # Errors
    ///
    /// Returns the first [`JourneyError`] encountered in travel order.
    pub fn validate(
        &self,
        g: &Tvg<T>,
        src: NodeId,
        start_time: &T,
        policy: &WaitingPolicy<T>,
    ) -> Result<(), JourneyError> {
        let mut at = src;
        let mut ready = start_time.clone();
        for (i, hop) in self.hops.iter().enumerate() {
            let edge = g.edge(hop.edge);
            if edge.src() != at {
                return Err(if i == 0 {
                    JourneyError::WrongSource
                } else {
                    JourneyError::Disconnected { hop: i }
                });
            }
            if hop.depart < ready {
                return Err(JourneyError::DepartsTooEarly { hop: i });
            }
            if !policy.admits(&ready, &hop.depart) {
                return Err(JourneyError::WaitTooLong { hop: i });
            }
            if !edge.presence().is_present(&hop.depart) {
                return Err(JourneyError::EdgeAbsent { hop: i });
            }
            match edge.latency().arrival(&hop.depart) {
                Some(a) if a == hop.arrive => {}
                _ => return Err(JourneyError::WrongArrival { hop: i }),
            }
            at = edge.dst();
            ready = hop.arrive.clone();
        }
        Ok(())
    }
}

impl<T: Time> Default for Journey<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: Time> fmt::Display for Journey<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hops.is_empty() {
            return write!(f, "(empty journey)");
        }
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}@{}→{}", hop.edge, hop.depart, hop.arrive)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tvg_model::{Latency, Presence, TvgBuilder};

    /// v0 --a(even t)--> v1 --b(t>3)--> v2, unit/2 latencies.
    fn g() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 2,
                phases: BTreeSet::from([0u64]),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::After(3u64), Latency::Const(2))
            .expect("valid");
        b.build().expect("valid")
    }

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn e(i: usize) -> EdgeId {
        EdgeId::from_index(i)
    }

    #[test]
    fn empty_journey_is_valid_everywhere() {
        let g = g();
        let j = Journey::<u64>::empty();
        for node in g.nodes() {
            assert!(j.validate(&g, node, &0, &WaitingPolicy::NoWait).is_ok());
        }
        assert_eq!(j.duration(), 0);
        assert!(j.word(&g).is_empty());
        assert_eq!(j.destination(&g, n(1)), n(1));
    }

    #[test]
    fn direct_journey_validates_under_all_policies() {
        let g = g();
        // Depart v0 at 4 (even), arrive v1 at 5... but edge b needs t>3 and
        // we arrive at 5: direct departure at 5 works.
        let j = Journey::from_hops(vec![
            Hop {
                edge: e(0),
                depart: 4,
                arrive: 5,
            },
            Hop {
                edge: e(1),
                depart: 5,
                arrive: 7,
            },
        ]);
        for policy in [
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(0),
            WaitingPolicy::Bounded(5),
            WaitingPolicy::Unbounded,
        ] {
            assert_eq!(j.validate(&g, n(0), &4, &policy), Ok(()), "{policy}");
        }
        assert_eq!(j.word(&g).to_string(), "ab");
        assert_eq!(j.duration(), 3);
        assert_eq!(j.destination(&g, n(0)), n(2));
    }

    #[test]
    fn indirect_journey_needs_waiting() {
        let g = g();
        // Depart v0 at 2, arrive v1 at 3; edge b absent at 3 (needs t>3),
        // so wait one unit and depart at 4.
        let j = Journey::from_hops(vec![
            Hop {
                edge: e(0),
                depart: 2,
                arrive: 3,
            },
            Hop {
                edge: e(1),
                depart: 4,
                arrive: 6,
            },
        ]);
        assert_eq!(
            j.validate(&g, n(0), &2, &WaitingPolicy::NoWait),
            Err(JourneyError::WaitTooLong { hop: 1 })
        );
        assert_eq!(j.validate(&g, n(0), &2, &WaitingPolicy::Bounded(1)), Ok(()));
        assert_eq!(j.validate(&g, n(0), &2, &WaitingPolicy::Unbounded), Ok(()));
    }

    #[test]
    fn initial_pause_counts_against_policy() {
        let g = g();
        // Ready at 1 but the 'a' edge is absent until 2.
        let j = Journey::from_hops(vec![Hop {
            edge: e(0),
            depart: 2,
            arrive: 3,
        }]);
        assert_eq!(
            j.validate(&g, n(0), &1, &WaitingPolicy::NoWait),
            Err(JourneyError::WaitTooLong { hop: 0 })
        );
        assert_eq!(j.validate(&g, n(0), &1, &WaitingPolicy::Bounded(1)), Ok(()));
    }

    #[test]
    fn structural_errors_detected() {
        let g = g();
        // Starts at the wrong node.
        let j = Journey::from_hops(vec![Hop {
            edge: e(1),
            depart: 4,
            arrive: 6,
        }]);
        assert_eq!(
            j.validate(&g, n(0), &4, &WaitingPolicy::Unbounded),
            Err(JourneyError::WrongSource)
        );
        // Disconnected second hop (e0 again from v1).
        let j = Journey::from_hops(vec![
            Hop {
                edge: e(0),
                depart: 4,
                arrive: 5,
            },
            Hop {
                edge: e(0),
                depart: 6,
                arrive: 7,
            },
        ]);
        assert_eq!(
            j.validate(&g, n(0), &4, &WaitingPolicy::Unbounded),
            Err(JourneyError::Disconnected { hop: 1 })
        );
    }

    #[test]
    fn temporal_errors_detected() {
        let g = g();
        // Departs before ready.
        let j = Journey::from_hops(vec![Hop {
            edge: e(0),
            depart: 2,
            arrive: 3,
        }]);
        assert_eq!(
            j.validate(&g, n(0), &4, &WaitingPolicy::Unbounded),
            Err(JourneyError::DepartsTooEarly { hop: 0 })
        );
        // Edge absent (odd t).
        let j = Journey::from_hops(vec![Hop {
            edge: e(0),
            depart: 5,
            arrive: 6,
        }]);
        assert_eq!(
            j.validate(&g, n(0), &5, &WaitingPolicy::Unbounded),
            Err(JourneyError::EdgeAbsent { hop: 0 })
        );
        // Wrong recorded arrival.
        let j = Journey::from_hops(vec![Hop {
            edge: e(0),
            depart: 4,
            arrive: 9,
        }]);
        assert_eq!(
            j.validate(&g, n(0), &4, &WaitingPolicy::Unbounded),
            Err(JourneyError::WrongArrival { hop: 0 })
        );
    }

    #[test]
    fn display_is_readable() {
        let j = Journey::from_hops(vec![Hop {
            edge: e(0),
            depart: 4u64,
            arrive: 5,
        }]);
        assert_eq!(j.to_string(), "e0@4→5");
        assert_eq!(Journey::<u64>::empty().to_string(), "(empty journey)");
    }
}
