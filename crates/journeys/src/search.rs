//! Journey search: the three classic optimality notions over a compiled
//! temporal index.
//!
//! Three classic journey optimality notions are provided: *foremost*
//! (earliest arrival), *shortest* (fewest hops), and *fastest* (smallest
//! duration). Each compiles the graph into a [`TvgIndex`] for the
//! requested horizon and queries it — [`foremost_journey`] is a thin
//! wrapper over one single-source [`crate::engine`] run, and the other
//! two enumerate departures interval-by-interval instead of
//! tick-by-tick. Callers issuing many queries against one graph should
//! compile the index once themselves and use the engine directly.
//!
//! Dominance arguments ("earlier is always better") are only sound for
//! unbounded waiting; under `NoWait`/`Bounded(d)` an early arrival can be
//! a dead end while a later one connects, so those policies keep exact
//! `(node, time)` configuration exploration — the regime differences are
//! precisely what the experiments measure. The historical tick-scan
//! implementations survive as `tvg_testkit::tickscan`, the reference
//! oracle the equivalence suite checks this module against.
//!
//! [`expansions`] and [`reachable_configs`] remain window-bounded tick
//! scans on purpose: they are exhaustive-enumeration primitives (the
//! journey-language layer steps through them letter by letter) and must
//! work even for time domains whose horizons are too distant to
//! materialize (the theorem constructions run at `Nat` times like
//! `pⁿqⁿ⁻¹`).

use crate::engine::{foremost_to, rebuild, ParentMap};
use crate::{Hop, Journey, WaitingPolicy};
use std::collections::{BTreeMap, BTreeSet};
use tvg_model::{EdgeId, NodeId, TemporalIndex, Time, Tvg, TvgIndex};

/// Hard bounds on a journey search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchLimits<T> {
    /// Latest admissible *departure* instant (arrivals may exceed it).
    pub horizon: T,
    /// Maximum number of hops explored.
    pub max_hops: usize,
}

impl<T: Time> SearchLimits<T> {
    /// Limits with the given horizon and a hop bound.
    #[must_use]
    pub fn new(horizon: T, max_hops: usize) -> Self {
        SearchLimits { horizon, max_hops }
    }
}

/// All admissible single crossings from `node` when ready at `ready`:
/// `(edge, depart, arrive)` triples, departures within the policy window
/// and the horizon.
pub fn expansions<T: Time>(
    g: &Tvg<T>,
    node: NodeId,
    ready: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> Vec<(EdgeId, T, T)> {
    let mut out = Vec::new();
    let Some(latest) = policy.latest_departure(ready, &limits.horizon) else {
        return out;
    };
    for &e in g.out_edges(node) {
        let mut depart = ready.clone();
        while depart <= latest {
            if let Some(arrive) = g.traverse(e, &depart) {
                out.push((e, depart.clone(), arrive));
            }
            depart = depart.succ();
        }
    }
    out
}

/// Exhaustive reachable configuration set from `(src, start)`.
///
/// Returns every `(node, arrival-time)` configuration reachable within the
/// limits, including the start itself.
pub fn reachable_configs<T: Time>(
    g: &Tvg<T>,
    src: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> BTreeSet<(NodeId, T)> {
    let mut seen: BTreeSet<(NodeId, T)> = BTreeSet::from([(src, start.clone())]);
    let mut frontier = vec![(src, start.clone())];
    for _ in 0..limits.max_hops {
        let mut next = Vec::new();
        for (node, ready) in &frontier {
            for (e, _dep, arr) in expansions(g, *node, ready, policy, limits) {
                let state = (g.edge(e).dst(), arr);
                if seen.insert(state.clone()) {
                    next.push(state);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen
}

/// Nodes reachable from `(src, start)` within the limits.
pub fn reachable_nodes<T: Time>(
    g: &Tvg<T>,
    src: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> BTreeSet<NodeId> {
    reachable_configs(g, src, start, policy, limits)
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// The *foremost* journey: reaches `dst` with the earliest possible
/// arrival. `None` if `dst` is unreachable within the limits.
///
/// Thin wrapper: compiles a [`TvgIndex`] for the horizon and runs one
/// single-source [`crate::engine`] pass. For many queries over one
/// graph, compile the index once and call the engine directly.
pub fn foremost_journey<T: Time>(
    g: &Tvg<T>,
    src: NodeId,
    dst: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> Option<Journey<T>> {
    if src == dst {
        return Some(Journey::empty());
    }
    let index = TvgIndex::compile(g, limits.horizon.clone());
    foremost_to(&index, src, dst, start, policy, limits)
}

/// The *shortest* journey: reaches `dst` with the fewest hops.
///
/// Breadth-first over hop layers on the compiled index; within a layer,
/// departures are enumerated interval-by-interval.
pub fn shortest_journey<T: Time>(
    g: &Tvg<T>,
    src: NodeId,
    dst: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> Option<Journey<T>> {
    if src == dst {
        return Some(Journey::empty());
    }
    let index = TvgIndex::compile(g, limits.horizon.clone());
    let mut seen: BTreeSet<(NodeId, T)> = BTreeSet::from([(src, start.clone())]);
    let mut parents: ParentMap<T> = BTreeMap::new();
    let mut frontier: Vec<(NodeId, T)> = vec![(src, start.clone())];
    for _ in 0..limits.max_hops {
        let mut next = Vec::new();
        for (node, ready) in &frontier {
            let Some(latest) = policy.latest_departure(ready, &limits.horizon) else {
                continue;
            };
            for (e, dep, arr) in index.crossings(*node, ready, &latest) {
                let succ = index.tvg().edge(e).dst();
                let state = (succ, arr.clone());
                if seen.insert(state.clone()) {
                    parents.insert(state.clone(), (*node, ready.clone(), e, dep));
                    if succ == dst {
                        return Some(rebuild(&parents, state));
                    }
                    next.push(state);
                }
            }
        }
        if next.is_empty() {
            return None;
        }
        frontier = next;
    }
    None
}

/// The *fastest* journey: smallest duration (last arrival minus first
/// departure), allowed to delay its departure to any instant in
/// `[start, horizon]`.
///
/// Compiles the index once, then tries only the instants at which some
/// out-edge of `src` actually departs (skipping empty ticks entirely);
/// each candidate pins the first hop and completes with a single-source
/// foremost pass from its endpoint.
pub fn fastest_journey<T: Time>(
    g: &Tvg<T>,
    src: NodeId,
    dst: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> Option<Journey<T>> {
    if src == dst {
        return Some(Journey::empty());
    }
    let index = TvgIndex::compile(g, limits.horizon.clone());
    // Candidate first-hop departures: the union of the source's out-edge
    // presence instants within [start, horizon], in increasing order.
    let departures: BTreeSet<T> = index
        .out_edges(src)
        .iter()
        .flat_map(|&e| index.departures_within(e, start, &limits.horizon))
        .collect();
    let mut best: Option<Journey<T>> = None;
    for t in departures {
        for &e in index.out_edges(src) {
            if !index.is_present(e, &t) {
                continue;
            }
            let Some(arr) = index.arrival(e, &t) else {
                continue;
            };
            let succ = index.tvg().edge(e).dst();
            let tail = if succ == dst {
                Some(Journey::empty())
            } else {
                foremost_to(&index, succ, dst, &arr, policy, limits)
            };
            if let Some(tail) = tail {
                let mut hops = vec![Hop {
                    edge: e,
                    depart: t.clone(),
                    arrive: arr.clone(),
                }];
                hops.extend(tail.hops().iter().cloned());
                let candidate = Journey::from_hops(hops);
                let better = match &best {
                    None => true,
                    Some(b) => candidate.duration() < b.duration(),
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet as Set;
    use tvg_model::{Latency, Presence, TvgBuilder};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Line v0 →a→ v1 →b→ v2 where b exists only at t = 5.
    fn line_gap() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(5u64), Latency::unit())
            .expect("valid");
        b.build().expect("valid")
    }

    fn limits() -> SearchLimits<u64> {
        SearchLimits::new(20, 10)
    }

    #[test]
    fn waiting_separates_reachability() {
        // The archetypal store-carry-forward situation: the connection at
        // v1 requires waiting 3 units.
        let g = line_gap();
        let no = reachable_nodes(&g, n(0), &1, &WaitingPolicy::NoWait, &limits());
        assert_eq!(no, Set::from([n(0), n(1)]));
        let b2 = reachable_nodes(&g, n(0), &1, &WaitingPolicy::Bounded(2), &limits());
        assert_eq!(b2, Set::from([n(0), n(1)]));
        let b3 = reachable_nodes(&g, n(0), &1, &WaitingPolicy::Bounded(3), &limits());
        assert_eq!(b3, Set::from([n(0), n(1), n(2)]));
        let un = reachable_nodes(&g, n(0), &1, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(un, Set::from([n(0), n(1), n(2)]));
    }

    #[test]
    fn foremost_journey_is_earliest() {
        let g = line_gap();
        let j = foremost_journey(&g, n(0), n(2), &1, &WaitingPolicy::Unbounded, &limits())
            .expect("reachable with waiting");
        assert_eq!(j.arrival(), Some(&6)); // depart 1→2 (a), wait, 5→6 (b)
        assert_eq!(j.num_hops(), 2);
        assert_eq!(j.word(&g).to_string(), "ab");
        assert_eq!(j.validate(&g, n(0), &1, &WaitingPolicy::Unbounded), Ok(()));
        assert!(foremost_journey(&g, n(0), n(2), &1, &WaitingPolicy::NoWait, &limits()).is_none());
    }

    #[test]
    fn foremost_prefers_early_arrival_over_few_hops() {
        // Two routes to v3: direct edge at t=9 (1 hop) vs two hops arriving
        // at 3.
        let mut b = TvgBuilder::new();
        let v = b.nodes(4);
        b.edge(v[0], v[3], 'd', Presence::At(9u64), Latency::unit())
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[3], 'b', Presence::At(2u64), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let j = foremost_journey(&g, n(0), n(3), &1, &WaitingPolicy::Unbounded, &limits())
            .expect("reachable");
        assert_eq!(j.arrival(), Some(&3));
        assert_eq!(j.num_hops(), 2);

        let s = shortest_journey(&g, n(0), n(3), &1, &WaitingPolicy::Unbounded, &limits())
            .expect("reachable");
        assert_eq!(s.num_hops(), 1);
        assert_eq!(s.arrival(), Some(&10));
    }

    #[test]
    fn fastest_delays_departure() {
        // Departing immediately means waiting mid-route (long duration);
        // departing late gives a 2-unit trip.
        let g = line_gap();
        let f = fastest_journey(&g, n(0), n(2), &0, &WaitingPolicy::Unbounded, &limits())
            .expect("reachable");
        // Only departure of edge a is t=1, so fastest = foremost here:
        // duration 6 - 1 = 5.
        assert_eq!(f.duration(), 5);

        // Add a second 'a' departure at t=4 → duration 4→6 = 2.
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::FiniteSet(Set::from([1u64, 4])),
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(5u64), Latency::unit())
            .expect("valid");
        let g2 = b.build().expect("valid");
        let f2 = fastest_journey(&g2, n(0), n(2), &0, &WaitingPolicy::Unbounded, &limits())
            .expect("reachable");
        assert_eq!(f2.duration(), 2);
        assert_eq!(f2.departure(), Some(&4));
    }

    #[test]
    fn trivial_source_equals_destination() {
        let g = line_gap();
        let p = WaitingPolicy::NoWait;
        let j = foremost_journey(&g, n(1), n(1), &0, &p, &limits()).expect("trivial");
        assert!(j.is_empty());
        let j = shortest_journey(&g, n(1), n(1), &0, &p, &limits()).expect("trivial");
        assert!(j.is_empty());
        let j = fastest_journey(&g, n(1), n(1), &0, &p, &limits()).expect("trivial");
        assert!(j.is_empty());
    }

    #[test]
    fn horizon_cuts_search() {
        let g = line_gap();
        let tight = SearchLimits::new(4, 10); // departure at 5 excluded
        assert!(foremost_journey(&g, n(0), n(2), &1, &WaitingPolicy::Unbounded, &tight).is_none());
    }

    #[test]
    fn hop_limit_cuts_search() {
        let g = line_gap();
        let tight = SearchLimits::new(20, 1);
        assert!(foremost_journey(&g, n(0), n(2), &1, &WaitingPolicy::Unbounded, &tight).is_none());
    }

    #[test]
    fn journeys_found_are_valid() {
        let g = line_gap();
        for policy in [WaitingPolicy::Bounded(3), WaitingPolicy::Unbounded] {
            let j = foremost_journey(&g, n(0), n(2), &1, &policy, &limits()).expect("reachable");
            assert_eq!(j.validate(&g, n(0), &1, &policy), Ok(()), "{policy}");
        }
    }

    #[test]
    fn expansions_respect_policy_window() {
        let g = line_gap();
        // Ready at 1: edge a departs at 1 only.
        let exp = expansions(&g, n(0), &1, &WaitingPolicy::NoWait, &limits());
        assert_eq!(exp.len(), 1);
        // Ready at 0: NoWait can't take the t=1 departure.
        let exp0 = expansions(&g, n(0), &0, &WaitingPolicy::NoWait, &limits());
        assert!(exp0.is_empty());
        // Bounded(1) from 0 can.
        let exp1 = expansions(&g, n(0), &0, &WaitingPolicy::Bounded(1), &limits());
        assert_eq!(exp1.len(), 1);
    }
}
