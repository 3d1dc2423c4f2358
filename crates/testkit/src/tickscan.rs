//! The tick-scan reference searches — the pre-index journey search
//! implementations, preserved verbatim as oracles.
//!
//! `tvg-journeys` used to explore waiting windows tick by tick
//! (`depart.succ()` in a loop). The production searches now run on the
//! compiled [`tvg_model::TvgIndex`]; these functions keep the old
//! behavior alive as an independent reference that the equivalence
//! property suites compare the indexed engine against. An oracle must be
//! simpler than the thing under test: a linear scan of every instant is
//! as simple as journey search gets.
//!
//! Do not "optimize" these: their value is that they share no code with
//! the compiled path.

use std::collections::{BTreeMap, BTreeSet};
use tvg_journeys::{Hop, Journey, SearchLimits, WaitingPolicy};
use tvg_model::{EdgeId, NodeId, Time, Tvg};

/// All admissible single crossings from `node` when ready at `ready`,
/// found by scanning every instant of the policy window.
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

type ParentMap<T> = BTreeMap<(NodeId, T), (NodeId, T, EdgeId, T)>;

fn rebuild_journey<T: Time>(parents: &ParentMap<T>, mut state: (NodeId, T)) -> Journey<T> {
    let mut hops = Vec::new();
    while let Some((pn, pt, e, dep)) = parents.get(&state).cloned() {
        hops.push(Hop {
            edge: e,
            depart: dep,
            arrive: state.1.clone(),
        });
        state = (pn, pt);
    }
    hops.reverse();
    Journey::from_hops(hops)
}

/// Exhaustive reachable configuration set from `(src, start)` by
/// tick-scan breadth-first exploration.
fn reachable_configs<T: Time>(
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

/// Nodes reachable from `(src, start)` within the limits (tick-scan).
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

/// The foremost journey by time-ordered tick-scan exploration of the
/// `(node, time)` configuration space.
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
    let mut queue: BTreeSet<(T, NodeId, usize)> = BTreeSet::from([(start.clone(), src, 0)]);
    let mut seen: BTreeSet<(NodeId, T)> = BTreeSet::new();
    let mut parents: ParentMap<T> = BTreeMap::new();
    while let Some((time, node, hops)) = queue.pop_first() {
        if !seen.insert((node, time.clone())) {
            continue;
        }
        if node == dst {
            return Some(rebuild_journey(&parents, (node, time)));
        }
        if hops == limits.max_hops {
            continue;
        }
        for (e, dep, arr) in expansions(g, node, &time, policy, limits) {
            let succ = g.edge(e).dst();
            if !seen.contains(&(succ, arr.clone())) {
                parents
                    .entry((succ, arr.clone()))
                    .or_insert((node, time.clone(), e, dep));
                queue.insert((arr, succ, hops + 1));
            }
        }
    }
    None
}

/// The shortest journey by hop-layered tick-scan exploration.
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
    let mut seen: BTreeSet<(NodeId, T)> = BTreeSet::from([(src, start.clone())]);
    let mut parents: ParentMap<T> = BTreeMap::new();
    let mut frontier: Vec<(NodeId, T)> = vec![(src, start.clone())];
    for _ in 0..limits.max_hops {
        let mut next = Vec::new();
        for (node, ready) in &frontier {
            for (e, dep, arr) in expansions(g, *node, ready, policy, limits) {
                let succ = g.edge(e).dst();
                let state = (succ, arr.clone());
                if seen.insert(state.clone()) {
                    parents.insert(state.clone(), (*node, ready.clone(), e, dep));
                    if succ == dst {
                        return Some(rebuild_journey(&parents, state));
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

/// The fastest journey: every departure instant is tried by scanning
/// `[start, horizon]` tick by tick, with a pinned first hop and a
/// tick-scan foremost tail.
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
    let mut best: Option<Journey<T>> = None;
    let mut t = start.clone();
    while t <= limits.horizon {
        let departs_now = g
            .out_edges(src)
            .iter()
            .any(|&e| g.traverse(e, &t).is_some());
        if departs_now {
            let pinned = WaitingPolicy::NoWait;
            for (e, dep, arr) in expansions(g, src, &t, &pinned, limits) {
                let succ = g.edge(e).dst();
                let tail = foremost_journey(g, succ, dst, &arr, policy, limits);
                if let Some(tail) = tail {
                    let mut hops = vec![Hop {
                        edge: e,
                        depart: dep.clone(),
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
        t = t.succ();
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_model::{Latency, Presence, TvgBuilder};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Line v0 →a→ v1 →b→ v2 where b exists only at t = 5: the oracle
    /// must reproduce the store-carry-forward archetype by brute force.
    #[test]
    fn oracle_reproduces_the_waiting_archetype() {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(5u64), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let limits = SearchLimits::new(20, 10);
        assert!(foremost_journey(&g, n(0), n(2), &1, &WaitingPolicy::NoWait, &limits).is_none());
        let j = foremost_journey(&g, n(0), n(2), &1, &WaitingPolicy::Unbounded, &limits)
            .expect("waiting connects");
        assert_eq!(j.arrival(), Some(&6));
        assert_eq!(
            reachable_nodes(&g, n(0), &1, &WaitingPolicy::Bounded(3), &limits),
            BTreeSet::from([n(0), n(1), n(2)])
        );
        let s = shortest_journey(&g, n(0), n(2), &1, &WaitingPolicy::Unbounded, &limits)
            .expect("reachable");
        assert_eq!(s.num_hops(), 2);
        let f = fastest_journey(&g, n(0), n(2), &0, &WaitingPolicy::Unbounded, &limits)
            .expect("reachable");
        assert_eq!(f.duration(), 5);
    }
}
