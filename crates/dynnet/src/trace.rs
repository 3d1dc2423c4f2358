//! Concrete evolving-graph traces: a dynamic network observed step by
//! step, convertible to a [`Tvg`] for journey analysis
//! ([`EvolvingTrace::to_tvg`]).

use std::collections::{BTreeMap, BTreeSet};
use tvg_model::{Latency, Presence, Tvg, TvgBuilder};

/// An undirected contact trace: for each discrete step, the set of node
/// pairs in contact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolvingTrace {
    num_nodes: usize,
    /// `snapshots[t]` holds normalized pairs `(min, max)`.
    snapshots: Vec<BTreeSet<(usize, usize)>>,
}

impl EvolvingTrace {
    /// A trace over `num_nodes` nodes with the given snapshots.
    ///
    /// Pairs are normalized to `(min, max)`; self-pairs and out-of-range
    /// nodes are rejected.
    ///
    /// # Panics
    ///
    /// Panics if a snapshot references a node `>= num_nodes` or a
    /// self-contact.
    #[must_use]
    pub fn new(num_nodes: usize, snapshots: Vec<BTreeSet<(usize, usize)>>) -> Self {
        let normalized: Vec<BTreeSet<(usize, usize)>> = snapshots
            .into_iter()
            .map(|snap| {
                snap.into_iter()
                    .map(|(a, b)| {
                        assert!(a != b, "self-contact in trace");
                        assert!(a < num_nodes && b < num_nodes, "node out of range in trace");
                        (a.min(b), a.max(b))
                    })
                    .collect::<BTreeSet<_>>()
            })
            .collect();
        EvolvingTrace {
            num_nodes,
            snapshots: normalized,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of observed steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// `true` iff the trace has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The contacts at step `t` (empty set beyond the trace).
    #[must_use]
    pub fn contacts_at(&self, t: usize) -> &BTreeSet<(usize, usize)> {
        static EMPTY: BTreeSet<(usize, usize)> = BTreeSet::new();
        self.snapshots.get(t).unwrap_or(&EMPTY)
    }

    /// Whether `u` and `v` are in contact at step `t`.
    #[must_use]
    pub fn in_contact(&self, u: usize, v: usize, t: usize) -> bool {
        self.contacts_at(t).contains(&(u.min(v), u.max(v)))
    }

    /// Average number of contacts per step.
    #[must_use]
    pub fn mean_contacts(&self) -> f64 {
        if self.snapshots.is_empty() {
            return 0.0;
        }
        let total: usize = self.snapshots.iter().map(BTreeSet::len).sum();
        total as f64 / self.snapshots.len() as f64
    }

    /// Converts the trace to a TVG: one directed edge per orientation of
    /// each pair that is ever in contact, presence = the exact contact
    /// instants, unit latency, label `c`.
    ///
    /// Journey searches over the result reproduce message propagation in
    /// the trace (a hop takes one step).
    #[must_use]
    pub fn to_tvg(&self) -> Tvg<u64> {
        let mut times: BTreeMap<(usize, usize), BTreeSet<u64>> = BTreeMap::new();
        for (t, snap) in self.snapshots.iter().enumerate() {
            for &(a, b) in snap {
                times.entry((a, b)).or_default().insert(t as u64);
            }
        }
        let mut builder = TvgBuilder::<u64>::new();
        let nodes = builder.nodes(self.num_nodes);
        for ((a, b), instants) in times {
            for (src, dst) in [(a, b), (b, a)] {
                builder
                    .edge(
                        nodes[src],
                        nodes[dst],
                        'c',
                        Presence::FiniteSet(instants.clone()),
                        Latency::unit(),
                    )
                    .expect("nodes are builder-owned");
            }
        }
        builder.build().expect("at least one node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_journeys::{foremost_journey, SearchLimits, WaitingPolicy};
    use tvg_model::NodeId;

    fn simple_trace() -> EvolvingTrace {
        // Step 0: 0-1 in contact; step 1: nothing; step 2: 1-2 in contact.
        EvolvingTrace::new(
            3,
            vec![
                BTreeSet::from([(0, 1)]),
                BTreeSet::new(),
                BTreeSet::from([(2, 1)]), // normalization test
            ],
        )
    }

    #[test]
    fn contacts_are_normalized_and_queryable() {
        let tr = simple_trace();
        assert!(tr.in_contact(0, 1, 0));
        assert!(tr.in_contact(1, 0, 0));
        assert!(tr.in_contact(1, 2, 2));
        assert!(tr.in_contact(2, 1, 2));
        assert!(!tr.in_contact(0, 1, 1));
        assert!(!tr.in_contact(0, 2, 0));
        assert!(!tr.in_contact(0, 1, 99));
    }

    #[test]
    fn stats() {
        let tr = simple_trace();
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.num_nodes(), 3);
        assert!((tr.mean_contacts() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(EvolvingTrace::new(2, vec![]).mean_contacts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn self_contacts_rejected() {
        let _ = EvolvingTrace::new(3, vec![BTreeSet::from([(1, 1)])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_checked() {
        let _ = EvolvingTrace::new(2, vec![BTreeSet::from([(0, 5)])]);
    }

    #[test]
    fn tvg_conversion_reproduces_store_carry_forward() {
        // 0→2 requires waiting at node 1 from step 1 to step 2.
        let tr = simple_trace();
        let g = tr.to_tvg();
        let limits = SearchLimits::new(tr.len() as u64, 5);
        let src = NodeId::from_index(0);
        let dst = NodeId::from_index(2);
        let direct = foremost_journey(&g, src, dst, &0, &WaitingPolicy::NoWait, &limits);
        assert!(direct.is_none());
        let waited = foremost_journey(&g, src, dst, &0, &WaitingPolicy::Unbounded, &limits)
            .expect("store-carry-forward connects");
        assert_eq!(waited.arrival(), Some(&3)); // 0→1 at 0..1, wait, 1→2 at 2..3
    }
}
