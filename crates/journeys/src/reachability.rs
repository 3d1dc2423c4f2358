//! Temporal reachability analysis.
//!
//! Aggregate views over journey search: who can reach whom, how fast, and
//! how much the waiting policy changes the picture — the quantitative
//! face of the paper's "waiting makes protocol design easier" claim.

use crate::batch::{Batch, BatchRunner};
use crate::engine::EngineStats;
use crate::{SearchLimits, WaitingPolicy};
use tvg_model::{NodeId, TemporalIndex, Time, Tvg, TvgIndex};

/// Foremost arrival times between all node pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityMatrix<T> {
    start: T,
    /// `arrivals[src][dst]`: earliest arrival, `None` if unreachable.
    arrivals: Vec<Vec<Option<T>>>,
    /// Summed engine work over the rows (`stats.runs == n`).
    stats: EngineStats,
}

impl<T: Time + Send + Sync> ReachabilityMatrix<T> {
    /// Computes the matrix for `g` with journeys starting at `start`:
    /// the index is compiled once and each row is one single-source
    /// engine run (n runs total, not n² pairwise searches), fanned out
    /// over the batch runtime at [`Batch::auto`]'s thread count. The
    /// result is bit-identical at every thread count.
    ///
    /// The diagonal is the trivial self-journey — every node "reaches"
    /// itself at `start` by the empty journey — modeled explicitly so an
    /// absent entry always means genuine unreachability.
    pub fn compute(
        g: &Tvg<T>,
        start: &T,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
    ) -> Self {
        let index = TvgIndex::compile(g, limits.horizon.clone());
        Self::compute_on(&index, start, policy, limits, Batch::auto())
    }

    /// [`ReachabilityMatrix::compute`] on an already-compiled
    /// index, for callers (like the scenario runtime) that hold one —
    /// avoids paying index compilation a second time. Generic over
    /// [`TemporalIndex`], so a mapped [`tvg_model::tvgi::ShardedIndex`]
    /// serves a matrix just like a freshly compiled [`TvgIndex`].
    pub fn compute_on<I: TemporalIndex<T> + Sync>(
        index: &I,
        start: &T,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        batch: Batch,
    ) -> Self {
        let n = index.num_nodes();
        let sources: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        // Worker-side reduction: each tree collapses to its matrix row
        // before the next query runs, so peak memory is O(workers)
        // trees, not n.
        let (arrivals, stats) = BatchRunner::new(index, batch).map_sources(
            &sources,
            start,
            policy,
            limits,
            |src, tree| {
                (0..n)
                    .map(NodeId::from_index)
                    .map(|dst| {
                        if dst == src {
                            Some(start.clone())
                        } else {
                            tree.arrival(dst).cloned()
                        }
                    })
                    .collect()
            },
        );
        ReachabilityMatrix {
            start: start.clone(),
            arrivals,
            stats,
        }
    }

    /// Summed engine work behind this matrix: exactly one single-source
    /// run per node, at any thread count.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

impl<T: Time> ReachabilityMatrix<T> {
    /// Earliest arrival from `src` to `dst`, `None` if unreachable.
    #[must_use]
    pub fn arrival(&self, src: NodeId, dst: NodeId) -> Option<&T> {
        self.arrivals[src.index()][dst.index()].as_ref()
    }

    /// Fraction of ordered node pairs `(src, dst)`, `src ≠ dst`, that are
    /// reachable. `1.0` for graphs with fewer than two nodes.
    #[must_use]
    pub fn reachability_ratio(&self) -> f64 {
        let n = self.arrivals.len();
        if n < 2 {
            return 1.0;
        }
        let mut reachable = 0usize;
        for (i, row) in self.arrivals.iter().enumerate() {
            for (j, a) in row.iter().enumerate() {
                if i != j && a.is_some() {
                    reachable += 1;
                }
            }
        }
        reachable as f64 / (n * (n - 1)) as f64
    }

    /// The *temporal eccentricity* of the whole graph: the latest foremost
    /// arrival over all reachable pairs, minus the start time. `None` if
    /// no pair is reachable.
    #[must_use]
    pub fn temporal_diameter(&self) -> Option<T> {
        let mut worst: Option<&T> = None;
        for (i, row) in self.arrivals.iter().enumerate() {
            for (j, a) in row.iter().enumerate() {
                if i == j {
                    continue;
                }
                if let Some(a) = a {
                    worst = Some(match worst {
                        None => a,
                        Some(w) if a > w => a,
                        Some(w) => w,
                    });
                }
            }
        }
        worst.map(|w| {
            w.checked_sub(&self.start)
                .expect("arrivals never precede the start time")
        })
    }

    /// `true` iff every ordered pair is reachable.
    #[must_use]
    pub fn is_temporally_connected(&self) -> bool {
        self.arrivals
            .iter()
            .enumerate()
            .all(|(i, row)| row.iter().enumerate().all(|(j, a)| i == j || a.is_some()))
    }

    /// Nodes that reach *every* other node — *temporal sources* in the
    /// TVG-class terminology of the framework paper (a graph with at
    /// least one temporal source supports broadcast from it).
    #[must_use]
    pub fn temporal_sources(&self) -> Vec<NodeId> {
        self.arrivals
            .iter()
            .enumerate()
            .filter(|(i, row)| row.iter().enumerate().all(|(j, a)| *i == j || a.is_some()))
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Nodes reachable from *every* other node — *temporal sinks*
    /// (a graph with a temporal sink supports gathering/aggregation).
    #[must_use]
    pub fn temporal_sinks(&self) -> Vec<NodeId> {
        let n = self.arrivals.len();
        (0..n)
            .filter(|&j| (0..n).all(|i| i == j || self.arrivals[i][j].is_some()))
            .map(NodeId::from_index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_model::{generators::ring_bus_tvg, Latency, Presence, TvgBuilder};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn ring_is_connected_with_waiting_only() {
        // Staggered ring: consecutive hops require waiting for the phase.
        let g = ring_bus_tvg(4, 4, 'r');
        let limits = SearchLimits::new(40, 12);
        let wait = ReachabilityMatrix::compute(&g, &0, &WaitingPolicy::Unbounded, &limits);
        assert!(wait.is_temporally_connected());
        assert_eq!(wait.reachability_ratio(), 1.0);

        let nowait = ReachabilityMatrix::compute(&g, &0, &WaitingPolicy::NoWait, &limits);
        // Phases are staggered by 1 and latency is 1, so direct journeys
        // happen to chain: edge i departs at phase i, arrives i+1 — the
        // ring is traversable directly from phase 0. Reachability is full
        // here; the *difference* shows on the staggered variant below.
        assert!(nowait.reachability_ratio() > 0.0);

        // Stagger by 2: arrival at phase i+1 but next departure at i+2 —
        // direct journeys break after one hop.
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        for i in 0..3usize {
            b.edge(
                v[i],
                v[(i + 1) % 3],
                'r',
                Presence::Periodic {
                    period: 6,
                    phases: std::collections::BTreeSet::from([(2 * i) as u64]),
                },
                Latency::unit(),
            )
            .expect("valid");
        }
        let g2 = b.build().expect("valid");
        let nowait2 = ReachabilityMatrix::compute(&g2, &0, &WaitingPolicy::NoWait, &limits);
        let wait2 = ReachabilityMatrix::compute(&g2, &0, &WaitingPolicy::Unbounded, &limits);
        assert!(wait2.is_temporally_connected());
        assert!(!nowait2.is_temporally_connected());
        assert!(nowait2.reachability_ratio() < wait2.reachability_ratio());
    }

    #[test]
    fn arrivals_and_diameter() {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::At(2u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(7u64), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let limits = SearchLimits::new(20, 5);
        let m = ReachabilityMatrix::compute(&g, &0, &WaitingPolicy::Unbounded, &limits);
        assert_eq!(m.arrival(n(0), n(1)), Some(&3));
        assert_eq!(m.arrival(n(0), n(2)), Some(&8));
        assert_eq!(m.arrival(n(2), n(0)), None);
        assert_eq!(m.temporal_diameter(), Some(8));
        assert!(!m.is_temporally_connected());
    }

    #[test]
    fn sources_and_sinks() {
        // Chain 0 → 1 → 2 with generous schedules: 0 is a source, 2 a sink.
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::Always, Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::Always, Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let m =
            ReachabilityMatrix::compute(&g, &0, &WaitingPolicy::NoWait, &SearchLimits::new(10, 4));
        assert_eq!(m.temporal_sources(), vec![n(0)]);
        assert_eq!(m.temporal_sinks(), vec![n(2)]);
        assert!(!m.is_temporally_connected());
    }

    #[test]
    fn compute_is_exactly_n_single_source_runs() {
        // The matrix must not fall back to per-pair searches: one engine
        // run per source node, measured by the summed per-run stats —
        // which hold at any worker thread count.
        let g = ring_bus_tvg(5, 5, 'r');
        let limits = SearchLimits::new(30, 10);
        let index = TvgIndex::compile(&g, limits.horizon);
        for policy in [
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(2),
            WaitingPolicy::Unbounded,
        ] {
            let serial = ReachabilityMatrix::compute_on(
                &index,
                &0,
                &policy,
                &limits,
                crate::batch::Batch::serial(),
            );
            assert_eq!(
                serial.stats().runs,
                g.num_nodes() as u64,
                "{policy}: expected one engine run per source"
            );
            let parallel = ReachabilityMatrix::compute_on(
                &index,
                &0,
                &policy,
                &limits,
                crate::batch::Batch::threads(4),
            );
            assert_eq!(parallel.stats(), serial.stats(), "{policy}");
            assert_eq!(
                parallel, serial,
                "{policy}: thread count changed the matrix"
            );
        }
    }

    #[test]
    fn single_node_graph() {
        let mut b = TvgBuilder::<u64>::new();
        b.node("only");
        let g = b.build().expect("valid");
        let m =
            ReachabilityMatrix::compute(&g, &0, &WaitingPolicy::NoWait, &SearchLimits::new(5, 3));
        assert!(m.is_temporally_connected());
        assert_eq!(m.reachability_ratio(), 1.0);
        assert_eq!(m.temporal_diameter(), None);
    }
}
