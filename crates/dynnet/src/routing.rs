//! Unicast reachability over contact traces: the fraction of ordered
//! node pairs a journey connects under each waiting policy — the
//! unicast face of experiment E5.
//!
//! Where `broadcast` floods from one source, this module asks how the
//! waiting policy changes which `(src, dst)` pairs can communicate at
//! all, over the same trace-TVG.

use crate::EvolvingTrace;
use tvg_journeys::{Batch, BatchRunner, SearchLimits, WaitingPolicy};
use tvg_model::{NodeId, TvgIndex};

/// Fraction of ordered `(src, dst)` pairs deliverable under `policy`:
/// one compiled index, `n` single-source engine runs fanned out over the
/// batch runtime — not `n²` pairwise searches. Bit-identical at every
/// thread count.
#[must_use]
pub fn delivery_ratio(trace: &EvolvingTrace, start: u64, policy: &WaitingPolicy<u64>) -> f64 {
    let n = trace.num_nodes();
    if n < 2 {
        return 1.0;
    }
    let g = trace.to_tvg();
    let horizon = trace.len() as u64;
    let index = TvgIndex::compile(&g, horizon);
    let limits = SearchLimits::new(horizon, trace.len() + 1);
    let sources: Vec<NodeId> = g.nodes().collect();
    // Worker-side reduction: each tree collapses to its reached-count
    // immediately (only counts survive the batch, never n trees).
    let (counts, _stats) = BatchRunner::new(&index, Batch::auto()).map_sources(
        &sources,
        &start,
        policy,
        &limits,
        // Reached nodes include the source itself; ordered pairs
        // exclude it.
        |src, tree| tree.reached_nodes().filter(|node| *node != src).count(),
    );
    let delivered: usize = counts.into_iter().sum();
    delivered as f64 / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markovian::{edge_markovian_trace, EdgeMarkovianParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn waiting_never_hurts_delivery() {
        for seed in 0..5u64 {
            let params = EdgeMarkovianParams {
                num_nodes: 7,
                p_birth: 0.1,
                p_death: 0.45,
                steps: 25,
            };
            let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(seed), &params);
            let nw = delivery_ratio(&trace, 0, &WaitingPolicy::NoWait);
            let b2 = delivery_ratio(&trace, 0, &WaitingPolicy::Bounded(2));
            let un = delivery_ratio(&trace, 0, &WaitingPolicy::Unbounded);
            assert!(nw <= b2 + 1e-12, "seed {seed}");
            assert!(b2 <= un + 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn single_node_trivial() {
        let trace = EvolvingTrace::new(1, vec![BTreeSet::new()]);
        assert_eq!(delivery_ratio(&trace, 0, &WaitingPolicy::NoWait), 1.0);
    }
}
