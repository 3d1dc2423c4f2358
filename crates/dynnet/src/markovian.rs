//! Edge-Markovian evolving graphs — the standard random model of highly
//! dynamic networks.
//!
//! Every unordered node pair evolves as an independent two-state Markov
//! chain: an absent edge appears with probability `p_birth` per step, a
//! present edge disappears with probability `p_death`. Low birth/high
//! death rates yield the sparse, disconnected-at-every-instant regime the
//! paper's introduction targets; experiment E5 sweeps these rates.

use crate::EvolvingTrace;
use rand::Rng;
use std::collections::BTreeSet;

/// Parameters of an edge-Markovian trace.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeMarkovianParams {
    /// Number of nodes.
    pub num_nodes: usize,
    /// Per-step appearance probability of an absent edge, in `[0, 1]`.
    pub p_birth: f64,
    /// Per-step disappearance probability of a present edge, in `[0, 1]`.
    pub p_death: f64,
    /// Number of steps to generate.
    pub steps: usize,
}

impl EdgeMarkovianParams {
    /// The stationary probability that an edge is present:
    /// `p_birth / (p_birth + p_death)` (define 0 when both rates are 0).
    #[must_use]
    pub fn stationary_density(&self) -> f64 {
        let denom = self.p_birth + self.p_death;
        if denom == 0.0 {
            0.0
        } else {
            self.p_birth / denom
        }
    }
}

/// Generates an edge-Markovian contact trace, starting from the
/// stationary distribution.
///
/// # Panics
///
/// Panics if a probability is outside `[0, 1]` or `num_nodes < 2`.
pub fn edge_markovian_trace<R: Rng + ?Sized>(
    rng: &mut R,
    params: &EdgeMarkovianParams,
) -> EvolvingTrace {
    assert!(params.num_nodes >= 2, "need at least two nodes");
    for p in [params.p_birth, params.p_death] {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
    }
    let n = params.num_nodes;
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .collect();
    let density = params.stationary_density();
    let mut present: Vec<bool> = pairs.iter().map(|_| rng.gen_bool(density)).collect();
    let mut snapshots = Vec::with_capacity(params.steps);
    for _ in 0..params.steps {
        let snap: BTreeSet<(usize, usize)> = pairs
            .iter()
            .zip(&present)
            .filter(|(_, &p)| p)
            .map(|(&pair, _)| pair)
            .collect();
        snapshots.push(snap);
        for state in &mut present {
            *state = if *state {
                !rng.gen_bool(params.p_death)
            } else {
                rng.gen_bool(params.p_birth)
            };
        }
    }
    EvolvingTrace::new(n, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reproducible_from_seed() {
        let params = EdgeMarkovianParams {
            num_nodes: 6,
            p_birth: 0.2,
            p_death: 0.5,
            steps: 30,
        };
        let a = edge_markovian_trace(&mut StdRng::seed_from_u64(1), &params);
        let b = edge_markovian_trace(&mut StdRng::seed_from_u64(1), &params);
        assert_eq!(a, b);
    }

    #[test]
    fn stationary_density_formula() {
        let p = EdgeMarkovianParams {
            num_nodes: 2,
            p_birth: 0.1,
            p_death: 0.3,
            steps: 1,
        };
        assert!((p.stationary_density() - 0.25).abs() < 1e-12);
        let z = EdgeMarkovianParams {
            num_nodes: 2,
            p_birth: 0.0,
            p_death: 0.0,
            steps: 1,
        };
        assert_eq!(z.stationary_density(), 0.0);
    }

    #[test]
    fn empirical_density_tracks_stationary() {
        let params = EdgeMarkovianParams {
            num_nodes: 10,
            p_birth: 0.15,
            p_death: 0.45,
            steps: 400,
        };
        let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(7), &params);
        let total_pairs = 45.0; // C(10, 2)
        let contacts: usize = (0..trace.len()).map(|t| trace.contacts_at(t).len()).sum();
        let observed = contacts as f64 / trace.len() as f64 / total_pairs;
        let expected = params.stationary_density();
        assert!(
            (observed - expected).abs() < 0.05,
            "observed {observed}, expected {expected}"
        );
    }

    #[test]
    fn extreme_rates() {
        let always = EdgeMarkovianParams {
            num_nodes: 4,
            p_birth: 1.0,
            p_death: 0.0,
            steps: 5,
        };
        let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(3), &always);
        for t in 0..trace.len() {
            assert_eq!(trace.contacts_at(t).len(), 6, "complete graph at {t}");
        }
        let never = EdgeMarkovianParams {
            num_nodes: 4,
            p_birth: 0.0,
            p_death: 1.0,
            steps: 5,
        };
        let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(3), &never);
        for t in 0..trace.len() {
            assert!(trace.contacts_at(t).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn probabilities_validated() {
        let params = EdgeMarkovianParams {
            num_nodes: 3,
            p_birth: 1.5,
            p_death: 0.1,
            steps: 1,
        };
        let _ = edge_markovian_trace(&mut StdRng::seed_from_u64(0), &params);
    }
}
