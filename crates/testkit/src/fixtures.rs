//! Named deterministic fixtures: the paper's constructions at standard
//! parameters, shared by unit, integration, and bench suites.

use std::collections::BTreeSet;
use tvg_expressivity::anbn::AnbnAutomaton;
use tvg_expressivity::TvgAutomaton;
use tvg_langs::Alphabet;
use tvg_model::generators::{
    line_timetable_tvg, random_periodic_tvg, ring_bus_tvg, scale_free_temporal,
    RandomPeriodicParams,
};
use tvg_model::{NodeId, Tvg};

/// The Figure-1 automaton at the paper's smallest parameters `p=2, q=3`.
#[must_use]
pub fn figure1() -> AnbnAutomaton {
    AnbnAutomaton::smallest()
}

/// The Figure-1 automaton for arbitrary distinct primes.
///
/// # Panics
///
/// Panics if the parameters are not distinct primes (fixtures are for
/// tests; invalid parameters are a test bug).
#[must_use]
pub fn figure1_pq(p: u64, q: u64) -> AnbnAutomaton {
    AnbnAutomaton::new(p, q).expect("fixture parameters must be distinct primes")
}

/// The commuter-line timetable used by `examples/bus_network.rs` and the
/// user-story suite: four stops, three timetabled hops, label `'t'`.
#[must_use]
pub fn commuter_line() -> Tvg<u64> {
    let timetable = vec![
        BTreeSet::from([2u64, 10, 18]),
        BTreeSet::from([5u64, 13, 21]),
        BTreeSet::from([6u64, 14, 22]),
    ];
    line_timetable_tvg(4, &timetable, 't')
}

/// A staggered circular bus line: `n` stops, period `period`, label `'r'`.
#[must_use]
pub fn ring_bus(n: usize, period: u64) -> Tvg<u64> {
    ring_bus_tvg(n, period, 'r')
}

/// Horizon the [`scale_free`] fixture's contacts are drawn below (and
/// the natural index/search horizon for it).
pub const SCALE_FREE_HORIZON: u64 = 48;

/// The standard scale-free temporal contact fixture at `n` nodes:
/// preferential-attachment topology, contact instants below
/// [`SCALE_FREE_HORIZON`], fixed seed. The test-scale face of the E8
/// batch workload (the bench regenerates it at much larger `n`).
#[must_use]
pub fn scale_free(n: usize) -> Tvg<u64> {
    scale_free_temporal(n, SCALE_FREE_HORIZON, 17)
}

/// The standard small random-periodic family at a given period —
/// the scale the E3/E4 cross-checking experiments run at.
#[must_use]
pub fn small_periodic_params(period: u64) -> RandomPeriodicParams {
    RandomPeriodicParams {
        num_nodes: 4,
        num_edges: 7,
        period,
        phase_density: 0.5,
        alphabet: Alphabet::ab(),
    }
}

/// The `seed`-th member of a random-periodic TVG family.
#[must_use]
pub fn periodic_family_tvg(params: &RandomPeriodicParams, seed: u64) -> Tvg<u64> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    random_periodic_tvg(&mut StdRng::seed_from_u64(seed), params)
}

/// The `seed`-th member of a random-periodic family as a TVG-automaton
/// (initial = node 0, accepting = last node, start time 0).
#[must_use]
pub fn periodic_family_automaton(params: &RandomPeriodicParams, seed: u64) -> TvgAutomaton<u64> {
    TvgAutomaton::new(
        periodic_family_tvg(params, seed),
        BTreeSet::from([NodeId::from_index(0)]),
        BTreeSet::from([NodeId::from_index(params.num_nodes - 1)]),
        0,
    )
    .expect("family automaton is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_expressivity::anbn::{anbn_word, is_anbn};

    #[test]
    fn figure1_fixture_is_the_paper_instance() {
        let aut = figure1();
        assert_eq!((aut.p(), aut.q()), (2, 3));
        assert!(aut.accepts_nowait(&anbn_word(3)));
        assert!(is_anbn(&anbn_word(3)));
    }

    #[test]
    fn commuter_line_shape() {
        let line = commuter_line();
        assert_eq!(line.num_nodes(), 4);
        assert_eq!(line.num_edges(), 3);
    }

    #[test]
    fn periodic_family_is_reproducible() {
        let params = small_periodic_params(3);
        let a = periodic_family_automaton(&params, 9);
        let b = periodic_family_automaton(&params, 9);
        assert_eq!(a.tvg().num_edges(), b.tvg().num_edges());
        for (e1, e2) in a.tvg().edges().zip(b.tvg().edges()) {
            assert_eq!(a.tvg().edge(e1).label(), b.tvg().edge(e2).label());
        }
    }
}
