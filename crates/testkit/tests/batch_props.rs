//! Batch determinism property suite: the scoped-thread batch runtime
//! must be a pure performance change, bit-identical to the serial
//! engine at every thread count.
//!
//! Coverage follows the equivalence-suite pattern of
//! `engine_equiv.rs`: all three waiting policies, on the paper's
//! Figure-1 construction (over `Nat` times — the batch layer is generic
//! in the time domain), the periodic fixtures (commuter line, ring bus,
//! random-periodic families), and the new scale-free temporal workload.
//! Arrivals *and* witness journeys are compared, plus the `EngineStats`
//! accounting ("n sources ⇒ exactly n runs") across thread counts.

use rand::Rng;
use tvg_bigint::Nat;
use tvg_journeys::{
    foremost_tree, Batch, BatchRunner, EngineStats, ReachabilityMatrix, SearchLimits, WaitingPolicy,
};
use tvg_model::{NodeId, TvgIndex};
use tvg_testkit::batchcheck::{
    assert_all_sources_batch_matches_serial, assert_batch_matches_serial,
};
use tvg_testkit::{fixtures, gen};

fn policies_u64(bound: u64) -> [WaitingPolicy<u64>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(bound),
        WaitingPolicy::Unbounded,
    ]
}

#[test]
fn batch_matches_serial_on_periodic_fixtures() {
    let commuter = fixtures::commuter_line();
    let ring = fixtures::ring_bus(6, 6);
    for (g, label) in [(&commuter, "commuter"), (&ring, "ring bus")] {
        let limits = SearchLimits::new(30, 8);
        let index = TvgIndex::compile(g, limits.horizon);
        for policy in policies_u64(3) {
            assert_all_sources_batch_matches_serial(&index, &0, &policy, &limits, label);
        }
    }
}

#[test]
fn batch_matches_serial_on_random_periodic_tvgs() {
    tvg_testkit::check_with(
        tvg_testkit::Config::named_with_cases("batch_matches_serial_on_random_periodic_tvgs", 12),
        |rng, _| {
            let g = gen::periodic_tvg(rng);
            let start = rng.gen_range(0u64..5);
            let bound = rng.gen_range(0u64..4);
            let limits = SearchLimits::new(25, 6);
            let index = TvgIndex::compile(&g, limits.horizon);
            for policy in policies_u64(bound) {
                assert_all_sources_batch_matches_serial(
                    &index,
                    &start,
                    &policy,
                    &limits,
                    "random periodic",
                );
            }
        },
    );
}

#[test]
fn batch_matches_serial_on_scale_free_fixture() {
    let g = fixtures::scale_free(48);
    let limits = SearchLimits::new(fixtures::SCALE_FREE_HORIZON, 10);
    let index = TvgIndex::compile(&g, limits.horizon);
    for policy in policies_u64(2) {
        assert_all_sources_batch_matches_serial(&index, &0, &policy, &limits, "scale-free");
    }
    // Multi-seed sets too: re-emitting sources (the broadcast shape).
    let seed_sets: Vec<Vec<(NodeId, u64)>> = (0..8)
        .map(|i| {
            (0..4u64)
                .map(|t| (NodeId::from_index(i * 5), 2 * t))
                .collect()
        })
        .collect();
    for policy in policies_u64(2) {
        assert_batch_matches_serial(
            &index,
            &seed_sets,
            &policy,
            &limits,
            "scale-free multi-seed",
        );
    }
}

#[test]
fn batch_matches_serial_on_figure1_nat_times() {
    // The Figure-1 construction runs over bigint times: the batch layer
    // must be generic in the time domain, not a u64 special case.
    let aut = fixtures::figure1();
    let g = aut.automaton().tvg();
    let limits = aut.limits_for(6);
    let index = TvgIndex::compile(g, limits.horizon.clone());
    let policies: [WaitingPolicy<Nat>; 3] = [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(Nat::from(2u64)),
        WaitingPolicy::Unbounded,
    ];
    for policy in &policies {
        assert_all_sources_batch_matches_serial(&index, &Nat::zero(), policy, &limits, "figure-1");
    }
}

#[test]
fn n_sources_is_exactly_n_runs_at_every_thread_count() {
    let g = fixtures::scale_free(30);
    let limits = SearchLimits::new(fixtures::SCALE_FREE_HORIZON, 8);
    let index = TvgIndex::compile(&g, limits.horizon);
    let sources: Vec<NodeId> = g.nodes().collect();
    for policy in policies_u64(2) {
        let serial: EngineStats = sources
            .iter()
            .map(|&src| foremost_tree(&index, src, &0, &policy, &limits).stats())
            .sum();
        for threads in [1usize, 2, 4, 8] {
            let (_, stats) = BatchRunner::new(&index, Batch::threads(threads)).map_sources(
                &sources,
                &0,
                &policy,
                &limits,
                |_, _| (),
            );
            assert_eq!(
                stats.runs,
                sources.len() as u64,
                "{policy} x{threads}: one engine run per source, no more, no fewer"
            );
            // The *whole* accounting (settled configurations, expanded
            // crossings) is the serial runs' sum, not just the run count.
            assert_eq!(stats, serial, "{policy} x{threads}");
        }
    }
}

#[test]
fn reachability_matrix_is_thread_count_invariant() {
    let g = fixtures::scale_free(36);
    let limits = SearchLimits::new(fixtures::SCALE_FREE_HORIZON, 10);
    for policy in policies_u64(3) {
        let serial = ReachabilityMatrix::compute_with(&g, &1, &policy, &limits, Batch::serial());
        for threads in [2usize, 4, 8] {
            let parallel =
                ReachabilityMatrix::compute_with(&g, &1, &policy, &limits, Batch::threads(threads));
            assert_eq!(parallel, serial, "{policy} x{threads}");
        }
        assert_eq!(serial.stats().runs, g.num_nodes() as u64, "{policy}");
    }
}
