//! Equivalence suite: the compiled single-source engine vs. the
//! tick-scan reference oracle (`tvg_testkit::tickscan`), across all
//! three waiting policies and all three optimality notions.
//!
//! The oracle is the pre-index implementation preserved verbatim; the
//! production searches share no scanning code with it. Agreement on
//! random periodic TVGs and on the paper fixtures is what licenses the
//! index as a pure performance change.

use rand::Rng;
use tvg_journeys::{
    engine::foremost_tree, fastest_journey, foremost_journey, shortest_journey, ReachabilityMatrix,
    SearchLimits, WaitingPolicy,
};
use tvg_model::{NodeId, Tvg, TvgIndex};
use tvg_testkit::{fixtures, gen, tickscan};

fn limits() -> SearchLimits<u64> {
    SearchLimits::new(25, 6)
}

/// The three policy regimes, with a case-specific waiting bound.
fn all_policies(bound: u64) -> [WaitingPolicy<u64>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(bound),
        WaitingPolicy::Unbounded,
    ]
}

fn n(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// Foremost equivalence on one graph: engine tree vs. per-pair oracle.
fn assert_foremost_matches(g: &Tvg<u64>, start: u64, limits: &SearchLimits<u64>, label: &str) {
    let index = TvgIndex::compile(g, limits.horizon);
    for policy in all_policies(3) {
        for src in g.nodes() {
            let tree = foremost_tree(&index, src, &start, &policy, limits);
            for dst in g.nodes() {
                if dst == src {
                    continue;
                }
                let oracle = tickscan::foremost_journey(g, src, dst, &start, &policy, limits);
                assert_eq!(
                    tree.arrival(dst),
                    oracle.as_ref().and_then(|j| j.arrival()),
                    "{label}: foremost {src}→{dst} under {policy} from {start}"
                );
                if let Some(j) = tree.journey_to(dst) {
                    assert_eq!(
                        j.validate(g, src, &start, &policy),
                        Ok(()),
                        "{label}: engine journey invalid {src}→{dst} under {policy}"
                    );
                    assert_eq!(j.destination(g, src), dst, "{label}: wrong destination");
                }
            }
        }
    }
}

#[test]
fn engine_foremost_matches_oracle_on_random_tvgs() {
    tvg_testkit::check("engine_foremost_matches_oracle_on_random_tvgs", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..6);
        let bound = rng.gen_range(0u64..5);
        let index = TvgIndex::compile(&g, limits().horizon);
        for policy in all_policies(bound) {
            for src in g.nodes() {
                let tree = foremost_tree(&index, src, &start, &policy, &limits());
                for dst in g.nodes() {
                    if dst == src {
                        continue;
                    }
                    let oracle =
                        tickscan::foremost_journey(&g, src, dst, &start, &policy, &limits());
                    assert_eq!(
                        tree.arrival(dst),
                        oracle.as_ref().and_then(|j| j.arrival()),
                        "foremost {src}→{dst} under {policy} from {start}"
                    );
                }
            }
        }
    });
}

#[test]
fn wrapper_foremost_matches_oracle_on_random_tvgs() {
    tvg_testkit::check(
        "wrapper_foremost_matches_oracle_on_random_tvgs",
        |rng, _| {
            let g = gen::periodic_tvg(rng);
            let start = rng.gen_range(0u64..6);
            let bound = rng.gen_range(0u64..5);
            let src = n(0);
            for policy in all_policies(bound) {
                for dst in g.nodes() {
                    let ours = foremost_journey(&g, src, dst, &start, &policy, &limits());
                    let oracle =
                        tickscan::foremost_journey(&g, src, dst, &start, &policy, &limits());
                    assert_eq!(
                        ours.is_some(),
                        oracle.is_some(),
                        "reachability {src}→{dst} under {policy}"
                    );
                    assert_eq!(
                        ours.as_ref().and_then(|j| j.arrival()),
                        oracle.as_ref().and_then(|j| j.arrival()),
                        "arrival {src}→{dst} under {policy}"
                    );
                }
            }
        },
    );
}

#[test]
fn shortest_matches_oracle_on_random_tvgs() {
    tvg_testkit::check("shortest_matches_oracle_on_random_tvgs", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..6);
        let bound = rng.gen_range(0u64..5);
        let src = n(0);
        for policy in all_policies(bound) {
            for dst in g.nodes() {
                let ours = shortest_journey(&g, src, dst, &start, &policy, &limits());
                let oracle = tickscan::shortest_journey(&g, src, dst, &start, &policy, &limits());
                assert_eq!(
                    ours.as_ref().map(tvg_journeys::Journey::num_hops),
                    oracle.as_ref().map(tvg_journeys::Journey::num_hops),
                    "shortest hops {src}→{dst} under {policy}"
                );
                if let Some(j) = &ours {
                    assert_eq!(j.validate(&g, src, &start, &policy), Ok(()), "{policy}");
                }
            }
        }
    });
}

#[test]
fn fastest_matches_oracle_on_random_tvgs() {
    tvg_testkit::check("fastest_matches_oracle_on_random_tvgs", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..4);
        let bound = rng.gen_range(0u64..5);
        let src = n(0);
        for policy in all_policies(bound) {
            for dst in g.nodes() {
                if dst == src {
                    continue;
                }
                let ours = fastest_journey(&g, src, dst, &start, &policy, &limits());
                let oracle = tickscan::fastest_journey(&g, src, dst, &start, &policy, &limits());
                assert_eq!(
                    ours.is_some(),
                    oracle.is_some(),
                    "fastest feasibility {src}→{dst} under {policy}"
                );
                assert_eq!(
                    ours.as_ref().map(tvg_journeys::Journey::duration),
                    oracle.as_ref().map(tvg_journeys::Journey::duration),
                    "fastest duration {src}→{dst} under {policy}"
                );
            }
        }
    });
}

#[test]
fn reachable_sets_match_oracle_on_random_tvgs() {
    tvg_testkit::check("reachable_sets_match_oracle_on_random_tvgs", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..6);
        let bound = rng.gen_range(0u64..5);
        let index = TvgIndex::compile(&g, limits().horizon);
        for policy in all_policies(bound) {
            for src in g.nodes() {
                let tree = foremost_tree(&index, src, &start, &policy, &limits());
                let reached: Vec<NodeId> =
                    g.nodes().filter(|&v| tree.arrival(v).is_some()).collect();
                let oracle: Vec<NodeId> =
                    tickscan::reachable_nodes(&g, src, &start, &policy, &limits())
                        .into_iter()
                        .collect();
                assert_eq!(reached, oracle, "reachable set from {src} under {policy}");
            }
        }
    });
}

#[test]
fn engine_matches_oracle_on_paper_fixtures() {
    assert_foremost_matches(
        &fixtures::commuter_line(),
        0,
        &SearchLimits::new(25, 6),
        "commuter",
    );
    assert_foremost_matches(
        &fixtures::commuter_line(),
        3,
        &SearchLimits::new(25, 6),
        "commuter@3",
    );
    assert_foremost_matches(
        &fixtures::ring_bus(5, 5),
        0,
        &SearchLimits::new(30, 8),
        "ring bus",
    );
    let params = fixtures::small_periodic_params(3);
    for seed in 0..4u64 {
        let g = fixtures::periodic_family_tvg(&params, seed);
        assert_foremost_matches(&g, 1, &SearchLimits::new(20, 5), &format!("family {seed}"));
    }
}

#[test]
fn reachability_matrix_matches_per_pair_oracle() {
    tvg_testkit::check_with(
        tvg_testkit::Config::named_with_cases("reachability_matrix_matches_per_pair_oracle", 24),
        |rng, _| {
            let g = gen::periodic_tvg(rng);
            let start = rng.gen_range(0u64..4);
            let bound = rng.gen_range(0u64..4);
            for policy in all_policies(bound) {
                let m = ReachabilityMatrix::compute(&g, &start, &policy, &limits());
                for src in g.nodes() {
                    for dst in g.nodes() {
                        if src == dst {
                            // The diagonal is the explicit trivial
                            // self-journey, never an "unreachable" hole.
                            assert_eq!(m.arrival(src, dst), Some(&start));
                            continue;
                        }
                        let oracle =
                            tickscan::foremost_journey(&g, src, dst, &start, &policy, &limits());
                        assert_eq!(
                            m.arrival(src, dst),
                            oracle.as_ref().and_then(|j| j.arrival()),
                            "matrix {src}→{dst} under {policy}"
                        );
                    }
                }
            }
        },
    );
}
