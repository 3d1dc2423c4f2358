//! Differential properties for the PR-7 engine overhaul: the
//! monomorphized, arena-backed production cores must be *bit-identical*
//! — arrivals, witness journeys, and [`EngineStats`] — to the
//! pre-overhaul generic explorer preserved in
//! [`tvg_testkit::refengine`].
//!
//! The overhaul is licensed as a pure representation change; any
//! divergence caught here (an arrival off by one, a different witness,
//! a settle or expansion miscount) is a correctness bug, not a tuning
//! regression. The suite sweeps the 3 waiting policies × the Figure-1
//! (bigint times), random-periodic, and scale-free fixtures, the
//! narrowed `u32` time domain, the multi-seed and early-exit entry
//! points, the resumable core under `IncrementalForemost` replay, and
//! one [`Engine`] reused across a shuffled query sequence.
//!
//! The exact explorer's departure coverage (a bounded-wait crossing
//! already generated from a node is counted, not regenerated, when the
//! same node departs again with no fewer hops) is pinned the same way:
//! on a dense edge-Markovian graph where `max_hops` binds, on a `u32`
//! graph whose constant latency overflows inside covered windows, and
//! under latencies not known to be monotone.
//!
//! Its per-node departure schedule (out-edge spans merged lazily by
//! start, walked in out-edge order) is pinned on dense multigraphs:
//! twenty or more out-edges per node, parallel edges, self-loops and
//! short interleaved spans, under `NoWait` and every `wait[d]` up to 12.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tvg_bigint::Nat;
use tvg_journeys::engine::{foremost_tree, foremost_tree_multi};
use tvg_journeys::{Engine, IncrementalForemost, SearchLimits, WaitingPolicy};
use tvg_model::generators::edge_markovian_contacts;
use tvg_model::stream::TvgStream;
use tvg_model::{
    narrow_tvg, Latency, NodeId, Presence, TemporalIndex, Time, Tvg, TvgBuilder, TvgIndex,
};
use tvg_testkit::fixtures;
use tvg_testkit::refengine::ref_foremost_tree;
use tvg_testkit::tickscan;

/// The three policy regimes over any time domain.
fn all_policies<T: Time>(bound: u64) -> [WaitingPolicy<T>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(T::from_u64(bound)),
        WaitingPolicy::Unbounded,
    ]
}

/// One full-sweep comparison: every source, arrivals + witnesses +
/// stats, production core vs. reference explorer.
fn assert_cores_match<T: Time, I: TemporalIndex<T>>(
    index: &I,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
    label: &str,
) {
    let nodes = index.num_nodes();
    for src in (0..nodes).map(NodeId::from_index) {
        let tree = foremost_tree(index, src, start, policy, limits);
        let oracle = ref_foremost_tree(index, &[(src, start.clone())], policy, limits, None);
        assert_eq!(
            tree.stats(),
            oracle.stats(),
            "{label}: stats diverge from {src} under {policy}"
        );
        assert_eq!(tree.num_reached(), oracle.num_reached(), "{label}");
        for dst in (0..nodes).map(NodeId::from_index) {
            assert_eq!(
                tree.arrival(dst),
                oracle.arrival(dst),
                "{label}: arrival {src}→{dst} under {policy}"
            );
            assert_eq!(
                tree.journey_to(dst),
                oracle.journey_to(dst),
                "{label}: witness {src}→{dst} under {policy}"
            );
        }
    }
}

#[test]
fn cores_match_oracle_on_figure1_nat_times() {
    // Bigint times: the overhaul must stay generic in the time domain.
    let aut = fixtures::figure1();
    let g = aut.automaton().tvg();
    let limits = aut.limits_for(6);
    let index = TvgIndex::compile(g, limits.horizon.clone());
    for policy in all_policies::<Nat>(2) {
        assert_cores_match(&index, &Nat::zero(), &policy, &limits, "figure-1");
    }
}

#[test]
fn cores_match_oracle_on_periodic_family() {
    let params = fixtures::small_periodic_params(8);
    for seed in [3u64, 17] {
        let g = fixtures::periodic_family_tvg(&params, seed);
        let limits = SearchLimits::new(40u64, 10);
        let index = TvgIndex::compile(&g, limits.horizon);
        for policy in all_policies(3) {
            assert_cores_match(
                &index,
                &0,
                &policy,
                &limits,
                &format!("periodic seed {seed}"),
            );
        }
    }
}

#[test]
fn cores_match_oracle_on_scale_free() {
    let g = fixtures::scale_free(40);
    let limits = SearchLimits::new(fixtures::SCALE_FREE_HORIZON, 8);
    let index = TvgIndex::compile(&g, limits.horizon);
    for policy in all_policies(4) {
        assert_cores_match(&index, &0, &policy, &limits, "scale-free");
    }
}

#[test]
fn cores_match_oracle_in_the_narrowed_u32_domain() {
    // The u32 fast path is its own monomorphization — pin it against
    // the oracle run in the *same* narrowed domain, so any divergence
    // is the core's fault, not the narrowing's (narrowing itself is
    // pinned by `tvg-model`'s narrow tests).
    let g = fixtures::scale_free(40);
    let narrowed: Tvg<u32> =
        narrow_tvg(&g, fixtures::SCALE_FREE_HORIZON).expect("fixture horizon fits u32");
    let limits = SearchLimits::new(
        u32::try_from(fixtures::SCALE_FREE_HORIZON).expect("fits"),
        8,
    );
    let index = TvgIndex::compile(&narrowed, limits.horizon);
    for policy in all_policies(4) {
        assert_cores_match(&index, &0u32, &policy, &limits, "scale-free/u32");
    }
}

/// The bounded waits the coverage properties sweep: one, a few, and as
/// many ticks as the streaming benchmark waits.
const COVERAGE_WAITS: [u64; 3] = [1, 4, 12];

#[test]
fn coverage_matches_oracle_on_dense_markovian_contacts_with_binding_hops() {
    // Nearly every node pair meets, again and again, so nodes settle at
    // many adjacent instants and bounded windows overlap heavily. Three
    // hops bind: a later arrival reached in fewer hops must still
    // decrease-key targets a more-hops arrival already generated.
    for seed in [5u64, 23] {
        let g = edge_markovian_contacts(16, 30, 0.08, 0.4, seed);
        let index = TvgIndex::compile(&g, 30);
        for d in COVERAGE_WAITS {
            let policy = WaitingPolicy::Bounded(d);
            let limits = SearchLimits::new(30u64, 3);
            assert_cores_match(&index, &0, &policy, &limits, &format!("markov seed {seed}"));
            let free = SearchLimits::new(30u64, 64);
            let binds = g.nodes().any(|src| {
                let capped = foremost_tree(&index, src, &0, &policy, &limits);
                let open = foremost_tree(&index, src, &0, &policy, &free);
                g.nodes().any(|v| capped.arrival(v) != open.arrival(v))
            });
            assert!(binds, "seed {seed}, wait[{d}]: max_hops must bind");
        }
    }
}

#[test]
fn coverage_matches_oracle_where_a_u32_latency_overflows() {
    // Every contact sits just below u32::MAX, so a covered window's
    // later departures overflow under the longer constant latencies
    // and drop out of the count, as they drop out of the enumeration.
    // Narrowing refuses such latencies, so the graph is built in the
    // u32 domain directly.
    let horizon = u32::MAX - 1;
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = TvgBuilder::new();
    let v = b.nodes(6);
    for (i, &src) in v.iter().enumerate() {
        let loop_presence = Presence::After(horizon - 40);
        b.edge(src, src, 's', loop_presence, Latency::Const(1u32))
            .expect("valid");
        for &dst in v.iter().filter(|&&dst| dst != src) {
            let from = horizon - rng.gen_range(4..40u32);
            let until = from.saturating_add(rng.gen_range(2..20u32)).min(horizon);
            let lat = [0, 3, 9, 17][(i + dst.index()) % 4];
            let presence = Presence::Window { from, until };
            b.edge(src, dst, 'c', presence, Latency::Const(lat))
                .expect("valid");
        }
    }
    let g: Tvg<u32> = b.build().expect("valid");
    let index = TvgIndex::compile(&g, horizon);
    let start = horizon - 40;
    for d in COVERAGE_WAITS {
        let policy = WaitingPolicy::Bounded(u32::try_from(d).expect("small"));
        let limits = SearchLimits::new(horizon, 5);
        assert_cores_match(&index, &start, &policy, &limits, "u32 overflow");
    }
}

#[test]
fn coverage_matches_oracle_under_non_monotone_latencies() {
    // Neither latency is known to be monotone, so covered departures
    // are counted one by one: a dilated constant, and a custom latency
    // that overflows at every third departure.
    let mut rng = StdRng::seed_from_u64(11);
    let mut b = TvgBuilder::new();
    let v = b.nodes(8);
    for &src in &v {
        for &dst in &v {
            if rng.gen_bool(0.5) {
                continue;
            }
            let from = rng.gen_range(0..20u64);
            let until = from + rng.gen_range(0..15u64);
            let latency = if rng.gen_bool(0.5) {
                Latency::Const(1u64).dilate(3)
            } else {
                Latency::from_fn(|t: &u64| if t.is_multiple_of(3) { u64::MAX } else { 2 })
            };
            b.edge(src, dst, 'n', Presence::Window { from, until }, latency)
                .expect("valid");
        }
    }
    let g = b.build().expect("valid");
    let index = TvgIndex::compile(&g, 40);
    assert!(g.edges().all(|e| !index.arrival_is_monotone(e)));
    for d in COVERAGE_WAITS {
        let policy = WaitingPolicy::Bounded(d);
        assert_cores_match(
            &index,
            &0,
            &policy,
            &SearchLimits::new(40u64, 6),
            "non-monotone",
        );
    }
}

/// The horizon of the dense multigraphs.
const DENSE_HORIZON: u64 = 32;

/// Six nodes with 20 to 27 out-edges each: every seventh a self-loop
/// (some of zero latency), every fourth otherwise a parallel edge to the
/// next node. Each edge is present on spans of one or two instants, 6 to
/// 15 ticks apart, so siblings' spans interleave and a node settles at
/// scattered instants: its later windows admit several spans at once,
/// out of out-edge order by start.
fn dense_multigraph(seed: u64) -> Tvg<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TvgBuilder::new();
    let v = b.nodes(6);
    for (i, &src) in v.iter().enumerate() {
        for k in 0..rng.gen_range(20..28usize) {
            let dst = if k % 7 == 0 {
                src
            } else if k % 4 == 0 {
                v[(i + 1) % v.len()]
            } else {
                v[rng.gen_range(0..v.len())]
            };
            let mut at = BTreeSet::new();
            let mut t = rng.gen_range(0..16u64);
            while t < DENSE_HORIZON {
                at.extend(t..t + rng.gen_range(1..=2u64));
                t += rng.gen_range(6..16u64);
            }
            let latency = Latency::Const([0, 1, 1, 2, 5][rng.gen_range(0..5usize)]);
            b.edge(src, dst, 'm', Presence::FiniteSet(at), latency)
                .expect("valid");
        }
    }
    b.build().expect("valid")
}

#[test]
fn departure_schedule_matches_oracle_on_dense_multigraphs() {
    // A tight and a loose hop limit.
    for (seed, max_hops) in [(2u64, 3), (19, 64)] {
        let g = dense_multigraph(seed);
        let index = TvgIndex::compile(&g, DENSE_HORIZON);
        assert!(g.nodes().all(|v| index.out_edges(v).len() >= 20));
        let limits = SearchLimits::new(DENSE_HORIZON, max_hops);
        let label = format!("dense seed {seed}");
        let policies =
            std::iter::once(WaitingPolicy::NoWait).chain((0..=12).map(WaitingPolicy::Bounded));
        for policy in policies {
            assert_cores_match(&index, &0, &policy, &limits, &label);
        }
    }
}

/// Regression: a `wait[d]` window whose end `ready + d` overflows the
/// time type used to be empty instead of ending at the horizon, so on
/// this `u32` graph `wait[10]` reached nothing while `nowait`, `wait[3]`
/// and `wait` reached `v` — against `L_nowait ⊆ L_wait[d]`.
#[test]
fn a_bounded_window_past_the_time_domain_ends_at_the_horizon() {
    let max = u32::MAX;
    let mut b = TvgBuilder::<u32>::new();
    let (u, v) = (b.node("u"), b.node("v"));
    let window = Presence::Window {
        from: max - 6,
        until: max - 1,
    };
    b.edge(u, v, 'a', window, Latency::Const(0))
        .expect("valid edge");
    let g = b.build().expect("valid graph");
    let (start, horizon) = (max - 6, max - 1);
    let index = TvgIndex::compile(&g, horizon);
    let limits = SearchLimits::new(horizon, 4);
    let policies = [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(3),
        WaitingPolicy::Bounded(10),
        WaitingPolicy::Unbounded,
    ];
    for policy in policies {
        let tree = foremost_tree(&index, u, &start, &policy, &limits);
        assert_eq!(tree.arrival(v), Some(&start), "{policy}");
        let oracle = tickscan::foremost_journey(&g, u, v, &start, &policy, &limits);
        assert_eq!(tree.journey_to(v), oracle, "{policy}");
        assert_cores_match(&index, &start, &policy, &limits, "overflowing window");
    }
}

#[test]
fn multi_seed_runs_match_oracle() {
    let g = fixtures::scale_free(40);
    let limits = SearchLimits::new(fixtures::SCALE_FREE_HORIZON, 8);
    let index = TvgIndex::compile(&g, limits.horizon);
    let seeds: Vec<(NodeId, u64)> = vec![
        (NodeId::from_index(0), 0),
        (NodeId::from_index(7), 5),
        (NodeId::from_index(13), 2),
    ];
    for policy in all_policies(3) {
        let tree = foremost_tree_multi(&index, &seeds, &policy, &limits);
        let oracle = ref_foremost_tree(&index, &seeds, &policy, &limits, None);
        assert_eq!(
            tree.stats(),
            oracle.stats(),
            "multi-seed stats under {policy}"
        );
        for dst in g.nodes() {
            assert_eq!(
                tree.arrival(dst),
                oracle.arrival(dst),
                "multi-seed arrival →{dst} under {policy}"
            );
            assert_eq!(
                tree.journey_to(dst),
                oracle.journey_to(dst),
                "multi-seed witness →{dst} under {policy}"
            );
        }
    }
}

#[test]
fn incremental_replay_matches_a_fresh_oracle_run() {
    // Stream a fixture in batches; after every refresh, the resumable
    // core's prune/replay repair must land on exactly the tree a fresh
    // oracle run over the live index produces.
    let g = fixtures::scale_free(30);
    let horizon = fixtures::SCALE_FREE_HORIZON;
    let (base, events) = TvgStream::replay_of(&g, &horizon).expect("horizon + 1 is representable");
    let limits = SearchLimits::new(horizon, 8);
    let src = NodeId::from_index(0);
    for policy in all_policies(3) {
        let mut stream = base.clone();
        let mut inc =
            IncrementalForemost::new(stream.index(), &[(src, 0u64)], policy, limits.clone());
        for batch in events.chunks(48) {
            let report = stream.ingest(batch).expect("replay is valid");
            inc.refresh(stream.index(), &report);
            let oracle = ref_foremost_tree(stream.index(), &[(src, 0u64)], &policy, &limits, None);
            for dst in stream.index().tvg().nodes() {
                assert_eq!(
                    inc.arrival(dst),
                    oracle.arrival(dst),
                    "incremental arrival →{dst} under {policy}"
                );
                assert_eq!(
                    inc.journey_to(dst),
                    oracle.journey_to(dst),
                    "incremental witness →{dst} under {policy}"
                );
            }
        }
    }
}

/// One query of the reuse sequence: which index, seeds, policy, hop
/// limit, and early-exit target.
#[derive(Debug, Clone)]
struct Query {
    large: bool,
    seeds: Vec<(NodeId, u64)>,
    policy: WaitingPolicy<u64>,
    max_hops: usize,
    target: Option<NodeId>,
}

#[test]
fn a_reused_engine_matches_fresh_engines_and_the_oracle() {
    // Two indexes, the second with more nodes and edges, so the shuffled
    // sequence switches between them in both directions.
    let horizon = fixtures::SCALE_FREE_HORIZON;
    let small = fixtures::scale_free(24);
    let large = fixtures::scale_free(48);
    let small_index = TvgIndex::compile(&small, horizon);
    let large_index = TvgIndex::compile(&large, horizon);
    assert!(large.num_edges() > small.num_edges());
    let n = NodeId::from_index;

    let mut queries = Vec::new();
    for large in [false, true] {
        for policy in all_policies::<u64>(3) {
            for max_hops in [2, 8] {
                for src in [0, 5, 17] {
                    queries.push(Query {
                        large,
                        seeds: vec![(n(src), 0)],
                        policy,
                        max_hops,
                        target: None,
                    });
                    // An early exit, then the same source in full below:
                    // the exit leaves generated but unsettled state behind.
                    queries.push(Query {
                        large,
                        seeds: vec![(n(src), 0)],
                        policy,
                        max_hops,
                        target: Some(n((src + 7) % 24)),
                    });
                }
            }
            // A beaconing source: a seed at every instant of a window.
            queries.push(Query {
                large,
                seeds: (0..6u64).map(|t| (n(3), t)).collect(),
                policy,
                max_hops: 8,
                target: None,
            });
        }
    }
    let mut rng = StdRng::seed_from_u64(41);
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.gen_range(0..=i));
    }
    // Pin the property the shuffle is for: targeted exits are followed
    // by full runs somewhere in the sequence.
    assert!(queries
        .windows(2)
        .any(|w| w[0].target.is_some() && w[1].target.is_none()));

    let mut engine = Engine::new();
    for (step, q) in queries.iter().enumerate() {
        let limits = SearchLimits::new(horizon, q.max_hops);
        let (reused, fresh, oracle, nodes) = if q.large {
            (
                engine.run(&large_index, &q.seeds, &q.policy, &limits, q.target),
                Engine::new().run(&large_index, &q.seeds, &q.policy, &limits, q.target),
                ref_foremost_tree(&large_index, &q.seeds, &q.policy, &limits, q.target),
                large.num_nodes(),
            )
        } else {
            (
                engine.run(&small_index, &q.seeds, &q.policy, &limits, q.target),
                Engine::new().run(&small_index, &q.seeds, &q.policy, &limits, q.target),
                ref_foremost_tree(&small_index, &q.seeds, &q.policy, &limits, q.target),
                small.num_nodes(),
            )
        };
        let label = format!("step {step}: {q:?}");
        assert_eq!(reused.stats(), fresh.stats(), "{label}: stats vs fresh");
        assert_eq!(reused.stats(), oracle.stats(), "{label}: stats vs oracle");
        assert_eq!(reused.num_reached(), fresh.num_reached(), "{label}");
        for dst in (0..nodes).map(NodeId::from_index) {
            assert_eq!(reused.arrival(dst), fresh.arrival(dst), "{label}: →{dst}");
            assert_eq!(reused.arrival(dst), oracle.arrival(dst), "{label}: →{dst}");
            assert_eq!(
                reused.journey_to(dst),
                fresh.journey_to(dst),
                "{label}: witness →{dst}"
            );
            assert_eq!(
                reused.journey_to(dst),
                oracle.journey_to(dst),
                "{label}: witness →{dst}"
            );
        }
    }
}
