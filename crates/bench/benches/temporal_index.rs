//! Index-vs-scan benchmark: the compiled temporal index against the
//! tick-scan reference oracle on the paper fixtures and on a generated
//! TVG with ≥ 10k edge events (experiment E7).
//!
//! Three comparisons:
//!
//! * `compile`: one-time cost of building the index (the amortized part
//!   of compile-once/query-many);
//! * `foremost_pair`: a single source→target foremost query, indexed
//!   engine vs. tick scan;
//! * `all_destinations`: foremost arrivals from one source to every
//!   node — one engine pass vs. n oracle searches (the
//!   `ReachabilityMatrix` row workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tvg_journeys::engine::{foremost_to, foremost_tree};
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_model::generators::{random_periodic_tvg, RandomPeriodicParams};
use tvg_model::{NodeId, TemporalIndex, Tvg, TvgIndex};
use tvg_testkit::{fixtures, tickscan};

/// The large generated workload: sized so the compiled index holds at
/// least 10_000 edge events (two per span) below the benchmark horizon.
fn large_tvg() -> (Tvg<u64>, u64) {
    let params = RandomPeriodicParams {
        num_nodes: 64,
        num_edges: 256,
        period: 16,
        phase_density: 0.5,
        alphabet: tvg_langs::Alphabet::ab(),
    };
    let g = random_periodic_tvg(&mut StdRng::seed_from_u64(7), &params);
    (g, 512)
}

fn bench_compile(c: &mut Criterion) {
    let (g, horizon) = large_tvg();
    let index = TvgIndex::compile(&g, horizon);
    let events = index.num_edge_events();
    assert!(
        events >= 10_000,
        "E7 workload must exceed 10k edge events, got {events}"
    );
    eprintln!(
        "temporal_index workload: {} nodes, {} edges, horizon {horizon}, {events} edge events",
        g.num_nodes(),
        g.num_edges(),
    );
    let mut group = c.benchmark_group("temporal_index_compile");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("compile", events), &g, |b, g| {
        b.iter(|| TvgIndex::compile(g, horizon).num_edge_events());
    });
    group.finish();
}

fn bench_foremost_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal_index_foremost_pair");
    group.sample_size(10);
    let (large, large_horizon) = large_tvg();
    let cases: Vec<(&str, Tvg<u64>, u64, usize)> = vec![
        ("commuter_line", fixtures::commuter_line(), 30, 6),
        ("ring_bus_16", fixtures::ring_bus(16, 16), 64, 18),
        ("large_10k_events", large, large_horizon, 24),
    ];
    for (name, g, horizon, max_hops) in &cases {
        let limits = SearchLimits::new(*horizon, *max_hops);
        let src = NodeId::from_index(0);
        let dst = NodeId::from_index(g.num_nodes() - 1);
        for (plabel, policy) in [
            ("nowait", WaitingPolicy::NoWait),
            ("bounded4", WaitingPolicy::Bounded(4)),
            ("unbounded", WaitingPolicy::Unbounded),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("tickscan_{plabel}"), name),
                g,
                |b, g| {
                    b.iter(|| tickscan::foremost_journey(g, src, dst, &0, &policy, &limits));
                },
            );
            let index = TvgIndex::compile(g, *horizon);
            group.bench_with_input(
                BenchmarkId::new(format!("indexed_{plabel}"), name),
                g,
                |b, _| {
                    b.iter(|| foremost_to(&index, src, dst, &0, &policy, &limits));
                },
            );
        }
    }
    group.finish();
}

fn bench_all_destinations(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal_index_all_destinations");
    // The tick-scan side runs n full searches per iteration; keep the
    // sample count low so the bench stays CI-smoke friendly.
    group.sample_size(3);
    let (g, horizon) = large_tvg();
    let limits = SearchLimits::new(horizon, 24);
    let src = NodeId::from_index(0);
    let index = TvgIndex::compile(&g, horizon);
    for (plabel, policy) in [
        ("bounded4", WaitingPolicy::Bounded(4)),
        ("unbounded", WaitingPolicy::Unbounded),
    ] {
        group.bench_with_input(
            BenchmarkId::new(format!("tickscan_n_searches_{plabel}"), "large"),
            &g,
            |b, g| {
                b.iter(|| {
                    g.nodes()
                        .filter(|&dst| {
                            dst == src
                                || tickscan::foremost_journey(g, src, dst, &0, &policy, &limits)
                                    .is_some()
                        })
                        .count()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("indexed_one_pass_{plabel}"), "large"),
            &g,
            |b, _| {
                b.iter(|| foremost_tree(&index, src, &0, &policy, &limits).num_reached());
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_foremost_pair,
    bench_all_destinations
);
criterion_main!(benches);
