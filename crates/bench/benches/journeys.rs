//! Journey-search bench: foremost-journey cost vs ring size and policy
//! (the `(node, time)` configuration space grows with both).
//!
//! The index is compiled once per graph outside the timing loop, so the
//! numbers isolate query cost; compile time is traced as
//! `index.compile_s` by the `perfbench` workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tvg_journeys::engine::foremost_to;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_model::generators::ring_bus_tvg;
use tvg_model::{NodeId, TvgIndex};

fn bench_foremost(c: &mut Criterion) {
    let mut group = c.benchmark_group("journeys_foremost_ring");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        let g = ring_bus_tvg(n, n as u64, 'r');
        let horizon = 4 * n as u64;
        let limits = SearchLimits::new(horizon, n + 2);
        let index = TvgIndex::compile(&g, horizon);
        for (label, policy) in [
            ("nowait", WaitingPolicy::NoWait),
            ("bounded2", WaitingPolicy::Bounded(2)),
            ("unbounded", WaitingPolicy::Unbounded),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &g, |b, _| {
                b.iter(|| {
                    foremost_to(
                        &index,
                        NodeId::from_index(0),
                        NodeId::from_index(n - 1),
                        &0,
                        &policy,
                        &limits,
                    )
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_foremost);
criterion_main!(benches);
