//! Engine-overhaul before/after benchmark (experiment E12): the
//! monomorphized, arena-backed explorer cores against the pre-overhaul
//! generic explorer preserved as `tvg_testkit::refengine`, on the E8
//! scale-free workload (n=20k).
//!
//! The differential suite (`crates/testkit/tests/engine_overhaul_props.rs`)
//! pins the two engines bit-identical; this bench measures what the
//! representation change buys. Three comparisons per policy:
//!
//! * `ref_*`: the old explorer — `BTreeMap`/`BTreeSet` frontiers, boxed
//!   parent maps, branchy per-label policy dispatch;
//! * `new_*`: the overhauled cores over the same `u64` index;
//! * `new_u32_*`: the overhauled cores over the `u32`-narrowed index —
//!   the domain the scenario runtime actually picks for this horizon.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tvg_journeys::engine::foremost_tree;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_model::generators::scale_free_temporal;
use tvg_model::{narrow_tvg, NodeId, TemporalIndex, TvgIndex};
use tvg_testkit::refengine::ref_foremost_tree;

const HORIZON: u64 = 256;
const MAX_HOPS: usize = 32;

fn bench_overhaul(c: &mut Criterion) {
    let g = scale_free_temporal(20_000, HORIZON, 42);
    let index = TvgIndex::compile(&g, HORIZON);
    let narrowed = narrow_tvg(&g, HORIZON).expect("horizon 256 fits u32");
    let h32 = u32::try_from(HORIZON).expect("fits u32");
    let index32 = TvgIndex::compile(&narrowed, h32);
    eprintln!(
        "engine_overhaul workload: {} nodes, {} edges, horizon {HORIZON}, {} edge events",
        g.num_nodes(),
        g.num_edges(),
        index.num_edge_events(),
    );
    let src = NodeId::from_index(0);
    let limits = SearchLimits::new(HORIZON, MAX_HOPS);
    let limits32 = SearchLimits::new(h32, MAX_HOPS);

    let mut group = c.benchmark_group("engine_overhaul_all_destinations");
    group.sample_size(10);
    for (plabel, policy) in [
        ("nowait", WaitingPolicy::NoWait),
        ("bounded4", WaitingPolicy::Bounded(4)),
        ("unbounded", WaitingPolicy::Unbounded),
    ] {
        let policy32 = match &policy {
            WaitingPolicy::NoWait => WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(d) => {
                WaitingPolicy::Bounded(u32::try_from(*d).expect("fits u32"))
            }
            WaitingPolicy::Unbounded => WaitingPolicy::Unbounded,
        };
        // The two engines must agree before either is worth timing.
        let new = foremost_tree(&index, src, &0, &policy, &limits);
        let old = ref_foremost_tree(&index, &[(src, 0)], &policy, &limits, None);
        assert_eq!(new.num_reached(), old.num_reached(), "{plabel}: divergence");
        assert_eq!(new.stats(), old.stats(), "{plabel}: stats divergence");

        group.bench_with_input(BenchmarkId::new("ref", plabel), &index, |b, index| {
            b.iter(|| ref_foremost_tree(index, &[(src, 0)], &policy, &limits, None).num_reached());
        });
        group.bench_with_input(BenchmarkId::new("new", plabel), &index, |b, index| {
            b.iter(|| foremost_tree(index, src, &0, &policy, &limits).num_reached());
        });
        group.bench_with_input(BenchmarkId::new("new_u32", plabel), &index32, |b, index| {
            b.iter(|| foremost_tree(index, src, &0u32, &policy32, &limits32).num_reached());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_overhaul);
criterion_main!(benches);
