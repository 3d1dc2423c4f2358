//! Incremental-vs-recompile benchmark for streaming ingestion
//! (experiment E9).
//!
//! The workload is the scale-free temporal contact graph replayed as a
//! live feed in fixed-size batches. Two strategies keep a foremost tree
//! (one source, `wait[3]`) current across the feed:
//!
//! * `incremental`: `TvgStream` ingest + `IncrementalForemost::refresh`
//!   per batch — presence structures are mutated at the right edge and
//!   only labels at or after each batch's earliest change re-relax;
//! * `recompile`: after each batch, materialize the accumulated
//!   schedule (`to_tvg`), `TvgIndex::compile` it from scratch, and
//!   rerun `foremost_tree` — the only option before the stream layer.
//!
//! Both strategies process identical feeds and are asserted to agree on
//! every arrival at the end. The measured quantity is the full
//! per-feed pipeline (ingest + query maintenance across all ticks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tvg_journeys::{foremost_tree, IncrementalForemost, SearchLimits, WaitingPolicy};
use tvg_model::generators::scale_free_temporal;
use tvg_model::stream::{StreamEvent, TvgStream};
use tvg_model::{NodeId, TemporalIndex, TvgIndex};

const HORIZON: u64 = 64;
const BATCH: usize = 64;

fn workload(n: usize) -> (TvgStream<u64>, Vec<StreamEvent<u64>>) {
    let g = scale_free_temporal(n, HORIZON, 17);
    TvgStream::replay_of(&g, &HORIZON).expect("bench horizons are small")
}

fn limits() -> SearchLimits<u64> {
    SearchLimits::new(HORIZON, 16)
}

fn run_incremental(base: &TvgStream<u64>, events: &[StreamEvent<u64>]) -> Vec<Option<u64>> {
    let mut stream = base.clone();
    let src = NodeId::from_index(0);
    let mut inc = IncrementalForemost::new(
        stream.index(),
        &[(src, 0u64)],
        WaitingPolicy::Bounded(3),
        limits(),
    );
    for batch in events.chunks(BATCH) {
        let report = stream.ingest(batch).expect("replay is valid");
        inc.refresh(stream.index(), &report);
    }
    let n = stream.index().tvg().num_nodes();
    (0..n)
        .map(|i| inc.arrival(NodeId::from_index(i)).copied())
        .collect()
}

fn run_recompile(base: &TvgStream<u64>, events: &[StreamEvent<u64>]) -> Vec<Option<u64>> {
    let mut stream = base.clone();
    let src = NodeId::from_index(0);
    let mut answers = Vec::new();
    for batch in events.chunks(BATCH) {
        stream.ingest(batch).expect("replay is valid");
        let g = stream.to_tvg();
        let index = TvgIndex::compile(&g, *stream.index().horizon());
        let tree = foremost_tree(&index, src, &0, &WaitingPolicy::Bounded(3), &limits());
        answers = g.nodes().map(|n| tree.arrival(n).copied()).collect();
    }
    answers
}

fn bench_stream_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    for n in [200usize, 600] {
        let (base, events) = workload(n);
        let ticks = events.len().div_ceil(BATCH);
        eprintln!(
            "stream_ingest workload: n={n}, {} events, {ticks} ticks of {BATCH}",
            events.len()
        );
        // The strategies must agree before we time them.
        assert_eq!(
            run_incremental(&base, &events),
            run_recompile(&base, &events)
        );
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| run_incremental(&base, &events));
        });
        group.bench_with_input(BenchmarkId::new("recompile", n), &n, |b, _| {
            b.iter(|| run_recompile(&base, &events));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stream_ingest);
criterion_main!(benches);
