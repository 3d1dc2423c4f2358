//! Thread-scaling benchmark for the batch-query runtime (experiment E8).
//!
//! Workload: the scale-free temporal contact network at a size whose
//! compiled index holds hundreds of thousands of edge events, far
//! beyond the commuter-line fixtures. The measured operation is the
//! `ReachabilityMatrix` / `delivery_ratio` shape — a slice of
//! all-destinations single-source engine runs sharing one compiled
//! index — executed by `BatchRunner` at 1, 2, 4, and 8 worker threads.
//!
//! The batch contract says the *output* is identical at every thread
//! count (asserted here once per policy before timing); only the
//! wall-clock should change, by up to `min(threads, cores)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tvg_journeys::{Batch, BatchRunner, SearchLimits, WaitingPolicy};
use tvg_model::generators::scale_free_temporal;
use tvg_model::{NodeId, TemporalIndex, Tvg, TvgIndex};

/// E8 workload: large enough that one batch is hundreds of engine runs
/// over a six-figure edge-event count, small enough to iterate.
fn workload() -> (Tvg<u64>, u64) {
    (scale_free_temporal(20_000, 256, 42), 256)
}

fn bench_thread_scaling(c: &mut Criterion) {
    let (g, horizon) = workload();
    let index = TvgIndex::compile(&g, horizon);
    eprintln!(
        "batch_scaling workload: {} nodes, {} edges, horizon {horizon}, {} edge events, \
         {} cores available",
        g.num_nodes(),
        g.num_edges(),
        index.num_edge_events(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    // A spread of sources across the id range (hubs are low ids in the
    // preferential-attachment order, so a stride mixes hubs and leaves).
    let sources: Vec<NodeId> = (0..g.num_nodes())
        .step_by(g.num_nodes() / 96)
        .map(NodeId::from_index)
        .collect();
    let limits = SearchLimits::new(horizon, 16);
    let mut group = c.benchmark_group("batch_scaling");
    group.sample_size(5);
    for (plabel, policy) in [
        ("bounded4", WaitingPolicy::Bounded(4)),
        ("unbounded", WaitingPolicy::Unbounded),
    ] {
        let serial =
            BatchRunner::new(&index, Batch::serial()).run_sources(&sources, &0, &policy, &limits);
        for threads in [1usize, 2, 4, 8] {
            let runner = BatchRunner::new(&index, Batch::threads(threads));
            // The determinism contract, checked on the bench workload
            // itself before timing it.
            let out = runner.run_sources(&sources, &0, &policy, &limits);
            assert_eq!(out.stats(), serial.stats(), "{plabel} x{threads}");
            assert!(
                sources.iter().enumerate().all(|(i, _)| g
                    .nodes()
                    .all(|d| out.trees()[i].arrival(d) == serial.trees()[i].arrival(d))),
                "{plabel} x{threads}: thread count changed arrivals"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("all_sources_{plabel}"), threads),
                &threads,
                |b, _| {
                    b.iter(|| {
                        runner
                            .run_sources(&sources, &0, &policy, &limits)
                            .stats()
                            .runs
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_thread_scaling);
criterion_main!(benches);
