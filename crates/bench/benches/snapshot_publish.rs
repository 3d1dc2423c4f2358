//! Snapshot-publication benchmark for the serve path (experiment E13).
//!
//! The workload is a large scale-free temporal contact graph replayed
//! as a live feed in fixed-size ingest ticks; after every tick the
//! writer publishes a retained snapshot, exactly like the serve
//! runtime's `EpochRing` (retention is what forces copy-on-write on
//! the live side). Two publication strategies:
//!
//! * `persistent`: `TvgStream::snapshot()` — the structure-sharing
//!   clone over persistent chunked columns; cost is O(chunk handles +
//!   tails), independent of how much schedule has accumulated;
//! * `flat_clone`: a deep copy of every column the snapshot exposes
//!   (presence sets, adjacency lists, destinations, monotonicity
//!   cache, and the graph) — what publication cost before the
//!   persistent refactor, O(index).
//!
//! Besides the criterion timings the bench prints the per-publish cost
//! at ¼, ½, ¾ and full ingest: flat-clone cost grows with accumulated
//! size while persistent publication stays flat, and the setup asserts
//! the ≥5× end-to-end publication speedup E13 claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;
use tvg_model::generators::scale_free_temporal;
use tvg_model::stream::{LiveIndex, StreamEvent, TvgStream};
use tvg_model::{EdgeId, NodeId, TemporalIndex, Tvg};

const HORIZON: u64 = 48;
const BATCH: usize = 512;

fn workload(n: usize) -> (TvgStream<u64>, Vec<StreamEvent<u64>>) {
    let g = scale_free_temporal(n, HORIZON, 13);
    TvgStream::replay_of(&g, &HORIZON).expect("bench horizons are small")
}

/// Everything a pre-persistent snapshot had to deep-copy per epoch: the
/// full flat materialization of the live index's query surface.
#[allow(dead_code)] // retained wholesale: the copies ARE the cost
struct FlatSnapshot {
    g: Tvg<u64>,
    horizon: u64,
    presence: Vec<Vec<(u64, u64)>>,
    arrival_monotone: Vec<bool>,
    adjacency: Vec<Vec<EdgeId>>,
    dsts: Vec<NodeId>,
}

fn flat_clone(index: &LiveIndex<u64>) -> FlatSnapshot {
    let g = index.tvg().clone();
    let edges: Vec<EdgeId> = g.edges().collect();
    FlatSnapshot {
        horizon: *index.horizon(),
        presence: edges
            .iter()
            .map(|&e| index.presence(e).spans().to_vec())
            .collect(),
        arrival_monotone: edges
            .iter()
            .map(|&e| index.arrival_is_monotone(e))
            .collect(),
        adjacency: g.nodes().map(|n| index.out_edges(n).to_vec()).collect(),
        dsts: edges.iter().map(|&e| index.dst(e)).collect(),
        g,
    }
}

/// Runs the full feed publishing one retained snapshot per tick with
/// `publish`, returning (total publish nanos, per-publish nanos at each
/// quartile of the feed).
fn run_publish<S>(
    base: &TvgStream<u64>,
    events: &[StreamEvent<u64>],
    publish: impl Fn(&TvgStream<u64>) -> S,
) -> (u128, [u128; 4]) {
    let mut stream = base.clone();
    let ticks: Vec<_> = events.chunks(BATCH).collect();
    let quartiles = [
        ticks.len() / 4,
        ticks.len() / 2,
        3 * ticks.len() / 4,
        ticks.len() - 1,
    ];
    let mut retained = Vec::with_capacity(ticks.len() + 1);
    retained.push(publish(&stream));
    let mut total = 0u128;
    let mut at_quartile = [0u128; 4];
    for (i, tick) in ticks.iter().enumerate() {
        stream.ingest(tick).expect("replay is valid");
        let t = Instant::now();
        retained.push(publish(&stream));
        let nanos = t.elapsed().as_nanos();
        total += nanos;
        for (q, &qi) in quartiles.iter().enumerate() {
            if qi == i {
                at_quartile[q] = nanos;
            }
        }
    }
    (total, at_quartile)
}

fn bench_snapshot_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_publish");
    group.sample_size(10);
    for n in [1000usize, 5000] {
        let (base, events) = workload(n);
        let ticks = events.len().div_ceil(BATCH);
        let (persistent_total, persistent_q) = run_publish(&base, &events, TvgStream::snapshot);
        let (flat_total, flat_q) = run_publish(&base, &events, |s| flat_clone(s.index()));
        eprintln!(
            "snapshot_publish workload: n={n}, {} events, {ticks} ticks of {BATCH}",
            events.len()
        );
        eprintln!(
            "  persistent publish: total {} µs, per-publish at 1/4 2/4 3/4 4/4 = {:?} ns",
            persistent_total / 1000,
            persistent_q
        );
        eprintln!(
            "  flat-clone publish: total {} µs, per-publish at 1/4 2/4 3/4 4/4 = {:?} ns",
            flat_total / 1000,
            flat_q
        );
        if n >= 5000 {
            // The E13 acceptance claim: structure sharing makes epoch
            // publication at least 5x cheaper than deep copies on the
            // large live schedule.
            assert!(
                flat_total >= 5 * persistent_total,
                "publication speedup below 5x: flat {flat_total} ns vs persistent {persistent_total} ns"
            );
        }
        group.bench_with_input(BenchmarkId::new("persistent", n), &n, |b, _| {
            b.iter(|| run_publish(&base, &events, TvgStream::snapshot).0);
        });
        group.bench_with_input(BenchmarkId::new("flat_clone", n), &n, |b, _| {
            b.iter(|| run_publish(&base, &events, |s| flat_clone(s.index())).0);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot_publish);
criterion_main!(benches);
