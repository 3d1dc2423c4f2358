//! Snapshot publication on the serve path (experiment E13): a
//! scale-free temporal contact graph (5 000 nodes, horizon 48) replayed
//! as a live feed in ticks of 512 events, with one snapshot published
//! per tick and every snapshot retained: the worst case for the live
//! side's copy-on-write, since no chunk is ever unshared.
//!
//! Two wall-clock gates, `#[ignore]`d so the tier-1 suite stays
//! deterministic. In one process, publishing a structure-sharing
//! `TvgStream::snapshot` must cost at most a fifth of a flat deep copy
//! of everything the snapshot exposes. And on the `serve-retention`
//! graph (experiment E21), the writer's pass that holds each snapshot
//! for one tick, as the serve ring does while a reader answers, must
//! cost at most 4× plain ingest of the same ticks: the copies a held
//! snapshot forces must track what each tick writes. Run them on a
//! release build with
//! `cargo test --release -p tvg-testkit --test snapshot_publish -- --ignored`.

use std::time::{Duration, Instant};
use tvg_model::generators::{edge_markovian_contacts, scale_free_temporal};
use tvg_model::stream::{LiveIndex, StreamEvent, TvgStream};
use tvg_model::{EdgeId, NodeId, TemporalIndex, Tvg};

const HORIZON: u64 = 48;
const BATCH: usize = 512;
/// Upper bound on the writer's held-snapshot pass over plain ingest:
/// 2.7–3.4 on a 2-vCPU VM, 4.5–6.6 when a chunk copy cloned one shared
/// span-list handle per edge.
const BOUND_HELD_OVER_PLAIN: f64 = 4.0;

/// Everything a snapshot without structure sharing has to deep-copy per
/// epoch: the flat materialization of the live index's query surface.
#[allow(dead_code)] // retained wholesale: the copies are the cost
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

/// One pass over the feed, publishing and retaining one snapshot per
/// tick with `publish`. Returns the time spent publishing.
fn pass<S>(
    base: &TvgStream<u64>,
    events: &[StreamEvent<u64>],
    publish: impl Fn(&mut TvgStream<u64>) -> S,
) -> Duration {
    let mut stream = base.clone();
    let mut retained = vec![publish(&mut stream)];
    let mut spent = Duration::ZERO;
    for tick in events.chunks(BATCH) {
        stream.ingest(tick).expect("a replay is a valid feed");
        let started = Instant::now();
        retained.push(publish(&mut stream));
        spent += started.elapsed();
    }
    spent
}

#[test]
#[ignore = "wall-clock gate; run on a release build with --ignored"]
fn publishing_a_snapshot_is_far_cheaper_than_a_flat_copy() {
    let g = scale_free_temporal(5000, HORIZON, 13);
    let (base, events) = TvgStream::replay_of(&g, &HORIZON).expect("horizon 48 is representable");
    let (persistent, flat): (Vec<Duration>, Vec<Duration>) = (0..5)
        .map(|_| {
            (
                pass(&base, &events, TvgStream::snapshot),
                pass(&base, &events, |s| flat_clone(s.index())),
            )
        })
        .unzip();
    let (persistent, flat) = (tvg_testkit::median(persistent), tvg_testkit::median(flat));
    let ratio = flat.as_secs_f64() / persistent.as_secs_f64();
    println!(
        "snapshot_publish: {} events in {} ticks; persistent {persistent:?}, \
         flat {flat:?}, ratio {ratio:.1} (median of 5)",
        events.len(),
        events.len().div_ceil(BATCH)
    );
    assert!(
        ratio >= 5.0,
        "publishing a snapshot must cost at most 1/5 of a flat copy, got a ratio of {ratio:.1}"
    );
}

/// One writer pass over `ticks` on a freshly mirrored stream: ingest
/// each tick and, with `publish`, take a snapshot after it and drop the
/// previous one, as the serve ring does while a reader holds each epoch
/// for one tick. Returns the time the whole pass took, drops included.
fn writer_pass(
    g: &Tvg<u64>,
    horizon: u64,
    ticks: &[&[StreamEvent<u64>]],
    publish: bool,
) -> Duration {
    let (mut stream, _) = TvgStream::replay_of(g, &horizon).expect("representable horizon");
    let started = Instant::now();
    let mut held = None;
    for tick in ticks {
        stream.ingest(tick).expect("a replay is a valid feed");
        if publish {
            held = Some(stream.snapshot());
        }
    }
    drop(held);
    started.elapsed()
}

/// The median writer pass with one snapshot held per tick over the
/// median plain ingest of the same `ticks` ticks, medians of 5.
fn held_over_plain(g: &Tvg<u64>, horizon: u64, ticks: usize) -> (Duration, Duration, f64) {
    let (_, events) = TvgStream::replay_of(g, &horizon).expect("representable horizon");
    let chunks: Vec<&[StreamEvent<u64>]> = events.chunks(events.len().div_ceil(ticks)).collect();
    let (held, plain): (Vec<Duration>, Vec<Duration>) = (0..5)
        .map(|_| {
            (
                writer_pass(g, horizon, &chunks, true),
                writer_pass(g, horizon, &chunks, false),
            )
        })
        .unzip();
    let (held, plain) = (tvg_testkit::median(held), tvg_testkit::median(plain));
    (held, plain, held.as_secs_f64() / plain.as_secs_f64())
}

#[test]
#[ignore = "wall-clock gate; run on a release build with --ignored"]
fn a_held_snapshot_costs_the_writer_what_its_tick_writes() {
    // The long-history leg (about 300 spans per edge) is printed, not
    // gated: a touched edge still costs O(its spans) per tick there.
    let long = edge_markovian_contacts(40, 4000, 0.1, 0.3, 29);
    let (held, plain, ratio) = held_over_plain(&long, 4000, 256);
    println!(
        "snapshot_publish: long-history writer pass {held:?}, plain ingest {plain:?}, \
         ratio {ratio:.2} (median of 5, not gated)"
    );
    let g = scale_free_temporal(15_000, 64, 29);
    let (held, plain, ratio) = held_over_plain(&g, 64, 256);
    println!(
        "snapshot_publish: serve-retention writer pass {held:?}, plain ingest {plain:?}, \
         ratio {ratio:.2} (median of 5)"
    );
    assert!(
        ratio <= BOUND_HELD_OVER_PLAIN,
        "a writer pass holding one snapshot per tick must cost at most \
         {BOUND_HELD_OVER_PLAIN}x plain ingest, got {ratio:.2}"
    );
}
