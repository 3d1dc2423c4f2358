//! The cost of building a replay feed (experiment E20): the
//! `serve-retention` graph (`scale_free n=15000 horizon=64 seed=29`,
//! the size of the benchmark's `live-serve` workload) mirrored into a
//! stream by `TvgStream::replay_of`, against ingesting the replay's own
//! events into that mirrored stream.
//!
//! A wall-clock gate, `#[ignore]`d so the tier-1 suite stays
//! deterministic: in one process, building the feed must cost at most
//! 0.9× ingesting it. Both sides touch every compiled span once, so a
//! feed that costs more than its ingest spends its time on something
//! other than its events (a per-edge graph copy, a tuple sort, a
//! remapping pass). Run it on a release build with
//! `cargo test --release -p tvg-testkit --test replay_feed -- --ignored`.

use std::time::{Duration, Instant};
use tvg_model::generators::scale_free_temporal;
use tvg_model::stream::TvgStream;

const HORIZON: u64 = 64;

#[test]
#[ignore = "wall-clock gate; run on a release build with --ignored"]
fn building_the_replay_feed_costs_less_than_ingesting_it() {
    let g = scale_free_temporal(15_000, HORIZON, 29);
    let (base, events) = TvgStream::replay_of(&g, &HORIZON).expect("horizon 64 is representable");
    let (build, ingest): (Vec<Duration>, Vec<Duration>) = (0..5)
        .map(|_| {
            let started = Instant::now();
            let feed = TvgStream::replay_of(&g, &HORIZON).expect("horizon 64 is representable");
            let build = started.elapsed();
            drop(feed);
            let mut stream = base.clone();
            let started = Instant::now();
            stream.ingest(&events).expect("a replay is a valid feed");
            (build, started.elapsed())
        })
        .unzip();
    let (build, ingest) = (tvg_testkit::median(build), tvg_testkit::median(ingest));
    let ratio = build.as_secs_f64() / ingest.as_secs_f64();
    println!(
        "replay_feed: {} events over {} edges; replay_of {build:?}, ingest {ingest:?}, \
         ratio {ratio:.2} (median of 5)",
        events.len(),
        g.num_edges()
    );
    assert!(
        ratio <= 0.9,
        "building a replay feed must cost at most 0.9x ingesting it, got {ratio:.2}"
    );
}
