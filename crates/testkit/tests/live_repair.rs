//! Incremental repair on the benchmark's `live-repair` feed: an
//! edge-Markovian schedule (60 nodes, horizon 150) streamed in ticks of
//! 128 events, with one `wait[12]` foremost tree repaired per tick.
//!
//! * A deterministic work property: the windowed replay re-expands only
//!   the survivors a tick's batch can change, so most are reused.
//! * A deterministic read-count gate: the exact explorer reads an
//!   edge's spans only when a departure window can reach them, so the
//!   repair and the final all-sources query read a pinned number of
//!   span lists, far below one read per out-edge per expansion.
//! * A wall-clock gate, `#[ignore]`d so the tier-1 suite stays
//!   deterministic: in one process, repairing the tree every tick must
//!   cost well under recomputing it fresh every tick. Run it on a
//!   release build with
//!   `cargo test --release -p tvg-testkit --test live_repair -- --ignored`.

use std::time::{Duration, Instant};
use tvg_journeys::{foremost_tree, Engine, IncrementalForemost, ReplayCounts};
use tvg_model::{NodeId, TemporalIndex};
use tvg_scenarios::{parse_specs, Plan, Scenario};
use tvg_testkit::readcount::CountingIndex;

/// The `live-repair` workload's spec at its default generator seed.
const LIVE_REPAIR: &str = "scenario live-repair\n\
    generator edge_markovian n=60 horizon=150 p_birth=0.01 p_death=0.3 seed=5\n\
    policy wait[12]\n\
    plan streaming src=0 horizon=150 batch=128 max_hops=16\n\
    threads 2\n";

fn live_repair() -> Scenario {
    parse_specs(LIVE_REPAIR)
        .expect("valid spec")
        .pop()
        .expect("one scenario")
}

/// One pass over the feed: per tick, ingest, repair the tree, and (with
/// `fresh`) also run a fresh tree on the live index. Returns the time
/// spent repairing, the time spent in fresh runs, and the repaired tree.
fn pass(scenario: &Scenario, fresh: bool) -> (Duration, Duration, IncrementalForemost<u64>) {
    let Plan::Streaming {
        src, start, batch, ..
    } = *scenario.plan()
    else {
        panic!("live-repair is a streaming plan");
    };
    let limits = scenario.limits();
    let policy = *scenario.policy();
    let (mut stream, events) = scenario.stream_feed(&scenario.build_graph(), limits.horizon);
    let source = NodeId::from_index(src);
    let mut inc =
        IncrementalForemost::new(stream.index(), &[(source, start)], policy, limits.clone());
    let (mut repair, mut recompute) = (Duration::ZERO, Duration::ZERO);
    for chunk in events.chunks(batch) {
        let report = stream.ingest(chunk).expect("scenario feeds are valid");
        let started = Instant::now();
        inc.refresh(stream.index(), &report);
        repair += started.elapsed();
        if fresh {
            let started = Instant::now();
            let tree = foremost_tree(stream.index(), source, &start, &policy, &limits);
            recompute += started.elapsed();
            assert_eq!(tree.num_reached(), inc.num_reached());
        }
    }
    (repair, recompute, inc)
}

#[test]
fn live_repair_reuses_most_survivors() {
    let (_, _, inc) = pass(&live_repair(), false);
    let ReplayCounts { replayed, reused } = inc.replay_counts();
    assert!(
        reused >= 3 * replayed,
        "windowed replay must skip most survivors: {replayed} replayed, {reused} reused"
    );
    // The repair settles what the report's `incremental.settled` pins.
    assert_eq!(inc.stats().settled, 329_929);
}

#[test]
fn live_repair_reads_only_the_spans_a_window_reaches() {
    let scenario = live_repair();
    let Plan::Streaming {
        src, start, batch, ..
    } = *scenario.plan()
    else {
        panic!("live-repair is a streaming plan");
    };
    let limits = scenario.limits();
    let policy = *scenario.policy();
    let (mut stream, events) = scenario.stream_feed(&scenario.build_graph(), limits.horizon);
    let source = NodeId::from_index(src);
    let counted = CountingIndex::new(stream.index());
    let mut inc = IncrementalForemost::new(&counted, &[(source, start)], policy, limits.clone());
    let mut repair = counted.reads();
    for chunk in events.chunks(batch) {
        let report = stream.ingest(chunk).expect("scenario feeds are valid");
        let counted = CountingIndex::new(stream.index());
        inc.refresh(&counted, &report);
        repair += counted.reads();
    }
    // The final query of the plan: every node as a source.
    let counted = CountingIndex::new(stream.index());
    let mut engine = Engine::new();
    for v in (0..counted.num_nodes()).map(NodeId::from_index) {
        let _ = engine.run(&counted, &[(v, start)], &policy, &limits, None);
    }
    // One read per out-edge per expansion would be about 38.7M. Each
    // repair's drain continues its replay's departure schedules; priming
    // them again for the drain read 451 508.
    assert_eq!((repair, counted.reads()), (236_560, 443_693));
}

#[test]
#[ignore = "wall-clock gate; run on a release build with --ignored"]
fn repair_costs_well_under_a_fresh_recompute() {
    let scenario = live_repair();
    let (repairs, fresh): (Vec<Duration>, Vec<Duration>) = (0..5)
        .map(|_| {
            let (repair, recompute, _) = pass(&scenario, true);
            (repair, recompute)
        })
        .unzip();
    let (repair, fresh) = (tvg_testkit::median(repairs), tvg_testkit::median(fresh));
    let ratio = repair.as_secs_f64() / fresh.as_secs_f64();
    println!("live-repair: repair {repair:?}, fresh {fresh:?}, ratio {ratio:.3} (median of 5)");
    assert!(
        ratio <= 0.6,
        "repairing every tick must cost at most 0.6x a fresh recompute, got {ratio:.3}"
    );
}
