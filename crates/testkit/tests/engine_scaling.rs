//! An engine run costs what it explores: an all-sources `nowait` batch
//! in the shape of a streaming plan's final snapshot (`max_hops=2`, one
//! thread, one engine reused for every source), on compiled scale-free
//! contact graphs of 10 000 and 80 000 nodes. Both settle about 1.4
//! configurations per run, so a run's time must not grow with the node
//! count.
//!
//! A wall-clock gate, `#[ignore]`d so the tier-1 suite stays
//! deterministic: in one process, the median time per run at 80 000
//! nodes must stay within 4× that at 10 000. The larger index only
//! misses the cache more (1.9–2.4× on a 2-vCPU VM); an engine that
//! clears or allocates O(n) per run reads about 7.5×. Run it on a
//! release build with
//! `cargo test --release -p tvg-testkit --test engine_scaling -- --ignored`.

use std::time::{Duration, Instant};
use tvg_journeys::{Batch, BatchRunner, SearchLimits, WaitingPolicy};
use tvg_model::generators::scale_free_temporal;
use tvg_model::TvgIndex;

const HORIZON: u64 = 64;

/// The median, over five all-sources batches on a `nodes`-node graph,
/// of the time per engine run.
fn per_run(nodes: u32) -> Duration {
    let g = scale_free_temporal(nodes as usize, HORIZON, 29);
    let index = TvgIndex::compile(&g, HORIZON);
    let sources: Vec<_> = g.nodes().collect();
    let limits = SearchLimits::new(HORIZON, 2);
    let runner = BatchRunner::new(&index, Batch::threads(1));
    let mut times: Vec<Duration> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let (reached, stats) =
                runner.map_sources(&sources, &0, &WaitingPolicy::NoWait, &limits, |_, tree| {
                    tree.num_reached()
                });
            let spent = started.elapsed();
            assert_eq!(stats.runs, u64::from(nodes));
            assert!(
                reached.iter().all(|&r| r >= 1),
                "every source reaches itself"
            );
            spent / nodes
        })
        .collect();
    times.sort();
    times[2]
}

#[test]
#[ignore = "wall-clock gate; run on a release build with --ignored"]
fn a_run_costs_what_it_explores_not_the_node_count() {
    let (small, large) = (per_run(10_000), per_run(80_000));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    println!(
        "engine_scaling: per run {small:?} at 10k nodes, {large:?} at 80k nodes, \
         ratio {ratio:.2} for 8x the nodes (median of 5)"
    );
    assert!(
        ratio <= 4.0,
        "a run at 80k nodes must cost at most 4x one at 10k, got {ratio:.2}"
    );
}
