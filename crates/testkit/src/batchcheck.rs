//! The parallel-vs-serial equivalence oracle for the batch-query
//! runtime.
//!
//! `tvg_journeys::batch` promises that output is **bit-identical to the
//! serial path at every thread count** — that promise is what lets every
//! aggregate consumer adopt the parallel runtime without touching its
//! determinism contract. This module is the single assertion that
//! enforces it: reduce the same batch at one thread and at several,
//! and compare *everything* against one fresh serial engine run per
//! query — foremost arrivals, witness journeys hop by hop, and the
//! summed work counters.
//!
//! Like `tickscan`, this lives in the testkit so every crate's suite can
//! apply the same oracle to its own fixtures.

use tvg_journeys::{
    Batch, BatchRunner, Engine, EngineStats, ForemostTree, SearchLimits, WaitingPolicy,
};
use tvg_model::{NodeId, TemporalIndex, Time};

/// Thread counts the oracle exercises. Chosen to cover the inline
/// serial path, "fewer workers than jobs", "about as many", and "more
/// workers than jobs" on the small fixture batches.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Asserts that reducing `seed_sets` through
/// [`BatchRunner::map_seed_sets`] at every thread count in
/// [`THREAD_SWEEP`] reproduces one fresh serial [`Engine::run`] per seed
/// set exactly: per-query foremost arrivals, per-query witness journeys,
/// and summed [`EngineStats`] (which also pins "n seed sets ⇒ exactly n
/// engine runs"). The reducer copies every answer out of each tree
/// inside the worker, as a production reducer reads them.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first divergence.
pub fn assert_batch_matches_serial<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
    index: &I,
    seed_sets: &[Vec<(NodeId, T)>],
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
    label: &str,
) {
    let nodes = || (0..index.num_nodes()).map(NodeId::from_index);
    let answers = |tree: &ForemostTree<T>| -> Vec<_> {
        nodes()
            .map(|dst| (tree.arrival(dst).cloned(), tree.journey_to(dst)))
            .collect()
    };
    let mut serial = Vec::new();
    let mut serial_stats = EngineStats::default();
    for seeds in seed_sets {
        let tree = Engine::new().run(index, seeds, policy, limits, None);
        serial_stats += tree.stats();
        serial.push(answers(&tree));
    }
    for threads in THREAD_SWEEP {
        let (batch, stats) = BatchRunner::new(index, Batch::threads(threads)).map_seed_sets(
            seed_sets,
            policy,
            limits,
            |_, tree| answers(tree),
        );
        assert_eq!(
            stats, serial_stats,
            "{label}: stats diverge at {threads} threads under {policy}"
        );
        assert_eq!(
            batch.len(),
            seed_sets.len(),
            "{label}: one result per query"
        );
        for (i, (s, p)) in serial.iter().zip(&batch).enumerate() {
            for (dst, (s, p)) in nodes().zip(s.iter().zip(p)) {
                assert_eq!(
                    s.0, p.0,
                    "{label}: arrival of query #{i} → {dst} diverges at \
                     {threads} threads under {policy}"
                );
                assert_eq!(
                    s.1, p.1,
                    "{label}: witness journey of query #{i} → {dst} diverges at \
                     {threads} threads under {policy}"
                );
            }
        }
    }
}

/// [`assert_batch_matches_serial`] for the common all-sources shape:
/// one single-seed query per node of the graph, all starting at `start`
/// (the `ReachabilityMatrix` / `delivery_ratio` workload).
pub fn assert_all_sources_batch_matches_serial<
    T: Time + Send + Sync,
    I: TemporalIndex<T> + Sync,
>(
    index: &I,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
    label: &str,
) {
    let seed_sets: Vec<Vec<(NodeId, T)>> = (0..index.num_nodes())
        .map(|src| vec![(NodeId::from_index(src), start.clone())])
        .collect();
    assert_batch_matches_serial(index, &seed_sets, policy, limits, label);
}
