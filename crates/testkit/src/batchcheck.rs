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
//! Fixture batches finish long before a batch would start helper
//! threads, so the oracle holds each job up ([`HeldUp`]) until helpers
//! run and asserts that they did.
//!
//! Like `tickscan`, this lives in the testkit so every crate's suite can
//! apply the same oracle to its own fixtures.

use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use tvg_journeys::{
    foremost_tree_multi, Batch, BatchRunner, EngineStats, ForemostTree, SearchLimits,
    WaitingPolicy, HELPER_START,
};
use tvg_model::{NodeId, TemporalIndex, Time};

/// Thread counts the oracle exercises: the caller alone, and fewer
/// helpers than, about as many as, and more than the small fixture
/// batches have jobs.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Holds up a batch's jobs so that, at more than one thread, helpers
/// surely start and take part: the first job (always the caller's)
/// outlasts [`HELPER_START`], and the caller's later jobs wait until a
/// helper has run one (or ten seconds have passed). Records which
/// thread ran each job.
pub struct HeldUp {
    /// Whether helpers can run a job: more than one thread, and at least
    /// three jobs, as the caller claims the next job as soon as the
    /// helpers start.
    pub expects_helpers: bool,
    caller: ThreadId,
    deadline: Instant,
    ran: Mutex<Vec<ThreadId>>,
}

impl HeldUp {
    /// For a batch of `jobs` jobs on at most `threads` workers, run from
    /// this thread.
    #[must_use]
    pub fn new(threads: usize, jobs: usize) -> Self {
        HeldUp {
            expects_helpers: threads > 1 && jobs > 2,
            caller: std::thread::current().id(),
            deadline: Instant::now() + Duration::from_secs(10),
            ran: Mutex::default(),
        }
    }

    /// Call first in every job: whether it runs on the caller, and how
    /// many jobs its thread ran before it.
    pub fn job(&self) -> (bool, usize) {
        let me = std::thread::current().id();
        let (first, nth) = {
            let mut ran = self.ran.lock().unwrap();
            ran.push(me);
            (ran.len() == 1, ran.iter().filter(|&&t| t == me).count() - 1)
        };
        if first {
            std::thread::sleep(2 * HELPER_START);
        } else if me == self.caller && self.expects_helpers {
            while !self.helped() && Instant::now() < self.deadline {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        (me == self.caller, nth)
    }

    /// Whether any job ran on a thread other than the caller.
    #[must_use]
    pub fn helped(&self) -> bool {
        self.ran.lock().unwrap().iter().any(|&t| t != self.caller)
    }
}

/// Asserts that reducing `seed_sets` through
/// [`BatchRunner::map_seed_sets`] at every thread count in
/// `THREAD_SWEEP` reproduces one serial [`foremost_tree_multi`] per seed
/// set exactly: per-query foremost arrivals, per-query witness journeys,
/// and summed [`EngineStats`] (which also pins "n seed sets ⇒ exactly n
/// engine runs"). The reducer is held up so that helpers run jobs at
/// every count above one ([`HeldUp`]), and copies every answer out of
/// each lent tree inside the worker, as a production reducer reads them.
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
        let tree = foremost_tree_multi(index, seeds, policy, limits);
        serial_stats += tree.stats();
        serial.push(answers(&tree));
    }
    for threads in THREAD_SWEEP {
        let held = HeldUp::new(threads, seed_sets.len());
        let (batch, stats) = BatchRunner::new(index, Batch::threads(threads)).map_seed_sets(
            seed_sets,
            policy,
            limits,
            |_, tree| {
                held.job();
                answers(tree)
            },
        );
        assert_eq!(
            held.helped(),
            held.expects_helpers,
            "{label}: helpers ran jobs at {threads} threads"
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
