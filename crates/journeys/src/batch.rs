//! The batch-query runtime: independent single-source engine runs fanned
//! out over scoped worker threads that share one compiled
//! [`TvgIndex`](tvg_model::TvgIndex).
//!
//! Every aggregate consumer in the workspace — `ReachabilityMatrix`
//! (all-pairs reachability), `delivery_ratio` (all-sources delivery),
//! the scenario `broadcast` plan — is "one compile, n independent
//! engine runs". The runs share the index immutably (`TvgIndex` is
//! `Send + Sync` whenever its time domain is) and touch nothing else,
//! so the layer is embarrassingly parallel:
//!
//! ```text
//! queries ──▶ atomic claim ──▶ worker₀ ─ engine run ─┐
//!                         ├──▶ worker₁ ─ engine run ─┼─▶ merge by input
//!                         └──▶ workerₖ ─ engine run ─┘   index (stable)
//! ```
//!
//! Workers claim queries from an atomic counter (no static chunking, so
//! a straggler query cannot idle the other workers) and return
//! `(input index, result)` pairs; the merge step reorders results into
//! **input order**, which makes the output bit-identical to the serial
//! path at every thread count. [`Batch::serial`] keeps a canonical
//! single-threaded reference for deterministic tests, and the CI
//! determinism job diffs a canonical dump between `TVG_BATCH_THREADS=1`
//! and `=4` so parallel nondeterminism can never land silently.
//!
//! Work accounting survives the fan-out because [`EngineStats`] are
//! values carried by each run's tree, summed at the merge — "n sources ⇒
//! exactly n runs" holds at any thread count.
//!
//! Each worker builds one [`Engine`] on its first claim and reuses it
//! for every query it answers, so a run pays for the state it touches,
//! not an O(n + m) allocation per query; a reused engine answers
//! bit-identically to a fresh one.
//!
//! Trees never leave the workers. Every entry point takes a reducer
//! that distills each tree into what the consumer keeps (a matrix row,
//! a histogram, a count), and the tree is dropped inside the worker, so
//! peak memory is O(workers) trees instead of O(batch).

use crate::engine::{Engine, EngineStats, ForemostTree};
use crate::{SearchLimits, WaitingPolicy};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use tvg_model::{NodeId, TemporalIndex, Time};

/// Environment variable overriding [`Batch::auto`]'s thread count.
/// `0`, unset, or unparsable means "use the machine's parallelism".
const THREADS_ENV: &str = "TVG_BATCH_THREADS";

/// Thread-count policy of a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    threads: NonZeroUsize,
}

impl Batch {
    /// The canonical single-threaded reference: every query runs inline
    /// on the calling thread, in input order. Deterministic tests and
    /// the CI determinism diff pin against this.
    #[must_use]
    pub fn serial() -> Self {
        Batch {
            threads: NonZeroUsize::MIN,
        }
    }

    /// Exactly `n` worker threads (clamped up to 1; a zero-thread batch
    /// is the serial one).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Batch {
            threads: NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The deployment default: the `TVG_BATCH_THREADS` environment
    /// variable if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    ///
    /// A set-but-invalid value (`"four"`, `"-2"`) still falls back to
    /// machine parallelism, but emits a one-line warning on stderr
    /// naming the rejected value — a typo in a deployment script should
    /// not silently change the thread count. `"0"` and unset are the
    /// documented "ask the machine" spellings and warn nothing.
    #[must_use]
    pub fn auto() -> Self {
        let from_env =
            std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| match parse_thread_override(&v) {
                    ThreadOverride::Fixed(n) => Some(n),
                    ThreadOverride::Machine => None,
                    ThreadOverride::Invalid => {
                        eprintln!(
                            "warning: ignoring invalid {THREADS_ENV}={v:?} \
                         (want a non-negative integer); using machine parallelism"
                        );
                        None
                    }
                });
        let threads = from_env
            .or_else(|| std::thread::available_parallelism().ok())
            .unwrap_or(NonZeroUsize::MIN);
        Batch { threads }
    }

    /// Number of worker threads this batch will use.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.get()
    }
}

/// What a `TVG_BATCH_THREADS` value means, as three distinct cases so
/// [`Batch::auto`] can warn on the invalid one without conflating it
/// with the documented "ask the machine" spellings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadOverride {
    /// A positive integer: use exactly this many workers.
    Fixed(NonZeroUsize),
    /// `"0"` (with optional surrounding whitespace): explicitly defer
    /// to machine parallelism, same as unset.
    Machine,
    /// Anything else (`"four"`, `"-2"`, `""`): a mistake worth a
    /// warning before falling back.
    Invalid,
}

/// The pure classification behind [`Batch::auto`]'s env handling, kept
/// separate so tests can cover every case without racing on the
/// process-global environment.
fn parse_thread_override(v: &str) -> ThreadOverride {
    match v.trim().parse::<usize>() {
        Ok(0) => ThreadOverride::Machine,
        Ok(n) => ThreadOverride::Fixed(NonZeroUsize::new(n).expect("n > 0")),
        Err(_) => ThreadOverride::Invalid,
    }
}

/// Shares one compiled index across a batch of engine runs.
///
/// Generic over the index form ([`TemporalIndex`]): a batch-compiled
/// [`tvg_model::TvgIndex`] and a streaming [`tvg_model::LiveIndex`]
/// snapshot run identically — a live workload borrows the index between
/// ingest ticks, fans a query batch out, and returns the borrow before
/// the next tick mutates the schedule (the borrow checker enforces the
/// tick discipline: no worker can outlive the snapshot).
///
/// ```
/// use tvg_journeys::{Batch, BatchRunner, SearchLimits, WaitingPolicy};
/// use tvg_model::{generators::ring_bus_tvg, TvgIndex};
///
/// let g = ring_bus_tvg(4, 4, 'r');
/// let index = TvgIndex::compile(&g, 40);
/// let runner = BatchRunner::new(&index, Batch::auto());
/// let sources: Vec<_> = g.nodes().collect();
/// let limits = SearchLimits::new(40, 12);
/// let (reached, stats) =
///     runner.map_sources(&sources, &0, &WaitingPolicy::Unbounded, &limits, |_, tree| {
///         tree.num_reached()
///     });
/// assert_eq!(stats.runs, 4); // one engine run per source
/// assert_eq!(reached, [4, 4, 4, 4]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner<'i, I> {
    index: &'i I,
    batch: Batch,
}

impl<'i, I> BatchRunner<'i, I> {
    /// A runner over `index` with the given thread-count policy.
    #[must_use]
    pub fn new(index: &'i I, batch: Batch) -> Self {
        BatchRunner { index, batch }
    }

    /// The thread-count policy of this runner.
    #[must_use]
    pub fn batch(&self) -> Batch {
        self.batch
    }

    /// One all-destinations foremost run per source, all starting at
    /// `start` — the `ReachabilityMatrix` / `delivery_ratio` workload.
    /// `reduce` distills each tree into whatever the consumer keeps (a
    /// matrix row, a reached-count), and the tree — parent structure
    /// included — is dropped inside the worker. A batch of n queries
    /// therefore holds O(workers) trees in flight instead of n, which is
    /// what lets the aggregate consumers run at graph scale. Results
    /// come back in input order, with stats summed over one run per
    /// query.
    #[must_use]
    pub fn map_sources<T: Time + Send + Sync, R: Send>(
        &self,
        sources: &[NodeId],
        start: &T,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        reduce: impl Fn(NodeId, &ForemostTree<T>) -> R + Sync,
    ) -> (Vec<R>, EngineStats)
    where
        I: TemporalIndex<T> + Sync,
    {
        let seed_sets: Vec<_> = sources.iter().map(|&s| vec![(s, start.clone())]).collect();
        self.map_seed_sets(&seed_sets, policy, limits, |seeds, tree| {
            reduce(seeds[0].0, tree)
        })
    }

    /// One all-destinations foremost run per seed *set* (multi-seed runs
    /// model re-emitting sources, e.g. beaconing broadcasts), reduced in
    /// the worker as in [`BatchRunner::map_sources`]; `reduce` also
    /// receives the seed set its tree answers for.
    #[must_use]
    pub fn map_seed_sets<T: Time + Send + Sync, R: Send>(
        &self,
        seed_sets: &[Vec<(NodeId, T)>],
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        reduce: impl Fn(&[(NodeId, T)], &ForemostTree<T>) -> R + Sync,
    ) -> (Vec<R>, EngineStats)
    where
        I: TemporalIndex<T> + Sync,
    {
        let results = fan_out(self.batch.num_threads(), seed_sets, |engine, seeds| {
            let tree = engine.run(self.index, seeds, policy, limits, None);
            (reduce(seeds, &tree), tree.stats())
        });
        let stats = results.iter().map(|(_, s)| *s).sum();
        (results.into_iter().map(|(r, _)| r).collect(), stats)
    }
}

/// Runs `f` over every job and returns the results in input order.
///
/// With one thread (or at most one job) everything runs inline on the
/// calling thread — the serial escape hatch costs no spawn. Otherwise
/// `min(threads, jobs)` scoped workers claim job indices from a shared
/// atomic counter, each collecting `(index, result)` pairs; the join
/// loop writes results back by index. Every index is claimed exactly
/// once, so the merged vector is a permutation-free image of the serial
/// output — bit-identical at every thread count.
///
/// Every worker (the calling thread, when serial) owns one engine,
/// built on its first claim and lent to `f` for each job it runs.
///
/// A panicking job does not abort the process: every worker is joined
/// before the first panic payload is rethrown on the calling thread
/// (std's scope would abort on a panicking `Drop` of an unjoined
/// handle, and `join().expect(..)` would double-panic while siblings
/// are still mid-query). Callers see the original payload via
/// [`std::panic::resume_unwind`], with no stranded threads behind it.
fn fan_out<T, J, R, F>(threads: usize, jobs: &[J], f: F) -> Vec<R>
where
    T: Time,
    J: Sync,
    R: Send,
    F: Fn(&mut Engine<T>, &J) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        let mut engine = Engine::new();
        return jobs.iter().map(|job| f(&mut engine, job)).collect();
    }
    let workers = threads.min(jobs.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    let mut engine: Option<Engine<T>> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            return done;
                        };
                        done.push((i, f(engine.get_or_insert_with(Engine::new), job)));
                    }
                })
            })
            .collect();
        // Join every worker before reacting to any failure: a panic in
        // one must not strand its siblings mid-scope.
        for handle in handles {
            match handle.join() {
                Ok(results) => {
                    for (i, result) in results {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every claimed job produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journey;
    use tvg_model::generators::{ring_bus_tvg, scale_free_temporal};
    use tvg_model::TvgIndex;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn policies() -> [WaitingPolicy<u64>; 3] {
        [
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(2),
            WaitingPolicy::Unbounded,
        ]
    }

    /// Thread counts below, at and above the small fixtures' job counts.
    const THREADS: [usize; 4] = [1, 2, 4, 8];

    /// Every node's foremost arrival and witness journey in `tree`.
    type Answers = Vec<(Option<u64>, Option<Journey<u64>>)>;

    fn answers(tree: &ForemostTree<u64>, nodes: usize) -> Answers {
        (0..nodes)
            .map(n)
            .map(|d| (tree.arrival(d).cloned(), tree.journey_to(d)))
            .collect()
    }

    /// The serial reference: one fresh engine run per seed set, each
    /// tree reduced to its [`answers`], with the summed stats.
    fn serial<I: TemporalIndex<u64>>(
        index: &I,
        seed_sets: &[Vec<(NodeId, u64)>],
        policy: &WaitingPolicy<u64>,
        limits: &SearchLimits<u64>,
    ) -> (Vec<Answers>, EngineStats) {
        let trees: Vec<_> = seed_sets
            .iter()
            .map(|seeds| Engine::new().run(index, seeds, policy, limits, None))
            .collect();
        let stats = trees.iter().map(ForemostTree::stats).sum();
        let nodes = index.num_nodes();
        (trees.iter().map(|t| answers(t, nodes)).collect(), stats)
    }

    fn single_seeds(sources: &[NodeId]) -> Vec<Vec<(NodeId, u64)>> {
        sources.iter().map(|&s| vec![(s, 0)]).collect()
    }

    #[test]
    fn thread_count_never_changes_results() {
        let g = scale_free_temporal(40, 32, 5);
        let index = TvgIndex::compile(&g, 32);
        let sources: Vec<NodeId> = g.nodes().collect();
        let limits = SearchLimits::new(32, 8);
        for policy in policies() {
            let expected = serial(&index, &single_seeds(&sources), &policy, &limits);
            for threads in THREADS {
                let got = BatchRunner::new(&index, Batch::threads(threads)).map_sources(
                    &sources,
                    &0,
                    &policy,
                    &limits,
                    |_, tree| answers(tree, g.num_nodes()),
                );
                assert_eq!(got, expected, "{policy} x{threads}");
            }
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let g = ring_bus_tvg(6, 6, 'r');
        let index = TvgIndex::compile(&g, 36);
        let limits = SearchLimits::new(36, 12);
        // Deliberately scrambled source order: result i must belong to
        // sources[i], not to the completion order of the workers.
        let sources = [n(3), n(0), n(5), n(1), n(4), n(2)];
        let policy = WaitingPolicy::Unbounded;
        let expected = serial(&index, &single_seeds(&sources), &policy, &limits);
        for threads in THREADS {
            let (got, stats) = BatchRunner::new(&index, Batch::threads(threads)).map_sources(
                &sources,
                &0,
                &policy,
                &limits,
                |src, tree| (src, answers(tree, g.num_nodes())),
            );
            assert_eq!(stats, expected.1, "x{threads}");
            assert_eq!(stats.runs, sources.len() as u64);
            for ((src, got), (want_src, want)) in
                got.into_iter().zip(sources.iter().zip(&expected.0))
            {
                assert_eq!(src, *want_src, "x{threads}");
                assert_eq!(&got, want, "x{threads}: answers for {src}");
                let (arrival, journey) = &got[src.index()];
                assert_eq!(arrival, &Some(0), "seed of {src} is itself");
                assert!(journey.as_ref().expect("seed journey").is_empty());
            }
        }
    }

    #[test]
    fn seed_sets_match_their_serial_engines() {
        let g = ring_bus_tvg(5, 5, 'r');
        let index = TvgIndex::compile(&g, 30);
        let limits = SearchLimits::new(30, 10);
        let seed_sets: Vec<Vec<(NodeId, u64)>> = (0..5)
            .map(|i| (0..3u64).map(|t| (n(i), t)).collect())
            .collect();
        for policy in policies() {
            let expected = serial(&index, &seed_sets, &policy, &limits);
            assert_eq!(expected.1.runs, seed_sets.len() as u64);
            for threads in THREADS {
                let (results, stats) = BatchRunner::new(&index, Batch::threads(threads))
                    .map_seed_sets(&seed_sets, &policy, &limits, |seeds, tree| {
                        (seeds.to_vec(), answers(tree, g.num_nodes()))
                    });
                let (sets, got): (Vec<_>, Vec<_>) = results.into_iter().unzip();
                assert_eq!(sets, seed_sets, "{policy} x{threads}");
                assert_eq!((got, stats), expected, "{policy} x{threads}");
            }
        }
    }

    #[test]
    fn map_variants_match_the_full_tree_path() {
        let g = scale_free_temporal(25, 24, 3);
        let index = TvgIndex::compile(&g, 24);
        let sources: Vec<NodeId> = g.nodes().collect();
        let seed_sets = single_seeds(&sources);
        let limits = SearchLimits::new(24, 6);
        for policy in policies() {
            let (trees, stats) = serial(&index, &seed_sets, &policy, &limits);
            let reached: Vec<Vec<NodeId>> = trees
                .iter()
                .map(|t| {
                    sources
                        .iter()
                        .copied()
                        .filter(|&d| t[d.index()].0.is_some())
                        .collect()
                })
                .collect();
            for threads in THREADS {
                let runner = BatchRunner::new(&index, Batch::threads(threads));
                let by_source = runner.map_sources(&sources, &0, &policy, &limits, |_, tree| {
                    tree.reached_nodes().collect::<Vec<_>>()
                });
                assert_eq!(by_source, (reached.clone(), stats), "{policy} x{threads}");
                let counts = runner
                    .map_seed_sets(&seed_sets, &policy, &limits, |_, tree| tree.num_reached());
                let expected: Vec<usize> = reached.iter().map(Vec::len).collect();
                assert_eq!(counts, (expected, stats), "{policy} x{threads}");
            }
        }
    }

    #[test]
    fn batch_thread_policy_clamps_and_reports() {
        assert_eq!(Batch::serial().num_threads(), 1);
        assert_eq!(Batch::threads(0).num_threads(), 1);
        assert_eq!(Batch::threads(8).num_threads(), 8);
        assert!(Batch::auto().num_threads() >= 1);
    }

    /// The env-override classification behind [`Batch::auto`]: positive
    /// integers fix the count, `"0"` (like unset) defers to the
    /// machine, and garbage is a distinct invalid case (which `auto`
    /// warns about before falling back). The pure function carries the
    /// coverage so tests never mutate the process-global environment.
    #[test]
    fn thread_env_override_classifies_all_spellings() {
        assert_eq!(
            parse_thread_override("4"),
            ThreadOverride::Fixed(NonZeroUsize::new(4).unwrap())
        );
        assert_eq!(
            parse_thread_override(" 12 "),
            ThreadOverride::Fixed(NonZeroUsize::new(12).unwrap())
        );
        // The documented "ask the machine" spelling.
        assert_eq!(parse_thread_override("0"), ThreadOverride::Machine);
        // Garbage of every flavor is invalid, never a silent fallback.
        for garbage in ["four", "-2", "", "3.5", "0x4", "18446744073709551616"] {
            assert_eq!(
                parse_thread_override(garbage),
                ThreadOverride::Invalid,
                "{garbage:?}"
            );
        }
    }

    /// Regression for the fan-out panic path: a poisoned query must
    /// unwind cleanly out of the batch (original payload, every sibling
    /// worker joined) instead of aborting the process from a panicking
    /// scope-internal `expect`.
    #[test]
    fn worker_panic_propagates_without_aborting() {
        let jobs: Vec<usize> = (0..32).collect();
        // Silence the default hook while the deliberate panic unwinds
        // so the test log stays clean; restore it before asserting.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| {
            fan_out(4, &jobs, |_: &mut Engine<u64>, &i| {
                assert!(i != 17, "poisoned query #{i}");
                i * 2
            })
        });
        std::panic::set_hook(hook);
        let payload = caught.expect_err("the poisoned job must unwind");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted assert carries a String payload");
        assert!(
            message.contains("poisoned query #17"),
            "original payload is preserved: {message}"
        );
        // The scope has exited, so every sibling is joined; a healthy
        // batch on the same runner still works afterwards.
        let healthy = fan_out(4, &jobs, |_: &mut Engine<u64>, &i| i * 2);
        assert_eq!(healthy, (0..64).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = ring_bus_tvg(3, 3, 'r');
        let index = TvgIndex::compile(&g, 9);
        let limits = SearchLimits::new(9, 3);
        let out = BatchRunner::new(&index, Batch::threads(4)).map_sources(
            &[],
            &0,
            &WaitingPolicy::Unbounded,
            &limits,
            |_, tree| tree.num_reached(),
        );
        assert_eq!(out, (Vec::new(), EngineStats::default()));
    }
}
