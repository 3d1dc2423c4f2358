//! The batch-query runtime: independent single-source engine runs fanned
//! out over the calling thread and scoped helper threads that share one
//! compiled [`TvgIndex`](tvg_model::TvgIndex).
//!
//! Every aggregate consumer in the workspace — `ReachabilityMatrix`
//! (all-pairs reachability), `delivery_ratio` (all-sources delivery),
//! the scenario `broadcast` plan, the serve loop's readers — is "one
//! compile, n independent engine runs". The runs share the index
//! immutably (`TvgIndex` is `Send + Sync` whenever its time domain is)
//! and touch nothing else, so the layer is embarrassingly parallel:
//!
//! ```text
//! queries ──▶ atomic claim ──▶ caller  ─ engine run ─┐
//!                         ├──▶ helper₁ ─ engine run ─┼─▶ merge by input
//!                         └──▶ helperₖ ─ engine run ─┘   index (stable)
//!                  helpers start once the caller's work
//!                  says they pay (HELPER_START)
//! ```
//!
//! [`Batch::fan_out`] is the one worker loop. The calling thread is
//! worker 0 and claims queries from an atomic counter (no static
//! chunking, so a straggler query cannot idle the other workers);
//! helpers claim from the same counter, but start only once the caller
//! has worked for [`HELPER_START`] with as much work still unclaimed.
//! A small batch therefore runs inline, and [`Batch::serial`] is the
//! batch that never starts one. Each worker returns `(input index,
//! result)` pairs, and the merge step writes results back in **input
//! order**, which makes the output bit-identical at every thread
//! count. The CI determinism job diffs a canonical dump between
//! `TVG_BATCH_THREADS=1` and `=4` so parallel nondeterminism can never
//! land silently.
//!
//! Work accounting survives the fan-out because [`EngineStats`] are
//! values carried by each run's tree, summed at the merge — "n sources ⇒
//! exactly n runs" holds at any thread count.
//!
//! Each worker owns one [`Engine`] and reuses it for every query it
//! answers, so a run pays for the state it touches, not an O(n + m)
//! allocation per query; a reused engine answers bit-identically to a
//! fresh one.
//!
//! Trees never leave the workers. Every entry point takes a reducer
//! that distills each tree into what the consumer keeps (a matrix row,
//! a histogram, a count), and the tree is dropped inside the worker, so
//! peak memory is O(workers) trees instead of O(batch).

use crate::engine::{Engine, EngineStats, ForemostTree};
use crate::{SearchLimits, WaitingPolicy};
use std::num::{NonZeroUsize, ParseIntError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tvg_model::{NodeId, TemporalIndex, Time};

/// Environment variable overriding [`Batch::auto`]'s thread count.
/// `0`, unset, or unparsable means "use the machine's parallelism".
const THREADS_ENV: &str = "TVG_BATCH_THREADS";

/// Thread-count policy of a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// `None`: the machine's parallelism, asked only when needed.
    threads: Option<NonZeroUsize>,
}

impl Batch {
    /// The canonical single-threaded reference: every query runs inline
    /// on the calling thread, in input order, and no helper ever starts.
    /// Deterministic tests and the CI determinism diff pin against this.
    #[must_use]
    pub fn serial() -> Self {
        Batch::threads(1)
    }

    /// At most `n` worker threads, the calling thread included (clamped
    /// up to 1; a zero-thread batch is the serial one).
    #[must_use]
    pub fn threads(n: usize) -> Self {
        Batch {
            threads: Some(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN)),
        }
    }

    /// The deployment default: the `TVG_BATCH_THREADS` environment
    /// variable if set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`]. The variable is read on
    /// every call; the machine's parallelism is asked at most once per
    /// process, and only when a thread count is needed: by
    /// [`Batch::num_threads`], or by [`Batch::fan_out`] when it is about
    /// to start helpers.
    ///
    /// A set-but-invalid value (`"four"`, `"-2"`) still falls back to
    /// machine parallelism, but emits a one-line warning on stderr
    /// naming the rejected value — a typo in a deployment script should
    /// not silently change the thread count. `"0"` and unset are the
    /// documented "ask the machine" spellings and warn nothing.
    #[must_use]
    pub fn auto() -> Self {
        let threads = std::env::var(THREADS_ENV).ok().and_then(|v| {
            parse_thread_override(&v).unwrap_or_else(|_| {
                eprintln!(
                    "warning: ignoring invalid {THREADS_ENV}={v:?} \
                     (want a non-negative integer); using machine parallelism"
                );
                None
            })
        });
        Batch { threads }
    }

    /// Most worker threads this batch will use, the calling thread
    /// included.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        static MACHINE: OnceLock<NonZeroUsize> = OnceLock::new();
        let machine = || std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
        self.threads
            .unwrap_or_else(|| *MACHINE.get_or_init(machine))
            .get()
    }

    /// Runs `f` over every job and returns the results in input order.
    ///
    /// The calling thread is worker 0: it claims job indices from a
    /// shared atomic counter and runs them. Once it has worked for
    /// [`HELPER_START`] and, at its pace so far, the unclaimed jobs would
    /// take it that long again, it spawns scoped helpers that claim from
    /// the same counter: at most `num_threads() - 1`, and one fewer than
    /// the unclaimed jobs, so the caller keeps one (a helper for the last
    /// job could only race the caller for it). So a batch too
    /// small to pay for a thread runs inline, and the serial batch is the
    /// one that never spawns. Every index is claimed exactly once and
    /// every result is written back by its index, so the output is
    /// bit-identical at every thread count.
    ///
    /// Every worker owns one engine, lent to `f` for each job it runs.
    ///
    /// A panicking job does not abort the process: every helper is
    /// joined before the first panic is rethrown on the calling thread,
    /// whether that is a helper's (the first in spawn order) or the
    /// caller's own (`std::thread::scope` joins the helpers before it
    /// rethrows). Callers see the original payload via
    /// [`std::panic::resume_unwind`], with no stranded threads behind it.
    pub fn fan_out<T, J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        T: Time,
        J: Sync,
        R: Send,
        F: Fn(&mut Engine<T>, &J) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let claim = || {
            let i = next.fetch_add(1, Ordering::Relaxed);
            jobs.get(i).map(|job| (i, job))
        };
        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);
        std::thread::scope(|scope| {
            let started = Instant::now();
            let mut helpers = Vec::new();
            let mut engine = Engine::new();
            while let Some((i, job)) = claim() {
                slots[i] = Some(f(&mut engine, job));
                // Until a helper starts, the caller has claimed 0..=i;
                // helpers pay only while some job is unclaimed.
                if helpers.is_empty() && helpers_pay(started.elapsed(), i + 1, jobs.len()) {
                    helpers = (0..(jobs.len() - i - 2).min(self.num_threads() - 1))
                        .map(|_| {
                            scope.spawn(|| {
                                let mut engine = Engine::new();
                                let mut done = Vec::new();
                                while let Some((i, job)) = claim() {
                                    done.push((i, f(&mut engine, job)));
                                }
                                done
                            })
                        })
                        .collect();
                }
            }
            // Join every helper before rethrowing the first panic.
            let joined: Vec<_> = helpers.into_iter().map(|h| h.join()).collect();
            for done in joined {
                for (i, result) in done.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every claimed job produced a result"))
            .collect()
    }
}

/// How long the calling thread of [`Batch::fan_out`] works alone before
/// it starts helper threads, and how much work must be left for them.
/// On a 2-vCPU VM a scoped spawn and join of an idle helper costs
/// 20–100 µs, but a helper spawned beside a caller that keeps working
/// first runs 0.1–4 ms later (up to one scheduler tick). A batch that
/// finishes within this long runs on the caller alone, which is most
/// scenario plans.
pub const HELPER_START: Duration = Duration::from_millis(1);

/// Whether helpers pay for their start once the caller alone has run
/// `done` of `jobs` jobs in `elapsed`: it has worked [`HELPER_START`],
/// and at its pace so far the rest would take it at least as long.
fn helpers_pay(elapsed: Duration, done: usize, jobs: usize) -> bool {
    elapsed >= HELPER_START
        && elapsed.as_nanos() * (jobs - done) as u128 >= HELPER_START.as_nanos() * done as u128
}

/// The pure classification behind [`Batch::auto`]'s env handling, kept
/// separate so tests can cover every case without racing on the
/// process-global environment: a positive integer fixes the count, `"0"`
/// (with optional surrounding whitespace) is `None`, the machine's
/// parallelism as when unset, and anything else (`"four"`, `"-2"`, `""`)
/// is a mistake worth a warning before falling back.
fn parse_thread_override(v: &str) -> Result<Option<NonZeroUsize>, ParseIntError> {
    v.trim().parse().map(NonZeroUsize::new)
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

    /// One all-destinations foremost run per source, all starting at
    /// `start` — the `ReachabilityMatrix` / `delivery_ratio` workload.
    /// `reduce` distills each tree into whatever the consumer keeps (a
    /// matrix row, a reached-count). The tree — parent structure
    /// included — is lent by the worker's engine and valid until its
    /// next run, so a batch of n queries holds one tree per worker
    /// instead of n, which is what lets the aggregate consumers run at
    /// graph scale. Results come back in input order, with stats summed
    /// over one run per query.
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
        let results = self.batch.fan_out(seed_sets, |engine, seeds| {
            let tree = engine.run(self.index, seeds, policy, limits, None);
            (reduce(seeds, tree), tree.stats())
        });
        let stats = results.iter().map(|(_, s)| *s).sum();
        (results.into_iter().map(|(r, _)| r).collect(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{foremost_tree_multi, Journey};
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
            .map(|seeds| foremost_tree_multi(index, seeds, policy, limits))
            .collect();
        let stats = trees.iter().map(ForemostTree::stats).sum();
        let nodes = index.num_nodes();
        (trees.iter().map(|t| answers(t, nodes)).collect(), stats)
    }

    fn single_seeds(sources: &[NodeId]) -> Vec<Vec<(NodeId, u64)>> {
        sources.iter().map(|&s| vec![(s, 0)]).collect()
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
                    sources
                        .iter()
                        .copied()
                        .filter(|&d| tree.arrival(d).is_some())
                        .collect::<Vec<_>>()
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
        assert_eq!(parse_thread_override("4"), Ok(NonZeroUsize::new(4)));
        assert_eq!(parse_thread_override(" 12 "), Ok(NonZeroUsize::new(12)));
        // The documented "ask the machine" spelling.
        assert_eq!(parse_thread_override("0"), Ok(None));
        // Garbage of every flavor is invalid, never a silent fallback.
        for garbage in ["four", "-2", "", "3.5", "0x4", "18446744073709551616"] {
            assert!(parse_thread_override(garbage).is_err(), "{garbage:?}");
        }
    }

    /// Helpers start once the caller has worked [`HELPER_START`] and the
    /// rest of the batch, at its pace so far, would take it that long.
    #[test]
    fn helpers_start_only_when_they_pay() {
        let ms = Duration::from_millis;
        assert!(!helpers_pay(Duration::from_micros(900), 1, 100));
        assert!(helpers_pay(ms(1), 1, 100));
        // 1 ms for 7 jobs leaves one job of about 0.14 ms.
        assert!(!helpers_pay(ms(1), 7, 8));
        assert!(helpers_pay(ms(4), 4, 8));
        // Nothing left to claim.
        assert!(!helpers_pay(ms(50), 8, 8));
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
