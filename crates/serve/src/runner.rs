//! The serve loop: one writer ingesting ticks, N readers draining the
//! admission queue against pinned snapshots.
//!
//! ## Determinism under real concurrency
//!
//! The runtime is genuinely concurrent — readers answer queries while
//! the writer is mid-ingest — yet the *logical* outcome is a pure
//! function of the inputs. The trick is deterministic epoch pinning:
//! each request's logical arrival instant decides, by timestamp
//! arithmetic alone (see [`availability`] / [`epoch_of`]), which
//! publication epoch serves it. A reader that dequeues a request pinned
//! to an epoch the writer has not reached yet waits on the
//! [`EpochRing`]; one that dequeues a request pinned to an old epoch
//! reads the frozen snapshot no matter how far the writer has advanced.
//! Either way the answer bytes are those of the pinned snapshot, so
//! reader count and scheduling change only the timing metrics, never
//! the logical section — the property the golden gate and the
//! `servecheck` oracle both pin.
//!
//! ## Amortization
//!
//! Requests are grouped by `(epoch, kind-class, source)`: a foremost
//! request and a matrix request on the same source and epoch share one
//! engine pass (both read off the same foremost tree), and a beaconing
//! broadcast's multi-seed pass is run once per `(epoch, source)` no
//! matter how many clients asked. [`ServeOutcome::grouped_runs`] counts
//! the actual engine passes so reports can show the amortization.

use crate::load::{Request, TimedRequest};
use crate::snapshot::{EpochRing, ServeSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use tvg_journeys::{foremost_tree_multi, EngineStats, SearchLimits, WaitingPolicy};
use tvg_model::stream::{StreamError, StreamEvent, TvgStream};
use tvg_model::NodeId;

/// How a serve run executes: reader parallelism and query discipline.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Reader threads draining the admission queue (clamped up to 1).
    pub readers: usize,
    /// Waiting policy of every query.
    pub policy: WaitingPolicy<u64>,
    /// Search limits of every query (journeys depart in
    /// `[start, limits.horizon]`).
    pub limits: SearchLimits<u64>,
    /// Journey start instant shared by every query (requests pin
    /// *epochs* by arrival time; the journey clock is the spec's).
    pub start: u64,
}

/// A request's computed answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Foremost arrival at the destination (`None` = unreachable).
    Arrival(Option<u64>),
    /// Nodes reached from the source (matrix row weight).
    Reached(u64),
    /// Nodes informed by the beaconing broadcast.
    Informed(u64),
}

/// One fully served request: the input stamped with the epoch that
/// answered it and the answer itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRequest {
    /// Logical arrival instant (from the load generator).
    pub at: u64,
    /// The query.
    pub request: Request,
    /// The publication epoch whose snapshot answered it.
    pub epoch: u64,
    /// The answer.
    pub answer: Answer,
}

/// Wall-clock metrics of a serve run. Real measurements — they vary by
/// machine and scheduling, so they must stay **outside** any canonical
/// report bytes (the scenario layer carries them in a non-canonical
/// `timing` field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeTiming {
    /// End-to-end wall time of the run in microseconds.
    pub wall_micros: u128,
    /// Median per-request service latency (dequeue-to-answer, the
    /// epoch wait included) in microseconds.
    pub p50_micros: u128,
    /// 95th-percentile per-request service latency in microseconds.
    pub p95_micros: u128,
    /// Worst per-request service latency in microseconds.
    pub max_micros: u128,
    /// Requests answered per wall-clock second.
    pub throughput_rps: f64,
    /// Writer wall time spent taking and publishing snapshots, summed
    /// over every epoch, in microseconds.
    pub publish_micros: u128,
    /// Epochs published per second of publication time (the headline
    /// rate the persistent index keeps flat as the schedule grows).
    pub epochs_per_sec: f64,
}

/// What publishing one epoch shared and copied. Unlike [`ServeTiming`],
/// these are *logical* counters — a pure function of the stream and the
/// tick schedule (single writer, and readers only clone the snapshot
/// `Arc`, never its chunks), so they are deterministic at any reader
/// count and safe to pin in tests and goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishStats {
    /// The epoch this publication produced.
    pub epoch: u64,
    /// Events in the tick ingested just before this publish (0 for the
    /// initial epoch and for stale error-path publications).
    pub events: u64,
    /// Frozen chunks (plus the shared graph) the snapshot shares with
    /// the live index instead of copying.
    pub chunks_frozen: u64,
    /// Shared chunks the stream had to copy-on-write during the tick —
    /// the true cost snapshot isolation imposed on this tick's
    /// mutations.
    pub chunks_copied: u64,
}

/// The complete outcome of one serve run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Every request in input order, answered.
    pub served: Vec<ServedRequest>,
    /// Epochs the writer published (`ticks + 1`: the initial snapshot
    /// plus one per ingest tick).
    pub epochs_published: u64,
    /// Engine passes actually run after grouping.
    pub grouped_runs: u64,
    /// Summed engine work counters (order-independent, so identical at
    /// every reader count).
    pub stats: EngineStats,
    /// Per-epoch publication counters, in publication order
    /// (deterministic; see [`PublishStats`]).
    pub publications: Vec<PublishStats>,
    /// Wall-clock metrics (non-canonical; see [`ServeTiming`]).
    pub timing: ServeTiming,
}

/// When each tick's content becomes *logically* available: entry `i` is
/// the running maximum event instant over ticks `0..=i` (a tick with no
/// timed events inherits its predecessor's availability). A request
/// arriving at instant `t` is served by the latest epoch whose content
/// is from `<= t` — this is the timestamp arithmetic that makes epoch
/// pinning deterministic.
#[must_use]
pub fn availability(ticks: &[Vec<StreamEvent<u64>>]) -> Vec<u64> {
    let mut avail = Vec::with_capacity(ticks.len());
    let mut running = 0u64;
    for tick in ticks {
        for event in tick {
            let instant = match event {
                StreamEvent::Up { at, .. }
                | StreamEvent::Down { at, .. }
                | StreamEvent::NodeLeave { at, .. } => *at,
                StreamEvent::ExtendHorizon { to } => *to,
                StreamEvent::NewEdge { .. } | StreamEvent::NewNode { .. } => 0,
            };
            running = running.max(instant);
        }
        avail.push(running);
    }
    avail
}

/// The epoch serving a request that arrives at `t`: the number of ticks
/// whose [`availability`] is at or before `t` (epoch 0 is the
/// pre-ingest snapshot; epoch `i + 1` becomes eligible once tick `i`'s
/// content is from `<= t`).
#[must_use]
pub fn epoch_of(avail: &[u64], t: u64) -> u64 {
    // `avail` is a running maximum, so the eligible prefix is
    // contiguous: one binary search instead of a scan per request.
    avail.partition_point(|&a| a <= t) as u64
}

/// Which engine pass a request group shares: plain single-seed trees
/// (foremost + matrix) or beaconing multi-seed broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum GroupClass {
    Tree,
    Beacon,
}

/// What one reader brings back for one group.
struct GroupResult {
    answers: Vec<(usize, u64, Answer)>,
    stats: EngineStats,
    micros: u128,
    members: usize,
}

/// Runs the serve loop: the writer applies `ticks` to `stream` and
/// publishes one snapshot epoch per tick (plus the initial epoch 0),
/// while `config.readers` reader threads drain `requests` — grouped by
/// `(epoch, class, source)` — against their pinned snapshots.
///
/// Readers never lock: snapshot acquisition is one atomic load plus an
/// `Arc` clone off the [`EpochRing`].
///
/// # Errors
///
/// An ingest failure stops the writer and surfaces as the returned
/// [`StreamError`] — but only after the remaining epochs are published
/// as stale copies of the last good snapshot (so no pinned reader can
/// hang) and every thread is joined.
///
/// # Panics
///
/// Propagates the first worker panic after all threads are joined
/// (mirroring the batch layer's fan-out discipline).
pub fn serve(
    stream: TvgStream<u64>,
    ticks: &[Vec<StreamEvent<u64>>],
    requests: &[TimedRequest],
    config: &ServeConfig,
) -> Result<ServeOutcome, StreamError<u64>> {
    let started = Instant::now();
    let avail = availability(ticks);
    let epochs = ticks.len() + 1;

    // Admission grouping: request indices by (epoch, class, source),
    // deterministic by construction (BTreeMap order).
    let mut groups: std::collections::BTreeMap<(u64, GroupClass, usize), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, timed) in requests.iter().enumerate() {
        let epoch = epoch_of(&avail, timed.at);
        let class = match timed.request {
            Request::Foremost { .. } | Request::Matrix { .. } => GroupClass::Tree,
            Request::Broadcast { .. } => GroupClass::Beacon,
        };
        groups
            .entry((epoch, class, timed.request.src()))
            .or_default()
            .push(i);
    }
    let groups: Vec<((u64, GroupClass, usize), Vec<usize>)> = groups.into_iter().collect();
    let grouped_runs = groups.len() as u64;

    let ring: EpochRing<u64> = EpochRing::new(epochs);
    let next_group = AtomicUsize::new(0);
    let readers = config.readers.max(1);

    let mut ingest_result: Result<(), StreamError<u64>> = Ok(());
    let mut publications: Vec<PublishStats> = Vec::new();
    let mut publish_micros: u128 = 0;
    let mut group_results: Vec<Option<GroupResult>> = Vec::with_capacity(groups.len());
    group_results.resize_with(groups.len(), || None);
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let ring = &ring;
        let writer = scope.spawn(move || {
            let mut stream = stream;
            let mut log = PublishLog::new(&stream, ticks.len() + 1);
            log.publish(ring, &stream, 0, 0);
            for (i, tick) in ticks.iter().enumerate() {
                if let Err(e) = stream.ingest(tick) {
                    // Publish the remaining epochs as stale copies so
                    // readers pinned past the failure never spin
                    // forever; the error itself is the writer's result.
                    for j in i..ticks.len() {
                        log.publish(ring, &stream, j as u64 + 1, 0);
                    }
                    return (Err(e), log);
                }
                log.publish(ring, &stream, i as u64 + 1, tick.len() as u64);
            }
            (Ok(()), log)
        });

        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                let (next_group, groups, config) = (&next_group, &groups, config);
                scope.spawn(move || {
                    let mut done: Vec<(usize, GroupResult)> = Vec::new();
                    loop {
                        let gi = next_group.fetch_add(1, Ordering::Relaxed);
                        let Some(((epoch, class, src), members)) = groups.get(gi) else {
                            return done;
                        };
                        let t0 = Instant::now();
                        let snapshot = ring.wait(*epoch);
                        let result =
                            serve_group(&snapshot, *class, *src, members, requests, config);
                        done.push((
                            gi,
                            GroupResult {
                                answers: result.0,
                                stats: result.1,
                                micros: t0.elapsed().as_micros(),
                                members: members.len(),
                            },
                        ));
                    }
                })
            })
            .collect();

        // Join every thread before reacting to any failure (one panic
        // or ingest error must not strand siblings mid-scope).
        for handle in reader_handles {
            match handle.join() {
                Ok(done) => {
                    for (gi, result) in done {
                        group_results[gi] = Some(result);
                    }
                }
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        match writer.join() {
            Ok((result, log)) => {
                ingest_result = result;
                publications = log.publications;
                publish_micros = log.micros;
            }
            Err(payload) => {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    ingest_result?;

    // Merge: every group ran exactly once, every request belongs to
    // exactly one group, so the slots below fill completely.
    let mut served: Vec<Option<ServedRequest>> = vec![None; requests.len()];
    let mut stats = EngineStats::default();
    let mut latencies: Vec<u128> = Vec::with_capacity(requests.len());
    for result in group_results.into_iter().flatten() {
        stats += result.stats;
        for _ in 0..result.members {
            latencies.push(result.micros);
        }
        for (i, epoch, answer) in result.answers {
            served[i] = Some(ServedRequest {
                at: requests[i].at,
                request: requests[i].request,
                epoch,
                answer,
            });
        }
    }
    let served: Vec<ServedRequest> = served
        .into_iter()
        .map(|r| r.expect("every request was served by its group"))
        .collect();

    let wall_micros = started.elapsed().as_micros();
    latencies.sort_unstable();
    let percentile = |p: usize| -> u128 {
        if latencies.is_empty() {
            return 0;
        }
        latencies[(latencies.len() - 1) * p / 100]
    };
    #[allow(clippy::cast_precision_loss)]
    let throughput_rps = if wall_micros == 0 {
        0.0
    } else {
        requests.len() as f64 / (wall_micros as f64 / 1_000_000.0)
    };
    #[allow(clippy::cast_precision_loss)]
    let epochs_per_sec = if publish_micros == 0 {
        0.0
    } else {
        epochs as f64 / (publish_micros as f64 / 1_000_000.0)
    };
    Ok(ServeOutcome {
        served,
        epochs_published: epochs as u64,
        grouped_runs,
        stats,
        publications,
        timing: ServeTiming {
            wall_micros,
            p50_micros: percentile(50),
            p95_micros: percentile(95),
            max_micros: latencies.last().copied().unwrap_or(0),
            throughput_rps,
            publish_micros,
            epochs_per_sec,
        },
    })
}

/// Writer-side bookkeeping around each snapshot publication: wall time
/// of the publish itself plus the deterministic sharing counters.
struct PublishLog {
    publications: Vec<PublishStats>,
    micros: u128,
    last_copied: u64,
}

impl PublishLog {
    fn new(stream: &TvgStream<u64>, epochs: usize) -> Self {
        PublishLog {
            publications: Vec::with_capacity(epochs),
            micros: 0,
            last_copied: stream.index().chunks_copied(),
        }
    }

    fn publish(&mut self, ring: &EpochRing<u64>, stream: &TvgStream<u64>, epoch: u64, events: u64) {
        let t0 = Instant::now();
        ring.publish(ServeSnapshot::new(epoch, stream.snapshot()));
        self.micros += t0.elapsed().as_micros();
        let copied = stream.index().chunks_copied();
        self.publications.push(PublishStats {
            epoch,
            events,
            chunks_frozen: stream.index().chunks_frozen(),
            chunks_copied: copied - self.last_copied,
        });
        self.last_copied = copied;
    }
}

/// Answers one group with a single engine pass over its pinned
/// snapshot.
fn serve_group(
    snapshot: &std::sync::Arc<ServeSnapshot<u64>>,
    class: GroupClass,
    src: usize,
    members: &[usize],
    requests: &[TimedRequest],
    config: &ServeConfig,
) -> (Vec<(usize, u64, Answer)>, EngineStats) {
    let source = NodeId::from_index(src);
    let seeds: Vec<(NodeId, u64)> = match class {
        GroupClass::Tree => vec![(source, config.start)],
        // A beaconing source re-emits at every instant in the window.
        GroupClass::Beacon => (config.start..=config.limits.horizon)
            .map(|t| (source, t))
            .collect(),
    };
    let tree = foremost_tree_multi(snapshot.index(), &seeds, &config.policy, &config.limits);
    let answers = members
        .iter()
        .map(|&i| {
            let answer = match requests[i].request {
                Request::Foremost { dst, .. } => {
                    Answer::Arrival(tree.arrival(NodeId::from_index(dst)).copied())
                }
                Request::Matrix { .. } => Answer::Reached(tree.num_reached() as u64),
                Request::Broadcast { .. } => Answer::Informed(tree.num_reached() as u64),
            };
            (i, snapshot.epoch(), answer)
        })
        .collect();
    (answers, tree.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{generate_load, LoadSpec};
    use tvg_model::generators::scale_free_temporal;

    fn workload() -> (TvgStream<u64>, Vec<Vec<StreamEvent<u64>>>) {
        let g = scale_free_temporal(12, 24, 5);
        let (stream, events) = TvgStream::replay_of(&g, &24).expect("representable");
        let ticks: Vec<Vec<StreamEvent<u64>>> = events.chunks(8).map(<[_]>::to_vec).collect();
        (stream, ticks)
    }

    fn config(readers: usize) -> ServeConfig {
        ServeConfig {
            readers,
            policy: WaitingPolicy::Unbounded,
            limits: SearchLimits::new(24, 25),
            start: 0,
        }
    }

    fn load() -> Vec<TimedRequest> {
        generate_load(&LoadSpec {
            requests: 40,
            mean_gap: 2,
            mix: (3, 2, 1),
            nodes: 12,
            seed_instant: 0,
            seed: 11,
        })
    }

    #[test]
    fn epoch_pinning_is_timestamp_arithmetic() {
        let ticks = vec![
            vec![StreamEvent::ExtendHorizon { to: 30 }],
            vec![],
            vec![StreamEvent::ExtendHorizon { to: 40 }],
        ];
        let avail = availability(&ticks);
        assert_eq!(avail, vec![30, 30, 40]);
        assert_eq!(epoch_of(&avail, 0), 0);
        assert_eq!(epoch_of(&avail, 29), 0);
        // Both tick 0 and the (empty) tick 1 become available at 30.
        assert_eq!(epoch_of(&avail, 30), 2);
        assert_eq!(epoch_of(&avail, 40), 3);
        assert_eq!(epoch_of(&avail, u64::MAX), 3);
    }

    #[test]
    fn epoch_of_matches_linear_scan_on_a_long_feed() {
        // Regression for the per-request linear scan: the binary search
        // must agree with the counting definition at every probe of a
        // long tick feed, including plateaus (ticks with no timed
        // events) and both edges of every availability step.
        let ticks: Vec<Vec<StreamEvent<u64>>> = (0..10_000u64)
            .map(|i| {
                if i % 7 == 0 {
                    vec![] // plateau: inherits the previous availability
                } else {
                    vec![StreamEvent::ExtendHorizon { to: i * 3 }]
                }
            })
            .collect();
        let avail = availability(&ticks);
        assert_eq!(avail.len(), 10_000);
        for probe in (0..30_000u64).step_by(997).chain([0, 1, 29_997, u64::MAX]) {
            let linear = avail.iter().filter(|&&a| a <= probe).count() as u64;
            assert_eq!(epoch_of(&avail, probe), linear, "probe {probe}");
        }
    }

    #[test]
    fn logical_outcome_is_reader_count_invariant() {
        let requests = load();
        let mut outcomes = Vec::new();
        for readers in [1usize, 2, 4] {
            let (stream, ticks) = workload();
            let outcome = serve(stream, &ticks, &requests, &config(readers)).expect("valid feed");
            assert_eq!(outcome.served.len(), requests.len());
            assert!(outcome.epochs_published >= 2, "needs mid-run epochs");
            assert!(outcome.grouped_runs <= requests.len() as u64);
            assert_eq!(
                outcome.publications.len() as u64,
                outcome.epochs_published,
                "one counter record per published epoch"
            );
            outcomes.push((
                outcome.served,
                outcome.grouped_runs,
                outcome.stats,
                outcome.publications,
            ));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }

    #[test]
    fn grouping_amortizes_shared_sources() {
        // Every request on the same source and instant: foremost and
        // matrix collapse into ONE tree pass per epoch.
        let requests: Vec<TimedRequest> = (0..10)
            .map(|i| TimedRequest {
                at: 0,
                request: if i % 2 == 0 {
                    Request::Foremost { src: 3, dst: i }
                } else {
                    Request::Matrix { src: 3 }
                },
            })
            .collect();
        let (stream, ticks) = workload();
        let outcome = serve(stream, &ticks, &requests, &config(4)).expect("valid feed");
        assert_eq!(outcome.grouped_runs, 1, "one shared engine pass");
        assert_eq!(outcome.stats.runs, 1);
        // Matrix answers all agree (same tree).
        let reached: Vec<_> = outcome
            .served
            .iter()
            .filter_map(|s| match s.answer {
                Answer::Reached(n) => Some(n),
                _ => None,
            })
            .collect();
        assert!(reached.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn ingest_error_surfaces_without_hanging_readers() {
        let (stream, mut ticks) = workload();
        // Poison the second tick with an event past the horizon.
        let edge = tvg_model::EdgeId::from_index(0);
        ticks[1] = vec![StreamEvent::Up { edge, at: 1_000 }];
        // Requests pinned far in the future would wait on late epochs;
        // the stale-publication error path must still satisfy them.
        let requests = vec![TimedRequest {
            at: u64::MAX,
            request: Request::Matrix { src: 0 },
        }];
        let err = serve(stream, &ticks, &requests, &config(2)).unwrap_err();
        assert!(matches!(
            err,
            StreamError::BeyondHorizon { at: 1_000, .. } | StreamError::AlreadyUp { .. }
        ));
    }
}
