//! The serve loop: one writer thread ingesting ticks, and the calling
//! thread plus up to N - 1 helpers reading the admission queue against
//! pinned snapshots.
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
//!
//! The loop times only what its caller cannot: the writer's ingest and
//! publication, the readers' `Engine::run` calls and each request's
//! latency ([`ServeTiming`]); wall time and rates are the caller's.

use crate::load::{Request, TimedRequest};
use crate::snapshot::{EpochRing, ServeSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tvg_journeys::{Batch, Engine, EngineStats, SearchLimits, WaitingPolicy};
use tvg_model::stream::{StreamError, StreamEvent, TvgStream};
use tvg_model::NodeId;

/// How a serve run executes: reader parallelism and query discipline.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most readers draining the admission queue, the calling thread
    /// included (clamped up to 1; see [`Batch::fan_out`]).
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

/// Wall-clock spans a serve run measures on its own threads. Real
/// measurements — they vary by machine and scheduling, so they must stay
/// **outside** any canonical report bytes (the scenario layer carries
/// them in a non-canonical `timing` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeTiming {
    /// Writer time inside `TvgStream::ingest`, summed over every tick.
    pub ingest: Duration,
    /// Writer time taking and publishing snapshots, summed over every
    /// epoch.
    pub publish: Duration,
    /// Reader time inside `Engine::run`, summed over every group on
    /// every reader; epoch waits and answer assembly are not in it.
    pub engine: Duration,
    /// Median per-request service latency (dequeue-to-answer, the
    /// epoch wait included).
    pub p50: Duration,
    /// 95th-percentile per-request service latency.
    pub p95: Duration,
    /// Worst per-request service latency.
    pub max: Duration,
}

/// What publishing one epoch shared and copied. Unlike [`ServeTiming`],
/// these are *logical* counters — a pure function of the stream and the
/// tick schedule (single writer, and copies are counted by publication,
/// not by which snapshots readers still hold), so they are deterministic
/// at any reader count and safe to pin in tests and goldens.
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
    /// Chunks (and the graph) the tick wrote for the first time since the
    /// previous epoch's snapshot: its copy-on-write cost had every epoch
    /// been kept, counted even where a released epoch spared the copy.
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
/// pinning deterministic. A tick is any slice-like batch of events: an
/// owned `Vec` or a borrowed chunk of one feed.
#[must_use]
pub fn availability<B: AsRef<[StreamEvent<u64>]>>(ticks: &[B]) -> Vec<u64> {
    let mut avail = Vec::with_capacity(ticks.len());
    let mut running = 0u64;
    for tick in ticks {
        for event in tick.as_ref() {
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

/// What one reader brings back for one group: an answer per member.
struct GroupResult {
    answers: Vec<(usize, u64, Answer)>,
    stats: EngineStats,
    engine: Duration,
    latency: Duration,
}

/// Runs the serve loop: the writer applies `ticks` to `stream` and
/// publishes one snapshot epoch per tick (plus the initial epoch 0),
/// while up to `config.readers` readers drain `requests` — grouped by
/// `(epoch, class, source)` — against their pinned snapshots. The
/// readers are one [`Batch::fan_out`] over the groups: the calling
/// thread answers them, and helper readers start only once it has
/// worked for [`tvg_journeys::HELPER_START`]. A tick is
/// any slice-like batch of events, so a caller can hand over borrowed
/// chunks of one feed instead of copying it into owned batches.
///
/// Readers take snapshots off the [`EpochRing`]. The reader finishing
/// an epoch's last group releases it, and an epoch no group is pinned
/// to is never stored, so no snapshot outlives its last reader.
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
/// Propagates the first panic after every thread is joined: a reader's,
/// which [`Batch::fan_out`] rethrows once its helpers are joined and the
/// scope rethrows once the writer is, or else the writer's.
pub fn serve<B: AsRef<[StreamEvent<u64>]> + Sync>(
    stream: TvgStream<u64>,
    ticks: &[B],
    requests: &[TimedRequest],
    config: &ServeConfig,
) -> Result<ServeOutcome, StreamError<u64>> {
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
    // Groups still to read each epoch; the last one releases it.
    let mut pins: Vec<AtomicUsize> = (0..epochs).map(|_| AtomicUsize::new(0)).collect();
    for ((epoch, _, _), _) in &groups {
        *pins[usize::try_from(*epoch).expect("epochs fit in usize")].get_mut() += 1;
    }

    let ring: EpochRing<u64> = EpochRing::new(epochs);
    let (group_results, writer) = std::thread::scope(|scope| {
        let (ring, pins) = (&ring, &pins);
        let writer = scope.spawn(move || {
            let mut stream = stream;
            let mut log = PublishLog::new(&stream, ring, pins);
            log.publish(&mut stream, 0, 0);
            for (i, tick) in ticks.iter().enumerate() {
                let tick = tick.as_ref();
                let t0 = Instant::now();
                let ingested = stream.ingest(tick);
                log.ingest += t0.elapsed();
                if let Err(e) = ingested {
                    // Publish the remaining epochs as stale copies so
                    // readers pinned past the failure never spin
                    // forever; the error itself is the writer's result.
                    for j in i..ticks.len() {
                        log.publish(&mut stream, j as u64 + 1, 0);
                    }
                    return (Err(e), log);
                }
                log.publish(&mut stream, i as u64 + 1, tick.len() as u64);
            }
            (Ok(()), log)
        });
        // The readers are the calling thread and the helpers it starts;
        // each reuses its engine for every group it answers (a run
        // clears only what the last one touched).
        let readers = Batch::threads(config.readers).fan_out(&groups, |engine, (key, members)| {
            serve_group(engine, ring, pins, *key, members, requests, config)
        });
        (readers, writer.join())
    });
    let (ingest_result, log) = writer.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
    ingest_result?;

    // Merge: every group ran exactly once, every request belongs to
    // exactly one group, so the slots below fill completely.
    let mut served: Vec<Option<ServedRequest>> = vec![None; requests.len()];
    let (mut stats, mut engine) = (EngineStats::default(), Duration::ZERO);
    let mut latencies: Vec<Duration> = Vec::with_capacity(requests.len());
    for result in group_results {
        stats += result.stats;
        engine += result.engine;
        latencies.extend(std::iter::repeat_n(result.latency, result.answers.len()));
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

    latencies.sort_unstable();
    let percentile = |p: usize| {
        latencies
            .get(latencies.len().saturating_sub(1) * p / 100)
            .copied()
            .unwrap_or_default()
    };
    Ok(ServeOutcome {
        served,
        epochs_published: epochs as u64,
        grouped_runs,
        stats,
        publications: log.publications,
        timing: ServeTiming {
            ingest: log.ingest,
            publish: log.publish,
            engine,
            p50: percentile(50),
            p95: percentile(95),
            max: percentile(100),
        },
    })
}

/// Writer-side bookkeeping around each snapshot publication: wall time
/// of the publish itself plus the deterministic sharing counters, and
/// the writer's wall time inside ingest.
struct PublishLog<'a> {
    publications: Vec<PublishStats>,
    ring: &'a EpochRing<u64>,
    /// Groups per epoch; no reader counts one down before it is published.
    pins: &'a [AtomicUsize],
    publish: Duration,
    ingest: Duration,
    last_copied: u64,
}

impl<'a> PublishLog<'a> {
    fn new(stream: &TvgStream<u64>, ring: &'a EpochRing<u64>, pins: &'a [AtomicUsize]) -> Self {
        PublishLog {
            publications: Vec::with_capacity(pins.len()),
            ring,
            pins,
            publish: Duration::ZERO,
            ingest: Duration::ZERO,
            last_copied: stream.index().chunks_copied(),
        }
    }

    fn publish(&mut self, stream: &mut TvgStream<u64>, epoch: u64, events: u64) {
        let t0 = Instant::now();
        // Every epoch takes its snapshot, read or not: that starts the
        // generation the copy counters are kept by.
        let snapshot = ServeSnapshot::new(epoch, stream.snapshot());
        let slot = usize::try_from(epoch).expect("epochs fit in usize");
        if self.pins[slot].load(Ordering::Relaxed) > 0 {
            self.ring.publish(snapshot);
        } else {
            self.ring.publish_released(epoch);
        }
        self.publish += t0.elapsed();
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

/// Answers one group with a single engine pass over the snapshot of its
/// pinned epoch, waiting until the epoch is published and releasing it
/// after the epoch's last group. Times the pass and the whole group.
fn serve_group(
    engine: &mut Engine<u64>,
    ring: &EpochRing<u64>,
    pins: &[AtomicUsize],
    (epoch, class, src): (u64, GroupClass, usize),
    members: &[usize],
    requests: &[TimedRequest],
    config: &ServeConfig,
) -> GroupResult {
    let t0 = Instant::now();
    let snapshot = ring.wait(epoch);
    let source = NodeId::from_index(src);
    let seeds: Vec<(NodeId, u64)> = match class {
        GroupClass::Tree => vec![(source, config.start)],
        // A beaconing source re-emits at every instant in the window.
        GroupClass::Beacon => (config.start..=config.limits.horizon)
            .map(|t| (source, t))
            .collect(),
    };
    let t1 = Instant::now();
    let tree = engine.run(
        snapshot.index(),
        &seeds,
        &config.policy,
        &config.limits,
        None,
    );
    let ran = t1.elapsed();
    drop(snapshot);
    if pins[usize::try_from(epoch).expect("epochs fit in usize")].fetch_sub(1, Ordering::AcqRel)
        == 1
    {
        ring.release(epoch);
    }
    let reached = tree.num_reached() as u64;
    let answers = members
        .iter()
        .map(|&i| {
            let answer = match requests[i].request {
                Request::Foremost { dst, .. } => {
                    Answer::Arrival(tree.arrival(NodeId::from_index(dst)).copied())
                }
                Request::Matrix { .. } => Answer::Reached(reached),
                Request::Broadcast { .. } => Answer::Informed(reached),
            };
            (i, epoch, answer)
        })
        .collect();
    GroupResult {
        answers,
        stats: tree.stats(),
        engine: ran,
        latency: t0.elapsed(),
    }
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
    fn borrowed_ticks_serve_exactly_like_owned_ones() {
        // Enough edges to freeze chunks, so publications copy some.
        let g = scale_free_temporal(200, 24, 5);
        let (stream, events) = TvgStream::replay_of(&g, &24).expect("representable");
        let owned: Vec<Vec<StreamEvent<u64>>> = events.chunks(64).map(<[_]>::to_vec).collect();
        let borrowed: Vec<&[StreamEvent<u64>]> = events.chunks(64).collect();
        let requests = load();
        let by_owned = serve(stream.clone(), &owned, &requests, &config(2)).expect("valid feed");
        let by_borrowed = serve(stream, &borrowed[..], &requests, &config(2)).expect("valid feed");
        assert_eq!(availability(&owned), availability(&borrowed));
        assert_eq!(by_owned.served, by_borrowed.served);
        assert_eq!(by_owned.epochs_published, by_borrowed.epochs_published);
        assert_eq!(by_owned.publications, by_borrowed.publications);
        assert!(by_owned.publications.iter().any(|p| p.chunks_copied > 0));
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
