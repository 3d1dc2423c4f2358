//! The serve-runtime oracles: snapshot pinning, serve-vs-offline
//! equivalence, and reader-count invariance.
//!
//! `tvg_serve` promises three things the `serve_props` suite pins on
//! generated workloads (extending the `streamcheck` oracle family from
//! the live index to the publication layer above it):
//!
//! 1. **Pinning** — a reader holding an old `Arc<ServeSnapshot>` keeps
//!    getting byte-identical answers from it while the writer publishes
//!    arbitrarily many newer epochs ([`assert_pinned_snapshot_is_frozen`]
//!    checks this *during* real concurrent publication, not after it);
//! 2. **Offline equivalence** — every served answer equals a
//!    from-scratch computation on the epoch its timestamp pins: replay
//!    exactly that prefix of ingest ticks into a fresh stream and run a
//!    fresh engine pass ([`assert_serve_matches_offline`]);
//! 3. **Reader-count invariance** — the logical outcome (answers,
//!    epochs, grouping, work counters, publication counters) is
//!    identical at every reader count
//!    ([`assert_serve_is_reader_count_invariant`]), which is the
//!    property that lets serve reports be golden-gated in CI;
//! 4. **O(changes) publication is observable and deterministic** — the
//!    per-epoch sharing/copying counters of a concurrent run equal a
//!    single-threaded offline replay ([`assert_publication_counters`]),
//!    and every structure-sharing snapshot is byte-identical to a
//!    from-scratch rebuild of its epoch's tick prefix
//!    ([`assert_snapshots_match_rebuild`]).

use std::sync::Arc;
use tvg_journeys::{foremost_tree_multi, SearchLimits, WaitingPolicy};
use tvg_model::stream::{LiveIndex, StreamEvent, TvgStream};
use tvg_model::{NodeId, TemporalIndex, Tvg};
use tvg_serve::{
    availability, epoch_of, serve, Answer, EpochRing, PublishStats, Request, ServeConfig,
    ServeSnapshot, TimedRequest,
};

/// Replays `g` into a fresh stream and chops the feed into ingest ticks
/// of `chunk` events (the serve writer's workload shape).
///
/// # Panics
///
/// Panics if `horizon + 1` is unrepresentable or `chunk` is zero.
#[must_use]
pub fn replay_ticks(
    g: &Tvg<u64>,
    horizon: u64,
    chunk: usize,
) -> (TvgStream<u64>, Vec<Vec<StreamEvent<u64>>>) {
    assert!(chunk > 0, "tick chunk must be positive");
    let (stream, events) = TvgStream::replay_of(g, &horizon).expect("representable horizon");
    let ticks = events.chunks(chunk).map(<[_]>::to_vec).collect();
    (stream, ticks)
}

/// The full answer surface of one snapshot for a single-seed query:
/// every node's foremost arrival, in node order. Two snapshots are
/// "byte-identical" to a client exactly when these vectors are equal.
fn answer_surface(
    snapshot: &Arc<ServeSnapshot<u64>>,
    src: NodeId,
    policy: &WaitingPolicy<u64>,
    limits: &SearchLimits<u64>,
) -> Vec<Option<u64>> {
    let tree = foremost_tree_multi(snapshot.index(), &[(src, 0u64)], policy, limits);
    snapshot
        .index()
        .tvg()
        .nodes()
        .map(|n| tree.arrival(n).copied())
        .collect()
}

/// Asserts the pinning property: a reader that acquired epoch 0 keeps
/// computing byte-identical answers from it **while** a concurrent
/// writer ingests every tick and publishes every later epoch.
///
/// The reader re-derives its full answer surface on every poll of the
/// ring — if publication mutated anything reachable from the pinned
/// `Arc`, some poll would diverge from the pre-publication reference.
///
/// # Panics
///
/// Panics (with `label` in the message) if any poll's answers diverge
/// from the reference, or if the writer fails to publish every epoch.
pub fn assert_pinned_snapshot_is_frozen(
    g: &Tvg<u64>,
    horizon: u64,
    chunk: usize,
    policy: &WaitingPolicy<u64>,
    label: &str,
) {
    let (stream, ticks) = replay_ticks(g, horizon, chunk);
    let hops = usize::try_from(horizon.saturating_add(1))
        .unwrap_or(usize::MAX)
        .min(64);
    let limits = SearchLimits::new(horizon, hops);
    let src = NodeId::from_index(0);
    let ring: EpochRing<u64> = EpochRing::new(ticks.len() + 1);
    ring.publish(ServeSnapshot::new(0, stream.snapshot()));
    let pinned = ring.get(0).expect("epoch 0 just published");
    let reference = answer_surface(&pinned, src, policy, &limits);

    std::thread::scope(|scope| {
        let (ring, ticks) = (&ring, &ticks);
        let writer = scope.spawn(move || {
            let mut stream = stream;
            for (i, tick) in ticks.iter().enumerate() {
                stream.ingest(tick).expect("replay feeds are valid");
                ring.publish(ServeSnapshot::new(i as u64 + 1, stream.snapshot()));
            }
        });
        // Poll the pinned snapshot throughout the writer's run: every
        // answer surface must match the pre-publication reference.
        let mut polls = 0u32;
        while ring.published() < ring.capacity() {
            assert_eq!(
                answer_surface(&pinned, src, policy, &limits),
                reference,
                "{label}: pinned epoch-0 answers drifted mid-publication (poll {polls})"
            );
            polls += 1;
        }
        writer.join().expect("writer does not panic");
    });
    assert_eq!(
        ring.published(),
        ticks.len() + 1,
        "{label}: writer published every epoch"
    );
    // One final check after all epochs exist: the old Arc still answers
    // from its frozen world even though the ring has moved on.
    assert_eq!(
        answer_surface(&pinned, src, policy, &limits),
        reference,
        "{label}: pinned epoch-0 answers drifted after publication finished"
    );
    assert_eq!(
        ring.latest().expect("published").epoch(),
        ticks.len() as u64,
        "{label}: latest epoch"
    );
}

/// The offline reference answer for one request against one index: the
/// same seeds and reads the serve runner uses, on a freshly built
/// prefix of the schedule.
fn offline_answer<I: TemporalIndex<u64>>(
    index: &I,
    request: Request,
    config: &ServeConfig,
) -> Answer {
    let source = NodeId::from_index(request.src());
    let seeds: Vec<(NodeId, u64)> = match request {
        Request::Foremost { .. } | Request::Matrix { .. } => vec![(source, config.start)],
        Request::Broadcast { .. } => (config.start..=config.limits.horizon)
            .map(|t| (source, t))
            .collect(),
    };
    let tree = foremost_tree_multi(index, &seeds, &config.policy, &config.limits);
    match request {
        Request::Foremost { dst, .. } => {
            Answer::Arrival(tree.arrival(NodeId::from_index(dst)).copied())
        }
        Request::Matrix { .. } => Answer::Reached(tree.num_reached() as u64),
        Request::Broadcast { .. } => Answer::Informed(tree.num_reached() as u64),
    }
}

/// Asserts the serve-vs-offline differential: every answer a concurrent
/// [`serve`] run produced equals a from-scratch computation against a
/// fresh stream that ingested exactly the tick prefix of the request's
/// pinned epoch — and the pinned epoch itself equals the
/// [`epoch_of`]/[`availability`] timestamp arithmetic.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first diverging epoch or
/// answer.
pub fn assert_serve_matches_offline(
    g: &Tvg<u64>,
    horizon: u64,
    chunk: usize,
    requests: &[TimedRequest],
    config: &ServeConfig,
    label: &str,
) {
    let (stream, ticks) = replay_ticks(g, horizon, chunk);
    let outcome = serve(stream, &ticks, requests, config).expect("replay feeds are valid");
    assert_eq!(
        outcome.served.len(),
        requests.len(),
        "{label}: every request answered"
    );
    let avail = availability(&ticks);

    // Build the offline reference worlds once: the index after each
    // tick prefix, exactly what each epoch's snapshot froze.
    let (mut fresh, _) = replay_ticks(g, horizon, chunk);
    let mut worlds = vec![fresh.snapshot()];
    for tick in &ticks {
        fresh.ingest(tick).expect("replay feeds are valid");
        worlds.push(fresh.snapshot());
    }

    for (i, served) in outcome.served.iter().enumerate() {
        let expected_epoch = epoch_of(&avail, requests[i].at);
        assert_eq!(
            served.epoch, expected_epoch,
            "{label}: request {i} pinned to the wrong epoch"
        );
        let world = &worlds[usize::try_from(expected_epoch).expect("epochs fit in usize")];
        let expected = offline_answer(world, requests[i].request, config);
        assert_eq!(
            served.answer, expected,
            "{label}: request {i} ({:?} at {}) diverges from the offline epoch-{expected_epoch} reference",
            requests[i].request, requests[i].at
        );
    }
}

/// Asserts that the logical serve outcome — answers, pinned epochs,
/// publication count, grouping, and summed work counters — is identical
/// at every reader count in `readers`.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first reader count whose
/// outcome differs from the first one's.
pub fn assert_serve_is_reader_count_invariant(
    g: &Tvg<u64>,
    horizon: u64,
    chunk: usize,
    requests: &[TimedRequest],
    config: &ServeConfig,
    readers: &[usize],
    label: &str,
) {
    let mut reference = None;
    for &count in readers {
        let (stream, ticks) = replay_ticks(g, horizon, chunk);
        let config = ServeConfig {
            readers: count,
            ..config.clone()
        };
        let outcome = serve(stream, &ticks, requests, &config).expect("replay feeds are valid");
        let logical = (
            outcome.served,
            outcome.epochs_published,
            outcome.grouped_runs,
            outcome.stats,
            // Publication counters are part of the logical outcome too:
            // readers only clone the outer snapshot `Arc`, never inner
            // chunk handles, so sharing/copying is writer-determined.
            outcome.publications,
        );
        match &reference {
            None => reference = Some((readers[0], logical)),
            Some((first, expected)) => assert_eq!(
                expected, &logical,
                "{label}: logical outcome at {count} readers diverges from {first} readers"
            ),
        }
    }
}

/// Replays the serve writer's publication schedule offline — same
/// ticks, same *retained* snapshots (retention is what forces the
/// copy-on-write the counters measure) — and returns the
/// [`PublishStats`] sequence the writer must produce.
///
/// # Panics
///
/// Panics if the replay feed is invalid (it never is for a
/// [`replay_ticks`] feed).
#[must_use]
pub fn offline_publications(g: &Tvg<u64>, horizon: u64, chunk: usize) -> Vec<PublishStats> {
    let (mut stream, ticks) = replay_ticks(g, horizon, chunk);
    let mut retained: Vec<LiveIndex<u64>> = Vec::with_capacity(ticks.len() + 1);
    let mut stats = Vec::with_capacity(ticks.len() + 1);
    let mut last_copied = 0u64;
    let mut publish = |stream: &TvgStream<u64>,
                       retained: &mut Vec<LiveIndex<u64>>,
                       last_copied: &mut u64,
                       epoch: u64,
                       events: u64| {
        retained.push(stream.snapshot());
        let copied = stream.index().chunks_copied();
        stats.push(PublishStats {
            epoch,
            events,
            chunks_frozen: stream.index().chunks_frozen(),
            chunks_copied: copied - *last_copied,
        });
        *last_copied = copied;
    };
    publish(&stream, &mut retained, &mut last_copied, 0, 0);
    for (i, tick) in ticks.iter().enumerate() {
        stream.ingest(tick).expect("replay feeds are valid");
        publish(
            &stream,
            &mut retained,
            &mut last_copied,
            i as u64 + 1,
            tick.len() as u64,
        );
    }
    stats
}

/// Asserts that a concurrent [`serve`] run's publication counters equal
/// the single-threaded offline replay of the same ticks: per-epoch event
/// counts, shared-chunk counts, and copy-on-write counts all pinned.
/// This is the determinism claim behind exposing the counters in the
/// scenario timing channel.
///
/// # Panics
///
/// Panics (with `label` in the message) if the counters diverge.
pub fn assert_publication_counters(
    g: &Tvg<u64>,
    horizon: u64,
    chunk: usize,
    requests: &[TimedRequest],
    config: &ServeConfig,
    label: &str,
) {
    let (stream, ticks) = replay_ticks(g, horizon, chunk);
    let outcome = serve(stream, &ticks, requests, config).expect("replay feeds are valid");
    let expected = offline_publications(g, horizon, chunk);
    assert_eq!(
        outcome.publications, expected,
        "{label}: publication counters diverge from the offline replay"
    );
    for (stats, tick) in outcome.publications.iter().skip(1).zip(&ticks) {
        assert_eq!(
            stats.events,
            tick.len() as u64,
            "{label}: epoch {} event count is not its tick size",
            stats.epoch
        );
    }
}

/// Asserts that two live indexes are structurally identical: horizon,
/// node/edge counts, per-edge presence spans and monotonicity, per-node
/// adjacency, and edge destinations.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first divergence.
pub fn assert_index_structure_eq(a: &LiveIndex<u64>, b: &LiveIndex<u64>, label: &str) {
    assert_eq!(a.horizon(), b.horizon(), "{label}: horizon diverges");
    assert_eq!(
        a.tvg().num_nodes(),
        b.tvg().num_nodes(),
        "{label}: node count diverges"
    );
    assert_eq!(
        a.tvg().num_edges(),
        b.tvg().num_edges(),
        "{label}: edge count diverges"
    );
    for e in b.tvg().edges() {
        assert_eq!(
            a.presence(e).spans(),
            b.presence(e).spans(),
            "{label}: presence spans of {e} diverge"
        );
        assert_eq!(
            a.arrival_is_monotone(e),
            b.arrival_is_monotone(e),
            "{label}: monotonicity cache of {e} diverges"
        );
        assert_eq!(a.dst(e), b.dst(e), "{label}: destination of {e} diverges");
    }
    for n in b.tvg().nodes() {
        assert_eq!(
            a.out_edges(n),
            b.out_edges(n),
            "{label}: adjacency of {n} diverges"
        );
    }
}

/// Asserts that structure-sharing snapshots are byte-identical to
/// from-scratch rebuilds: retain the snapshot of every epoch while the
/// stream keeps mutating underneath (the chunk-sharing worst case),
/// then compare each one structurally against a fresh stream that
/// ingested exactly that epoch's tick prefix and shares nothing.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first epoch whose
/// retained snapshot diverges from its rebuild.
pub fn assert_snapshots_match_rebuild(g: &Tvg<u64>, horizon: u64, chunk: usize, label: &str) {
    let (mut stream, ticks) = replay_ticks(g, horizon, chunk);
    let mut snapshots = vec![stream.snapshot()];
    for tick in &ticks {
        stream.ingest(tick).expect("replay feeds are valid");
        snapshots.push(stream.snapshot());
    }
    for (epoch, snapshot) in snapshots.iter().enumerate() {
        let (mut fresh, _) = replay_ticks(g, horizon, chunk);
        for tick in &ticks[..epoch] {
            fresh.ingest(tick).expect("replay feeds are valid");
        }
        assert_index_structure_eq(
            snapshot,
            fresh.index(),
            &format!("{label}: epoch {epoch} snapshot vs rebuild"),
        );
    }
}
