//! Plan execution: one scenario in, one canonical [`Report`] out.
//!
//! Every plan runs on the workspace's standard pipeline — compile the
//! generated TVG into a [`TvgIndex`] (or replay it through a
//! [`TvgStream`] for the streaming plan), then fan engine runs out over
//! the [`BatchRunner`] at the scenario's thread policy. The batch
//! runtime's thread-count invariance is what makes reports reproducible
//! bytes rather than approximate numbers.

use crate::report::{engine_json, histogram, obj, Report};
use crate::spec::{Plan, Scenario, Threads};
use tvg_dynnet::broadcast::broadcast_plan;
use tvg_dynnet::json::{Json, ToJson};
use tvg_dynnet::metrics::{AggregateStats, DeliveryStats};
use tvg_journeys::{
    Batch, BatchRunner, EngineStats, IncrementalForemost, ReachabilityMatrix, SearchLimits,
    WaitingPolicy,
};
use tvg_model::stream::{StreamEvent, TvgStream};
use tvg_model::{narrow_tvg, NodeId, TemporalIndex, Time, Tvg, TvgIndex};
use tvg_serve::{generate_load, serve, Answer, LoadSpec, ServeConfig};

impl Scenario {
    /// Builds the scenario's TVG (deterministic; see
    /// [`crate::GeneratorSpec::build`]).
    #[must_use]
    pub fn build_graph(&self) -> Tvg<u64> {
        self.generator.build()
    }

    /// The [`Batch`] thread policy this scenario runs at.
    #[must_use]
    pub fn batch(&self) -> Batch {
        match self.threads() {
            Threads::Auto => Batch::auto(),
            Threads::Fixed(n) => Batch::threads(n),
        }
    }

    /// The plan's search limits.
    #[must_use]
    pub fn limits(&self) -> SearchLimits<u64> {
        SearchLimits::new(self.plan().horizon(), self.plan().max_hops())
    }

    /// The event feed a streaming-shaped plan ingests, paired with the
    /// stream to ingest it into. Churn-family generators hand over
    /// their native feed (node joins and leaves included) against an
    /// empty stream; every other family replays the materialized
    /// graph's schedule. Spec validation guarantees the plan horizon
    /// covers a churn feed, so both paths ingest cleanly.
    #[must_use]
    pub fn stream_feed(
        &self,
        g: &Tvg<u64>,
        horizon: u64,
    ) -> (TvgStream<u64>, Vec<StreamEvent<u64>>) {
        match self.generator().churn_feed() {
            Some((_, events)) => (
                TvgStream::new(horizon)
                    .expect("spec validation rejects horizons whose successor overflows"),
                events,
            ),
            None => TvgStream::replay_of(g, &horizon)
                .expect("spec validation rejects horizons whose successor overflows"),
        }
    }

    /// Runs the scenario end to end and returns its report.
    #[must_use]
    pub fn run(&self) -> Report {
        let started = std::time::Instant::now();
        let g = self.build_graph();
        let limits = self.limits();
        let batch = self.batch();
        let (((results, engine), edge_events), timing) = match self.plan() {
            Plan::Streaming {
                src,
                start,
                batch: batch_size,
                ..
            } => (
                run_streaming(&g, &limits, batch, self, *src, *start, *batch_size),
                Json::Null,
            ),
            Plan::Serve {
                start,
                requests,
                gap,
                mix,
                ticks,
                seed,
                ..
            } => {
                let (outcome, timing) = run_serve(
                    &g, &limits, batch, self, *start, *requests, *gap, *mix, *ticks, *seed,
                );
                (outcome, timing)
            }
            plan => {
                // Timeline compression: when the horizon, start, and
                // policy arithmetic all provably fit `u32`, run the plan
                // on a narrowed graph — same answers, same engine stats,
                // half the time-key bytes in the hot loops. Any doubt
                // (`NarrowError`, an unprovable bound) falls back to the
                // exact `u64` path transparently.
                let start = match plan {
                    Plan::SingleSource { start, .. }
                    | Plan::Matrix { start, .. }
                    | Plan::MatrixSample { start, .. } => *start,
                    _ => 0,
                };
                let outcome = match (
                    narrow_tvg(&g, limits.horizon),
                    narrow_policy(self.policy(), limits.horizon),
                ) {
                    (Ok(narrowed), Some(policy)) if start <= limits.horizon => {
                        let limits = SearchLimits::new(
                            u32::try_from(limits.horizon).expect("narrowing checked the horizon"),
                            limits.max_hops,
                        );
                        run_batch_plan(&narrowed, batch, plan, &policy, &limits)
                    }
                    _ => run_batch_plan(&g, batch, plan, self.policy(), &limits),
                };
                (outcome, Json::Null)
            }
        };
        Report {
            scenario: self.name().to_string(),
            generator: self.generator().name(),
            generator_params: self.generator().params_json(),
            policy: self.policy().to_string(),
            plan: self.plan().name(),
            threads: self.threads().to_string(),
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            edge_events,
            results,
            engine,
            wall_micros: started.elapsed().as_micros(),
            timing,
        }
    }
}

/// Narrows the scenario's waiting policy into the `u32` domain when its
/// arithmetic provably cannot diverge there: `wait[d]` computes
/// `ready + d` before clamping, so every admissible `ready <= horizon`
/// must keep that sum in range. `None` keeps the `u64` path.
pub(crate) fn narrow_policy(
    policy: &WaitingPolicy<u64>,
    horizon: u64,
) -> Option<WaitingPolicy<u32>> {
    match policy {
        WaitingPolicy::NoWait => Some(WaitingPolicy::NoWait),
        WaitingPolicy::Unbounded => Some(WaitingPolicy::Unbounded),
        WaitingPolicy::Bounded(d) => horizon
            .checked_add(*d)
            .filter(|sum| *sum <= u64::from(u32::MAX))
            .map(|_| WaitingPolicy::Bounded(u32::try_from(*d).expect("bounded by the sum"))),
    }
}

/// Compiles the graph and dispatches one batch plan (single-source,
/// matrix, or broadcast), in whichever time domain the caller settled
/// on. Returns the plan outcome plus the compiled edge-event count.
fn run_batch_plan<T: Time + Send + Sync>(
    g: &Tvg<T>,
    batch: Batch,
    plan: &Plan,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> ((Json, EngineStats), usize) {
    let index = TvgIndex::compile(g, limits.horizon.clone());
    let events = index.num_edge_events();
    let outcome = match plan {
        Plan::SingleSource { src, start, .. } => {
            run_single_source(&index, batch, *src, &T::from_u64(*start), policy, limits)
        }
        Plan::Matrix { start, .. } => {
            run_matrix(&index, batch, &T::from_u64(*start), policy, limits)
        }
        Plan::MatrixSample {
            sources,
            seed,
            start,
            ..
        } => run_matrix_sample(
            &index,
            batch,
            *sources,
            *seed,
            &T::from_u64(*start),
            policy,
            limits,
        ),
        Plan::Broadcast {
            source, beacons, ..
        } => run_broadcast_plan(&index, batch, *source, *beacons, policy, limits),
        Plan::Streaming { .. } | Plan::Serve { .. } => unreachable!("handled by the caller"),
    };
    (outcome, events)
}

pub(crate) fn run_single_source<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
    index: &I,
    batch: Batch,
    src: usize,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> (Json, EngineStats) {
    let nodes = index.num_nodes();
    let out = BatchRunner::new(index, batch).run_sources(
        &[NodeId::from_index(src)],
        start,
        policy,
        limits,
    );
    let tree = &out.trees()[0];
    let results = obj([
        (
            "histogram",
            histogram((0..nodes).map(|n| tree.arrival(NodeId::from_index(n)))),
        ),
        ("reached", Json::Int(tree.num_reached() as u64)),
    ]);
    (results, out.stats())
}

pub(crate) fn run_matrix<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
    index: &I,
    batch: Batch,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> (Json, EngineStats) {
    let nodes = index.num_nodes();
    let m = ReachabilityMatrix::compute_on(index, start, policy, limits, batch);
    let mut off_diagonal = Vec::new();
    for src in (0..nodes).map(NodeId::from_index) {
        for dst in (0..nodes).map(NodeId::from_index) {
            if dst != src {
                off_diagonal.push(m.arrival(src, dst));
            }
        }
    }
    let results = obj([
        (
            "diameter",
            m.temporal_diameter()
                .and_then(|d| d.to_u64())
                .map_or(Json::Null, Json::Int),
        ),
        ("histogram", histogram(off_diagonal.into_iter())),
        ("ratio", Json::Num(m.reachability_ratio())),
        ("temporal_sinks", Json::Int(m.temporal_sinks().len() as u64)),
        (
            "temporal_sources",
            Json::Int(m.temporal_sources().len() as u64),
        ),
    ]);
    (results, m.stats())
}

/// Draws `k` distinct sources from `0..n`, deterministically from
/// `seed`: a splitmix64-driven partial Fisher–Yates shuffle, sorted
/// ascending so the report does not depend on draw order. `k >= n`
/// simply selects every node (the sample degenerates to the full
/// matrix's source set).
pub(crate) fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    if k >= n {
        return (0..n).map(NodeId::from_index).collect();
    }
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let span = (n - i) as u64;
        let j = i + usize::try_from(next() % span).expect("residue below n fits usize");
        pool.swap(i, j);
    }
    let mut picked: Vec<usize> = pool[..k].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(NodeId::from_index).collect()
}

/// The sampled matrix plan: one all-destinations foremost run per
/// sampled source, collapsed to a per-source `[histogram, reached]`
/// row inside the batch workers — the full-tree arrays never
/// accumulate, which is what keeps the million-node scale job's
/// resident set bounded by the index, not by `sources × n` trees.
pub(crate) fn run_matrix_sample<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
    index: &I,
    batch: Batch,
    sources: usize,
    seed: u64,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> (Json, EngineStats) {
    let nodes = index.num_nodes();
    let srcs = sample_sources(nodes, sources, seed);
    let (rows, stats) =
        BatchRunner::new(index, batch).map_sources(&srcs, start, policy, limits, |_, tree| {
            Json::Arr(vec![
                histogram((0..nodes).map(|d| tree.arrival(NodeId::from_index(d)))),
                Json::Int(tree.num_reached() as u64),
            ])
        });
    let results = obj([
        ("per_source", Json::Arr(rows)),
        (
            "sources",
            Json::Arr(srcs.iter().map(|s| Json::Int(s.index() as u64)).collect()),
        ),
    ]);
    (results, stats)
}

pub(crate) fn run_broadcast_plan<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
    index: &I,
    batch: Batch,
    source: Option<usize>,
    beacons: bool,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> (Json, EngineStats) {
    let n = index.num_nodes();
    let sources: Vec<usize> = match source {
        Some(s) => vec![s],
        None => (0..n).collect(),
    };
    let (outcomes, stats) = broadcast_plan(index, policy, beacons, &sources, limits, batch);
    let per_run: Vec<DeliveryStats> = outcomes.iter().map(|o| o.stats()).collect();
    let results = match source {
        Some(_) => {
            let outcome = &outcomes[0];
            obj([
                ("delivery", per_run[0].to_json_value()),
                (
                    "histogram",
                    histogram(outcome.informed_at.iter().map(Option::as_ref)),
                ),
            ])
        }
        None => {
            let aggregate = AggregateStats::from_runs(&per_run);
            obj([
                ("aggregate", aggregate.to_json_value()),
                (
                    "histogram",
                    histogram(
                        outcomes
                            .iter()
                            .flat_map(|o| o.informed_at.iter().map(Option::as_ref)),
                    ),
                ),
                (
                    "per_source_reached",
                    Json::Arr(
                        outcomes
                            .iter()
                            .map(|o| Json::Int(o.informed_at.iter().flatten().count() as u64))
                            .collect(),
                    ),
                ),
            ])
        }
    };
    (results, stats)
}

/// The streaming plan: drive the scenario's feed (a replay of the
/// generated schedule, or the churn family's native join/leave feed)
/// through a [`TvgStream`] in `batch_size`-event ingest ticks,
/// repairing one incremental foremost tree per tick, then run one
/// batched all-sources query against the final live snapshot. Returns
/// the plan outcome plus the final live index's edge-event count (the
/// graph summary of what was actually ingested).
#[allow(clippy::too_many_arguments)]
fn run_streaming(
    g: &Tvg<u64>,
    limits: &SearchLimits<u64>,
    batch: Batch,
    scenario: &Scenario,
    src: usize,
    start: u64,
    batch_size: usize,
) -> ((Json, EngineStats), usize) {
    let (mut stream, events) = scenario.stream_feed(g, limits.horizon);
    let source = NodeId::from_index(src);
    let mut inc = IncrementalForemost::new(
        stream.index(),
        &[(source, start)],
        *scenario.policy(),
        limits.clone(),
    );
    let mut per_tick_reached: Vec<Json> = Vec::new();
    for chunk in events.chunks(batch_size) {
        let report = stream
            .ingest(chunk)
            .expect("scenario feeds are valid by construction");
        inc.refresh(stream.index(), &report);
        per_tick_reached.push(Json::Int(inc.num_reached() as u64));
    }
    // One batched query tick against the final snapshot: every node as a
    // source, collapsed to reached-counts inside the workers.
    let nodes: Vec<NodeId> = stream.index().tvg().nodes().collect();
    let (snapshot_reached, snapshot_stats) = BatchRunner::new(stream.index(), batch).map_sources(
        &nodes,
        &start,
        scenario.policy(),
        limits,
        |_, tree| Json::Int(tree.num_reached() as u64),
    );
    let ticks = per_tick_reached.len() as u64;
    let results = obj([
        ("departed", Json::Int(stream.num_departed() as u64)),
        (
            "final_histogram",
            histogram(nodes.iter().map(|&n| inc.arrival(n))),
        ),
        ("final_reached", Json::Int(inc.num_reached() as u64)),
        ("per_tick_reached", Json::Arr(per_tick_reached)),
        ("snapshot", engine_json(&snapshot_stats)),
        ("snapshot_reached", Json::Arr(snapshot_reached)),
        ("ticks", Json::Int(ticks)),
    ]);
    let edge_events = stream.index().num_edge_events();
    ((results, inc.stats() + snapshot_stats), edge_events)
}

/// The serve plan: replay the generated schedule through a live stream
/// in `ticks` ingest batches while a deterministic synthetic client
/// load is answered concurrently from epoch-pinned lock-free snapshots
/// (see `tvg_serve`). Reader parallelism follows the scenario's thread
/// policy; the logical section returned here is reader-count invariant
/// and canonical, while throughput/latency percentiles come back in the
/// separate non-canonical timing object.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    g: &Tvg<u64>,
    limits: &SearchLimits<u64>,
    batch: Batch,
    scenario: &Scenario,
    start: u64,
    requests: usize,
    gap: u64,
    mix: (u64, u64, u64),
    ticks: usize,
    seed: u64,
) -> (((Json, EngineStats), usize), Json) {
    let (stream, events) = TvgStream::replay_of(g, &limits.horizon)
        .expect("spec validation rejects horizons whose successor overflows");
    // The replay emits exactly one `Up` per compiled span, and every span
    // counts two edge events.
    let edge_events = 2 * events
        .iter()
        .filter(|ev| matches!(ev, StreamEvent::Up { .. }))
        .count();
    // Chop the replay feed into exactly `ticks` ingest batches (the
    // tail ones may be empty when the feed is short): the epoch count
    // is part of the spec, not of the generated event volume.
    let chunk = events.len().div_ceil(ticks).max(1);
    let mut tick_batches: Vec<Vec<StreamEvent<u64>>> =
        events.chunks(chunk).map(<[_]>::to_vec).collect();
    tick_batches.resize(ticks, Vec::new());
    let load = generate_load(&LoadSpec {
        requests,
        mean_gap: gap,
        mix,
        nodes: g.num_nodes(),
        seed_instant: start,
        seed,
    });
    let config = ServeConfig {
        readers: batch.num_threads(),
        policy: *scenario.policy(),
        limits: limits.clone(),
        start,
    };
    let outcome = serve(stream, &tick_batches, &load, &config).expect("replay is a valid feed");
    assert!(
        outcome.epochs_published >= 2,
        "a serve run must publish at least two epochs (got {})",
        outcome.epochs_published
    );

    // Canonical logical section: one `[kind, epoch, value]` triple per
    // request in admission order, plus the aggregate counts.
    let answers: Vec<Json> = outcome
        .served
        .iter()
        .map(|s| {
            let value = match s.answer {
                Answer::Arrival(a) => a.map_or(Json::Null, Json::Int),
                Answer::Reached(n) | Answer::Informed(n) => Json::Int(n),
            };
            Json::Arr(vec![
                Json::Str(s.request.kind().to_string()),
                Json::Int(s.epoch),
                value,
            ])
        })
        .collect();
    let mut epoch_counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for s in &outcome.served {
        *epoch_counts.entry(s.epoch).or_default() += 1;
    }
    let results = obj([
        ("answers", Json::Arr(answers)),
        ("epochs_published", Json::Int(outcome.epochs_published)),
        (
            "epochs_served",
            Json::Arr(
                epoch_counts
                    .into_iter()
                    .map(|(e, c)| Json::Arr(vec![Json::Int(e), Json::Int(c)]))
                    .collect(),
            ),
        ),
        ("grouped_runs", Json::Int(outcome.grouped_runs)),
        ("requests", Json::Int(outcome.served.len() as u64)),
        ("ticks", Json::Int(ticks as u64)),
    ]);
    let clamp = |micros: u128| u64::try_from(micros).unwrap_or(u64::MAX);
    // Publication metrics ride the non-canonical channel with the
    // latency percentiles, but the three per-epoch counter arrays are
    // deterministic (single writer, reader-count invariant) — the
    // serve_props suite pins them against an offline replay; only the
    // rates genuinely vary run to run.
    let per_epoch = |f: fn(&tvg_serve::PublishStats) -> u64| {
        Json::Arr(
            outcome
                .publications
                .iter()
                .map(|p| Json::Int(f(p)))
                .collect(),
        )
    };
    let timing = obj([
        ("chunks_copied", per_epoch(|p| p.chunks_copied)),
        ("chunks_frozen", per_epoch(|p| p.chunks_frozen)),
        ("epochs_per_sec", Json::Num(outcome.timing.epochs_per_sec)),
        ("events_per_epoch", per_epoch(|p| p.events)),
        ("max_micros", Json::Int(clamp(outcome.timing.max_micros))),
        ("p50_micros", Json::Int(clamp(outcome.timing.p50_micros))),
        ("p95_micros", Json::Int(clamp(outcome.timing.p95_micros))),
        (
            "publish_micros",
            Json::Int(clamp(outcome.timing.publish_micros)),
        ),
        ("throughput_rps", Json::Num(outcome.timing.throughput_rps)),
        ("wall_micros", Json::Int(clamp(outcome.timing.wall_micros))),
    ]);
    (((results, outcome.stats), edge_events), timing)
}
