//! Plan execution: one scenario in, one canonical [`Report`] out.
//!
//! Batch plans (`single_source`, `matrix`, `matrix_sample`,
//! `broadcast`) run on one pipeline. An index source — generate, decide
//! the time domain once ([`Scenario::narrowed`]), compile a
//! [`TvgIndex`]; or open a `.tvgi` (`crate::indexfile`) — feeds the one
//! generic dispatcher [`Scenario::run_batch_plan`], which fans engine
//! runs out over the [`BatchRunner`] at the scenario's thread policy.
//! The streaming and serve plans are defined by their ingest feed, not
//! by an index, so they keep their own bodies over a [`TvgStream`].
//! Every plan builds its [`Report`] through [`Scenario::report`]. The
//! batch runtime's thread-count invariance is what makes reports
//! reproducible bytes rather than approximate numbers.

use crate::report::{engine_json, histogram, micros, obj, Report};
use crate::spec::{Plan, Scenario, Threads};
use std::time::{Duration, Instant};
use tvg_dynnet::broadcast::broadcast_plan;
use tvg_dynnet::json::{Json, ToJson};
use tvg_dynnet::metrics::{AggregateStats, DeliveryStats};
use tvg_journeys::{
    Batch, BatchRunner, EngineStats, ForemostTree, IncrementalForemost, ReachabilityMatrix,
    SearchLimits, WaitingPolicy,
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
        let started = Instant::now();
        let g = self.build_graph();
        let built = Instant::now();
        let (outcome, edge_events, timing) = match self.plan() {
            Plan::Streaming {
                src, start, batch, ..
            } => run_streaming(&g, self, *src, *start, *batch, built - started),
            Plan::Serve {
                start,
                requests,
                gap,
                mix,
                ticks,
                seed,
                ..
            } => run_serve(&g, self, *start, *requests, *gap, *mix, *ticks, *seed),
            _ => {
                return match self.narrowed(&g) {
                    Some(narrowed) => {
                        drop(g);
                        self.run_compiled(&narrowed, started, built)
                    }
                    None => self.run_compiled(&g, started, built),
                }
            }
        };
        let graph = (g.num_nodes(), g.num_edges(), edge_events);
        self.report(graph, outcome, started, timing)
    }

    /// The one time-domain decision: the scenario's graph rebuilt over
    /// `u32` instants when the horizon and the policy's arithmetic
    /// provably fit there (`wait[d]` computes `ready + d` for every
    /// `ready <= horizon`), `None` to stay in `u64`. A narrowed run gives
    /// the same answers with half the time-key bytes in the hot loops.
    pub(crate) fn narrowed(&self, g: &Tvg<u64>) -> Option<Tvg<u32>> {
        let horizon = self.plan().horizon();
        let delay = match self.policy() {
            WaitingPolicy::Bounded(d) => *d,
            WaitingPolicy::NoWait | WaitingPolicy::Unbounded => 0,
        };
        let fits = horizon.checked_add(delay)? <= u64::from(u32::MAX);
        fits.then(|| narrow_tvg(g, horizon).ok()).flatten()
    }

    /// Compiles `g`, in the domain [`Scenario::narrowed`] settled on,
    /// and runs the batch plan on the index, timing generation and
    /// narrowing plus compile.
    fn run_compiled<T: Time + Send + Sync>(
        &self,
        g: &Tvg<T>,
        started: Instant,
        built: Instant,
    ) -> Report {
        let index = TvgIndex::compile(g, T::from_u64(self.plan().horizon()));
        let phases = [
            ("build_us", built - started),
            ("compile_us", built.elapsed()),
        ];
        self.run_batch_plan(&index, started, &phases)
    }

    /// The one batch-plan dispatcher, behind direct and indexed runs:
    /// runs the plan on `index` and reports it, with the index source's
    /// `phases` and the plan's own `plan_us` as `timing`. A `u32` index
    /// exists only where [`Scenario::narrowed`] proved the horizon and
    /// the bounded delay fit, so converting them cannot truncate.
    pub(crate) fn run_batch_plan<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
        &self,
        index: &I,
        started: Instant,
        phases: &[(&str, Duration)],
    ) -> Report {
        let planned = Instant::now();
        let q = Query {
            index,
            batch: self.batch(),
            policy: match self.policy() {
                WaitingPolicy::NoWait => WaitingPolicy::NoWait,
                WaitingPolicy::Unbounded => WaitingPolicy::Unbounded,
                WaitingPolicy::Bounded(d) => WaitingPolicy::Bounded(T::from_u64(*d)),
            },
            limits: SearchLimits::new(T::from_u64(self.plan().horizon()), self.plan().max_hops()),
        };
        let outcome = match self.plan() {
            Plan::SingleSource { src, start, .. } => q.single_source(*src, &T::from_u64(*start)),
            Plan::Matrix { start, .. } => q.matrix(&T::from_u64(*start)),
            Plan::MatrixSample {
                sources,
                seed,
                start,
                ..
            } => q.matrix_sample(*sources, *seed, &T::from_u64(*start)),
            Plan::Broadcast {
                source, beacons, ..
            } => q.broadcast(*source, *beacons),
            Plan::Streaming { .. } | Plan::Serve { .. } => {
                unreachable!("feed-defined plans never reach the batch dispatcher")
            }
        };
        let timing = phases
            .iter()
            .chain(&[("plan_us", planned.elapsed())])
            .map(|&(phase, span)| (phase.to_string(), micros(span)))
            .collect();
        let graph = (
            index.num_nodes(),
            index.num_edges(),
            index.num_edge_events(),
        );
        self.report(graph, outcome, started, Json::Obj(timing))
    }

    /// Wraps a plan's outcome in this scenario's [`Report`]: the one
    /// builder behind every plan, direct or from a `.tvgi`. `graph` is
    /// the `(nodes, edges, edge_events)` summary of what the plan ran on.
    pub(crate) fn report(
        &self,
        (nodes, edges, edge_events): (usize, usize, usize),
        (results, engine): (Json, EngineStats),
        started: Instant,
        timing: Json,
    ) -> Report {
        Report {
            scenario: self.name().to_string(),
            generator: self.generator().name(),
            generator_params: self.generator().params_json(),
            policy: self.policy().to_string(),
            plan: self.plan().name(),
            threads: self.threads().to_string(),
            nodes,
            edges,
            edge_events,
            results,
            engine,
            wall_micros: started.elapsed().as_micros(),
            timing,
        }
    }
}

/// A tree's arrival histogram over every node and its reached count:
/// what the single-source plans keep of each tree.
fn summary<T: Time>(tree: &ForemostTree<T>, nodes: usize) -> [Json; 2] {
    [
        histogram((0..nodes).map(|n| tree.arrival(NodeId::from_index(n)))),
        Json::Int(tree.num_reached() as u64),
    ]
}

/// One batch plan's engine inputs, in the index's time domain.
struct Query<'a, T, I> {
    index: &'a I,
    batch: Batch,
    policy: WaitingPolicy<T>,
    limits: SearchLimits<T>,
}

impl<T: Time + Send + Sync, I: TemporalIndex<T> + Sync> Query<'_, T, I> {
    fn single_source(&self, src: usize, start: &T) -> (Json, EngineStats) {
        let nodes = self.index.num_nodes();
        let (mut results, stats) = BatchRunner::new(self.index, self.batch).map_sources(
            &[NodeId::from_index(src)],
            start,
            &self.policy,
            &self.limits,
            |_, tree| summary(tree, nodes),
        );
        let [hist, reached] = results.pop().expect("one source, one result");
        (obj([("histogram", hist), ("reached", reached)]), stats)
    }

    fn matrix(&self, start: &T) -> (Json, EngineStats) {
        let nodes = self.index.num_nodes();
        let m = ReachabilityMatrix::compute_on(
            self.index,
            start,
            &self.policy,
            &self.limits,
            self.batch,
        );
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

    /// The sampled matrix plan: one all-destinations foremost run per
    /// sampled source, collapsed to a per-source `[histogram, reached]`
    /// row inside the batch workers — the full-tree arrays never
    /// accumulate, which is what keeps the million-node scale job's
    /// resident set bounded by the index, not by `sources × n` trees.
    fn matrix_sample(&self, sources: usize, seed: u64, start: &T) -> (Json, EngineStats) {
        let nodes = self.index.num_nodes();
        let srcs = sample_sources(nodes, sources, seed);
        let (rows, stats) = BatchRunner::new(self.index, self.batch).map_sources(
            &srcs,
            start,
            &self.policy,
            &self.limits,
            |_, tree| Json::Arr(summary(tree, nodes).into()),
        );
        let results = obj([
            ("per_source", Json::Arr(rows)),
            (
                "sources",
                Json::Arr(srcs.iter().map(|s| Json::Int(s.index() as u64)).collect()),
            ),
        ]);
        (results, stats)
    }

    fn broadcast(&self, source: Option<usize>, beacons: bool) -> (Json, EngineStats) {
        let sources: Vec<usize> = match source {
            Some(s) => vec![s],
            None => (0..self.index.num_nodes()).collect(),
        };
        let (outcomes, stats) = broadcast_plan(
            self.index,
            &self.policy,
            beacons,
            &sources,
            &self.limits,
            self.batch,
        );
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

/// The streaming plan: drive the scenario's feed (a replay of the
/// generated schedule, or the churn family's native join/leave feed)
/// through a [`TvgStream`] in `batch_size`-event ingest ticks,
/// repairing one incremental foremost tree per tick, then run one
/// batched all-sources query against the final live snapshot. Returns
/// the plan outcome, the final live index's edge-event count (the graph
/// summary of what was actually ingested), and the phase timing: graph
/// generation (`build`, measured by the caller), feed construction,
/// ingest and tree repair summed over the ticks, and the final query.
fn run_streaming(
    g: &Tvg<u64>,
    scenario: &Scenario,
    src: usize,
    start: u64,
    batch_size: usize,
    build: Duration,
) -> ((Json, EngineStats), usize, Json) {
    let limits = scenario.limits();
    let feeding = Instant::now();
    let (mut stream, events) = scenario.stream_feed(g, limits.horizon);
    let feed = feeding.elapsed();
    let source = NodeId::from_index(src);
    let mut inc = IncrementalForemost::new(
        stream.index(),
        &[(source, start)],
        *scenario.policy(),
        limits.clone(),
    );
    let mut per_tick_reached: Vec<Json> = Vec::new();
    let (mut ingest, mut repair) = (Duration::ZERO, Duration::ZERO);
    for chunk in events.chunks(batch_size) {
        let tick = Instant::now();
        let report = stream
            .ingest(chunk)
            .expect("scenario feeds are valid by construction");
        let ingested = Instant::now();
        inc.refresh(stream.index(), &report);
        ingest += ingested - tick;
        repair += ingested.elapsed();
        per_tick_reached.push(Json::Int(inc.num_reached() as u64));
    }
    // One batched query tick against the final snapshot: every node as a
    // source, collapsed to reached-counts inside the workers.
    let querying = Instant::now();
    let nodes: Vec<NodeId> = stream.index().tvg().nodes().collect();
    let (snapshot_reached, snapshot_stats) = BatchRunner::new(stream.index(), scenario.batch())
        .map_sources(&nodes, &start, scenario.policy(), &limits, |_, tree| {
            Json::Int(tree.num_reached() as u64)
        });
    let snapshot = querying.elapsed();
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
    let timing = obj([
        ("build_us", micros(build)),
        ("feed_us", micros(feed)),
        ("ingest_us", micros(ingest)),
        ("repair_us", micros(repair)),
        ("snapshot_us", micros(snapshot)),
    ]);
    ((results, inc.stats() + snapshot_stats), edge_events, timing)
}

/// The serve plan: replay the generated schedule through a live stream
/// in `ticks` ingest batches while a deterministic synthetic client
/// load is answered concurrently from epoch-pinned immutable snapshots
/// (see `tvg_serve`). Reader parallelism follows the scenario's thread
/// policy; the logical section returned here is reader-count invariant
/// and canonical, while throughput/latency percentiles come back in the
/// separate non-canonical timing object.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    g: &Tvg<u64>,
    scenario: &Scenario,
    start: u64,
    requests: usize,
    gap: u64,
    mix: (u64, u64, u64),
    ticks: usize,
    seed: u64,
) -> ((Json, EngineStats), usize, Json) {
    let limits = scenario.limits();
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
        readers: scenario.batch().num_threads(),
        policy: *scenario.policy(),
        limits,
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
        (
            "ingest_micros",
            Json::Int(clamp(outcome.timing.ingest_micros)),
        ),
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
    ((results, outcome.stats), edge_events, timing)
}
