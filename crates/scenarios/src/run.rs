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
//! Every plan times its phases in one record and builds its [`Report`]
//! through [`Scenario::report`]. The batch runtime's thread-count
//! invariance is what makes reports reproducible bytes rather than
//! approximate numbers.

use crate::report::{engine_json, histogram, obj, us, Phase, Phases, Report};
use crate::spec::{Plan, Scenario, Threads};
use std::collections::{BTreeMap, HashMap};
use tvg_dynnet::broadcast::broadcast_plan;
use tvg_dynnet::json::{Json, ToJson};
use tvg_dynnet::metrics::{AggregateStats, DeliveryStats};
use tvg_journeys::{
    Batch, BatchRunner, EngineStats, ForemostTree, IncrementalForemost, ReachabilityMatrix,
    ReplayCounts, SearchLimits, WaitingPolicy,
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
        let mut phases = Phases::start();
        let g = phases.time(Phase::Build, || self.build_graph());
        let (outcome, edge_events, metrics) = match self.plan() {
            Plan::Streaming { .. } => run_streaming(&g, self, &mut phases),
            Plan::Serve { .. } => run_serve(&g, self, &mut phases),
            _ => {
                return match self.narrowed(g, &mut phases) {
                    Ok(narrowed) => self.run_compiled(&narrowed, phases),
                    Err(g) => self.run_compiled(&g, phases),
                }
            }
        };
        let graph = (g.num_nodes(), g.num_edges(), edge_events);
        self.report(graph, outcome, phases, metrics)
    }

    /// The one time-domain decision: the scenario's graph rebuilt over
    /// `u32` instants when the horizon and the policy's arithmetic
    /// provably fit there (`wait[d]` computes `ready + d` for every
    /// `ready <= horizon`), `Err(g)` to stay in `u64`. A narrowed run
    /// gives the same answers with half the time-key bytes in the hot
    /// loops. The `narrow` phase is `narrow_tvg` plus dropping the `u64`
    /// graph it replaces; it is absent when the domain cannot fit.
    pub(crate) fn narrowed(&self, g: Tvg<u64>, phases: &mut Phases) -> Result<Tvg<u32>, Tvg<u64>> {
        let horizon = self.plan().horizon();
        let delay = match self.policy() {
            WaitingPolicy::Bounded(d) => *d,
            WaitingPolicy::NoWait | WaitingPolicy::Unbounded => 0,
        };
        match horizon.checked_add(delay) {
            Some(last) if last <= u64::from(u32::MAX) => {
                phases.time(Phase::Narrow, || narrow_tvg(&g, horizon).map_err(|_| g))
            }
            _ => Err(g),
        }
    }

    /// Compiles `g`, in the domain [`Scenario::narrowed`] settled on,
    /// and runs the batch plan on the index.
    fn run_compiled<T: Time + Send + Sync>(&self, g: &Tvg<T>, mut phases: Phases) -> Report {
        let horizon = T::from_u64(self.plan().horizon());
        let index = phases.time(Phase::Compile, || TvgIndex::compile(g, horizon));
        self.run_batch_plan(&index, phases)
    }

    /// The one batch-plan dispatcher, behind direct and indexed runs:
    /// runs the plan on `index` and reports it, adding the plan's
    /// `engine` and `reduce` phases to the index source's `phases`. A
    /// `u32` index exists only where [`Scenario::narrowed`] proved the
    /// horizon and the bounded delay fit, so converting them cannot
    /// truncate.
    pub(crate) fn run_batch_plan<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
        &self,
        index: &I,
        phases: Phases,
    ) -> Report {
        let mut q = Query {
            index,
            batch: self.batch(),
            policy: match self.policy() {
                WaitingPolicy::NoWait => WaitingPolicy::NoWait,
                WaitingPolicy::Unbounded => WaitingPolicy::Unbounded,
                WaitingPolicy::Bounded(d) => WaitingPolicy::Bounded(T::from_u64(*d)),
            },
            limits: SearchLimits::new(T::from_u64(self.plan().horizon()), self.plan().max_hops()),
            phases,
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
        let graph = (
            index.num_nodes(),
            index.num_edges(),
            index.num_edge_events(),
        );
        self.report(graph, outcome, q.phases, BTreeMap::new())
    }

    /// Wraps a plan's outcome in this scenario's [`Report`]: the one
    /// builder behind every plan, direct or from a `.tvgi`. `graph` is
    /// the `(nodes, edges, edge_events)` summary of what the plan ran on,
    /// `metrics` the plan's timing entries other than its phases.
    pub(crate) fn report(
        &self,
        (nodes, edges, edge_events): (usize, usize, usize),
        (results, engine): (Json, EngineStats),
        phases: Phases,
        metrics: BTreeMap<String, Json>,
    ) -> Report {
        let (wall_us, timing) = phases.finish(metrics);
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
            wall_us,
            timing,
        }
    }
}

/// A tree's arrival histogram over every node and its reached count:
/// what the single-source plans keep of each tree. Only the reached
/// nodes are read; the other `nodes - reached` count as unreached.
fn summary<T: Time>(tree: &ForemostTree<T>, nodes: usize) -> [Json; 2] {
    let reached = tree.num_reached() as u64;
    [
        histogram(tree.reached_arrivals().map(Some), nodes as u64 - reached),
        Json::Int(reached),
    ]
}

/// One batch plan's engine inputs, in the index's time domain, and the
/// run's phases: each plan's fan-out (worker-side reducers included) is
/// its `engine` phase, the caller-side assembly its `reduce`.
struct Query<'a, T, I> {
    index: &'a I,
    batch: Batch,
    policy: WaitingPolicy<T>,
    limits: SearchLimits<T>,
    phases: Phases,
}

impl<T: Time + Send + Sync, I: TemporalIndex<T> + Sync> Query<'_, T, I> {
    fn single_source(&mut self, src: usize, start: &T) -> (Json, EngineStats) {
        let nodes = self.index.num_nodes();
        let (mut results, stats) = self.phases.time(Phase::Engine, || {
            BatchRunner::new(self.index, self.batch).map_sources(
                &[NodeId::from_index(src)],
                start,
                &self.policy,
                &self.limits,
                |_, tree| summary(tree, nodes),
            )
        });
        self.phases.time(Phase::Reduce, || {
            let [hist, reached] = results.pop().expect("one source, one result");
            (obj([("histogram", hist), ("reached", reached)]), stats)
        })
    }

    fn matrix(&mut self, start: &T) -> (Json, EngineStats) {
        let nodes = self.index.num_nodes();
        let m = self.phases.time(Phase::Engine, || {
            ReachabilityMatrix::compute_on(
                self.index,
                start,
                &self.policy,
                &self.limits,
                self.batch,
            )
        });
        self.phases.time(Phase::Reduce, || {
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
                ("histogram", histogram(off_diagonal.into_iter(), 0)),
                ("ratio", Json::Num(m.reachability_ratio())),
                ("temporal_sinks", Json::Int(m.temporal_sinks().len() as u64)),
                (
                    "temporal_sources",
                    Json::Int(m.temporal_sources().len() as u64),
                ),
            ]);
            (results, m.stats())
        })
    }

    /// The sampled matrix plan: one all-destinations foremost run per
    /// sampled source, collapsed to a per-source `[histogram, reached]`
    /// row inside the batch workers — the full-tree arrays never
    /// accumulate, which is what keeps the million-node scale job's
    /// resident set bounded by the index, not by `sources × n` trees.
    fn matrix_sample(&mut self, sources: usize, seed: u64, start: &T) -> (Json, EngineStats) {
        let nodes = self.index.num_nodes();
        let srcs = sample_sources(nodes, sources, seed);
        let (rows, stats) = self.phases.time(Phase::Engine, || {
            BatchRunner::new(self.index, self.batch).map_sources(
                &srcs,
                start,
                &self.policy,
                &self.limits,
                |_, tree| Json::Arr(summary(tree, nodes).into()),
            )
        });
        self.phases.time(Phase::Reduce, || {
            let results = obj([
                ("per_source", Json::Arr(rows)),
                (
                    "sources",
                    Json::Arr(srcs.iter().map(|s| Json::Int(s.index() as u64)).collect()),
                ),
            ]);
            (results, stats)
        })
    }

    fn broadcast(&mut self, source: Option<usize>, beacons: bool) -> (Json, EngineStats) {
        let sources: Vec<usize> = match source {
            Some(s) => vec![s],
            None => (0..self.index.num_nodes()).collect(),
        };
        let (outcomes, stats) = self.phases.time(Phase::Engine, || {
            broadcast_plan(
                self.index,
                &self.policy,
                beacons,
                &sources,
                &self.limits,
                self.batch,
            )
        });
        self.phases.time(Phase::Reduce, || {
            let per_run: Vec<DeliveryStats> = outcomes.iter().map(|o| o.stats()).collect();
            let results = match source {
                Some(_) => {
                    let outcome = &outcomes[0];
                    obj([
                        ("delivery", per_run[0].to_json_value()),
                        (
                            "histogram",
                            histogram(outcome.informed_at.iter().map(Option::as_ref), 0),
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
                                0,
                            ),
                        ),
                        (
                            "per_source_reached",
                            Json::Arr(
                                outcomes
                                    .iter()
                                    .map(|o| {
                                        Json::Int(o.informed_at.iter().flatten().count() as u64)
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                }
            };
            (results, stats)
        })
    }
}

/// Draws `k` distinct sources from `0..n`, deterministically from
/// `seed`: a splitmix64-driven partial Fisher–Yates shuffle, sorted
/// ascending so the report does not depend on draw order. The pool is
/// `0..n` but for the positions a swap displaced, which `moved` keeps,
/// so a draw costs O(k) however large `n` is. `k >= n` simply selects
/// every node (the sample degenerates to the full matrix's source set).
pub(crate) fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    if k >= n {
        return (0..n).map(NodeId::from_index).collect();
    }
    let mut next = splitmix64(seed);
    let mut moved: HashMap<usize, usize> = HashMap::with_capacity(2 * k);
    let mut picked: Vec<usize> = (0..k)
        .map(|i| {
            let span = (n - i) as u64;
            let j = i + usize::try_from(next() % span).expect("residue below n fits usize");
            // Swap positions `i` and `j`, returning what `j` held.
            let displaced = moved.get(&i).copied().unwrap_or(i);
            moved.insert(j, displaced).unwrap_or(j)
        })
        .collect();
    picked.sort_unstable();
    picked.into_iter().map(NodeId::from_index).collect()
}

/// The splitmix64 stream from `seed`.
fn splitmix64(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a feed-defined plan returns: its results and engine counters,
/// the edge events it ingested, and its timing metrics beside its phases.
type PlanOutcome = ((Json, EngineStats), usize, BTreeMap<String, Json>);

/// The streaming plan: drive the scenario's feed (a replay of the
/// generated schedule, or the churn family's native join/leave feed)
/// through a [`TvgStream`] in `batch`-event ingest ticks,
/// repairing one incremental foremost tree per tick, then run one
/// batched all-sources query against the final live snapshot. Returns
/// the plan outcome and the final live index's edge-event count (the
/// graph summary of what was actually ingested), and times feed
/// construction, ingest and repair summed over the ticks, the initial
/// tree and the final query (`engine`), and the results. The repairs'
/// replayed and reused survivor counts come back as timing metrics.
fn run_streaming(g: &Tvg<u64>, scenario: &Scenario, p: &mut Phases) -> PlanOutcome {
    let &Plan::Streaming {
        src, start, batch, ..
    } = scenario.plan()
    else {
        unreachable!("called for streaming plans only")
    };
    let limits = scenario.limits();
    let (mut stream, events) = p.time(Phase::Feed, || scenario.stream_feed(g, limits.horizon));
    let source = NodeId::from_index(src);
    let mut inc = p.time(Phase::Engine, || {
        IncrementalForemost::new(
            stream.index(),
            &[(source, start)],
            *scenario.policy(),
            limits.clone(),
        )
    });
    let mut per_tick_reached: Vec<Json> = Vec::new();
    for chunk in events.chunks(batch) {
        let report = p
            .time(Phase::Ingest, || stream.ingest(chunk))
            .expect("scenario feeds are valid by construction");
        p.time(Phase::Repair, || inc.refresh(stream.index(), &report));
        per_tick_reached.push(Json::Int(inc.num_reached() as u64));
    }
    // One batched query tick against the final snapshot: every node as a
    // source, collapsed to reached-counts inside the workers.
    let nodes: Vec<NodeId> = stream.index().tvg().nodes().collect();
    let (snapshot_reached, snapshot_stats) = p.time(Phase::Engine, || {
        BatchRunner::new(stream.index(), scenario.batch()).map_sources(
            &nodes,
            &start,
            scenario.policy(),
            &limits,
            |_, tree| Json::Int(tree.num_reached() as u64),
        )
    });
    p.time(Phase::Reduce, || {
        let ticks = per_tick_reached.len() as u64;
        let results = obj([
            ("departed", Json::Int(stream.num_departed() as u64)),
            (
                "final_histogram",
                histogram(nodes.iter().map(|&n| inc.arrival(n)), 0),
            ),
            ("final_reached", Json::Int(inc.num_reached() as u64)),
            ("per_tick_reached", Json::Arr(per_tick_reached)),
            ("snapshot", engine_json(&snapshot_stats)),
            ("snapshot_reached", Json::Arr(snapshot_reached)),
            ("ticks", Json::Int(ticks)),
        ]);
        let edge_events = stream.index().num_edge_events();
        let stats = inc.stats() + snapshot_stats;
        let ReplayCounts { replayed, reused } = inc.replay_counts();
        let metrics = [("replayed", replayed), ("reused", reused)];
        let metrics = metrics.map(|(k, v)| (k.to_string(), Json::Int(v))).into();
        ((results, stats), edge_events, metrics)
    })
}

/// The serve plan: replay the generated schedule through a live stream
/// in `ticks` ingest batches (borrowed chunks of the one replay feed,
/// never copies of it) while a deterministic synthetic client
/// load is answered concurrently from epoch-pinned immutable snapshots
/// (see `tvg_serve`). Reader parallelism follows the scenario's thread
/// policy; the logical section returned here is reader-count invariant
/// and canonical. The plan times the feed, the load, the serve run
/// and the results; the run's writer (`ingest`, `publish`) and reader
/// (`engine`) spans nest inside `serve`, and its latency percentiles
/// and per-epoch publication counters come back as timing metrics.
fn run_serve(g: &Tvg<u64>, scenario: &Scenario, p: &mut Phases) -> PlanOutcome {
    let &Plan::Serve {
        start,
        requests,
        gap,
        mix,
        ticks,
        seed,
        ..
    } = scenario.plan()
    else {
        unreachable!("called for serve plans only")
    };
    let limits = scenario.limits();
    let (stream, events, edge_events) = p.time(Phase::Feed, || {
        let (stream, events) = TvgStream::replay_of(g, &limits.horizon)
            .expect("spec validation rejects horizons whose successor overflows");
        // The replay emits exactly one `Up` per compiled span, and every
        // span counts two edge events.
        let edge_events = 2 * events
            .iter()
            .filter(|ev| matches!(ev, StreamEvent::Up { .. }))
            .count();
        (stream, events, edge_events)
    });
    let load = p.time(Phase::Load, || {
        generate_load(&LoadSpec {
            requests,
            mean_gap: gap,
            mix,
            nodes: g.num_nodes(),
            seed_instant: start,
            seed,
        })
    });
    let config = ServeConfig {
        readers: scenario.batch().num_threads(),
        policy: *scenario.policy(),
        limits,
        start,
    };
    let outcome = p
        .time(Phase::Serve, || {
            // Chop the replay feed into exactly `ticks` borrowed ingest
            // batches (the tail ones may be empty when the feed is short):
            // the epoch count is part of the spec, not of the event volume.
            let chunk = events.len().div_ceil(ticks).max(1);
            let mut tick_batches: Vec<&[StreamEvent<u64>]> = events.chunks(chunk).collect();
            tick_batches.resize(ticks, &[]);
            serve(stream, &tick_batches, &load, &config)
        })
        .expect("replay is a valid feed");
    assert!(
        outcome.epochs_published >= 2,
        "a serve run must publish at least two epochs (got {})",
        outcome.epochs_published
    );
    let timing = outcome.timing;
    p.add(Phase::Ingest, timing.ingest);
    p.add(Phase::Publish, timing.publish);
    p.add(Phase::Engine, timing.engine);
    p.time(Phase::Reduce, move || {
        // The feed and the load are freed in this phase, as the outcome is.
        drop((events, load));
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
        let mut epoch_counts: BTreeMap<u64, u64> = BTreeMap::new();
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
        // Publication metrics ride the non-canonical channel with the
        // latency percentiles, but the three per-epoch counter arrays
        // are deterministic (single writer, reader-count invariant) —
        // the serve_props suite pins them against an offline replay.
        let per_epoch = |f: fn(&tvg_serve::PublishStats) -> u64| {
            Json::Arr(
                outcome
                    .publications
                    .iter()
                    .map(|p| Json::Int(f(p)))
                    .collect(),
            )
        };
        let metrics = [
            ("chunks_copied", per_epoch(|p| p.chunks_copied)),
            ("chunks_frozen", per_epoch(|p| p.chunks_frozen)),
            ("events_per_epoch", per_epoch(|p| p.events)),
            ("max_us", Json::Int(us(timing.max))),
            ("p50_us", Json::Int(us(timing.p50))),
            ("p95_us", Json::Int(us(timing.p95))),
        ];
        let metrics = metrics.map(|(k, v)| (k.to_string(), v)).into();
        ((results, outcome.stats), edge_events, metrics)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense partial Fisher–Yates the sparse draw replaces: a full
    /// `0..n` pool, swapped in place.
    fn dense_sample(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
        let (mut next, mut pool) = (splitmix64(seed), (0..n).collect::<Vec<_>>());
        for i in 0..k.min(n) {
            pool.swap(i, i + (next() % (n - i) as u64) as usize);
        }
        pool.truncate(k);
        pool.sort_unstable();
        pool.into_iter().map(NodeId::from_index).collect()
    }

    #[test]
    fn sparse_sampling_draws_what_the_dense_pool_draws() {
        for seed in [0, 1, 7, 97, u64::MAX] {
            for (n, k) in [1, 2, 3, 257, 5000]
                .into_iter()
                .flat_map(|n| [0, 1, n / 2, n - 1, n, n + 3].map(|k| (n, k)))
            {
                let label = format!("n={n} k={k} seed={seed}");
                assert_eq!(
                    sample_sources(n, k, seed),
                    dense_sample(n, k, seed),
                    "{label}"
                );
            }
        }
    }
}
