//! Incremental repair of foremost trees as a streamed schedule grows.
//!
//! A [`crate::ForemostTree`] answers "when does every node first hear
//! from the source?" against one fixed schedule. Under streaming
//! ingestion ([`tvg_model::stream`]) the schedule changes after every
//! batch of edge events, and rerunning [`crate::foremost_tree`] from
//! scratch repeats all the work the batch could not have invalidated.
//! [`IncrementalForemost`] keeps the explorer's internal state alive
//! between batches and repairs it instead:
//!
//! 1. **Prune.** Every accepted stream event changes presence only at
//!    or after its own instant, and the earliest such instant `t₀`
//!    arrives with the batch's
//!    [`tvg_model::stream::IngestReport::earliest_change`]. Because
//!    latencies are non-negative, a crossing departing at or after `t₀`
//!    also *arrives* at or after `t₀` — so every settled conclusion with
//!    arrival before `t₀` is untouchable, and everything at or after it
//!    is discarded (additions can improve those arrivals, a `Down`
//!    closing an open span can invalidate them; discarding handles
//!    both).
//! 2. **Replay.** Surviving configurations are re-expanded against the
//!    *new* schedule, in the exact global order a fresh run would have
//!    expanded them. Crossings landing before `t₀` find their targets
//!    already settled and are skipped; crossings into the repaired
//!    region re-enter the queue. Under `NoWait`/`Bounded` a survivor
//!    whose departure window ends before `t₀` and whose crossings all
//!    arrived before `t₀` is not re-expanded at all: the batch changed
//!    nothing it reads, so it can only reach settled targets again. Its
//!    last expansion's crossing count is added to the stats instead
//!    (see the engine's windowed replay).
//! 3. **Drain.** The ordinary exploration loop finishes the repaired
//!    region.
//!
//! For the exact explorers (`NoWait` / `Bounded`) this reproduces a
//! fresh run's arrivals *and* parent structure bit for bit — the
//! `streamcheck` differential oracle in `tvg-testkit` asserts witness
//! journeys hop by hop. The Pareto explorer (`Unbounded`) reproduces
//! arrivals and witness hop counts exactly; on exact ties between
//! equally-foremost routes the surviving witness may differ from the
//! fresh run's pick (label ids — the final tiebreak — are allocation
//! order, which repair does not replay), so the oracle checks those
//! witnesses semantically: same arrival, same hops, validates.
//!
//! The work saved is the point, stated precisely: per refresh, the
//! *settling* work is bounded by the repaired region (the churn). Under
//! the exact explorers the re-expansion work is bounded too: only the
//! survivors whose reach crosses `t₀` are re-expanded, and the rest
//! cost one scan of their frontier entries. No schedule recompilation,
//! no re-settling, no witness reconstruction. A refresh therefore costs
//! `O(frontier scan + expansions reaching t₀ + churn)` where the
//! recompute baseline pays `O(accumulated schedule + full exploration)`
//! every tick. The Pareto explorer still re-expands every survivor. The
//! `stream_props` work-reuse property pins the settle ratio,
//! [`IncrementalForemost::replay_counts`] reports how many survivors
//! were replayed and reused, and the `live_repair` ratio test in
//! `tvg-testkit` measures the gap against a fresh recompute on the
//! benchmark's `live-repair` feed.
//!
//! The reported `expanded` counter does not depend on the skip: a
//! presence-repairing refresh of an exact explorer raises it by exactly
//! a fresh run's `expanded` on the new schedule, which the
//! `streamcheck` oracle asserts after every batch.

use crate::engine::{EngineStats, ExactCore, Output, ParetoCore};
use crate::{Journey, SearchLimits, WaitingPolicy};
use tvg_model::stream::IngestReport;
use tvg_model::{NodeId, TemporalIndex, Time};

/// A foremost tree that stays current across ingest batches by
/// repairing itself instead of recomputing.
///
/// ```
/// use tvg_journeys::{IncrementalForemost, SearchLimits, WaitingPolicy};
/// use tvg_model::stream::{StreamEvent, TvgStream};
/// use tvg_model::Latency;
///
/// let mut s = TvgStream::<u64>::new(10)?;
/// let (u, v) = (s.add_node("u"), s.add_node("v"));
/// let e = s.add_edge(u, v, 'a', Latency::unit())?;
/// let limits = SearchLimits::new(10, 5);
/// let mut inc = IncrementalForemost::new(
///     s.index(), &[(u, 0)], WaitingPolicy::Unbounded, limits);
/// assert_eq!(inc.arrival(v), None);
///
/// let report = s.ingest(&[StreamEvent::Up { edge: e, at: 3 }])?;
/// inc.refresh(s.index(), &report);
/// assert_eq!(inc.arrival(v), Some(&4));
/// # Ok::<(), tvg_model::stream::StreamError<u64>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalForemost<T> {
    seeds: Vec<(NodeId, T)>,
    /// Node-count high-water mark at the last seeding pass. Seeds
    /// naming a node beyond it are *deferred*: under churn (node join
    /// and leave events in the feed) a source may not have joined the
    /// stream yet when the tree is created, and it enters the
    /// exploration on the first refresh that sees it exist.
    known_nodes: usize,
    policy: WaitingPolicy<T>,
    limits: SearchLimits<T>,
    state: State<T>,
    stats: EngineStats,
    replay: ReplayCounts,
}

/// How many surviving settled configurations the refreshes so far
/// re-expanded (`replayed`) and how many they skipped because the batch
/// could not change their expansion (`reused`). Cumulative, like
/// [`IncrementalForemost::stats`]; survivors at the hop cap, which never
/// expand, count in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Survivors re-expanded against the new schedule.
    pub replayed: u64,
    /// Survivors whose recorded expansion was reused.
    pub reused: u64,
}

impl std::ops::AddAssign for ReplayCounts {
    fn add_assign(&mut self, rhs: ReplayCounts) {
        self.replayed += rhs.replayed;
        self.reused += rhs.reused;
    }
}

#[derive(Debug, Clone)]
enum State<T> {
    Exact(ExactCore<T>),
    Pareto(ParetoCore<T>),
}

impl<T: Time> State<T> {
    fn out(&self) -> &Output<T> {
        match self {
            State::Exact(core) => &core.out,
            State::Pareto(core) => &core.out,
        }
    }

    /// Seeds `seeds` and drains. With `restart`, the exact core first
    /// starts a new pass of departure schedules, which a seed before
    /// what the last pass expanded needs.
    fn explore<'s, I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        seeds: impl IntoIterator<Item = &'s (NodeId, T)>,
        restart: bool,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        stats: &mut EngineStats,
    ) where
        T: 's,
    {
        match self {
            State::Exact(core) => {
                if restart {
                    core.restart_schedules(index.num_nodes());
                }
                core.seed(seeds);
                core.drain(index, policy, limits, None, stats);
            }
            State::Pareto(core) => {
                core.seed(seeds);
                core.drain(index, limits, None, stats);
            }
        }
    }
}

impl<T: Time> IncrementalForemost<T> {
    /// Runs the initial full exploration from `seeds` and keeps the
    /// explorer state for later repairs. Seeds naming a node the index
    /// does not hold yet (a source that joins the stream later) are
    /// deferred, not rejected: they enter the exploration on the first
    /// [`IncrementalForemost::refresh`] after their node exists.
    #[must_use]
    pub fn new<I: TemporalIndex<T>>(
        index: &I,
        seeds: &[(NodeId, T)],
        policy: WaitingPolicy<T>,
        limits: SearchLimits<T>,
    ) -> Self {
        let n = index.num_nodes();
        let mut stats = EngineStats::one_run();
        let mut state = match policy {
            WaitingPolicy::Unbounded => State::Pareto(ParetoCore::new(n)),
            _ => State::Exact(ExactCore::new(n)),
        };
        let live = seeds.iter().filter(|(s, _)| s.index() < n);
        state.explore(index, live, false, &policy, &limits, &mut stats);
        IncrementalForemost {
            seeds: seeds.to_vec(),
            known_nodes: n,
            policy,
            limits,
            state,
            stats,
            replay: ReplayCounts::default(),
        }
    }

    /// Brings the tree up to date after one ingested batch, repairing
    /// only from the batch's earliest presence change onward (a pure
    /// topology batch just grows the per-node state).
    pub fn refresh<I: TemporalIndex<T>>(&mut self, index: &I, report: &IngestReport<T>) {
        match &report.earliest_change {
            Some(t0) => self.refresh_since(index, t0),
            None => {
                self.resize(index);
                // A pure topology batch can still make a deferred seed's
                // node exist (`NewNode`); explore from it now so its own
                // arrival is settled before any presence arrives.
                let n = index.num_nodes();
                let prev = std::mem::replace(&mut self.known_nodes, n);
                let late: Vec<&(NodeId, T)> = self
                    .seeds
                    .iter()
                    .filter(|(s, _)| (prev..n).contains(&s.index()))
                    .collect();
                if !late.is_empty() {
                    self.stats.runs += 1;
                    // A late seed can precede what the last pass expanded.
                    let (policy, limits) = (&self.policy, &self.limits);
                    self.state
                        .explore(index, late, true, policy, limits, &mut self.stats);
                }
            }
        }
    }

    /// [`IncrementalForemost::refresh`] from an explicit repair
    /// watermark: every conclusion with arrival `>= since` is discarded
    /// and recomputed against the current index. Passing a watermark
    /// earlier than the true earliest change is always sound (it merely
    /// repairs more); passing a later one is not.
    pub fn refresh_since<I: TemporalIndex<T>>(&mut self, index: &I, since: &T) {
        self.resize(index);
        self.stats.runs += 1;
        let n = index.num_nodes();
        let prev = std::mem::replace(&mut self.known_nodes, n);
        let seeds = &self.seeds;
        // Re-seed what the prune discarded (`t >= since`), plus any
        // deferred seed whose node joined since the last pass — its
        // settled state never existed, whatever its seed time.
        let to_seed = move |seed: &&(NodeId, T)| {
            seed.0.index() < n && (&seed.1 >= since || seed.0.index() >= prev)
        };
        let (policy, limits, stats) = (&self.policy, &self.limits, &mut self.stats);
        self.replay += match &mut self.state {
            State::Exact(core) => {
                core.prune(since);
                core.replay(index, policy, limits, since, stats)
            }
            State::Pareto(core) => {
                core.prune(since);
                core.replay(index, limits, stats)
            }
        };
        // Every replayed time is before `since`, and the drain pops only
        // crossings into the repaired region and seeds at or after
        // `since`, so the exact core continues the replay's departure
        // schedules — unless a late source is seeded before `since`.
        let restart = seeds.iter().any(|seed| to_seed(&seed) && seed.1 < *since);
        let fresh = seeds.iter().filter(to_seed);
        self.state
            .explore(index, fresh, restart, policy, limits, stats);
    }

    fn resize<I: TemporalIndex<T>>(&mut self, index: &I) {
        let n = index.num_nodes();
        match &mut self.state {
            State::Exact(core) => core.resize(n),
            State::Pareto(core) => core.resize(n),
        }
    }

    /// The seed configurations the tree answers for.
    #[must_use]
    pub fn seeds(&self) -> &[(NodeId, T)] {
        &self.seeds
    }

    /// The waiting policy of the exploration.
    #[must_use]
    pub fn policy(&self) -> &WaitingPolicy<T> {
        &self.policy
    }

    /// The search limits of the exploration.
    #[must_use]
    pub fn limits(&self) -> &SearchLimits<T> {
        &self.limits
    }

    /// The foremost arrival at `n` under the current schedule, `None`
    /// if unreachable within the limits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the indexed graph.
    #[must_use]
    pub fn arrival(&self, n: NodeId) -> Option<&T> {
        self.state.out().arrival(n)
    }

    /// A foremost witness journey to `n` (empty for a seed node),
    /// rebuilt on demand from the repaired parent structure.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the indexed graph.
    #[must_use]
    pub fn journey_to(&self, n: NodeId) -> Option<Journey<T>> {
        self.state.out().journey_to(n)
    }

    /// Number of nodes currently reached (seeds included), kept as a
    /// counter where arrivals are set and pruned.
    #[must_use]
    pub fn num_reached(&self) -> usize {
        self.state.out().num_reached()
    }

    /// Cumulative work counters: `runs` counts the initial run plus one
    /// per repairing refresh; `settled`/`expanded` accumulate, so the
    /// total is directly comparable against the recompute strategy's
    /// sum of fresh runs (the `live-repair` workload traces both, as
    /// `incremental.settled` and `incremental.fresh_settled`).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Cumulative replayed and reused survivor counts of every repairing
    /// refresh so far (zero reused under the Pareto explorer).
    #[must_use]
    pub fn replay_counts(&self) -> ReplayCounts {
        self.replay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::foremost_tree_multi;
    use tvg_model::stream::{StreamEvent, TvgStream};
    use tvg_model::{Latency, TvgIndex};

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

    /// Repaired answers must match a fresh run on the recompiled
    /// accumulated schedule (the in-crate smoke version of the testkit
    /// streamcheck oracle).
    fn assert_matches_fresh(stream: &TvgStream<u64>, inc: &IncrementalForemost<u64>, label: &str) {
        let g = stream.to_tvg();
        let index = TvgIndex::compile(&g, *stream.index().horizon());
        let fresh = foremost_tree_multi(&index, inc.seeds(), inc.policy(), inc.limits());
        for node in g.nodes() {
            assert_eq!(
                inc.arrival(node),
                fresh.arrival(node),
                "{label}: arrival at {node} under {}",
                inc.policy()
            );
            let (i, f) = (inc.journey_to(node), fresh.journey_to(node));
            match inc.policy() {
                WaitingPolicy::Unbounded => match (&i, &f) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.num_hops(), b.num_hops(), "{label}: hops to {node}");
                        assert_eq!(a.arrival(), b.arrival(), "{label}: witness arrival {node}");
                    }
                    (None, None) => {}
                    _ => panic!("{label}: witness existence diverges at {node}"),
                },
                // Exact explorers: the repair replays the fresh run's
                // expansion order, so parents are identical.
                _ => assert_eq!(i, f, "{label}: witness to {node} under {}", inc.policy()),
            }
        }
    }

    fn line_stream() -> (TvgStream<u64>, Vec<tvg_model::EdgeId>) {
        let mut s = TvgStream::new(30).expect("30 + 1 is representable");
        let v: Vec<NodeId> = (0..4).map(|i| s.add_node(&format!("v{i}"))).collect();
        let edges = (0..3)
            .map(|i| {
                s.add_edge(v[i], v[i + 1], 'a', Latency::unit())
                    .expect("ok")
            })
            .collect();
        (s, edges)
    }

    #[test]
    fn growth_extends_reach_incrementally() {
        for policy in policies() {
            let (mut s, e) = line_stream();
            let limits = SearchLimits::new(30, 10);
            // Seed at t=1 so the chain is live even under NoWait.
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 1)], policy, limits);
            assert_eq!(inc.num_reached(), 1);
            let report = s
                .ingest(&[
                    StreamEvent::Up { edge: e[0], at: 1 },
                    StreamEvent::Down { edge: e[0], at: 2 },
                ])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "hop 1");
            let report = s
                .ingest(&[
                    StreamEvent::Up { edge: e[1], at: 2 },
                    StreamEvent::Down { edge: e[1], at: 3 },
                    StreamEvent::Up { edge: e[2], at: 6 },
                ])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "hops 2-3");
            assert_eq!(inc.arrival(n(2)), Some(&3));
        }
    }

    #[test]
    fn a_down_can_retract_an_arrival() {
        // While e1 is open it is presumed present through the horizon,
        // so v2 looks reachable; the Down closes the span *before* any
        // usable departure, and the repair must take the arrival back.
        let (mut s, e) = line_stream();
        let limits = SearchLimits::new(30, 10);
        let report = s
            .ingest(&[
                StreamEvent::Up { edge: e[0], at: 1 },
                StreamEvent::Down { edge: e[0], at: 2 },
                StreamEvent::Up { edge: e[1], at: 4 },
            ])
            .expect("ok");
        for policy in [WaitingPolicy::Bounded(5), WaitingPolicy::Unbounded] {
            let mut s = s.clone();
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 0)], policy, limits.clone());
            let _ = report; // initial state built after the first batch
            assert_eq!(inc.arrival(n(2)), Some(&5), "{}", inc.policy());
            let report = s
                .ingest(&[StreamEvent::Down { edge: e[1], at: 4 }])
                .expect("zero-length close is valid");
            inc.refresh(s.index(), &report);
            assert_eq!(inc.arrival(n(2)), None, "{}", inc.policy());
            assert_matches_fresh(&s, &inc, "retraction");
        }
    }

    #[test]
    fn horizon_extension_repairs_open_edges() {
        let (mut s, e) = line_stream();
        let limits = SearchLimits::new(100, 10);
        s.ingest(&[StreamEvent::Up { edge: e[0], at: 1 }])
            .expect("ok");
        for policy in policies() {
            let mut s = s.clone();
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 0)], policy, limits.clone());
            let report = s
                .ingest(&[StreamEvent::ExtendHorizon { to: 60 }])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "extension");
        }
    }

    #[test]
    fn new_edges_and_nodes_enter_the_tree() {
        for policy in policies() {
            let (mut s, e) = line_stream();
            let limits = SearchLimits::new(30, 10);
            let report = s
                .ingest(&[
                    StreamEvent::Up { edge: e[0], at: 1 },
                    StreamEvent::Down { edge: e[0], at: 2 },
                ])
                .expect("ok");
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 1)], policy, limits.clone());
            let _ = report;
            let fresh_node = s.add_node("late");
            let report = s
                .ingest(&[StreamEvent::NewEdge {
                    src: n(1),
                    dst: fresh_node,
                    label: 'z',
                    latency: Latency::unit(),
                }])
                .expect("ok");
            assert_eq!(report.earliest_change, None);
            inc.refresh(s.index(), &report);
            assert_eq!(inc.arrival(fresh_node), None);
            let late_edge = tvg_model::EdgeId::from_index(3);
            let report = s
                .ingest(&[StreamEvent::Up {
                    edge: late_edge,
                    at: 2,
                }])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "late edge");
            assert!(inc.arrival(fresh_node).is_some(), "{}", inc.policy());
        }
    }

    #[test]
    fn a_source_that_joins_later_is_deferred_not_panicked() {
        // Churn feeds start from an EMPTY stream — the source named in
        // the seed list joins via `NewNode` events later. Until then the
        // tree answers "nothing reached"; once the node exists it must
        // enter the exploration on the next refresh, whichever refresh
        // path (pure topology or presence repair) sees it first.
        for policy in policies() {
            let mut s = TvgStream::<u64>::new(30).expect("30 + 1 is representable");
            let limits = SearchLimits::new(30, 10);
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 2)], policy, limits);
            assert_eq!(inc.num_reached(), 0, "{}", inc.policy());
            // Pure-topology batch: the seed's node joins, nothing else.
            let report = s
                .ingest(&[StreamEvent::NewNode { name: "a".into() }])
                .expect("ok");
            assert_eq!(report.earliest_change, None);
            inc.refresh(s.index(), &report);
            assert_eq!(inc.arrival(n(0)), Some(&2), "{}", inc.policy());
            // Presence batch: a second node and a live edge follow.
            let report = s
                .ingest(&[
                    StreamEvent::NewNode { name: "b".into() },
                    StreamEvent::NewEdge {
                        src: n(0),
                        dst: n(1),
                        label: 'x',
                        latency: Latency::unit(),
                    },
                    StreamEvent::Up {
                        edge: tvg_model::EdgeId::from_index(0),
                        at: 2,
                    },
                ])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "late source");
            assert!(inc.arrival(n(1)).is_some(), "{}", inc.policy());
        }
    }

    /// A source that joins in a presence batch, seeded before the
    /// batch's watermark: the repair replays survivors at `v1` before
    /// the watermark, then explores from the late source, whose seed is
    /// earlier still and whose crossing reaches `v1` after it.
    #[test]
    fn a_late_source_seeded_before_the_watermark_repairs_exactly() {
        for policy in policies() {
            let (mut s, e) = line_stream();
            s.ingest(&[
                StreamEvent::Up { edge: e[1], at: 2 },
                StreamEvent::Up { edge: e[0], at: 3 },
                StreamEvent::Down { edge: e[0], at: 4 },
                StreamEvent::Down { edge: e[1], at: 4 },
            ])
            .expect("ok");
            let limits = SearchLimits::new(30, 10);
            // `v1` settles at 4; under `wait[2]` its window reaches 6.
            let seeds = [(n(0), 3), (n(4), 4)];
            let mut inc = IncrementalForemost::new(s.index(), &seeds, policy, limits);
            let late = tvg_model::EdgeId::from_index(3);
            let report = s
                .ingest(&[
                    StreamEvent::NewNode {
                        name: "late".into(),
                    },
                    StreamEvent::NewEdge {
                        src: n(4),
                        dst: n(1),
                        label: 'l',
                        latency: Latency::unit(),
                    },
                    StreamEvent::Up { edge: late, at: 5 },
                    StreamEvent::Down { edge: late, at: 6 },
                    StreamEvent::Up { edge: e[1], at: 7 },
                ])
                .expect("ok");
            assert_eq!(report.earliest_change, Some(5));
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "late source before the watermark");
            assert_eq!(inc.arrival(n(4)), Some(&4), "{}", inc.policy());
            assert_eq!(inc.arrival(n(1)), Some(&4), "{}", inc.policy());
        }
    }

    #[test]
    fn refresh_since_zero_equals_fresh_everything() {
        let (mut s, e) = line_stream();
        let limits = SearchLimits::new(30, 10);
        s.ingest(&[
            StreamEvent::Up { edge: e[0], at: 1 },
            StreamEvent::Down { edge: e[0], at: 3 },
            StreamEvent::Up { edge: e[1], at: 3 },
            StreamEvent::Down { edge: e[1], at: 7 },
        ])
        .expect("ok");
        for policy in policies() {
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 1)], policy, limits.clone());
            // Repairing from t=0 discards everything: still correct.
            inc.refresh_since(s.index(), &0);
            assert_matches_fresh(&s, &inc, "from zero");
            assert_eq!(inc.stats().runs, 2);
        }
    }
}
