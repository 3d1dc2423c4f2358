//! The single-source journey engine: one pass over a compiled
//! [`TvgIndex`](tvg_model::TvgIndex) computes foremost arrivals (and
//! witness journeys) from a source to *every* node.
//!
//! Two explorers share the [`ForemostTree`] output:
//!
//! * **Unbounded waiting** uses label-correcting search with Pareto
//!   dominance on `(arrival, hops)`. Under unbounded waiting an earlier
//!   arrival can do everything a later one can (its departure window is a
//!   superset) as long as it has not spent more hops, so a label
//!   dominated in both coordinates is pruned soundly — and the hop
//!   coordinate keeps the pruning exact even when `max_hops` binds.
//! * **`NoWait` / `Bounded(d)`** retain exact `(node, time)`
//!   configuration exploration, because under restricted waiting an
//!   early arrival can be a dead end while a later one connects
//!   (the phenomenon the paper is about). The index still pays off: the
//!   waiting window is enumerated interval-by-interval instead of
//!   tick-by-tick.
//!
//! # Core layout
//!
//! Both explorers are built for cache locality:
//!
//! * **One output record.** Every generated configuration/label lives
//!   in one bump arena of `Label`s addressed by `u32` id; parent
//!   pointers are arena ids, not map keys, so witness reconstruction is
//!   a pointer walk. The arena, each node's foremost arrival and witness
//!   id, and the reached count form one `Output`, which both explorers
//!   settle into and which a [`ForemostTree`] is.
//! * **Flat frontiers.** Each node's frontier is one flat sorted map
//!   (`FlatMap`) from configuration time to a merged generation-and-
//!   settlement record (`Conf`), laid out struct-of-arrays: an
//!   expanded crossing resolves its target with a single binary search
//!   over a dense key array, and because settle times per node are
//!   non-decreasing, fresh settles land at the tail.
//! * **Monomorphized policies.** The waiting policy is dispatched once
//!   per drain/replay into loops generic over `DeparturePolicy`, so
//!   the per-label policy branch of the old explorer is compiled away.
//! * **Queue dedup.** The exact explorer pushes a heap entry only when a
//!   crossing improves the best hop count enqueued for its target
//!   configuration (a decrease-key emulation); the old explorer pushed
//!   every admissible crossing and deduplicated at pop time.
//! * **Departure coverage.** Under `Bounded(d)` two settles at one node
//!   a tick apart share `d` departures on every out-edge. Each touched
//!   node records the departure interval its last expansion walked and
//!   that expansion's hop count (`Coverage`); a later expansion with
//!   no fewer hops counts the crossings departing inside it into
//!   `expanded` (by span arithmetic when the latency is monotone)
//!   instead of regenerating targets that are already generated and
//!   cannot improve. Reset, prune and every incremental refresh forget
//!   the coverage. `NoWait` windows never overlap, so its loop compiles
//!   without coverage, and `Unbounded` runs the Pareto explorer.
//! * **Departure schedule.** An expansion walks only the spans its
//!   window can depart on. A node's first expansion in a pass
//!   binary-searches each out-edge once; later ones merge the out-edges'
//!   span lists lazily by start, admitting spans into a live list kept
//!   in out-edge order (the [`TemporalIndex::crossings`] order) and
//!   dropping the ones that ended. An out-edge with no span in the
//!   window is not read. A pass expands in non-decreasing time: a fresh
//!   run is one pass, and so is a repair's replay together with the
//!   drain after it, since every replayed configuration precedes the
//!   watermark and the drain pops none before it.
//! * **Windowed replay.** Each settled configuration's `Conf` keeps
//!   what its last expansion added to `expanded` and its *reach*: the
//!   latest instant that expansion depended on, i.e. the end of its
//!   departure window and the latest arrival of its crossings. A repair
//!   from watermark `t0` replays only the survivors whose reach is at
//!   or after `t0`. The others read presence only before `t0`, which
//!   the repaired batch left unchanged, and every crossing of theirs
//!   lands on a settled configuration before `t0`, where a replay would
//!   change nothing. They add their recorded count to `expanded`
//!   instead, so every counter, arrival and witness stays identical to
//!   a full replay. The rule needs no latency bound: an arrival depends
//!   only on the edge's fixed latency, so the recorded reach stays
//!   exact for dilated and opaque latencies too.
//! * **Reuse with touched-only reset.** An [`Engine`] keeps both cores
//!   alive across runs; every batch worker and serve reader owns one.
//!   Per-node frontiers and departure schedules live behind dense slot
//!   arrays and exist only for the nodes a run touched. A reset clears
//!   exactly those frontiers (including generated but unsettled ones a
//!   targeted early exit leaves behind), those schedules, and the heap,
//!   so a run that explores little costs little even on a huge index.
//!   Only the dense output (the `Output` record's arrival and witness
//!   slots, which the returned tree takes) is allocated per run, as
//!   lazily mapped zeroed memory.
//!
//! These are representation changes only: arrivals, witnesses, and
//! [`EngineStats`] are bit-identical to the pre-overhaul explorer,
//! which `tvg-testkit` keeps alive as a differential oracle
//! (`refengine`).
//!
//! Every run carries its own [`EngineStats`] (run count, settled
//! configurations, expanded crossings) inside the returned tree. Stats
//! are values, not thread-local counters, so they aggregate correctly
//! when the batch runtime fans runs out over worker threads — summing
//! per-tree stats is how tests pin aggregate consumers (e.g.
//! `ReachabilityMatrix`) to "exactly n single-source runs, no per-pair
//! search", at any thread count.

use crate::policy::bounded_latest;
use crate::{Hop, Journey, ReplayCounts, SearchLimits, WaitingPolicy};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap};
use tvg_model::{EdgeId, NodeId, TemporalIndex, Time};

/// Work counters of one single-source engine run — or, summed, of a
/// whole batch. Returned by value with every [`ForemostTree`], so the
/// accounting stays exact when runs execute on different worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of single-source engine runs (1 per tree; a batch sums).
    pub runs: u64,
    /// Configurations (exact explorer) or labels (Pareto explorer)
    /// settled.
    pub settled: u64,
    /// Admissible crossings of every expanded configuration: each one
    /// counts whether it was walked, counted by departure coverage, or
    /// counted from the record of a configuration a repair did not need
    /// to replay.
    pub expanded: u64,
}

impl EngineStats {
    pub(crate) fn one_run() -> Self {
        EngineStats {
            runs: 1,
            ..EngineStats::default()
        }
    }
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        self.runs += rhs.runs;
        self.settled += rhs.settled;
        self.expanded += rhs.expanded;
    }
}

impl std::ops::Add for EngineStats {
    type Output = EngineStats;

    fn add(mut self, rhs: EngineStats) -> EngineStats {
        self += rhs;
        self
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::default(), std::ops::Add::add)
    }
}

/// The departure-window computation of a waiting policy, as a trait so
/// the exploration loops monomorphize per policy instead of branching
/// per label. Implementations mirror
/// [`WaitingPolicy::latest_departure`] exactly.
pub(crate) trait DeparturePolicy<T: Time> {
    /// Whether two configurations at one node can share departures, so
    /// that departure coverage can spare work.
    const WINDOWS_OVERLAP: bool = true;

    /// The latest admissible departure from a node reached at `ready`,
    /// `None` if the window is empty or overflows the representation.
    fn latest(&self, ready: &T, horizon: &T) -> Option<T>;
}

/// Direct journeys: depart exactly at the ready instant.
struct NoWaitDeparture;

impl<T: Time> DeparturePolicy<T> for NoWaitDeparture {
    const WINDOWS_OVERLAP: bool = false;

    #[inline]
    fn latest(&self, ready: &T, horizon: &T) -> Option<T> {
        (*ready <= *horizon).then(|| ready.clone())
    }
}

/// Pauses of at most `d`: depart within `[ready, ready + d]`.
struct BoundedDeparture<T>(T);

impl<T: Time> DeparturePolicy<T> for BoundedDeparture<T> {
    #[inline]
    fn latest(&self, ready: &T, horizon: &T) -> Option<T> {
        bounded_latest(ready, &self.0, horizon)
    }
}

/// The routing invariant of the exact core: [`Engine::run`] and
/// `IncrementalForemost::new` hand `Unbounded` waiting to the Pareto
/// core, so no exact core ever runs it.
const UNBOUNDED_IS_PARETO: &str = "unbounded waiting runs on the Pareto core, never the exact core";

/// The hop ceiling in the engine's internal `u32` hop arithmetic. A
/// `max_hops` beyond `u32::MAX` is unreachable anyway: every hop settles
/// at least one configuration, and the `u32`-indexed arena caps those.
fn hops_cap<T>(limits: &SearchLimits<T>) -> u32 {
    u32::try_from(limits.max_hops).unwrap_or(u32::MAX)
}

/// A sorted flat map laid out struct-of-arrays: binary searches touch
/// only the dense key array; values live apart. Inserts are
/// binary-search + shift, appends when the key is maximal — which is
/// the common case for per-node settle frontiers, whose keys arrive in
/// non-decreasing pop order.
#[derive(Debug, Clone)]
struct FlatMap<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<K: Ord + Clone, V> FlatMap<K, V> {
    fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.keys.binary_search(key).ok().map(|i| &self.vals[i])
    }

    /// Binary search: `Ok(i)` if present, `Err(i)` with the insertion
    /// point otherwise (the raw handle for insert-or-update call sites).
    ///
    /// The tail is probed first: frontier keys arrive in roughly
    /// non-decreasing order, so the hottest lookups resolve against the
    /// last entry without a full search.
    fn search(&self, key: &K) -> Result<usize, usize> {
        match self.keys.last() {
            None => Err(0),
            Some(last) => match key.cmp(last) {
                std::cmp::Ordering::Greater => Err(self.keys.len()),
                std::cmp::Ordering::Equal => Ok(self.keys.len() - 1),
                std::cmp::Ordering::Less => self.keys[..self.keys.len() - 1].binary_search(key),
            },
        }
    }

    fn val_mut(&mut self, i: usize) -> &mut V {
        &mut self.vals[i]
    }

    fn insert_at(&mut self, i: usize, key: K, val: V) {
        self.keys.insert(i, key);
        self.vals.insert(i, val);
    }

    /// Discards every entry with key `>= t0` (keys are sorted, so this
    /// is a truncation).
    fn truncate_from(&mut self, t0: &K) {
        let keep = self.keys.partition_point(|k| k < t0);
        self.keys.truncate(keep);
        self.vals.truncate(keep);
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.vals.iter())
    }
}

/// One explored configuration/label: its arrival instant plus the
/// parent pointer `(parent arena id, edge, departure)` that realizes it
/// (`None` for seeds). Both explorers allocate these in one bump arena
/// addressed by `u32` id — witness journeys are rebuilt by walking
/// parent ids.
#[derive(Debug, Clone)]
struct Label<T> {
    time: T,
    parent: Option<(u32, EdgeId, T)>,
}

/// The dense output both explorers settle into, and all a
/// [`ForemostTree`] holds besides its stats: per node, the foremost
/// arrival and the arena id of its witness label, the label arena, and
/// the reached count. Journeys are rebuilt lazily in
/// [`Output::journey_to`], so arrival-only consumers (reachability rows,
/// delivery ratios, broadcasts) pay nothing for witnesses they never
/// read.
#[derive(Debug, Clone)]
pub(crate) struct Output<T> {
    arrival: Vec<Option<T>>,
    best: Vec<Option<u32>>,
    arena: Vec<Label<T>>,
    /// The number of `Some` entries in `arrival`.
    reached: usize,
}

impl<T: Time> Output<T> {
    /// `num_nodes` unreached nodes and an empty arena.
    fn new(num_nodes: usize) -> Self {
        Output {
            arrival: vec![None; num_nodes],
            best: vec![None; num_nodes],
            arena: Vec::new(),
            reached: 0,
        }
    }

    /// Starts over with `num_nodes` unreached nodes. The slots are a
    /// fresh `vec!` rather than a refill: for machine-word times that is
    /// one zeroed allocation whose pages the OS maps lazily, so a run
    /// that reaches few nodes pays for few pages.
    fn reset(&mut self, num_nodes: usize) {
        *self = Output::new(num_nodes);
    }

    /// Grows the slots after streamed topology growth.
    fn grow(&mut self, num_nodes: usize) {
        self.arrival.resize(num_nodes, None);
        self.best.resize(num_nodes, None);
    }

    fn alloc(&mut self, time: T, parent: Option<(u32, EdgeId, T)>) -> u32 {
        let id = u32::try_from(self.arena.len()).expect("label arena exceeds u32 capacity");
        self.arena.push(Label { time, parent });
        id
    }

    /// Settles `node` at `time` with witness label `id` unless it is
    /// already reached; whether this was its first, foremost settle.
    fn settle(&mut self, node: NodeId, time: &T, id: u32) -> bool {
        let slot = &mut self.arrival[node.index()];
        if slot.is_some() {
            return false;
        }
        *slot = Some(time.clone());
        self.best[node.index()] = Some(id);
        self.reached += 1;
        true
    }

    /// Forgets `node`'s arrival if it is at or after `t0`.
    fn forget_from(&mut self, node: NodeId, t0: &T) {
        let slot = &mut self.arrival[node.index()];
        if slot.as_ref().is_some_and(|t| t >= t0) {
            *slot = None;
            self.best[node.index()] = None;
            self.reached -= 1;
        }
    }

    pub(crate) fn arrival(&self, n: NodeId) -> Option<&T> {
        self.arrival[n.index()].as_ref()
    }

    /// Walks the witness label's parent ids back to its seed.
    pub(crate) fn journey_to(&self, n: NodeId) -> Option<Journey<T>> {
        self.arrival(n)?;
        let mut id = self.best[n.index()].expect("reached nodes have a best label");
        let mut hops = Vec::new();
        while let Some((prev, e, dep)) = &self.arena[id as usize].parent {
            hops.push(Hop {
                edge: *e,
                depart: dep.clone(),
                arrive: self.arena[id as usize].time.clone(),
            });
            id = *prev;
        }
        hops.reverse();
        Some(Journey::from_hops(hops))
    }

    fn reached_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.arrival
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| NodeId::from_index(i))
    }

    pub(crate) fn num_reached(&self) -> usize {
        self.reached
    }
}

/// The all-destinations output of one single-source engine run: for each
/// node, the foremost (earliest) arrival from the seed configuration(s),
/// plus the parent structure to rebuild a witness journey on demand.
///
/// Seed nodes are reached at their seed time by the empty journey.
#[derive(Debug, Clone)]
pub struct ForemostTree<T> {
    out: Output<T>,
    stats: EngineStats,
}

impl<T: Time> ForemostTree<T> {
    /// The foremost arrival at `n`, `None` if unreachable within the
    /// limits.
    #[must_use]
    pub fn arrival(&self, n: NodeId) -> Option<&T> {
        self.out.arrival(n)
    }

    /// A foremost journey to `n` (empty for a seed node), `None` if
    /// unreachable within the limits. Rebuilt on demand from the parent
    /// structure.
    #[must_use]
    pub fn journey_to(&self, n: NodeId) -> Option<Journey<T>> {
        self.out.journey_to(n)
    }

    /// The reached nodes, in id order.
    pub fn reached_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.out.reached_nodes()
    }

    /// Number of reached nodes (seeds included).
    #[must_use]
    pub fn num_reached(&self) -> usize {
        self.out.num_reached()
    }

    /// Work counters of the run that produced this tree
    /// (`stats().runs == 1` for a single engine pass).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

/// One single-source foremost run from `(src, start)` over a compiled
/// index (batch-compiled or live): foremost arrivals to every node in
/// one pass.
///
/// Departures are bounded by `limits.horizon` (the index's own horizon
/// also applies) and journeys by `limits.max_hops` hops.
#[must_use]
pub fn foremost_tree<T: Time, I: TemporalIndex<T>>(
    index: &I,
    src: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> ForemostTree<T> {
    foremost_tree_multi(index, &[(src, start.clone())], policy, limits)
}

/// [`foremost_tree`] from several seed configurations at once.
///
/// A node's foremost arrival is the earliest over journeys from *any*
/// seed. Multiple seeds model sources that re-emit over time (e.g. a
/// beaconing broadcast source is a seed at every step).
#[must_use]
pub fn foremost_tree_multi<T: Time, I: TemporalIndex<T>>(
    index: &I,
    seeds: &[(NodeId, T)],
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> ForemostTree<T> {
    Engine::new().run(index, seeds, policy, limits, None)
}

/// A single-target foremost query with early exit: the run stops as soon
/// as `dst` settles (its first settle is already foremost), skipping the
/// rest of the configuration space. This is what the per-pair
/// `foremost_journey` wrapper uses; all-destinations consumers use
/// [`foremost_tree`] instead.
#[must_use]
pub fn foremost_to<T: Time, I: TemporalIndex<T>>(
    index: &I,
    src: NodeId,
    dst: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> Option<Journey<T>> {
    Engine::new()
        .run(index, &[(src, start.clone())], policy, limits, Some(dst))
        .journey_to(dst)
}

/// Explorer state kept alive across runs: one exact core (`NoWait`,
/// `Bounded`) and one Pareto core (`Unbounded`).
///
/// A batch worker or serve reader that answers many queries keeps one
/// `Engine`, so every run after the first clears only what the previous
/// run touched instead of allocating and zeroing O(n + m) frontier and
/// cursor arrays. Only the dense per-node output (the returned tree's
/// arrivals and witness slots) is built fresh per run. A reused engine
/// answers bit-identically to a fresh one — arrivals, witnesses, and
/// [`EngineStats`] — over any sequence of indexes, policies, and limits;
/// the one-shot [`foremost_tree`] family is a fresh engine's single run.
///
/// ```
/// use tvg_journeys::{Engine, SearchLimits, WaitingPolicy};
/// use tvg_model::{generators::ring_bus_tvg, NodeId, TvgIndex};
///
/// let g = ring_bus_tvg(5, 5, 'r');
/// let index = TvgIndex::compile(&g, 30);
/// let limits = SearchLimits::new(30, 10);
/// let mut engine = Engine::new();
/// for src in g.nodes() {
///     let tree = engine.run(&index, &[(src, 0)], &WaitingPolicy::NoWait, &limits, None);
///     assert_eq!(tree.arrival(src), Some(&0));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Engine<T> {
    exact: ExactCore<T>,
    pareto: ParetoCore<T>,
}

impl<T: Time> Default for Engine<T> {
    fn default() -> Self {
        Engine::new()
    }
}

impl<T: Time> Engine<T> {
    /// An engine with empty cores; the first run sizes them.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            exact: ExactCore::new(0),
            pareto: ParetoCore::new(0),
        }
    }

    /// One foremost run from `seeds` over `index` (see
    /// [`foremost_tree_multi`]). With a `target`, the run stops at the
    /// target's first, already-foremost settle (see [`foremost_to`]), so
    /// only the target's arrival and witness in the returned tree are
    /// final.
    pub fn run<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        seeds: &[(NodeId, T)],
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
    ) -> ForemostTree<T> {
        let mut stats = EngineStats::one_run();
        let n = index.num_nodes();
        let out = match policy {
            WaitingPolicy::Unbounded => {
                let c = &mut self.pareto;
                c.reset(n);
                c.seed(seeds);
                c.drain(index, limits, target, &mut stats);
                &mut c.out
            }
            _ => {
                let c = &mut self.exact;
                c.reset(n);
                c.seed(seeds);
                c.drain(index, policy, limits, target, &mut stats);
                &mut c.out
            }
        };
        // The tree takes the output; the next reset rebuilds it.
        ForemostTree {
            out: std::mem::replace(out, Output::new(0)),
            stats,
        }
    }
}

/// One touched node's departure schedule within a pass (see
/// [`ExactCore::expand`]): its out-edges' span lists merged lazily by
/// start. Expansion times and window ends never decrease within a pass,
/// so a span that ends at or before an expansion time leaves for good.
#[derive(Debug, Clone)]
struct Departures<T> {
    /// Each out-edge's next span not yet admitted, as `(start, out-edge
    /// slot, span index)`: a min-heap by start.
    pending: BinaryHeap<Reverse<(T, usize, usize)>>,
    /// Admitted spans that have not ended, as `(out-edge slot, span
    /// index, start, end)` in `(slot, start)` order, the order
    /// [`TemporalIndex::crossings`] enumerates them in.
    live: Vec<(usize, usize, T, T)>,
}

impl<T: Ord> Default for Departures<T> {
    fn default() -> Self {
        Departures {
            pending: BinaryHeap::new(),
            live: Vec::new(),
        }
    }
}

impl<T: Time> Departures<T> {
    fn clear(&mut self) {
        self.pending.clear();
        self.live.clear();
    }

    /// The node's first expansion in the pass, with the window `[time,
    /// until]`: per out-edge, the spans from the first one ending after
    /// `time` go live while they start by `until`; the next is queued.
    fn prime<I: TemporalIndex<T>>(&mut self, index: &I, edges: &[EdgeId], time: &T, until: &T) {
        let live = &mut self.live;
        self.pending
            .extend(edges.iter().enumerate().filter_map(|(slot, &e)| {
                let spans = index.presence(e).spans();
                let mut i = spans.partition_point(|(_, end)| end <= time);
                while let Some((start, end)) = spans.get(i).filter(|(start, _)| start <= until) {
                    live.push((slot, i, start.clone(), end.clone()));
                    i += 1;
                }
                spans.get(i).map(|s| Reverse((s.0.clone(), slot, i)))
            }));
    }

    /// A later expansion, with the window `[time, until]`: drops the live
    /// spans that ended and admits the queued ones starting by `until`,
    /// skipping any that ended unadmitted.
    fn advance<I: TemporalIndex<T>>(&mut self, index: &I, edges: &[EdgeId], time: &T, until: &T) {
        self.live.retain(|(_, _, _, end)| end > time);
        while let Some(Reverse((_, slot, i))) = self
            .pending
            .peek_mut()
            .filter(|head| head.0 .0 <= *until)
            .map(PeekMut::pop)
        {
            let spans = index.presence(edges[slot]).spans();
            let i = i + spans[i..].partition_point(|(_, end)| end <= time);
            let Some((start, end)) = spans.get(i) else {
                continue;
            };
            if start > until {
                self.pending.push(Reverse((start.clone(), slot, i)));
                continue;
            }
            if let Some((next, _)) = spans.get(i + 1) {
                self.pending.push(Reverse((next.clone(), slot, i + 1)));
            }
            let at = self.live.partition_point(|l| (l.0, l.1) < (slot, i));
            self.live.insert(at, (slot, i, start.clone(), end.clone()));
        }
    }
}

/// Per-node state kept only for the nodes a run touches, behind a dense
/// slot array: slot `v` is 0 until node `v` is first touched, then one
/// plus the index of its value. Sizing for a new node count is one
/// zeroed allocation whose pages the OS maps lazily, and a reset clears
/// only the touched values, keeping their capacity for the next run.
#[derive(Debug, Clone)]
struct Touched<V> {
    slot: Vec<u32>,
    nodes: Vec<NodeId>,
    /// `vals[k]` belongs to `nodes[k]`; entries past `nodes.len()` are
    /// cleared spares from earlier runs.
    vals: Vec<V>,
}

impl<V: Default> Touched<V> {
    fn new(num_nodes: usize) -> Self {
        Touched {
            slot: vec![0; num_nodes],
            nodes: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn get(&self, v: NodeId) -> Option<&V> {
        let k = self.slot[v.index()].checked_sub(1)?;
        Some(&self.vals[k as usize])
    }

    /// Node `v`'s value, created on first touch.
    fn touch(&mut self, v: NodeId) -> &mut V {
        let k = match self.slot[v.index()] {
            0 => {
                let k = self.nodes.len();
                self.nodes.push(v);
                if self.vals.len() == k {
                    self.vals.push(V::default());
                }
                self.slot[v.index()] = u32::try_from(k + 1).expect("node count fits in u32");
                k
            }
            s => s as usize - 1,
        };
        &mut self.vals[k]
    }

    /// Every touched node with its value, in touch order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.nodes.iter().copied().zip(&self.vals)
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.vals[..self.nodes.len()].iter_mut()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut V)> + '_ {
        self.nodes.iter().copied().zip(&mut self.vals)
    }

    /// Grows the slot array after streamed topology growth, keeping
    /// every value.
    fn grow(&mut self, num_nodes: usize) {
        if num_nodes > self.slot.len() {
            self.slot.resize(num_nodes, 0);
        }
    }

    /// Forgets every touched node, emptying its value with `clear`, and
    /// sizes the slot array for `num_nodes`. Every slot is zero by then,
    /// so growing is a fresh zeroed allocation, not a copy and a fill.
    fn reset(&mut self, num_nodes: usize, clear: impl Fn(&mut V)) {
        for (k, v) in self.nodes.drain(..).enumerate() {
            self.slot[v.index()] = 0;
            clear(&mut self.vals[k]);
        }
        if num_nodes > self.slot.len() {
            self.slot = vec![0; num_nodes];
        } else {
            self.slot.truncate(num_nodes);
        }
    }
}

/// Maps an arrival configuration to `(parent node, parent ready time,
/// edge, departure)` — the same parent structure as the tick-scan
/// reference search, so reconstructed journeys match it hop for hop.
/// Used by `search::shortest_journey`, which builds the same map.
pub(crate) type ParentMap<T> = BTreeMap<(NodeId, T), (NodeId, T, EdgeId, T)>;

pub(crate) fn rebuild<T: Time>(parents: &ParentMap<T>, mut state: (NodeId, T)) -> Journey<T> {
    let mut hops = Vec::new();
    while let Some((pn, pt, e, dep)) = parents.get(&state).cloned() {
        hops.push(Hop {
            edge: e,
            depart: dep,
            arrive: state.1.clone(),
        });
        state = (pn, pt);
    }
    hops.reverse();
    Journey::from_hops(hops)
}

/// Per-configuration state in the merged per-node frontier map:
/// the first-generated witness label (the same first-crossing-wins rule
/// as the old `or_insert` parent map), the best hop count — the
/// decrease-key key while enqueued, the settle hops once settled (equal
/// by the time the first pop happens, since the heap pops hop-minimal
/// ties first) — whether the configuration has settled, and the record
/// of its last expansion that lets a repair skip it.
///
/// Keeping generation and settlement in ONE sorted map means each
/// expanded crossing resolves its target with a single binary search
/// where the split `settled`/`gen` layout needed two.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Conf<T> {
    label: u32,
    hops: u32,
    settled: bool,
    /// What the last expansion added to `expanded`.
    crossings: u64,
    /// The latest instant the last expansion depended on: the end of
    /// its departure window and the arrival of every crossing it walked
    /// or counted (the configuration's own time before any expansion).
    reach: T,
}

impl<T> Conf<T> {
    /// A configuration generated (or seeded) at `time`, not yet expanded.
    fn new(label: u32, hops: u32, settled: bool, time: T) -> Self {
        Conf {
            label,
            hops,
            settled,
            crossings: 0,
            reach: time,
        }
    }
}

/// A node's departure coverage: every crossing departing it within
/// `[lo, hi]` has already been generated into a target that is settled
/// or enqueued with at most `hops + 1` hops. A target depends only on
/// the edge and the departure, not on which configuration departs, so
/// re-expanding a covered departure with `hops` or more hops can neither
/// insert a configuration nor decrease a key: it is counted, not walked.
#[derive(Debug, Clone)]
struct Coverage<T> {
    lo: T,
    hi: T,
    hops: u32,
}

/// One touched node of the exact explorer: its configurations and its
/// departure coverage.
#[derive(Debug, Clone)]
struct Frontier<T> {
    confs: FlatMap<T, Conf<T>>,
    coverage: Option<Coverage<T>>,
}

impl<T> Default for Frontier<T> {
    fn default() -> Self {
        Frontier {
            confs: FlatMap::default(),
            coverage: None,
        }
    }
}

/// Resumable state of the exact `(node, time)` explorer — the fresh run
/// drives it from empty seeds; [`crate::incremental`] prunes and
/// replays it when the underlying schedule grows at the right edge.
///
/// `frontiers` is the merged frontier: per touched node, a flat sorted
/// map from configuration time to its [`Conf`] state. Settles flip the
/// flag in place (pop times per node are non-decreasing, so fresh
/// settles land at the tail); generation inserts by binary search but
/// lands at the tail in the common case.
#[derive(Debug, Clone)]
pub(crate) struct ExactCore<T> {
    pub(crate) out: Output<T>,
    /// Per touched node: configuration time → generation/settlement
    /// state, plus the node's departure coverage.
    frontiers: Touched<Frontier<T>>,
    /// Seed configurations and their arena slots, for resolving the
    /// origin label of a settled seed that no crossing generated.
    seed_slots: Vec<(NodeId, T, u32)>,
    // Min-heap on (arrival, node, hops, label id): pops in time order,
    // so the first settle of a node is its foremost arrival. Residual
    // duplicates are deduplicated at pop time against the settled flag.
    queue: BinaryHeap<Reverse<(T, NodeId, u32, u32)>>,
    /// The departure schedule of each node the current pass expanded.
    departures: Touched<Departures<T>>,
}

impl<T: Time> ExactCore<T> {
    pub(crate) fn new(num_nodes: usize) -> Self {
        ExactCore {
            out: Output::new(num_nodes),
            frontiers: Touched::new(num_nodes),
            seed_slots: Vec::new(),
            queue: BinaryHeap::new(),
            departures: Touched::new(num_nodes),
        }
    }

    /// Readies the core for a fresh run over `num_nodes` nodes by
    /// clearing only what the previous run touched: the frontier maps
    /// of every node it generated into (including generated but
    /// unsettled configurations a targeted early exit left behind), its
    /// seeds, its departure schedules, and the heap. The dense output
    /// arrays are rebuilt, since the previous run's tree took them.
    pub(crate) fn reset(&mut self, num_nodes: usize) {
        self.frontiers.reset(num_nodes, |f| {
            f.confs.clear();
            f.coverage = None;
        });
        self.restart_schedules(num_nodes);
        self.seed_slots.clear();
        self.queue.clear();
        self.out.reset(num_nodes);
    }

    /// Adapts the per-node state to a changed index: grows it after
    /// streamed topology growth and forgets every departure coverage,
    /// which holds only for the schedule it was generated against.
    pub(crate) fn resize(&mut self, num_nodes: usize) {
        self.out.grow(num_nodes);
        self.frontiers.grow(num_nodes);
        for f in self.frontiers.values_mut() {
            f.coverage = None;
        }
    }

    /// Starts a new pass of departure schedules over `num_nodes` nodes.
    /// A pass may only expand configurations in non-decreasing time, so
    /// a pass starts with every fresh run and every replay, and before a
    /// drain that can pop a configuration earlier than the last pass
    /// expanded. A drain after a replay continues the replay's pass.
    pub(crate) fn restart_schedules(&mut self, num_nodes: usize) {
        self.departures.reset(num_nodes, Departures::clear);
    }

    /// Enqueues seed configurations (hop count zero).
    pub(crate) fn seed<'s>(&mut self, seeds: impl IntoIterator<Item = &'s (NodeId, T)>)
    where
        T: 's,
    {
        for (node, t) in seeds {
            let id = self.out.alloc(t.clone(), None);
            self.seed_slots.push((*node, t.clone(), id));
            self.queue.push(Reverse((t.clone(), *node, 0, id)));
        }
    }

    /// Discards every conclusion at or after `t0`: settles, generated
    /// labels, and foremost arrivals from `t0` on may all be
    /// invalidated by schedule changes at `t0`, while everything
    /// strictly earlier is untouchable (a crossing departing at or
    /// after `t0` arrives at or after it — latencies are non-negative).
    /// Departure coverage goes too, since it vouches for pruned targets.
    /// Only touched nodes can hold an arrival, so the prune walks those.
    /// The arena keeps pruned labels as unreachable garbage, which
    /// costs memory proportional to the churn but keeps every surviving
    /// parent chain valid by construction.
    pub(crate) fn prune(&mut self, t0: &T) {
        self.queue.clear();
        for (node, f) in self.frontiers.iter_mut() {
            f.confs.truncate_from(t0);
            f.coverage = None;
            self.out.forget_from(node, t0);
        }
        self.seed_slots.retain(|(_, t, _)| t < t0);
    }

    /// Re-expands the surviving configurations a repair from `t0` can
    /// change, in global settle order (time, node, hops) — the order a
    /// fresh run would have expanded them in. Crossings arriving before
    /// the prune watermark find their targets already settled and are
    /// skipped; crossings into the repaired region re-enter the queue,
    /// so the subsequent [`ExactCore::drain`] reproduces a fresh run's
    /// conclusions there.
    ///
    /// A survivor whose reach is before `t0` is not replayed: its
    /// window and arrivals lie where presence did not change, so its
    /// recorded crossings are still exact and every one of them lands
    /// on a settled configuration. It adds its record to `expanded`.
    pub(crate) fn replay<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        t0: &T,
        stats: &mut EngineStats,
    ) -> ReplayCounts {
        match policy {
            WaitingPolicy::NoWait => self.replay_inner(index, &NoWaitDeparture, limits, t0, stats),
            WaitingPolicy::Bounded(d) => {
                self.replay_inner(index, &BoundedDeparture(d.clone()), limits, t0, stats)
            }
            WaitingPolicy::Unbounded => unreachable!("{UNBOUNDED_IS_PARETO}"),
        }
    }

    fn replay_inner<I: TemporalIndex<T>, P: DeparturePolicy<T>>(
        &mut self,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        t0: &T,
        stats: &mut EngineStats,
    ) -> ReplayCounts {
        let cap = hops_cap(limits);
        let mut reused = 0;
        let mut survivors: Vec<(T, NodeId, u32)> = Vec::new();
        for (node, f) in self.frontiers.iter() {
            // Configurations at the hop cap never expand.
            for (t, c) in f.confs.iter().filter(|(_, c)| c.settled && c.hops < cap) {
                if c.reach < *t0 {
                    stats.expanded += c.crossings;
                    reused += 1;
                } else {
                    survivors.push((t.clone(), node, c.hops));
                }
            }
        }
        survivors.sort();
        self.restart_schedules(index.num_nodes());
        let replayed = survivors.len() as u64;
        for (time, node, hops) in survivors {
            let id = self.origin_label(node, &time);
            self.expand(index, policy, limits, node, &time, hops, id, stats);
        }
        ReplayCounts { replayed, reused }
    }

    /// The arena id reconstructing the journey of a settled
    /// configuration: its first-generated label if any crossing reached
    /// it, otherwise its seed slot.
    fn origin_label(&self, node: NodeId, time: &T) -> u32 {
        self.frontiers
            .get(node)
            .and_then(|f| f.confs.get(time))
            .map(|c| c.label)
            .or_else(|| {
                self.seed_slots
                    .iter()
                    .find(|(n, t, _)| *n == node && t == time)
                    .map(|&(_, _, id)| id)
            })
            .expect("settled configuration has an origin label")
    }

    /// Runs the exploration to exhaustion (or to `target`'s first,
    /// already-foremost settle), continuing the current pass of
    /// departure schedules (see [`ExactCore::restart_schedules`]).
    pub(crate) fn drain<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
        stats: &mut EngineStats,
    ) {
        match policy {
            WaitingPolicy::NoWait => {
                self.drain_inner(index, &NoWaitDeparture, limits, target, stats);
            }
            WaitingPolicy::Bounded(d) => {
                self.drain_inner(index, &BoundedDeparture(d.clone()), limits, target, stats);
            }
            WaitingPolicy::Unbounded => unreachable!("{UNBOUNDED_IS_PARETO}"),
        }
    }

    fn drain_inner<I: TemporalIndex<T>, P: DeparturePolicy<T>>(
        &mut self,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
        stats: &mut EngineStats,
    ) {
        let cap = hops_cap(limits);
        while let Some(Reverse((time, node, hops, id))) = self.queue.pop() {
            // The witness label of this configuration: its
            // first-generated crossing if one exists (a zero-latency
            // cycle can generate into a seed configuration before the
            // seed pops), otherwise the label carried by the queue.
            let map = &mut self.frontiers.touch(node).confs;
            let id = match map.search(&time) {
                Ok(at) => {
                    let entry = map.val_mut(at);
                    if entry.settled {
                        continue;
                    }
                    // The heap pops hop-minimal ties first, so the
                    // popped hops equal the best enqueued hops here.
                    entry.settled = true;
                    entry.hops = hops;
                    entry.label
                }
                // A seed configuration no crossing generated into. Pop
                // times per node are non-decreasing, so this is an
                // append in all but name.
                Err(at) => {
                    map.insert_at(at, time.clone(), Conf::new(id, hops, true, time.clone()));
                    id
                }
            };
            stats.settled += 1;
            // The first settle is already foremost: a targeted query is
            // done here.
            if self.out.settle(node, &time, id) && target == Some(node) {
                break;
            }
            if hops == cap {
                continue;
            }
            self.expand(index, policy, limits, node, &time, hops, id, stats);
        }
    }

    /// Expands every admissible crossing from a settled configuration —
    /// the same `(edge, depart, arrive)` triples in the same order as
    /// [`TemporalIndex::crossings`], through the node's [`Departures`]:
    /// a span is read when it is admitted into the node's live list, not
    /// on every expansion, so an out-edge with no span in the window
    /// costs nothing here. The node's first expansion in a pass (see
    /// [`ExactCore::restart_schedules`]) binary-searches each out-edge
    /// once.
    ///
    /// Triples departing within the node's [`Coverage`] are counted into
    /// `stats.expanded`, not enumerated, when this configuration has no
    /// fewer hops than the coverage's: an earlier expansion already
    /// generated their targets.
    ///
    /// The configuration's [`Conf`] records the crossings and the reach
    /// of this expansion for [`ExactCore::replay`].
    #[allow(clippy::too_many_arguments)] // one settled configuration, spelled out
    fn expand<I: TemporalIndex<T>, P: DeparturePolicy<T>>(
        &mut self,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        node: NodeId,
        time: &T,
        hops: u32,
        id: u32,
        stats: &mut EngineStats,
    ) {
        // An empty window keeps the record the configuration was
        // created with: no crossings, reach at its own time.
        let Some(latest) = policy.latest(time, &limits.horizon) else {
            return;
        };
        let until = latest.min(limits.horizon.clone());
        let mut crossings = 0;
        let mut reach = until.clone();
        // Clipped to this window, so the rule holds in whatever order
        // configurations expand.
        let covered = self
            .frontiers
            .get(node)
            .filter(|_| P::WINDOWS_OVERLAP)
            .and_then(|f| f.coverage.as_ref())
            .filter(|c| c.hops <= hops)
            .map(|c| {
                (
                    c.lo.clone().max(time.clone()),
                    c.hi.clone().min(until.clone()),
                )
            })
            .filter(|(lo, hi)| lo <= hi);
        let edges = index.out_edges(node);
        let primed = self.departures.get(node).is_some();
        let schedule = self.departures.touch(node);
        if primed {
            schedule.advance(index, edges, time, &until);
        } else {
            schedule.prime(index, edges, time, &until);
        }
        for (slot, _, start, end) in &schedule.live {
            let e = edges[*slot];
            let succ = index.dst(e);
            let mut dep = if *start > *time {
                start.clone()
            } else {
                time.clone()
            };
            while dep < *end && dep <= until {
                if let Some((_, hi)) = covered.as_ref().filter(|(lo, hi)| *lo <= dep && dep <= *hi)
                {
                    // `dep < end`, so `end - 1` exists and its
                    // successor does not overflow.
                    let last = hi
                        .clone()
                        .min(end.checked_sub(&T::one()).expect("dep < end"));
                    let (count, latest_arr) = count_crossings(index, e, &dep, &last);
                    crossings += count;
                    if let Some(arr) = latest_arr.filter(|arr| *arr > reach) {
                        reach = arr;
                    }
                    dep = last.succ();
                    continue;
                }
                let Some(arr) = index.arrival(e, &dep) else {
                    // Latency overflow: the crossing is dropped
                    // before it counts as expanded.
                    dep = dep.succ();
                    continue;
                };
                crossings += 1;
                if arr > reach {
                    reach = arr.clone();
                }
                // Either branch leaves `succ` with a frontier entry.
                let map = &mut self.frontiers.touch(succ).confs;
                match map.search(&arr) {
                    Ok(at) => {
                        // Already generated: the first crossing keeps
                        // the witness; re-enqueue only on a strict hop
                        // improvement into a not-yet-settled
                        // configuration (decrease-key).
                        let entry = map.val_mut(at);
                        if !entry.settled && hops + 1 < entry.hops {
                            entry.hops = hops + 1;
                            let gen_id = entry.label;
                            self.queue.push(Reverse((arr, succ, hops + 1, gen_id)));
                        }
                    }
                    Err(at) => {
                        let new_id = self.out.alloc(arr.clone(), Some((id, e, dep.clone())));
                        let entry = Conf::new(new_id, hops + 1, false, arr.clone());
                        map.insert_at(at, arr.clone(), entry);
                        self.queue.push(Reverse((arr, succ, hops + 1, new_id)));
                    }
                }
                dep = dep.succ();
            }
        }
        stats.expanded += crossings;
        self.record(node, time, crossings, reach);
        if !P::WINDOWS_OVERLAP {
            return;
        }
        let coverage = &mut self.frontiers.touch(node).coverage;
        let dominated = coverage
            .as_ref()
            .is_some_and(|c| c.lo <= *time && until <= c.hi && c.hops <= hops);
        if !dominated {
            *coverage = Some(Coverage {
                lo: time.clone(),
                hi: until,
                hops,
            });
        }
    }

    /// Stores an expansion's crossings and reach in the expanded
    /// configuration's [`Conf`]. Its position is searched afresh: a
    /// self-loop can have inserted after it.
    fn record(&mut self, node: NodeId, time: &T, crossings: u64, reach: T) {
        let confs = &mut self.frontiers.touch(node).confs;
        let Ok(at) = confs.search(time) else {
            unreachable!("an expanded configuration is in its node's frontier");
        };
        let conf = confs.val_mut(at);
        conf.crossings = crossings;
        conf.reach = reach;
    }
}

/// The crossings of `e` departing at the present instants
/// `first..=last` — those whose arrival does not overflow — and the
/// latest of their arrivals. A monotone arrival that fits at `last`
/// fits at every earlier departure and is latest there, so the count is
/// the span's length; otherwise every departure is tried.
fn count_crossings<T: Time, I: TemporalIndex<T>>(
    index: &I,
    e: EdgeId,
    first: &T,
    last: &T,
) -> (u64, Option<T>) {
    let len = last
        .checked_sub(first)
        .and_then(|d| d.to_u64())
        .and_then(|d| d.checked_add(1));
    if let Some(len) = len.filter(|_| index.arrival_is_monotone(e)) {
        if let Some(arr) = index.arrival(e, last) {
            return (len, Some(arr));
        }
    }
    let mut count = 0;
    let mut latest: Option<T> = None;
    let mut dep = first.clone();
    while dep <= *last {
        if let Some(arr) = index.arrival(e, &dep) {
            count += 1;
            if latest.as_ref().is_none_or(|l| arr > *l) {
                latest = Some(arr);
            }
        }
        dep = dep.succ();
    }
    (count, latest)
}

/// A settled Pareto frontier entry: `(arrival, hops, label id)`.
type ParetoEntry<T> = (T, u32, u32);

fn dominated<T: Time>(frontier: &[ParetoEntry<T>], time: &T, hops: u32) -> bool {
    frontier.iter().any(|(a, h, _)| a <= time && *h <= hops)
}

/// Resumable state of the Pareto label-correcting explorer (unbounded
/// waiting), the counterpart of [`ExactCore`]. Pruning keeps the label
/// arena intact — labels in the repaired region become unreachable
/// garbage, which costs memory proportional to the churn but keeps
/// every surviving parent chain valid by construction.
#[derive(Debug, Clone)]
pub(crate) struct ParetoCore<T> {
    pub(crate) out: Output<T>,
    /// Settled Pareto frontier per touched node, sorted by arrival
    /// (settle order is time-ordered and per-node ties are dominated
    /// away).
    settled: Touched<Vec<ParetoEntry<T>>>,
    // Min-heap on (arrival, hops, node, label id); pops in (time, hops)
    // order, and label ids make every entry unique, so the pop sequence
    // is exactly the old ordered-set iteration order.
    queue: BinaryHeap<Reverse<(T, u32, NodeId, u32)>>,
}

impl<T: Time> ParetoCore<T> {
    pub(crate) fn new(num_nodes: usize) -> Self {
        ParetoCore {
            out: Output::new(num_nodes),
            settled: Touched::new(num_nodes),
            queue: BinaryHeap::new(),
        }
    }

    /// Readies the core for a fresh run (see [`ExactCore::reset`]):
    /// clears the touched nodes' frontiers and the heap, and rebuilds
    /// the dense output arrays.
    pub(crate) fn reset(&mut self, num_nodes: usize) {
        self.settled.reset(num_nodes, Vec::clear);
        self.queue.clear();
        self.out.reset(num_nodes);
    }

    /// Grows the per-node state after streamed topology growth.
    pub(crate) fn resize(&mut self, num_nodes: usize) {
        self.out.grow(num_nodes);
        self.settled.grow(num_nodes);
    }

    /// Enqueues seed labels (hop count zero, no parent).
    pub(crate) fn seed<'s>(&mut self, seeds: impl IntoIterator<Item = &'s (NodeId, T)>)
    where
        T: 's,
    {
        for (node, t) in seeds {
            let id = self.out.alloc(t.clone(), None);
            self.queue.push(Reverse((t.clone(), 0, *node, id)));
        }
    }

    /// Discards every conclusion at or after `t0` (see
    /// [`ExactCore::prune`] for the soundness argument).
    pub(crate) fn prune(&mut self, t0: &T) {
        self.queue.clear();
        for (node, frontier) in self.settled.iter_mut() {
            let keep = frontier.partition_point(|(t, _, _)| t < t0);
            frontier.truncate(keep);
            self.out.forget_from(node, t0);
        }
    }

    /// Re-expands every surviving settled label in global settle order
    /// (time, hops, node, id). Crossings whose best arrival lands
    /// before the prune watermark are dominated by surviving frontier
    /// entries and skipped; crossings into the repaired region re-enter
    /// the queue for [`ParetoCore::drain`]. A label generates only the
    /// earliest crossing per edge, so no label can be skipped by its
    /// time window: every expandable survivor is replayed.
    pub(crate) fn replay<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        limits: &SearchLimits<T>,
        stats: &mut EngineStats,
    ) -> ReplayCounts {
        let cap = hops_cap(limits);
        let mut survivors: Vec<(T, u32, NodeId, u32)> = Vec::new();
        for (node, frontier) in self.settled.iter() {
            survivors.extend(
                frontier
                    .iter()
                    .filter(|(t, h, _)| *h < cap && *t <= limits.horizon)
                    .map(|(t, h, id)| (t.clone(), *h, node, *id)),
            );
        }
        survivors.sort();
        let replayed = survivors.len() as u64;
        for (time, hops, node, id) in survivors {
            self.expand(index, limits, node, &time, hops, id, stats);
        }
        ReplayCounts {
            replayed,
            reused: 0,
        }
    }

    /// Runs the exploration to exhaustion (or to `target`'s first,
    /// already-foremost settle).
    pub(crate) fn drain<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
        stats: &mut EngineStats,
    ) {
        let cap = hops_cap(limits);
        while let Some(Reverse((time, hops, node, id))) = self.queue.pop() {
            let frontier = self.settled.touch(node);
            if dominated(frontier, &time, hops) {
                continue;
            }
            frontier.push((time.clone(), hops, id));
            stats.settled += 1;
            if self.out.settle(node, &time, id) && target == Some(node) {
                break;
            }
            if hops == cap || time > limits.horizon {
                continue;
            }
            self.expand(index, limits, node, &time, hops, id, stats);
        }
    }

    #[allow(clippy::too_many_arguments)] // one settled label, spelled out
    fn expand<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        limits: &SearchLimits<T>,
        node: NodeId,
        time: &T,
        hops: u32,
        id: u32,
        stats: &mut EngineStats,
    ) {
        for &e in index.out_edges(node) {
            let succ = index.dst(e);
            // All crossings of `e` from this label cost the same hops, so
            // only the minimal-arrival departure can survive dominance —
            // one label per (label, edge). With a monotone arrival the
            // earliest departure realizes it (one binary search); an
            // opaque latency needs the full window scanned.
            let best_crossing: Option<(T, T)> = if index.arrival_is_monotone(e) {
                index
                    .next_departure(e, time)
                    .filter(|dep| dep <= &limits.horizon && dep <= index.horizon())
                    .and_then(|dep| Some((index.arrival(e, &dep)?, dep)))
            } else {
                let mut best: Option<(T, T)> = None;
                for dep in index.departures_within(e, time, &limits.horizon) {
                    let Some(arr) = index.arrival(e, &dep) else {
                        continue;
                    };
                    match &best {
                        Some((best_arr, _)) if *best_arr <= arr => {}
                        _ => best = Some((arr, dep)),
                    }
                }
                best
            };
            let Some((arr, dep)) = best_crossing else {
                continue;
            };
            if self
                .settled
                .get(succ)
                .is_some_and(|frontier| dominated(frontier, &arr, hops + 1))
            {
                continue;
            }
            stats.expanded += 1;
            let new_id = self.out.alloc(arr.clone(), Some((id, e, dep)));
            self.queue.push(Reverse((arr, hops + 1, succ, new_id)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_model::{Latency, Presence, Tvg, TvgBuilder, TvgIndex};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Line v0 →a→ v1 →b→ v2 where b exists only at t = 5.
    fn line_gap() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(5u64), Latency::unit())
            .expect("valid");
        b.build().expect("valid")
    }

    fn limits() -> SearchLimits<u64> {
        SearchLimits::new(20, 10)
    }

    #[test]
    fn tree_separates_policies() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let no = foremost_tree(&idx, n(0), &1, &WaitingPolicy::NoWait, &limits());
        assert_eq!(no.arrival(n(0)), Some(&1));
        assert_eq!(no.arrival(n(1)), Some(&2));
        assert_eq!(no.arrival(n(2)), None);
        assert_eq!(no.num_reached(), 2);

        let wait = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(wait.arrival(n(2)), Some(&6));
        let j = wait.journey_to(n(2)).expect("reachable");
        assert_eq!(j.num_hops(), 2);
        assert_eq!(j.validate(&g, n(0), &1, &WaitingPolicy::Unbounded), Ok(()));
        assert_eq!(
            wait.reached_nodes().collect::<Vec<_>>(),
            vec![n(0), n(1), n(2)]
        );

        let b3 = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Bounded(3), &limits());
        assert_eq!(b3.arrival(n(2)), Some(&6));
        let b2 = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Bounded(2), &limits());
        assert_eq!(b2.arrival(n(2)), None);
    }

    #[test]
    fn seed_nodes_reach_themselves_by_empty_journeys() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let tree = foremost_tree(&idx, n(1), &3, &WaitingPolicy::NoWait, &limits());
        assert_eq!(tree.arrival(n(1)), Some(&3));
        assert!(tree.journey_to(n(1)).expect("seed").is_empty());
    }

    #[test]
    fn multi_seed_takes_the_earliest() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        // Seeding v0 late misses edge a; an extra seed at v1 connects.
        let seeds = [(n(0), 4u64), (n(1), 4u64)];
        let tree = foremost_tree_multi(&idx, &seeds, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(tree.arrival(n(2)), Some(&6));
        assert_eq!(tree.arrival(n(0)), Some(&4));
        assert_eq!(tree.arrival(n(1)), Some(&4));
    }

    #[test]
    fn hop_and_horizon_limits_bind() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let one_hop = SearchLimits::new(20, 1);
        let tree = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &one_hop);
        assert_eq!(tree.arrival(n(2)), None);
        let tight = SearchLimits::new(4, 10);
        let tree = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &tight);
        assert_eq!(tree.arrival(n(2)), None);
    }

    #[test]
    fn pareto_hop_pruning_is_exact_under_hop_limits() {
        // Two routes to v2: 1 hop arriving late (t=9→10) vs 2 hops
        // arriving early (t=3). With max_hops = 1 only the late route is
        // admissible; naive arrival-only dominance would prune it.
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[2], 'd', Presence::At(9u64), Latency::unit())
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(2u64), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 20);
        let full = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(full.arrival(n(2)), Some(&3));
        let one_hop = SearchLimits::new(20, 1);
        let tree = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Unbounded, &one_hop);
        assert_eq!(tree.arrival(n(2)), Some(&10));
        assert_eq!(tree.journey_to(n(2)).expect("direct").num_hops(), 1);
    }

    #[test]
    fn sentinel_unbounded_horizon_does_not_wrap() {
        // A "search forever" horizon at the top of the u64 domain must
        // compile to the clamped window, not wrap to emptiness or panic.
        let g = line_gap();
        let idx = TvgIndex::compile(&g, u64::MAX);
        let huge = SearchLimits::new(u64::MAX, 10);
        let tree = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &huge);
        assert_eq!(tree.arrival(n(2)), Some(&6));
        let no = foremost_tree(&idx, n(0), &1, &WaitingPolicy::NoWait, &huge);
        assert_eq!(no.arrival(n(2)), None);
    }

    #[test]
    fn pareto_scans_the_window_for_non_monotone_latencies() {
        // Departing later is *faster* here: ζ(t) = 20 - 2t on a window.
        // The monotone fast path would take the earliest departure; the
        // explorer must scan and find the best arrival.
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Window {
                from: 0u64,
                until: 9,
            },
            Latency::from_fn(|t: &u64| 20u64.saturating_sub(2 * t)),
        )
        .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 30);
        let tree = foremost_tree(
            &idx,
            n(0),
            &0,
            &WaitingPolicy::Unbounded,
            &SearchLimits::new(30, 3),
        );
        // depart 9 → arrive 9 + 2 = 11; every earlier departure is later.
        assert_eq!(tree.arrival(n(1)), Some(&11));
        let j = tree.journey_to(n(1)).expect("reachable");
        assert_eq!(j.departure(), Some(&9));
    }

    #[test]
    fn stats_count_one_run_per_tree() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let wait = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Unbounded, &limits());
        let no = foremost_tree(&idx, n(0), &0, &WaitingPolicy::NoWait, &limits());
        for tree in [&wait, &no] {
            assert_eq!(tree.stats().runs, 1);
            assert!(tree.stats().settled >= 1, "the seed itself settles");
        }
        // Stats are values: summing them is the batch aggregation.
        let total: EngineStats = [wait.stats(), no.stats()].into_iter().sum();
        assert_eq!(total.runs, 2);
        assert_eq!(total.settled, wait.stats().settled + no.stats().settled);
    }

    #[test]
    fn zero_latency_cycles_terminate() {
        // A zero-latency self-loop plus a zero-latency 2-cycle: the
        // configuration space at each instant is finite and the explorers
        // must settle it without spinning.
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        b.edge(v[0], v[0], 's', Presence::Always, Latency::Const(0u64))
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::Always, Latency::Const(0u64))
            .expect("valid");
        b.edge(v[1], v[0], 'b', Presence::Always, Latency::Const(0u64))
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 5);
        for policy in [
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(1),
            WaitingPolicy::Unbounded,
        ] {
            let tree = foremost_tree(&idx, n(0), &2, &policy, &SearchLimits::new(5, 4));
            assert_eq!(tree.arrival(n(1)), Some(&2), "{policy}");
        }
    }

    /// Drains an exact core from `seeds` and checks `expanded` against an
    /// enumeration of every settled configuration's whole window, the
    /// count the explorer had before departure coverage. Returns the
    /// drained core.
    fn drain_and_recount<T: Time>(
        index: &TvgIndex<'_, T>,
        seeds: &[(NodeId, T)],
        d: u64,
        limits: &SearchLimits<T>,
    ) -> ExactCore<T> {
        let policy = WaitingPolicy::Bounded(T::from_u64(d));
        let mut core = ExactCore::new(index.num_nodes());
        let mut stats = EngineStats::default();
        core.seed(seeds);
        core.drain(index, &policy, limits, None, &mut stats);
        let mut enumerated = 0usize;
        for (node, f) in core.frontiers.iter() {
            for (t, c) in f.confs.iter().filter(|(_, c)| c.settled) {
                if c.hops == hops_cap(limits) {
                    continue;
                }
                let until = policy.latest_departure(t, &limits.horizon);
                if let Some(until) = until {
                    enumerated += index.crossings(node, t, &until).count();
                }
            }
        }
        assert_eq!(
            usize::try_from(stats.expanded),
            Ok(enumerated),
            "under {policy}"
        );
        core
    }

    #[test]
    fn covered_departures_are_counted_not_regenerated() {
        // A unit-latency self-loop settles v0 at every instant, so under
        // wait[4] consecutive windows share four departures on each
        // out-edge. The 'c' edge is present only in part of the window.
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[0], 's', Presence::Always, Latency::unit())
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::Always, Latency::Const(2u64))
            .expect("valid");
        let window = Presence::Window { from: 3, until: 7 };
        b.edge(v[0], v[2], 'c', window, Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 12);
        let core = drain_and_recount(&idx, &[(n(0), 0u64)], 4, &SearchLimits::new(12, 20));
        let covered = core.frontiers.get(n(0)).and_then(|f| f.coverage.clone());
        let covered = covered.expect("v0 expanded");
        // v0 settles at 8 with 2 hops; its window is the first to reach
        // the horizon, and it dominates every later one (no fewer hops).
        assert_eq!((covered.lo, covered.hi, covered.hops), (8, 12, 2));
        assert_eq!(core.out.arrival(n(1)), Some(&2));
        assert_eq!(core.out.arrival(n(2)), Some(&4));
    }

    #[test]
    fn covered_counts_skip_overflowing_and_non_monotone_arrivals() {
        // Near the top of the u32 domain a constant latency overflows
        // inside a covered window; a dilated latency is not known to be
        // monotone and must be counted departure by departure.
        let top = u32::MAX - 1;
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        let always = Presence::Window {
            from: top - 20,
            until: top,
        };
        b.edge(v[0], v[0], 's', always.clone(), Latency::Const(1u32))
            .expect("valid");
        b.edge(v[0], v[1], 'a', always.clone(), Latency::Const(6u32))
            .expect("valid");
        b.edge(v[0], v[2], 'd', always, Latency::Const(1u32).dilate(3))
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, top);
        let limits = SearchLimits::new(top, 40);
        let core = drain_and_recount(&idx, &[(n(0), top - 20)], 4, &limits);
        assert_eq!(core.out.arrival(n(1)), Some(&(top - 14)));

        let e = |i| EdgeId::from_index(i);
        assert_eq!(
            count_crossings(&idx, e(1), &(top - 10), &(top - 2)),
            (6, Some(u32::MAX))
        );
        assert_eq!(
            count_crossings(&idx, e(1), &(top - 10), &(top - 6)),
            (5, Some(top))
        );
        assert_eq!(
            count_crossings(&idx, e(2), &(top - 10), &(top - 6)),
            (5, Some(top - 3))
        );
    }

    #[test]
    fn prune_and_resize_forget_coverage() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let policy = WaitingPolicy::Bounded(3);
        let mut core = ExactCore::new(3);
        core.seed(&[(n(0), 0u64)]);
        core.drain(&idx, &policy, &limits(), None, &mut EngineStats::default());
        let covered = |core: &ExactCore<u64>| {
            core.frontiers
                .iter()
                .filter(|(_, f)| f.coverage.is_some())
                .count()
        };
        assert!(covered(&core) > 0);
        core.resize(3);
        assert_eq!(covered(&core), 0);
        core.replay(&idx, &policy, &limits(), &0, &mut EngineStats::default());
        assert!(covered(&core) > 0);
        core.prune(&19);
        assert_eq!(covered(&core), 0);
    }

    /// Two nodes, one unit-latency edge v0 → v1 per instant set, in
    /// order: edge `i` is out-edge slot `i` of v0.
    fn fan(sets: &[&[u64]]) -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        for set in sets {
            let at = Presence::FiniteSet(set.iter().copied().collect());
            b.edge(v[0], v[1], 'e', at, Latency::unit()).expect("valid");
        }
        b.build().expect("valid")
    }

    /// A schedule's live spans as `(slot, start, end)`.
    fn live(d: &Departures<u64>) -> Vec<(usize, u64, u64)> {
        d.live.iter().map(|&(slot, _, s, e)| (slot, s, e)).collect()
    }

    #[test]
    fn a_span_ending_at_the_expansion_time_is_excluded() {
        // e0 is present on [1, 3), e1 on [2, 4).
        let g = fan(&[&[1, 2], &[2, 3]]);
        let idx = TvgIndex::compile(&g, 20);
        let edges = idx.out_edges(n(0));
        let mut d = Departures::default();
        d.prime(&idx, edges, &3, &5);
        assert_eq!(live(&d), vec![(1, 2, 4)]);
        // Admitted by an earlier expansion, e0's span leaves at 3.
        d.clear();
        d.prime(&idx, edges, &0, &1);
        assert_eq!(live(&d), vec![(0, 1, 3)]);
        d.advance(&idx, edges, &3, &4);
        assert_eq!(live(&d), vec![(1, 2, 4)]);
    }

    #[test]
    fn a_span_that_ends_unadmitted_is_skipped() {
        // e0 is present on [5, 6) and [8, 10), e1 on [5, 6) and [12, 13).
        let g = fan(&[&[5, 8, 9], &[5, 12]]);
        let idx = TvgIndex::compile(&g, 20);
        let edges = idx.out_edges(n(0));
        let mut d = Departures::default();
        d.prime(&idx, edges, &0, &2);
        assert!(d.live.is_empty());
        // The next window, [7, 9], jumps past both [5, 6) spans.
        d.advance(&idx, edges, &7, &9);
        assert_eq!(live(&d), vec![(0, 8, 10)]);
        let pending: Vec<_> = d.pending.iter().map(|Reverse(head)| *head).collect();
        assert_eq!(pending, vec![(12, 1, 1)]);
    }

    #[test]
    fn spans_go_live_in_out_edge_order_and_serve_overlapping_windows() {
        // e0 is present on [6, 12), e1 on [5, 12): e1 is admitted first
        // but walked second, as `crossings` enumerates it.
        let g = fan(&[&[6, 7, 8, 9, 10, 11], &[5, 6, 7, 8, 9, 10, 11]]);
        let idx = TvgIndex::compile(&g, 20);
        let edges = idx.out_edges(n(0));
        let mut d = Departures::default();
        d.prime(&idx, edges, &0, &3);
        assert!(d.live.is_empty());
        // wait[3] windows from 4 on: each admits nothing new.
        for t in 4..=8 {
            d.advance(&idx, edges, &t, &(t + 3));
            assert_eq!(live(&d), vec![(0, 6, 12), (1, 5, 12)], "window at {t}");
        }
        assert!(d.pending.is_empty());
        d.advance(&idx, edges, &12, &15);
        assert!(d.live.is_empty());
    }

    #[test]
    fn the_lower_out_edge_keeps_an_equal_arrival_witness() {
        // v0 -a-> v1 on [6, 8) with unit latency, v0 -b-> v1 on [5, 8)
        // with latency 2: both arrive at 7 first. (v0, 0) expands with
        // nothing in its wait[2] window, so (v0, 4) admits b before a,
        // and a, the lower slot, must still cross first.
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        let a = Presence::Window { from: 6, until: 7 };
        b.edge(v[0], v[1], 'a', a, Latency::unit()).expect("valid");
        let w = Presence::Window { from: 5, until: 7 };
        b.edge(v[0], v[1], 'b', w, Latency::Const(2u64))
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 20);
        let seeds = [(n(0), 0u64), (n(0), 4)];
        let tree = foremost_tree_multi(&idx, &seeds, &WaitingPolicy::Bounded(2), &limits());
        let hops = tree.journey_to(n(1)).expect("reached").hops().to_vec();
        let a = Hop {
            edge: EdgeId::from_index(0),
            depart: 6,
            arrive: 7,
        };
        assert_eq!(hops, vec![a]);
        drain_and_recount(&idx, &seeds, 2, &limits());
    }

    #[test]
    fn a_zero_latency_self_loop_feeds_the_schedule_it_is_walked_from() {
        // The loop regenerates (v0, t) while v0's schedule walks it, and
        // settles v0 at every instant up to 2; only (v0, 2)'s wait[2]
        // window reaches a at 4.
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        let lp = Presence::Window { from: 0, until: 2 };
        b.edge(v[0], v[0], 's', lp, Latency::Const(0u64))
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::At(4), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 20);
        let core = drain_and_recount(&idx, &[(n(0), 0u64)], 2, &limits());
        assert_eq!(core.out.arrival(n(1)), Some(&5));
        let tree = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Bounded(2), &limits());
        let departs: Vec<u64> = tree
            .journey_to(n(1))
            .expect("reached")
            .hops()
            .iter()
            .map(|h| h.depart)
            .collect();
        assert_eq!(departs, vec![2, 4]);
    }

    use crate::IncrementalForemost;
    use tvg_model::stream::{StreamEvent, TvgStream};

    /// Ingests `batch`, refreshes `inc` (from `since` if given, else
    /// from the batch's earliest change) and checks it against a fresh
    /// run on the recompiled schedule: arrivals, witnesses, and the
    /// refresh's `expanded` against the fresh run's. Returns what this
    /// refresh replayed and reused.
    fn repair(
        s: &mut TvgStream<u64>,
        inc: &mut IncrementalForemost<u64>,
        batch: &[StreamEvent<u64>],
        since: Option<u64>,
    ) -> ReplayCounts {
        let report = s.ingest(batch).expect("valid batch");
        let (expanded, counts) = (inc.stats().expanded, inc.replay_counts());
        match since {
            Some(t0) => inc.refresh_since(s.index(), &t0),
            None => inc.refresh(s.index(), &report),
        }
        let g = s.to_tvg();
        let index = TvgIndex::compile(&g, *s.index().horizon());
        let fresh = foremost_tree_multi(&index, inc.seeds(), inc.policy(), inc.limits());
        for v in g.nodes() {
            assert_eq!(inc.arrival(v), fresh.arrival(v), "arrival at {v}");
            assert_eq!(inc.journey_to(v), fresh.journey_to(v), "witness to {v}");
        }
        assert_eq!(inc.stats().expanded - expanded, fresh.stats().expanded);
        let after = inc.replay_counts();
        ReplayCounts {
            replayed: after.replayed - counts.replayed,
            reused: after.reused - counts.reused,
        }
    }

    fn up(edge: EdgeId, at: u64) -> StreamEvent<u64> {
        StreamEvent::Up { edge, at }
    }

    fn down(edge: EdgeId, at: u64) -> StreamEvent<u64> {
        StreamEvent::Down { edge, at }
    }

    #[test]
    fn replay_keeps_a_crossing_that_arrives_exactly_at_the_watermark() {
        // u -a-> v at t = 4 only, with unit latency; v -b-> w comes up
        // at t0 = 5. (u, 4) departs before t0 but arrives at it, so it
        // must replay; the seed (u, 1) reaches nothing and is reused.
        let mut s = TvgStream::new(20).expect("representable");
        let (u, v, w) = (s.add_node("u"), s.add_node("v"), s.add_node("w"));
        let a = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
        let b = s.add_edge(v, w, 'b', Latency::unit()).expect("valid");
        s.ingest(&[up(a, 4), down(a, 5)]).expect("valid");
        let seeds = [(u, 1), (u, 4)];
        let limits = SearchLimits::new(20, 5);
        let mut inc = IncrementalForemost::new(s.index(), &seeds, WaitingPolicy::NoWait, limits);
        let counts = repair(&mut s, &mut inc, &[up(b, 5)], None);
        assert_eq!(inc.arrival(w), Some(&6));
        let expected = ReplayCounts {
            replayed: 1,
            reused: 1,
        };
        assert_eq!(counts, expected);
    }

    /// wait[2] from (u, 0) over u -z-> v with zero latency at [0, 3),
    /// and an edge v -c-> w with no presence yet.
    fn zero_latency_fan() -> (TvgStream<u64>, IncrementalForemost<u64>, EdgeId) {
        let mut s = TvgStream::new(20).expect("representable");
        let (u, v, w) = (s.add_node("u"), s.add_node("v"), s.add_node("w"));
        let z = s.add_edge(u, v, 'z', Latency::Const(0)).expect("valid");
        let c = s.add_edge(v, w, 'c', Latency::unit()).expect("valid");
        s.ingest(&[up(z, 0), down(z, 3)]).expect("valid");
        let limits = SearchLimits::new(20, 5);
        let inc = IncrementalForemost::new(s.index(), &[(u, 0)], WaitingPolicy::Bounded(2), limits);
        (s, inc, c)
    }

    #[test]
    fn zero_latency_crossings_before_the_watermark_are_reused() {
        // (u, 0), (v, 0) and (v, 1) end their windows and crossings
        // before t0 = 4; (v, 2)'s window [2, 4] reaches it.
        let (mut s, mut inc, c) = zero_latency_fan();
        let counts = repair(&mut s, &mut inc, &[up(c, 4)], None);
        assert_eq!(inc.arrival(NodeId::from_index(2)), Some(&5));
        let expected = ReplayCounts {
            replayed: 1,
            reused: 3,
        };
        assert_eq!(counts, expected);
    }

    #[test]
    fn an_early_watermark_replays_more_and_stays_exact() {
        // The batch changes presence at 4; a repair from 1 prunes (v, 1)
        // and (v, 2), and both survivors reach past 1.
        let (mut s, mut inc, c) = zero_latency_fan();
        let counts = repair(&mut s, &mut inc, &[up(c, 4)], Some(1));
        assert_eq!(inc.arrival(NodeId::from_index(2)), Some(&5));
        let expected = ReplayCounts {
            replayed: 2,
            reused: 0,
        };
        assert_eq!(counts, expected);
    }

    #[test]
    fn a_dilated_latency_carries_an_early_departure_past_the_watermark() {
        // u -d-> v departs at 0..=2 with a dilated (not monotone)
        // latency of 12, so every u configuration reaches v after
        // t0 = 5, where v -c-> w comes up; under wait[2] u settles at
        // 0, 1, 2 through a self-loop and counts covered departures.
        for policy in [WaitingPolicy::NoWait, WaitingPolicy::Bounded(2)] {
            let mut s = TvgStream::new(30).expect("representable");
            let (u, v, w) = (s.add_node("u"), s.add_node("v"), s.add_node("w"));
            let l = s.add_edge(u, u, 's', Latency::unit()).expect("valid");
            let d = Latency::Const(4).dilate(3);
            let d = s.add_edge(u, v, 'd', d).expect("valid");
            let c = s.add_edge(v, w, 'c', Latency::unit()).expect("valid");
            s.ingest(&[up(l, 0), up(d, 0), down(l, 2), down(d, 3)])
                .expect("valid");
            let limits = SearchLimits::new(30, 5);
            let mut inc = IncrementalForemost::new(s.index(), &[(u, 0)], policy, limits);
            let counts = repair(&mut s, &mut inc, &[up(c, 5)], None);
            assert_eq!(inc.arrival(w), Some(&13), "{policy}");
            assert_eq!(counts.reused, 0, "{policy}");
        }
    }

    #[test]
    fn extending_the_horizon_replays_windows_that_reach_the_old_end() {
        // A self-loop and an edge u -a-> v open through the stream's
        // horizon 10. Extending it changes presence from 11 on: under
        // wait[3], (u, t) reaches t + 4 through the loop, so u's
        // configurations up to 6 are reused and the rest replay.
        let mut s = TvgStream::new(10).expect("representable");
        let (u, v) = (s.add_node("u"), s.add_node("v"));
        let l = s.add_edge(u, u, 's', Latency::unit()).expect("valid");
        let a = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
        s.ingest(&[up(l, 0), up(a, 8)]).expect("valid");
        let limits = SearchLimits::new(30, 40);
        let policy = WaitingPolicy::Bounded(3);
        let mut inc = IncrementalForemost::new(s.index(), &[(u, 0)], policy, limits);
        let extend = [StreamEvent::ExtendHorizon { to: 20 }];
        let counts = repair(&mut s, &mut inc, &extend, None);
        assert_eq!(counts.reused, 7);
        assert!(counts.replayed > 0);
        assert_eq!(inc.arrival(v), Some(&9));
    }

    #[test]
    fn a_down_retraction_replays_the_configuration_it_strands() {
        // u -a-> v at t = 1, v -b-> w open from 3: under wait[1], w is
        // reached at 4. A zero-length close at 3 retracts it; (u, 0)
        // reaches only 2 and is reused, (v, 2) crossed b and replays.
        let mut s = TvgStream::new(20).expect("representable");
        let (u, v, w) = (s.add_node("u"), s.add_node("v"), s.add_node("w"));
        let a = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
        let b = s.add_edge(v, w, 'b', Latency::unit()).expect("valid");
        s.ingest(&[up(a, 1), down(a, 2), up(b, 3)]).expect("valid");
        let limits = SearchLimits::new(20, 5);
        let mut inc =
            IncrementalForemost::new(s.index(), &[(u, 0)], WaitingPolicy::Bounded(1), limits);
        assert_eq!(inc.arrival(w), Some(&4));
        let counts = repair(&mut s, &mut inc, &[down(b, 3)], None);
        assert_eq!(inc.arrival(w), None);
        let expected = ReplayCounts {
            replayed: 1,
            reused: 1,
        };
        assert_eq!(counts, expected);
    }

    #[test]
    fn schedules_are_rebuilt_after_a_truncation_and_a_horizon_extension() {
        // u -a-> v is open from 2 and v -b-> w from 4, through the
        // horizon 10. Closing a at 6 truncates the span the previous
        // pass admitted; extending the horizon then lengthens every open
        // span. Each refresh must read the spans afresh (`repair` checks
        // `expanded` against a fresh run).
        let mut s = TvgStream::new(10).expect("representable");
        let (u, v, w) = (s.add_node("u"), s.add_node("v"), s.add_node("w"));
        let l = s.add_edge(u, u, 's', Latency::unit()).expect("valid");
        let a = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
        let b = s.add_edge(v, w, 'b', Latency::unit()).expect("valid");
        s.ingest(&[up(l, 0), up(a, 2), up(b, 4)]).expect("valid");
        let limits = SearchLimits::new(30, 20);
        let mut inc =
            IncrementalForemost::new(s.index(), &[(u, 0)], WaitingPolicy::Bounded(2), limits);
        assert_eq!(inc.arrival(w), Some(&5));
        repair(&mut s, &mut inc, &[down(a, 6)], None);
        assert_eq!(inc.arrival(w), Some(&5));
        let extend = [StreamEvent::ExtendHorizon { to: 20 }];
        let counts = repair(&mut s, &mut inc, &extend, None);
        assert!(counts.replayed > 0);
        assert_eq!(inc.arrival(w), Some(&5));
    }

    #[test]
    fn flat_map_inserts_and_truncates() {
        let mut m: FlatMap<u64, u32> = FlatMap::default();
        for k in [4u64, 1, 3] {
            let at = m.search(&k).expect_err("absent");
            m.insert_at(at, k, u32::try_from(k).expect("small"));
        }
        assert_eq!(m.get(&3), Some(&3));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&4), Some(&4));
        assert_eq!(m.search(&2), Err(1));
        m.truncate_from(&3);
        assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1]);
    }
}
