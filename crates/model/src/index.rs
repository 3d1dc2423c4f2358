//! The compiled temporal index: a [`Tvg`] materialized for fast queries.
//!
//! The schedule ASTs answer `ρ(e, t)` one instant at a time; every
//! journey search built directly on them pays a tick-by-tick scan of the
//! waiting window. A [`TvgIndex`] compiles the graph once against a
//! departure horizon:
//!
//! * per-edge presence as a sorted [`IntervalSet`] with binary-search
//!   `next_departure` and gap-skipping instant enumeration;
//! * CSR-packed out-edge adjacency (one contiguous slice per node);
//! * flat per-edge destination and constant-latency columns.
//!
//! That is all a journey needs: in the paper's model a TVG is
//! `(V, E, T, ρ, ζ)`, and every `nowait`, `wait[d]`, and `wait` query
//! reads only presence `ρ` and latency `ζ`. No global time-sorted
//! timeline is kept; the edge-event count reports carry is derived from
//! the spans ([`TemporalIndex::num_edge_events`]), and the one consumer
//! that needs events in time order — the stream replay — sorts its own
//! (`TvgStream::replay_of`).
//!
//! Compile once, query many: the single-source journey engine in
//! `tvg-journeys` and the protocol simulators in `tvg-dynnet` all run on
//! this index. Compilation materializes schedules up to the horizon, so
//! its cost is proportional to the number of presence intervals below
//! the horizon — suitable for simulation-scale horizons, not for the
//! astronomically distant times of the theorem constructions (those keep
//! using the closure path).

use crate::interval::{Instants, IntervalSet, SpanView};
use crate::{EdgeId, Latency, NodeId, Time, Tvg};

/// A borrowed, copyable view of one node's out-edge list — the common
/// denominator between in-memory adjacency (native [`EdgeId`] slices)
/// and the on-disk `.tvgi` CSR arenas (raw little-endian `u32` words
/// mapped straight out of the file). [`EdgeId`] is a newtype without a
/// guaranteed layout, so the raw arena cannot be reinterpreted as an id
/// slice without `unsafe` (which the workspace forbids); this two-variant
/// view gives both layouts one iteration surface instead.
#[derive(Debug, Clone, Copy)]
pub enum EdgeRefs<'a> {
    /// Borrowed edge ids (the in-memory indexes).
    Ids(&'a [EdgeId]),
    /// Raw edge-id words from a file arena.
    Raw(&'a [u32]),
}

impl EdgeRefs<'_> {
    /// Number of out-edges.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            EdgeRefs::Ids(s) => s.len(),
            EdgeRefs::Raw(r) => r.len(),
        }
    }

    /// `true` iff the node has no out-edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th out-edge (builder order).
    #[must_use]
    pub fn get(&self, i: usize) -> EdgeId {
        match self {
            EdgeRefs::Ids(s) => s[i],
            EdgeRefs::Raw(r) => EdgeId::from_index(r[i] as usize),
        }
    }

    /// Iterates the out-edges in builder order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The list materialized as owned ids (allocates; for oracles and
    /// tests, not query paths).
    #[must_use]
    pub fn to_vec(&self) -> Vec<EdgeId> {
        self.iter().collect()
    }
}

/// Logical equality regardless of layout.
impl PartialEq for EdgeRefs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl Eq for EdgeRefs<'_> {}

/// Compile-time contract: a compiled index (and the graph it borrows) is
/// shareable across threads whenever its time domain is. `&TvgIndex` is
/// the cheap borrowed view the batch-query workers hold — schedules
/// carry `Send + Sync` closures by construction, so no part of the index
/// needs cloning per worker. This function is never called; it exists so
/// that losing the guarantee is a compile error here rather than a
/// confusing one in `tvg-journeys::batch`.
#[allow(dead_code)]
fn assert_index_is_shareable<T: Time + Send + Sync + 'static>() {
    fn shareable<X: Send + Sync>() {}
    shareable::<Tvg<T>>();
    shareable::<TvgIndex<'static, T>>();
}

/// The query interface shared by every compiled temporal index.
///
/// Three implementations exist: the batch-compiled [`TvgIndex`] (one
/// [`TvgIndex::compile`] against a fixed schedule), the streaming
/// [`crate::stream::LiveIndex`] (maintained event by event as a schedule
/// *arrives*), and the on-disk [`crate::tvgi::ShardedIndex`] (a `.tvgi`
/// file opened read-only, answering from flat per-shard arenas). The
/// single-source journey engine, the batch-query runtime, and the
/// protocol simulators are all generic over this trait, so a workload
/// can move between offline recompute, live ingestion, and
/// compile-once-serve-many without touching a consumer.
///
/// The accessors hand out *views* ([`SpanView`], [`EdgeRefs`]) rather
/// than concrete containers, so an implementation backed by raw file
/// arenas is as first-class as one holding native structures. Every
/// derived query (presence tests, next-departure search, window
/// enumeration, crossings, the edge-event count) is provided on top of
/// the required primitives and behaves identically for every
/// implementation. Call these through the trait: the concrete indexes
/// keep only the inherent accessors that return concrete types.
pub trait TemporalIndex<T: Time> {
    /// Number of nodes the index answers for.
    fn num_nodes(&self) -> usize;

    /// Number of edges the index answers for.
    fn num_edges(&self) -> usize;

    /// The inclusive departure horizon the index covers.
    fn horizon(&self) -> &T;

    /// The compiled presence spans of `e`.
    fn presence(&self, e: EdgeId) -> SpanView<'_, T>;

    /// Whether `e`'s arrival is known to be non-decreasing in its
    /// departure (cached [`crate::Latency::arrival_is_monotone`]).
    fn arrival_is_monotone(&self, e: EdgeId) -> bool;

    /// Outgoing edges of `n` in builder order.
    fn out_edges(&self, n: NodeId) -> EdgeRefs<'_>;

    /// Destination node of `e`. Semantically just
    /// [`crate::tvg::Edge::dst`], but on the engine's hottest path —
    /// implementations back this with a flat destination array so each
    /// expanded crossing reads 4 dense bytes instead of chasing into
    /// the full AST-carrying edge record.
    fn dst(&self, e: EdgeId) -> NodeId;

    /// Arrival of a crossing of `e` known to depart at a present instant
    /// `t` (skips the presence test; `None` only on latency overflow).
    fn arrival(&self, e: EdgeId, t: &T) -> Option<T>;

    /// Total number of edge events — one appearance and one
    /// disappearance per presence span (an open span's provisional close
    /// included) — the workload-size measure reports and benchmarks are
    /// parameterized by.
    fn num_edge_events(&self) -> usize {
        (0..self.num_edges())
            .map(|i| 2 * self.presence(EdgeId::from_index(i)).len())
            .sum()
    }

    /// The earliest departure of `e` at or after `from` (within the
    /// horizon), by binary search.
    fn next_departure(&self, e: EdgeId, from: &T) -> Option<T> {
        self.presence(e).next_at_or_after(from)
    }

    /// Enumerates the departures of `e` within the inclusive window
    /// `[from, until]`, skipping absent stretches. The endpoints are
    /// borrowed for the life of the iterator — no clones on the way in.
    fn departures_within<'a>(&'a self, e: EdgeId, from: &'a T, until: &'a T) -> Instants<'a, T> {
        let until = until.min(self.horizon());
        self.presence(e).instants_within(from, until)
    }

    /// Whether `e` is present at `t` (binary search; always `false`
    /// beyond the horizon).
    fn is_present(&self, e: EdgeId, t: &T) -> bool {
        self.presence(e).contains(t)
    }

    /// Attempts to traverse `e` departing at `t` (presence by binary
    /// search, latency through [`TemporalIndex::arrival`]).
    fn traverse(&self, e: EdgeId, t: &T) -> Option<T> {
        if !self.is_present(e, t) {
            return None;
        }
        self.arrival(e, t)
    }

    /// Every admissible crossing from `node` departing within the
    /// inclusive window `[from, until]`: `(edge, depart, arrive)` triples
    /// in out-edge order, departures ascending per edge, absent
    /// stretches skipped and latency overflows dropped.
    fn crossings<'a>(
        &'a self,
        node: NodeId,
        from: &'a T,
        until: &'a T,
    ) -> impl Iterator<Item = (EdgeId, T, T)> + use<'a, Self, T>
    where
        Self: Sized,
        T: 'a,
    {
        let edges = self.out_edges(node);
        (0..edges.len()).flat_map(move |i| {
            let e = edges.get(i);
            self.departures_within(e, from, until)
                .filter_map(move |dep| {
                    let arr = self.arrival(e, &dep)?;
                    Some((e, dep, arr))
                })
        })
    }
}

/// Shared-ownership snapshots answer exactly like the index they wrap:
/// a query service can publish an `Arc<LiveIndex>` (or any other
/// implementation) and hand clones to reader threads, and every
/// consumer generic over [`TemporalIndex`] accepts the `Arc` directly.
impl<T: Time, I: TemporalIndex<T>> TemporalIndex<T> for std::sync::Arc<I> {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn horizon(&self) -> &T {
        (**self).horizon()
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        (**self).presence(e)
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        (**self).arrival_is_monotone(e)
    }

    fn out_edges(&self, n: NodeId) -> EdgeRefs<'_> {
        (**self).out_edges(n)
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        (**self).dst(e)
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        (**self).arrival(e, t)
    }
}

/// A [`Tvg`] compiled against a departure horizon.
///
/// ```
/// use tvg_model::{Latency, Presence, TemporalIndex, TvgBuilder, TvgIndex};
///
/// let mut b = TvgBuilder::<u64>::new();
/// let (u, v) = (b.node("u"), b.node("v"));
/// let e = b.edge(u, v, 'a',
///     Presence::Periodic { period: 4, phases: [1u64].into() },
///     Latency::unit())?;
/// let g = b.build()?;
///
/// let idx = TvgIndex::compile(&g, 20);
/// assert_eq!(idx.next_departure(e, &2), Some(5)); // skip to the phase
/// assert_eq!(idx.traverse(e, &5), Some(6));
/// assert_eq!(idx.out_edges(u), &[e]);
/// # Ok::<(), tvg_model::TvgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TvgIndex<'g, T> {
    g: &'g Tvg<T>,
    horizon: T,
    presence: Vec<IntervalSet<T>>,
    arrival_monotone: Vec<bool>,
    csr_offsets: Vec<usize>,
    csr_edges: Vec<EdgeId>,
    dsts: Vec<NodeId>,
    const_lat: Vec<Option<T>>,
}

impl<'g, T: Time> TvgIndex<'g, T> {
    /// Compiles `g` for departures in `[0, horizon]`.
    ///
    /// Cost is linear in the total number of presence intervals below the
    /// horizon; every subsequent presence query is a binary search.
    #[must_use]
    pub fn compile(g: &'g Tvg<T>, horizon: T) -> Self {
        let presence: Vec<IntervalSet<T>> = g
            .edges()
            .map(|e| g.edge(e).presence().intervals(&horizon))
            .collect();
        let arrival_monotone: Vec<bool> = g
            .edges()
            .map(|e| g.edge(e).latency().arrival_is_monotone())
            .collect();
        let mut csr_offsets = Vec::with_capacity(g.num_nodes() + 1);
        let mut csr_edges = Vec::with_capacity(g.num_edges());
        csr_offsets.push(0);
        for n in g.nodes() {
            csr_edges.extend_from_slice(g.out_edges(n));
            csr_offsets.push(csr_edges.len());
        }
        let dsts: Vec<NodeId> = g.edges().map(|e| g.edge(e).dst()).collect();
        let const_lat: Vec<Option<T>> = g
            .edges()
            .map(|e| match g.edge(e).latency() {
                Latency::Const(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        TvgIndex {
            g,
            horizon,
            presence,
            arrival_monotone,
            csr_offsets,
            csr_edges,
            dsts,
            const_lat,
        }
    }

    /// The graph this index compiles.
    #[must_use]
    pub fn tvg(&self) -> &'g Tvg<T> {
        self.g
    }

    /// Outgoing edges of `n` as one contiguous CSR slice (builder order,
    /// identical to [`Tvg::out_edges`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the compiled graph.
    #[must_use]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.csr_edges[self.csr_offsets[n.index()]..self.csr_offsets[n.index() + 1]]
    }

    /// The compiled presence intervals of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the compiled graph.
    #[must_use]
    pub fn presence(&self, e: EdgeId) -> &IntervalSet<T> {
        &self.presence[e.index()]
    }
}

impl<T: Time> TemporalIndex<T> for TvgIndex<'_, T> {
    fn num_nodes(&self) -> usize {
        self.csr_offsets.len() - 1
    }

    fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    fn horizon(&self) -> &T {
        &self.horizon
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        self.presence[e.index()].view()
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        self.arrival_monotone[e.index()]
    }

    fn out_edges(&self, n: NodeId) -> EdgeRefs<'_> {
        EdgeRefs::Ids(&self.csr_edges[self.csr_offsets[n.index()]..self.csr_offsets[n.index() + 1]])
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        self.dsts[e.index()]
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        match &self.const_lat[e.index()] {
            Some(c) => t.checked_add(c),
            None => self.g.edge(e).latency().arrival(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Latency, Presence, TvgBuilder};
    use std::collections::BTreeSet;

    fn sample() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 4,
                phases: BTreeSet::from([0u64, 1]),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::After(5u64), Latency::Const(2))
            .expect("valid");
        b.edge(v[0], v[2], 'c', Presence::Never, Latency::unit())
            .expect("valid");
        b.build().expect("valid")
    }

    #[test]
    fn compiled_presence_agrees_with_closures() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 20);
        for e in g.edges() {
            for t in 0u64..=20 {
                assert_eq!(idx.is_present(e, &t), g.is_present(e, &t), "{e} t={t}");
                assert_eq!(idx.traverse(e, &t), g.traverse(e, &t), "{e} t={t}");
            }
            assert!(!idx.is_present(e, &21), "{e} beyond horizon");
        }
    }

    #[test]
    fn csr_matches_adjacency() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 10);
        for n in g.nodes() {
            assert_eq!(idx.out_edges(n), g.out_edges(n));
        }
    }

    #[test]
    fn next_departure_skips_gaps() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 20);
        let e0 = EdgeId::from_index(0);
        assert_eq!(idx.next_departure(e0, &2), Some(4));
        assert_eq!(idx.next_departure(e0, &4), Some(4));
        assert_eq!(idx.next_departure(e0, &21), None);
        let dep: Vec<u64> = idx.departures_within(e0, &2, &9).collect();
        assert_eq!(dep, vec![4, 5, 8, 9]);
        // Window clamped to the horizon.
        let dep: Vec<u64> = idx.departures_within(e0, &19, &40).collect();
        assert_eq!(dep, vec![20]);
    }

    #[test]
    fn event_timeline_is_sorted_and_complete() {
        // The timeline is derived, not stored: two events per span, and
        // the replay feed lists every appearance in time order.
        let g = sample();
        let idx = TvgIndex::compile(&g, 11);
        // e0: spans {0,1},{4,5},{8,9} → 6 events; e1: (6,12) → 2; e2: none.
        assert_eq!(idx.num_edge_events(), 8);
        let (_, feed) = crate::stream::TvgStream::replay_of(&g, &11).expect("representable");
        let appearances: Vec<(u64, usize)> = feed
            .iter()
            .filter_map(|ev| match ev {
                crate::stream::StreamEvent::Up { edge, at } => Some((*at, edge.index())),
                _ => None,
            })
            .collect();
        assert_eq!(appearances, vec![(0, 0), (4, 0), (6, 1), (8, 0)]);
    }
}
