//! The compiled temporal index: a [`Tvg`] materialized for fast queries.
//!
//! The schedule ASTs answer `ρ(e, t)` one instant at a time; every
//! journey search built directly on them pays a tick-by-tick scan of the
//! waiting window. A [`TvgIndex`] compiles the graph once against a
//! departure horizon:
//!
//! * every edge's presence spans in one `(start, end)` arena, in
//!   edge-id order, with binary-search `next_departure` and gap-skipping
//!   instant enumeration over each edge's slice;
//! * CSR-packed out-edge adjacency (one contiguous slice per node);
//! * flat per-edge destination, monotonicity and constant-latency
//!   columns.
//!
//! The same arrays, and nothing else, are what a `.tvgi` file stores
//! ([`crate::tvgi`]), so an index opened from disk answers from the
//! layout a compiled one does.
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

use crate::interval::{Instants, SpanView};
use crate::{EdgeId, Latency, NodeId, Time, Tvg};

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
/// file opened read-only). The single-source journey engine, the
/// batch-query runtime, and the protocol simulators are all generic over
/// this trait, so a workload can move between offline recompute, live
/// ingestion, and compile-once-serve-many without touching a consumer.
///
/// Every implementation answers in the same two shapes: an edge's
/// presence is a [`SpanView`] over `(start, end)` pairs and a node's
/// adjacency is an `&[EdgeId]` slice, so the engine's hot loop reads one
/// layout whatever the index. Every derived query (presence tests,
/// next-departure search, window enumeration, crossings, the edge-event
/// count) is provided on top of the required primitives and behaves
/// identically for every implementation.
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
    fn out_edges(&self, n: NodeId) -> &[EdgeId];

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
            .map(|i| 2 * self.presence(EdgeId::from_index(i)).num_spans())
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
        self.out_edges(node).iter().flat_map(move |&e| {
            self.departures_within(e, from, until)
                .filter_map(move |dep| {
                    let arr = self.arrival(e, &dep)?;
                    Some((e, dep, arr))
                })
        })
    }
}

/// The arrays every compiled index answers from, owned in one flat
/// layout: CSR adjacency, one `(start, end)` span arena in edge-id
/// order with per-edge offsets, and per-edge destination, monotonicity
/// and constant-latency columns. [`TvgIndex::compile`] builds it from a
/// [`Tvg`] and [`crate::tvgi::ShardedIndex::open`] decodes it from a
/// `.tvgi` file, whose sections store exactly these arrays. The
/// [`TemporalIndex`] answers both indexes share are written once, in
/// `flat_answers!`.
#[derive(Debug, Clone)]
pub(crate) struct FlatIndex<T> {
    pub(crate) horizon: T,
    /// Node `n`'s out-edges are `csr_edges[csr_off[n]..csr_off[n + 1]]`.
    pub(crate) csr_off: Vec<u64>,
    pub(crate) csr_edges: Vec<EdgeId>,
    /// Edge `e` owns `spans[span_off[e]..span_off[e + 1]]`.
    pub(crate) span_off: Vec<u64>,
    pub(crate) spans: Vec<(T, T)>,
    pub(crate) dst: Vec<NodeId>,
    /// Bit `e % 64` of word `e / 64` is set when `e`'s arrival is
    /// non-decreasing in its departure.
    pub(crate) mono: Vec<u64>,
    /// Each edge's latency when it is constant.
    pub(crate) lat: Vec<Option<T>>,
}

/// The [`TemporalIndex`] answers of an index whose arrays are its
/// `flat` field: every answer but [`TemporalIndex::arrival`], which each
/// index takes from where its latencies live.
macro_rules! flat_answers {
    () => {
        fn num_nodes(&self) -> usize {
            self.flat.csr_off.len() - 1
        }

        fn num_edges(&self) -> usize {
            self.flat.dst.len()
        }

        fn horizon(&self) -> &T {
            &self.flat.horizon
        }

        fn presence(&self, e: $crate::EdgeId) -> $crate::SpanView<'_, T> {
            let (off, i) = (&self.flat.span_off, e.index());
            $crate::SpanView(&self.flat.spans[off[i] as usize..off[i + 1] as usize])
        }

        fn arrival_is_monotone(&self, e: $crate::EdgeId) -> bool {
            self.flat.mono[e.index() / 64] >> (e.index() % 64) & 1 != 0
        }

        fn out_edges(&self, n: $crate::NodeId) -> &[$crate::EdgeId] {
            let (off, i) = (&self.flat.csr_off, n.index());
            &self.flat.csr_edges[off[i] as usize..off[i + 1] as usize]
        }

        fn dst(&self, e: $crate::EdgeId) -> $crate::NodeId {
            self.flat.dst[e.index()]
        }

        /// Two events per span.
        fn num_edge_events(&self) -> usize {
            2 * self.flat.spans.len()
        }
    };
}
pub(crate) use flat_answers;

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
    pub(crate) flat: FlatIndex<T>,
}

impl<'g, T: Time> TvgIndex<'g, T> {
    /// Compiles `g` for departures in `[0, horizon]`.
    ///
    /// Cost is linear in the total number of presence intervals below the
    /// horizon; every subsequent presence query is a binary search.
    #[must_use]
    pub fn compile(g: &'g Tvg<T>, horizon: T) -> Self {
        let m = g.num_edges();
        let mut csr_off = Vec::with_capacity(g.num_nodes() + 1);
        let mut csr_edges = Vec::with_capacity(m);
        csr_off.push(0);
        for n in g.nodes() {
            csr_edges.extend_from_slice(g.out_edges(n));
            csr_off.push(csr_edges.len() as u64);
        }
        let mut span_off = Vec::with_capacity(m + 1);
        let mut spans = Vec::new();
        let mut dst = Vec::with_capacity(m);
        let mut mono = vec![0u64; m.div_ceil(64)];
        let mut lat = Vec::with_capacity(m);
        span_off.push(0);
        for e in g.edges() {
            let edge = g.edge(e);
            spans.extend_from_slice(edge.presence().intervals(&horizon).spans());
            span_off.push(spans.len() as u64);
            dst.push(edge.dst());
            if edge.latency().arrival_is_monotone() {
                mono[e.index() / 64] |= 1 << (e.index() % 64);
            }
            lat.push(match edge.latency() {
                Latency::Const(c) => Some(c.clone()),
                _ => None,
            });
        }
        TvgIndex {
            g,
            flat: FlatIndex {
                horizon,
                csr_off,
                csr_edges,
                span_off,
                spans,
                dst,
                mono,
                lat,
            },
        }
    }

    /// The graph this index compiles.
    #[must_use]
    pub fn tvg(&self) -> &'g Tvg<T> {
        self.g
    }
}

impl<T: Time> TemporalIndex<T> for TvgIndex<'_, T> {
    flat_answers!();

    /// The constant-latency column, or the graph's latency schedule for
    /// an edge whose latency is not constant.
    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        match &self.flat.lat[e.index()] {
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
