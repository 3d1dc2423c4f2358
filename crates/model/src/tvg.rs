//! The time-varying graph type and its builder.
//!
//! `G = (V, E, T, ρ, ζ)` per the paper: a finite set of nodes, a finite
//! set of directed labeled edges, and per-edge presence/latency schedules.
//! Undirected systems are modeled by adding both orientations.

use crate::graph::Digraph;
use crate::{EdgeId, Latency, NodeId, Presence, Time};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use tvg_langs::Letter;

/// Appends a node name, returning the id it names. A table that a clone
/// still shares is copied first (`Arc::make_mut`).
fn push_name(names: &mut Arc<Vec<String>>, name: &str) -> NodeId {
    let names = Arc::make_mut(names);
    names.push(name.to_string());
    NodeId::from_index(names.len() - 1)
}

/// A labeled edge with its schedules.
#[derive(Debug, Clone)]
pub struct Edge<T> {
    src: NodeId,
    dst: NodeId,
    label: Letter,
    presence: Presence<T>,
    latency: Latency<T>,
}

impl<T: Time> Edge<T> {
    /// Source node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Edge label (the letter a journey spells when crossing it).
    #[must_use]
    pub fn label(&self) -> Letter {
        self.label
    }

    /// The presence schedule `ρ(e, ·)`.
    #[must_use]
    pub fn presence(&self) -> &Presence<T> {
        &self.presence
    }

    /// The latency schedule `ζ(e, ·)`.
    #[must_use]
    pub fn latency(&self) -> &Latency<T> {
        &self.latency
    }
}

/// Errors from building a [`Tvg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvgError {
    /// An edge references a node id from a different builder.
    UnknownNode(NodeId),
    /// An edge label is not a printable ASCII character.
    BadLabel(char),
    /// The graph has no nodes.
    NoNodes,
}

impl fmt::Display for TvgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TvgError::UnknownNode(n) => write!(f, "edge references unknown node {n}"),
            TvgError::BadLabel(c) => write!(f, "edge label {c:?} is not printable ascii"),
            TvgError::NoNodes => write!(f, "time-varying graph must have at least one node"),
        }
    }
}

impl Error for TvgError {}

/// A time-varying graph over time domain `T`.
///
/// Construct with [`TvgBuilder`]:
///
/// ```
/// use tvg_model::{Latency, Presence, TvgBuilder};
///
/// let mut b = TvgBuilder::<u64>::new();
/// let v0 = b.node("v0");
/// let v1 = b.node("v1");
/// b.edge(v0, v1, 'a', Presence::Periodic { period: 2, phases: [0u64].into() }, Latency::unit())?;
/// let g = b.build()?;
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.num_edges(), 1);
/// # Ok::<(), tvg_model::TvgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tvg<T> {
    /// Node names, shared: cloning a graph or deriving one
    /// ([`Tvg::dilate`], [`crate::narrow_tvg`]) copies no `String`.
    names: Arc<Vec<String>>,
    edges: Vec<Edge<T>>,
    /// Outgoing edge ids per node.
    out: Vec<Vec<EdgeId>>,
}

impl<T: Time> Tvg<T> {
    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len()).map(NodeId::from_index)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// The display name given to `n` at build time.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for this graph.
    #[must_use]
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Full edge record for `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for this graph.
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> &Edge<T> {
        &self.edges[e.index()]
    }

    /// Outgoing edges of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for this graph.
    #[must_use]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out[n.index()]
    }

    /// Whether edge `e` is present at instant `t`.
    #[must_use]
    pub fn is_present(&self, e: EdgeId, t: &T) -> bool {
        self.edge(e).presence.is_present(t)
    }

    /// Attempts to traverse `e` departing at `t`: returns the arrival time
    /// if the edge is present and the latency does not overflow.
    ///
    /// This is the single primitive journey semantics are built from.
    #[must_use]
    pub fn traverse(&self, e: EdgeId, t: &T) -> Option<T> {
        let edge = self.edge(e);
        if !edge.presence.is_present(t) {
            return None;
        }
        edge.latency.arrival(t)
    }

    /// The snapshot (footprint at one instant): edges present at `t`.
    #[must_use]
    pub fn snapshot(&self, t: &T) -> Vec<EdgeId> {
        self.edges().filter(|&e| self.is_present(e, t)).collect()
    }

    /// The snapshot as a static digraph on the same node set.
    #[must_use]
    pub fn snapshot_graph(&self, t: &T) -> Digraph {
        let mut g = Digraph::new(self.num_nodes());
        for e in self.snapshot(t) {
            let edge = self.edge(e);
            g.add_edge(edge.src.index(), edge.dst.index());
        }
        g
    }

    /// The underlying graph (footprint over all time): every edge,
    /// regardless of schedule.
    #[must_use]
    pub fn underlying_graph(&self) -> Digraph {
        let mut g = Digraph::new(self.num_nodes());
        for edge in &self.edges {
            g.add_edge(edge.src.index(), edge.dst.index());
        }
        g
    }

    /// An empty graph: no nodes, no edges. Only the streaming layer
    /// starts here ([`TvgBuilder::build`] rejects empty node sets because
    /// a *finished* graph without nodes is useless; a stream grows its
    /// node set event by event).
    pub(crate) fn empty() -> Self {
        Tvg {
            names: Arc::default(),
            edges: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Appends a node (streaming growth path).
    pub(crate) fn push_node(&mut self, name: &str) -> NodeId {
        let id = push_name(&mut self.names, name);
        self.out.push(Vec::new());
        id
    }

    /// Appends an edge with pre-validated endpoints (streaming growth
    /// path; the stream layer rejects unknown nodes with a typed error
    /// before calling this).
    pub(crate) fn push_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: Letter,
        presence: Presence<T>,
        latency: Latency<T>,
    ) -> EdgeId {
        debug_assert!(src.index() < self.names.len() && dst.index() < self.names.len());
        self.edges.push(Edge {
            src,
            dst,
            label,
            presence,
            latency,
        });
        let e = EdgeId::from_index(self.edges.len() - 1);
        self.out[src.index()].push(e);
        e
    }

    /// Time-dilates every schedule by `d + 1` (Theorem 2.3).
    ///
    /// Presences move to multiples of `d+1`; latencies scale by `d+1`.
    /// Departing at `(d+1)·t` arrives at `(d+1)·arrival(t)`, and no edge
    /// is present at a non-multiple — so a journey that waits at most `d`
    /// in the dilated graph can only do what a direct journey does in the
    /// original. See `tvg_expressivity::dilation` for the theorem harness.
    ///
    /// # Panics
    ///
    /// Panics if `d + 1` overflows (i.e. `d == u64::MAX`).
    #[must_use]
    pub fn dilate(&self, d: u64) -> Tvg<T> {
        let factor = d.checked_add(1).expect("dilation bound too large");
        let Ok(dilated) = self.try_map_schedules(|_, e| {
            Ok::<_, std::convert::Infallible>((
                e.presence.clone().dilate(factor),
                e.latency.clone().dilate(factor),
            ))
        });
        dilated
    }

    /// The graph with the same nodes, endpoints and labels whose
    /// schedules `f` gives, edge by edge in id order. The name table is
    /// shared, not copied; the first error `f` returns is returned.
    pub(crate) fn try_map_schedules<'g, U, E>(
        &'g self,
        mut f: impl FnMut(EdgeId, &'g Edge<T>) -> Result<(Presence<U>, Latency<U>), E>,
    ) -> Result<Tvg<U>, E> {
        let mut edges = Vec::with_capacity(self.edges.len());
        for (i, e) in self.edges.iter().enumerate() {
            let (presence, latency) = f(EdgeId::from_index(i), e)?;
            edges.push(Edge {
                src: e.src,
                dst: e.dst,
                label: e.label,
                presence,
                latency,
            });
        }
        Ok(Tvg {
            names: self.names.clone(),
            edges,
            out: self.out.clone(),
        })
    }
}

/// Incremental builder for [`Tvg`].
#[derive(Debug, Clone)]
pub struct TvgBuilder<T> {
    names: Arc<Vec<String>>,
    edges: Vec<Edge<T>>,
}

impl<T: Time> TvgBuilder<T> {
    /// Starts an empty builder.
    #[must_use]
    pub fn new() -> Self {
        TvgBuilder {
            names: Arc::default(),
            edges: Vec::new(),
        }
    }

    /// Adds a node with a display name, returning its id.
    pub fn node(&mut self, name: &str) -> NodeId {
        push_name(&mut self.names, name)
    }

    /// Adds `count` nodes named `v0, v1, …`, returning their ids.
    pub fn nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|_| {
                let i = self.names.len();
                self.node(&format!("v{i}"))
            })
            .collect()
    }

    /// Adds a directed labeled edge with its schedules, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`TvgError::UnknownNode`] if either endpoint was not created
    /// by this builder.
    pub fn edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: char,
        presence: Presence<T>,
        latency: Latency<T>,
    ) -> Result<EdgeId, TvgError> {
        for n in [src, dst] {
            if n.index() >= self.names.len() {
                return Err(TvgError::UnknownNode(n));
            }
        }
        let label = Letter::new(label).map_err(|_| TvgError::BadLabel(label))?;
        self.edges.push(Edge {
            src,
            dst,
            label,
            presence,
            latency,
        });
        Ok(EdgeId::from_index(self.edges.len() - 1))
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`TvgError::NoNodes`] for an empty node set.
    pub fn build(self) -> Result<Tvg<T>, TvgError> {
        if self.names.is_empty() {
            return Err(TvgError::NoNodes);
        }
        let mut out = vec![Vec::new(); self.names.len()];
        for (i, e) in self.edges.iter().enumerate() {
            out[e.src.index()].push(EdgeId::from_index(i));
        }
        Ok(Tvg {
            names: self.names,
            edges: self.edges,
            out,
        })
    }
}

impl<T: Time> Default for TvgBuilder<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn simple() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v0 = b.node("v0");
        let v1 = b.node("v1");
        let v2 = b.node("v2");
        b.edge(
            v0,
            v1,
            'a',
            Presence::Periodic {
                period: 2,
                phases: BTreeSet::from([0u64]),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v1, v2, 'b', Presence::After(3u64), Latency::Const(2))
            .expect("valid");
        b.build().expect("valid")
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let g = simple();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.node_name(NodeId::from_index(1)), "v1");
        let e0 = EdgeId::from_index(0);
        assert_eq!(g.edge(e0).label().as_char(), 'a');
        assert_eq!(g.edge(e0).src(), NodeId::from_index(0));
        assert_eq!(g.edge(e0).dst(), NodeId::from_index(1));
    }

    #[test]
    fn traverse_respects_presence_and_latency() {
        let g = simple();
        let e0 = EdgeId::from_index(0);
        let e1 = EdgeId::from_index(1);
        assert_eq!(g.traverse(e0, &4), Some(5)); // present (4 % 2 == 0), ζ=1
        assert_eq!(g.traverse(e0, &5), None); // absent
        assert_eq!(g.traverse(e1, &4), Some(6)); // present (4 > 3), ζ=2
        assert_eq!(g.traverse(e1, &3), None); // absent (strict)
    }

    #[test]
    fn snapshots_select_present_edges() {
        let g = simple();
        assert_eq!(g.snapshot(&0), vec![EdgeId::from_index(0)]);
        assert_eq!(
            g.snapshot(&4),
            vec![EdgeId::from_index(0), EdgeId::from_index(1)]
        );
        assert_eq!(g.snapshot(&5), vec![EdgeId::from_index(1)]);
        let snap = g.snapshot_graph(&4);
        assert!(snap.has_edge(0, 1));
        assert!(snap.has_edge(1, 2));
        assert!(!snap.has_edge(0, 2));
    }

    #[test]
    fn underlying_graph_ignores_schedules() {
        let g = simple();
        let u = g.underlying_graph();
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(1, 2));
    }

    #[test]
    fn out_edges_adjacency() {
        let g = simple();
        assert_eq!(g.out_edges(NodeId::from_index(0)), &[EdgeId::from_index(0)]);
        assert_eq!(g.out_edges(NodeId::from_index(2)), &[]);
    }

    #[test]
    fn build_errors() {
        let b = TvgBuilder::<u64>::new();
        assert_eq!(b.build().unwrap_err(), TvgError::NoNodes);

        let mut b = TvgBuilder::<u64>::new();
        let v0 = b.node("v0");
        let ghost = NodeId::from_index(7);
        assert_eq!(
            b.edge(v0, ghost, 'a', Presence::Always, Latency::unit())
                .unwrap_err(),
            TvgError::UnknownNode(ghost)
        );
    }

    #[test]
    fn dilation_moves_schedule_onto_multiples() {
        let g = simple();
        let d = 3u64; // factor 4
        let dilated = g.dilate(d);
        let e0 = EdgeId::from_index(0);
        // Original: present at even t with arrival t+1.
        // Dilated: present at 4·(even t), arrival 4·(t+1).
        assert_eq!(dilated.traverse(e0, &8), Some(12)); // 8 = 4·2 → 4·3
        assert_eq!(dilated.traverse(e0, &4), None); // 4 = 4·1, 1 is odd
        for t in [1u64, 2, 3, 5, 6, 7, 9, 10, 11] {
            assert_eq!(dilated.traverse(e0, &t), None, "t={t} not a multiple of 4");
        }
    }

    #[test]
    fn name_table_is_shared_not_copied() {
        let g = simple();
        // Deriving and cloning graphs must share the one name allocation
        // (batch workers hold views of the same graph; per-worker name
        // copies would defeat the zero-clone design).
        let dilated = g.dilate(3);
        assert!(Arc::ptr_eq(&g.names, &dilated.names));
        let cloned = g.clone();
        assert!(Arc::ptr_eq(&g.names, &cloned.names));
    }

    #[test]
    fn nodes_helper_names_sequentially() {
        let mut b = TvgBuilder::<u64>::new();
        let ids = b.nodes(3);
        let g = b.build().expect("valid");
        assert_eq!(ids.len(), 3);
        assert_eq!(g.node_name(ids[2]), "v2");
    }
}
