//! Streaming TVG ingestion: schedules that *arrive* instead of being
//! known up front.
//!
//! [`TvgIndex::compile`](crate::TvgIndex::compile) is batch-only: it
//! materializes a complete schedule against a horizon, so a single new
//! contact event forces a full recompile. Real deployments of the paper's model — DTN traces,
//! contact loggers, link-state feeds — observe their schedule as a
//! stream of *edge events*: a link comes up at `t`, goes down at `t'`, a
//! previously unseen link appears, the observation window extends — and
//! under node churn, peers join (`NewNode`) and leave (`NodeLeave`,
//! closing every incident open contact at the departure instant). This
//! module is that regime:
//!
//! * [`TvgStream`] is the ingestion layer. It validates appended
//!   [`StreamEvent`]s (monotone in time, `Down` only after `Up`, within
//!   the horizon) with typed [`StreamError`]s instead of panics, reading
//!   one ingest state per edge (closed, open since `t`, or dead), and
//!   applies each accepted event to a [`LiveIndex`].
//! * [`LiveIndex`] is the incrementally-maintained counterpart of
//!   [`TvgIndex`](crate::TvgIndex): the same per-edge presence spans,
//!   but mutated at the right edge per event instead of recompiled, over
//!   the graph the stream grows, which answers adjacency, destinations
//!   and latencies itself. It implements [`TemporalIndex`], so the journey engine,
//!   the batch-query runtime, and the protocol simulators run on it
//!   unchanged.
//!
//! The maintenance contract, which the `tvg-testkit` `streamcheck`
//! differential oracle enforces after every ingested batch: a
//! [`LiveIndex`] is **structurally identical** to
//! `TvgIndex::compile(&stream.to_tvg(), horizon)` — same presence spans,
//! same adjacency. An edge whose last `Up` has no `Down` yet is *open*:
//! it is presumed present through the horizon (provisional close at
//! `horizon + 1`), and a later `Down` or horizon extension rewrites that
//! provisional close in place. Every event is one append, truncation, or
//! extension of one edge's last span; there is no global timeline to
//! keep sorted.
//!
//! Every accepted event changes presence only at or after its own
//! instant (the [`IngestReport::earliest_change`] watermark), which is
//! exactly the property the incremental journey repair in
//! `tvg_journeys::incremental` relies on to re-relax only the labels it
//! must.

use crate::interval::{SpanArena, SpanView};
use crate::pcol::{PCol, COL_CHUNK};
use crate::schedule::same_instant_set;
use crate::{EdgeId, Latency, NodeId, Presence, TemporalIndex, Time, Tvg, TvgBuilder};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::iter;
use tvg_langs::Letter;

/// One appended observation of an evolving schedule.
#[derive(Debug, Clone)]
pub enum StreamEvent<T> {
    /// Edge `edge` becomes present at instant `at` (and stays present
    /// until its `Down`, provisionally through the horizon).
    Up {
        /// The edge coming up.
        edge: EdgeId,
        /// The instant it comes up.
        at: T,
    },
    /// Edge `edge` becomes absent at instant `at` (exclusive span end:
    /// the edge was last present at `at - 1`).
    Down {
        /// The edge going down.
        edge: EdgeId,
        /// The instant it goes down.
        at: T,
    },
    /// A previously unseen edge joins the graph, initially absent; its
    /// presence is driven entirely by subsequent `Up`/`Down` events.
    NewEdge {
        /// Source node (must already exist).
        src: NodeId,
        /// Destination node (must already exist).
        dst: NodeId,
        /// Edge label (printable ASCII).
        label: char,
        /// Latency schedule of the new edge.
        latency: Latency<T>,
    },
    /// The observation window extends: departures up to `to` (inclusive)
    /// are now covered, and open edges are presumed present through it.
    ExtendHorizon {
        /// The new inclusive horizon (must not regress).
        to: T,
    },
    /// A previously unseen node joins the graph. Topology growth carries
    /// no timestamp: the node participates only through subsequent
    /// `NewEdge`/`Up` events.
    NewNode {
        /// Display name of the joining node.
        name: String,
    },
    /// Node `node` leaves the network at instant `at`: every incident
    /// edge that is currently up goes down at `at` (in one step), and
    /// from then on any event referencing the departed node — `Up`,
    /// `Down`, `NewEdge`, or a second leave — is rejected with
    /// [`StreamError::NodeDeparted`]. Node ids are never reused; a peer
    /// that rejoins does so as a fresh `NewNode`.
    NodeLeave {
        /// The departing node.
        node: NodeId,
        /// The instant it departs (exclusive span end for its open
        /// contacts: they were last present at `at - 1`).
        at: T,
    },
}

/// Typed rejection of an invalid [`StreamEvent`]. The stream never
/// panics on bad input — out-of-order feeds, double-ups, and
/// down-before-up are data errors, not bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError<T> {
    /// The event references an edge the stream has never seen.
    UnknownEdge(EdgeId),
    /// A `NewEdge` references a node the stream has never seen.
    UnknownNode(NodeId),
    /// A `NewEdge` label is not printable ASCII.
    BadLabel(char),
    /// The event's instant precedes an already-ingested event.
    OutOfOrder {
        /// The offending event instant.
        at: T,
        /// The stream's watermark (latest accepted event instant).
        watermark: T,
    },
    /// The event's instant exceeds the current horizon (extend first).
    BeyondHorizon {
        /// The offending event instant.
        at: T,
        /// The current inclusive horizon.
        horizon: T,
    },
    /// `Up` on an edge that is already up.
    AlreadyUp {
        /// The edge.
        edge: EdgeId,
        /// When its open span started.
        since: T,
    },
    /// `Down` on an edge that is not up — the out-of-order shape the
    /// paper's contact feeds actually produce, rejected typed.
    DownBeforeUp {
        /// The edge.
        edge: EdgeId,
        /// The offending instant.
        at: T,
    },
    /// `ExtendHorizon` to an instant before the current horizon.
    HorizonRegression {
        /// The requested horizon.
        to: T,
        /// The current inclusive horizon.
        horizon: T,
    },
    /// A stream constructed at a horizon whose successor overflows the
    /// time representation (open spans need a representable provisional
    /// close at `horizon + 1`).
    HorizonOverflow {
        /// The unrepresentable horizon.
        horizon: T,
    },
    /// The requested horizon has no representable successor (half-open
    /// provisional closes need `horizon + 1`).
    HorizonUnrepresentable {
        /// The requested horizon.
        to: T,
    },
    /// The event references a node that already left the network: a
    /// departed node's contacts are closed forever, so an `Up`, `Down`,
    /// `NewEdge`, or second `NodeLeave` touching it is a data error.
    NodeDeparted {
        /// The departed node.
        node: NodeId,
        /// When it left.
        at: T,
    },
}

impl<T: fmt::Display> fmt::Display for StreamError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownEdge(e) => write!(f, "stream event references unknown edge {e}"),
            StreamError::UnknownNode(n) => write!(f, "new edge references unknown node {n}"),
            StreamError::BadLabel(c) => write!(f, "new edge label {c:?} is not printable ascii"),
            StreamError::OutOfOrder { at, watermark } => {
                write!(f, "event at {at} precedes watermark {watermark}")
            }
            StreamError::BeyondHorizon { at, horizon } => {
                write!(f, "event at {at} beyond horizon {horizon} (extend first)")
            }
            StreamError::AlreadyUp { edge, since } => {
                write!(f, "edge {edge} is already up since {since}")
            }
            StreamError::DownBeforeUp { edge, at } => {
                write!(f, "down at {at} on edge {edge} that is not up")
            }
            StreamError::HorizonRegression { to, horizon } => {
                write!(f, "horizon extension to {to} regresses below {horizon}")
            }
            StreamError::HorizonOverflow { horizon } => {
                write!(f, "horizon {horizon} + 1 overflows the time representation")
            }
            StreamError::HorizonUnrepresentable { to } => {
                write!(f, "horizon {to} has no representable successor")
            }
            StreamError::NodeDeparted { node, at } => {
                write!(f, "event references node {node} departed at {at}")
            }
        }
    }
}

impl<T: fmt::Display + fmt::Debug> Error for StreamError<T> {}

/// What one [`TvgStream::ingest`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport<T> {
    /// Number of events applied (the whole batch on success).
    pub applied: usize,
    /// The earliest instant at which presence changed since the last
    /// *successful* report, if it did: no journey arriving strictly
    /// before it is affected, which is the repair watermark
    /// `tvg_journeys::incremental` uses. Changes applied by the prefix
    /// of a previously *failed* batch are carried into this report, so
    /// repairing from every successful report misses nothing. `None`
    /// for batches of pure topology growth (`NewEdge`) or no-op
    /// horizon extensions.
    pub earliest_change: Option<T>,
}

/// The incrementally-maintained counterpart of [`TvgIndex`](crate::TvgIndex).
///
/// Owns its graph (the stream grows it) and per-edge presence
/// intervals. The graph answers out-edge adjacency, destinations and
/// latencies, which a stream never changes in place: only presence
/// moves. Every query runs through the shared [`TemporalIndex`] trait,
/// so consumers cannot tell a live index from a recompiled one — and
/// the `streamcheck` oracle asserts they never could (structural
/// identity after every batch).
///
/// Unlike the batch index's flat allocations, both columns here are
/// *persistent* ([`crate::pcol`]): presence in fixed-size chunks behind
/// `Arc`, whose handle list sits behind one more `Arc`, copy-on-write on
/// the chunk a mutation lands in, and the graph as one element that only
/// rare topology growth unshares. A presence chunk keeps its 64 edges'
/// spans in one arena, so copying it is one allocation and a copy of
/// those spans. A snapshot therefore copies two handles and the small
/// presence tail, the graph stays shared whole while no tick grows it,
/// and a tick's writes cost the chunks they land in — the property the
/// serve runtime's per-tick snapshot publication is built on. A
/// snapshot is truly immutable: later
/// stream mutations copy what they touch and leave every outstanding
/// snapshot byte-identical.
///
/// The presence ASTs inside the owned graph are `Presence::Never`
/// placeholders: in the streaming regime the *index* is the schedule of
/// record (there is no closed-form schedule to compile from until
/// [`TvgStream::to_tvg`] materializes one).
#[derive(Debug, Clone)]
pub struct LiveIndex<T> {
    /// The graph: a one-element column, so a write to it unshares and
    /// counts it as a chunk write does.
    g: PCol<Vec<Tvg<T>>, 1>,
    horizon: T,
    /// `horizon + 1`: the provisional close of open spans.
    end: T,
    presence: PCol<SpanArena<T>, COL_CHUNK>,
}

impl<T: Time> LiveIndex<T> {
    /// `None` if `horizon + 1` overflows the time representation (open
    /// spans need a representable provisional close).
    fn new(horizon: T) -> Option<Self> {
        let end = horizon.checked_add(&T::one())?;
        let mut g = PCol::new();
        g.push(Tvg::empty());
        Some(LiveIndex {
            g,
            horizon,
            end,
            presence: PCol::new(),
        })
    }

    /// The graph this index answers for.
    #[must_use]
    pub fn tvg(&self) -> &Tvg<T> {
        self.g.get(0)
    }

    /// Frozen presence chunks plus the graph: the structure a snapshot
    /// shares instead of copying.
    #[must_use]
    pub fn chunks_frozen(&self) -> u64 {
        self.presence.frozen_chunks() + self.g.frozen_chunks()
    }

    /// Cumulative count of shared structures publications have cost:
    /// one per chunk (or the graph) first written after a
    /// [`TvgStream::snapshot`], whether or not that snapshot is still
    /// alive. The delta between two publishes is that tick's cost.
    #[must_use]
    pub fn chunks_copied(&self) -> u64 {
        self.presence.cow_copies() + self.g.cow_copies()
    }

    /// A copy sharing every chunk and the graph; starts a generation.
    fn snapshot(&mut self) -> Self {
        LiveIndex {
            g: self.g.snapshot(),
            horizon: self.horizon.clone(),
            end: self.end.clone(),
            presence: self.presence.snapshot(),
        }
    }
}

impl<T: Time> TemporalIndex<T> for LiveIndex<T> {
    fn num_nodes(&self) -> usize {
        self.tvg().num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.presence.len()
    }

    fn horizon(&self) -> &T {
        &self.horizon
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        let (chunk, j) = self.presence.chunk(e.index());
        SpanView(chunk.spans(j))
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        self.tvg().edge(e).latency().arrival_is_monotone()
    }

    fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        self.tvg().out_edges(n)
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        self.tvg().edge(e).dst()
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        self.tvg().edge(e).latency().arrival(t)
    }
}

/// The ingest state of one edge.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EdgeState<T> {
    /// Absent until its next `Up`.
    Closed,
    /// Up since the instant of its last `Up`.
    Open(T),
    /// An endpoint left the network: no event may touch it again.
    Dead,
}

/// What [`TvgStream::replay_of`] hands back: the mirrored stream and
/// its replay events.
type ReplayFeed<T> = (TvgStream<T>, Vec<StreamEvent<T>>);

/// The ingestion layer: validates appended events and maintains a
/// [`LiveIndex`] plus the per-edge and per-node state needed to
/// interpret them.
///
/// ```
/// use tvg_model::stream::{StreamEvent, TvgStream};
/// use tvg_model::{Latency, TemporalIndex};
///
/// let mut s = TvgStream::<u64>::new(10)?;
/// let (u, v) = (s.add_node("u"), s.add_node("v"));
/// let e = s.add_edge(u, v, 'a', Latency::unit())?;
/// let report = s.ingest(&[
///     StreamEvent::Up { edge: e, at: 2 },
///     StreamEvent::Down { edge: e, at: 5 },
/// ])?;
/// assert_eq!(report.earliest_change, Some(2));
/// assert!(s.index().is_present(e, &4));
/// assert!(!s.index().is_present(e, &5));
/// # Ok::<(), tvg_model::stream::StreamError<u64>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TvgStream<T> {
    live: LiveIndex<T>,
    watermark: Option<T>,
    /// Per edge: all an `Up` or `Down` needs to know about it.
    edges: Vec<EdgeState<T>>,
    /// Per node: the instant it left the network, if it did. Ids are
    /// never reused, so departure is final.
    departed: Vec<Option<T>>,
    /// Per node: its latest in-edge. Each edge's `next_in` links to the
    /// one before, and these lists with the graph's out-edges are what a
    /// `NodeLeave` must close (a self-loop is on both).
    last_in: Vec<Option<EdgeId>>,
    /// Per edge: the in-edge its destination gained before it.
    next_in: Vec<Option<EdgeId>>,
    /// Earliest presence change not yet handed out in a successful
    /// [`IngestReport`] — the applied prefix of a failed batch parks
    /// its changes here for the next report.
    unreported_change: Option<T>,
}

impl<T: Time> TvgStream<T> {
    /// An empty stream (no nodes, no edges, no events) covering
    /// departures in `[0, horizon]`.
    ///
    /// # Errors
    ///
    /// [`StreamError::HorizonOverflow`] if `horizon + 1` overflows the
    /// time representation (open spans need a representable provisional
    /// close) — e.g. a `u64` stream at `u64::MAX`.
    pub fn new(horizon: T) -> Result<Self, StreamError<T>> {
        let live =
            LiveIndex::new(horizon.clone()).ok_or(StreamError::HorizonOverflow { horizon })?;
        Ok(TvgStream {
            live,
            watermark: None,
            edges: Vec::new(),
            departed: Vec::new(),
            last_in: Vec::new(),
            next_in: Vec::new(),
            unreported_change: None,
        })
    }

    /// The live index this stream maintains. Borrow it between ingest
    /// ticks to run queries — the engine, the batch runtime, and the
    /// simulators all accept it wherever a compiled index goes.
    #[must_use]
    pub fn index(&self) -> &LiveIndex<T> {
        &self.live
    }

    /// An immutable snapshot of the live index as it stands right now.
    /// This is the publication primitive for snapshot services: the
    /// writer snapshots between ingest ticks and hands the copy out
    /// behind an `Arc`, and readers keep querying it unaffected by
    /// whatever the stream ingests next.
    ///
    /// The snapshot *shares* every frozen chunk and the graph with the
    /// live index (copying one handle per column and the small mutable
    /// tail), so taking one costs O(tail), not O(index) — later
    /// mutations copy-on-write the chunks they touch and never disturb
    /// an outstanding snapshot.
    /// Each call starts a publication generation for
    /// [`LiveIndex::chunks_copied`], even if the snapshot is dropped.
    #[must_use]
    pub fn snapshot(&mut self) -> LiveIndex<T> {
        self.live.snapshot()
    }

    /// How many nodes have left the network.
    #[must_use]
    pub fn num_departed(&self) -> usize {
        self.departed.iter().filter(|d| d.is_some()).count()
    }

    /// Adds a node, returning its id. Topology growth carries no
    /// timestamp and never affects existing presence.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.push_node_columns();
        self.live.g.get_mut(0).push_node(name)
    }

    /// Appends a node's ingest state; the caller grows the graph to match.
    fn push_node_columns(&mut self) {
        self.departed.push(None);
        self.last_in.push(None);
    }

    /// Appends a closed, spanless edge's presence and ingest state,
    /// returning its id; the caller validates the edge and grows the
    /// graph to match.
    fn push_edge_columns(&mut self, dst: NodeId) -> EdgeId {
        let e = EdgeId::from_index(self.edges.len());
        self.live.presence.push(());
        self.edges.push(EdgeState::Closed);
        self.next_in.push(self.last_in[dst.index()].replace(e));
        e
    }

    /// Adds an edge (initially absent), returning its id.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownNode`] / [`StreamError::BadLabel`] on
    /// invalid endpoints or label, [`StreamError::NodeDeparted`] if an
    /// endpoint already left the network.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: char,
        latency: Latency<T>,
    ) -> Result<EdgeId, StreamError<T>> {
        for n in [src, dst] {
            if n.index() >= self.live.tvg().num_nodes() {
                return Err(StreamError::UnknownNode(n));
            }
            if let Some(at) = &self.departed[n.index()] {
                return Err(StreamError::NodeDeparted {
                    node: n,
                    at: at.clone(),
                });
            }
        }
        let letter = Letter::new(label).map_err(|_| StreamError::BadLabel(label))?;
        let e = self.push_edge_columns(dst);
        self.live
            .g
            .get_mut(0)
            .push_edge(src, dst, letter, Presence::Never, latency);
        Ok(e)
    }

    /// Applies a batch of events in order.
    ///
    /// Events must be globally non-decreasing in time (the watermark
    /// advances with each accepted event). On the first invalid event
    /// the batch stops and the typed error is returned; *earlier* events
    /// of the batch remain applied, and their presence changes carry
    /// over into the **next successful** ingest's
    /// [`IngestReport::earliest_change`] — so an incremental consumer
    /// that repairs from each successful report never misses the
    /// applied prefix of a failed batch.
    ///
    /// # Errors
    ///
    /// The first [`StreamError`] encountered, with everything before it
    /// applied (and accounted to the next successful report).
    pub fn ingest(&mut self, events: &[StreamEvent<T>]) -> Result<IngestReport<T>, StreamError<T>> {
        let mut applied = 0;
        for ev in events {
            let changed_at = self.apply(ev)?;
            applied += 1;
            if let Some(t) = changed_at {
                if self.unreported_change.as_ref().is_none_or(|cur| t < *cur) {
                    self.unreported_change = Some(t);
                }
            }
        }
        Ok(IngestReport {
            applied,
            earliest_change: self.unreported_change.take(),
        })
    }

    /// Applies one event; returns the instant at which presence changed
    /// (if it did).
    fn apply(&mut self, ev: &StreamEvent<T>) -> Result<Option<T>, StreamError<T>> {
        match ev {
            StreamEvent::Up { edge, at } => self.apply_up(*edge, at).map(Some),
            StreamEvent::Down { edge, at } => self.apply_down(*edge, at).map(Some),
            StreamEvent::NewEdge {
                src,
                dst,
                label,
                latency,
            } => {
                self.add_edge(*src, *dst, *label, latency.clone())?;
                Ok(None)
            }
            StreamEvent::ExtendHorizon { to } => self.apply_extend(to),
            StreamEvent::NewNode { name } => {
                self.add_node(name);
                Ok(None)
            }
            StreamEvent::NodeLeave { node, at } => self.apply_leave(*node, at),
        }
    }

    fn check_time(&self, at: &T) -> Result<(), StreamError<T>> {
        if let Some(w) = &self.watermark {
            if at < w {
                return Err(StreamError::OutOfOrder {
                    at: at.clone(),
                    watermark: w.clone(),
                });
            }
        }
        if *at > self.live.horizon {
            return Err(StreamError::BeyondHorizon {
                at: at.clone(),
                horizon: self.live.horizon.clone(),
            });
        }
        Ok(())
    }

    /// `e`'s ingest state for an event at `at`. Rejects, in this order,
    /// an unknown edge, a dead one (naming its first departed endpoint,
    /// source before destination), and an instant [`Self::check_time`]
    /// refuses.
    fn edge_state(&self, e: EdgeId, at: &T) -> Result<&EdgeState<T>, StreamError<T>> {
        let state = self
            .edges
            .get(e.index())
            .ok_or(StreamError::UnknownEdge(e))?;
        if *state == EdgeState::Dead {
            let edge = self.live.tvg().edge(e);
            let (node, at) = [edge.src(), edge.dst()]
                .into_iter()
                .find_map(|n| Some((n, self.departed[n.index()].clone()?)))
                .expect("a dead edge has a departed endpoint");
            return Err(StreamError::NodeDeparted { node, at });
        }
        self.check_time(at)?;
        Ok(state)
    }

    fn apply_up(&mut self, e: EdgeId, at: &T) -> Result<T, StreamError<T>> {
        if let EdgeState::Open(since) = self.edge_state(e, at)? {
            return Err(StreamError::AlreadyUp {
                edge: e,
                since: since.clone(),
            });
        }
        // Reopening exactly at the previous close merges into that span
        // (the normalized form has no adjacent spans).
        let provisional_end = self.live.end.clone();
        let (chunk, j) = self.live.presence.chunk_mut(e.index());
        chunk.append_span(j, at.clone(), provisional_end);
        self.edges[e.index()] = EdgeState::Open(at.clone());
        self.watermark = Some(at.clone());
        Ok(at.clone())
    }

    fn apply_down(&mut self, e: EdgeId, at: &T) -> Result<T, StreamError<T>> {
        if *self.edge_state(e, at)? == EdgeState::Closed {
            return Err(StreamError::DownBeforeUp {
                edge: e,
                at: at.clone(),
            });
        }
        // Replaces the provisional close (a zero-length span is erased).
        let (chunk, j) = self.live.presence.chunk_mut(e.index());
        chunk.truncate_last_span(j, at);
        self.edges[e.index()] = EdgeState::Closed;
        self.watermark = Some(at.clone());
        Ok(at.clone())
    }

    fn apply_leave(&mut self, node: NodeId, at: &T) -> Result<Option<T>, StreamError<T>> {
        if node.index() >= self.live.tvg().num_nodes() {
            return Err(StreamError::UnknownNode(node));
        }
        if let Some(when) = &self.departed[node.index()] {
            return Err(StreamError::NodeDeparted {
                node,
                at: when.clone(),
            });
        }
        self.check_time(at)?;
        // Close every incident open span at the departure instant and
        // mark the edge dead. Each close is exactly a `Down` at `at`, so
        // the live index stays structurally identical to a recompile of
        // the truncated schedule — the churn case of the streamcheck
        // contract.
        let mut any_closed = false;
        let out = self.live.g.get(0).out_edges(node).iter().copied();
        let into = iter::successors(self.last_in[node.index()], |e| self.next_in[e.index()]);
        for e in out.chain(into) {
            let was = std::mem::replace(&mut self.edges[e.index()], EdgeState::Dead);
            if matches!(was, EdgeState::Open(_)) {
                any_closed = true;
                let (chunk, j) = self.live.presence.chunk_mut(e.index());
                chunk.truncate_last_span(j, at);
            }
        }
        self.departed[node.index()] = Some(at.clone());
        self.watermark = Some(at.clone());
        Ok(any_closed.then(|| at.clone()))
    }

    fn apply_extend(&mut self, to: &T) -> Result<Option<T>, StreamError<T>> {
        if *to < self.live.horizon {
            return Err(StreamError::HorizonRegression {
                to: to.clone(),
                horizon: self.live.horizon.clone(),
            });
        }
        if *to == self.live.horizon {
            return Ok(None);
        }
        let Some(new_end) = to.checked_add(&T::one()) else {
            return Err(StreamError::HorizonUnrepresentable { to: to.clone() });
        };
        let old_end = std::mem::replace(&mut self.live.end, new_end.clone());
        self.live.horizon = to.clone();
        // Open edges were presumed present through the old horizon; the
        // presumption now extends.
        let mut any_open = false;
        for (i, state) in self.edges.iter().enumerate() {
            if matches!(state, EdgeState::Open(_)) {
                any_open = true;
                let (chunk, j) = self.live.presence.chunk_mut(i);
                chunk.extend_last_span(j, &new_end);
            }
        }
        Ok(any_open.then_some(old_end))
    }

    /// Materializes the accumulated schedule as an ordinary batch
    /// [`Tvg`]: same nodes, edges, labels, and latencies, with each
    /// edge's presence written as the disjunction of its observed spans
    /// (open edges run through the horizon). Recompiling this graph with
    /// [`TvgIndex::compile`](crate::TvgIndex::compile) at the stream's horizon reproduces the
    /// [`LiveIndex`] structure exactly — the differential contract the
    /// testkit's `streamcheck` oracle enforces.
    ///
    /// # Panics
    ///
    /// Panics if the stream has no nodes yet (an empty graph has no
    /// batch form).
    #[must_use]
    pub fn to_tvg(&self) -> Tvg<T> {
        let mut b = TvgBuilder::new();
        for n in self.live.tvg().nodes() {
            b.node(self.live.tvg().node_name(n));
        }
        for e in self.live.tvg().edges() {
            let edge = self.live.tvg().edge(e);
            let presence = spans_to_presence(self.live.presence(e).spans());
            b.edge(
                edge.src(),
                edge.dst(),
                edge.label().as_char(),
                presence,
                edge.latency().clone(),
            )
            .expect("live edges are pre-validated");
        }
        b.build()
            .expect("a streamed schedule needs at least one node")
    }

    /// Mirrors an existing batch graph into a stream: same nodes and
    /// edges (initially all absent) plus the event list that replays
    /// `g`'s compiled schedule up to `horizon`: one `Up` per compiled
    /// span and one `Down` per close within the horizon, ordered by
    /// `(time, edge, Up before Down)`. Ingesting every returned event
    /// reproduces `TvgIndex::compile(g, horizon)` structurally; chopping
    /// the list into batches is how the test harness (and the replay
    /// benchmarks) drive live workloads from batch fixtures.
    ///
    /// Events are emitted edge by edge in id order, then stable-sorted by
    /// instant alone: ties keep edge-id order, and an edge has at most one
    /// event per instant (normalized spans are non-empty and never touch).
    /// A run of consecutive edges sharing one instant set (a contact's
    /// orientations) compiles its spans once and sorts one entry per span
    /// end, expanded to the run's edges in id order. The mirror shares
    /// `g`'s name table.
    ///
    /// Provisional closes (spans still open at the horizon) are *not*
    /// replayed as `Down` events — the stream keeps those edges open,
    /// exactly as the compiled index presumes them present through the
    /// horizon.
    ///
    /// # Errors
    ///
    /// [`StreamError::HorizonOverflow`] if `horizon + 1` overflows the
    /// time representation.
    pub fn replay_of(g: &Tvg<T>, horizon: &T) -> Result<ReplayFeed<T>, StreamError<T>> {
        let mut stream = TvgStream::new(horizon.clone())?;
        for _ in g.nodes() {
            stream.push_node_columns();
        }
        // `(time, first edge, run length << 1 | is_down)` in edge-id order.
        let mut timed: Vec<(T, EdgeId, u32)> = Vec::new();
        let (mut prev, mut run) = (None, 0);
        let Ok(live) = g.try_map_schedules(|_, edge| {
            let e = stream.push_edge_columns(edge.dst());
            if prev.is_some_and(|prev| same_instant_set(prev, edge.presence())) {
                timed[run..].iter_mut().for_each(|entry| entry.2 += 2);
            } else {
                run = timed.len();
                for (start, end) in edge.presence().intervals(horizon).spans() {
                    timed.push((start.clone(), e, 2));
                    // A close beyond the horizon is the compiled form of "still
                    // open": the stream expresses it by not closing at all.
                    if end <= horizon {
                        timed.push((end.clone(), e, 3));
                    }
                }
            }
            prev = Some(edge.presence());
            Ok::<_, Infallible>((Presence::Never, edge.latency().clone()))
        });
        *stream.live.g.get_mut(0) = live;
        timed.sort_by(|a, b| a.0.cmp(&b.0));
        let mut events = Vec::with_capacity(timed.iter().map(|t| t.2 as usize >> 1).sum());
        events.extend(timed.into_iter().flat_map(|(at, first, flags)| {
            (first.index()..first.index() + (flags >> 1) as usize).map(move |i| {
                let (edge, at) = (EdgeId::from_index(i), at.clone());
                if flags & 1 == 1 {
                    StreamEvent::Down { edge, at }
                } else {
                    StreamEvent::Up { edge, at }
                }
            })
        }));
        Ok((stream, events))
    }
}

/// The disjunction-of-windows presence AST for a normalized span list.
fn spans_to_presence<T: Time>(spans: &[(T, T)]) -> Presence<T> {
    let mut acc: Option<Presence<T>> = None;
    for (start, end) in spans {
        let until = end
            .checked_sub(&T::one())
            .expect("normalized spans are non-empty");
        let window = Presence::Window {
            from: start.clone(),
            until,
        };
        acc = Some(match acc {
            None => window,
            Some(prev) => Presence::Or(Box::new(prev), Box::new(window)),
        });
    }
    acc.unwrap_or(Presence::Never)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TvgIndex;

    fn two_node_stream() -> (TvgStream<u64>, EdgeId) {
        let mut s = TvgStream::new(20).expect("20 + 1 is representable");
        let u = s.add_node("u");
        let v = s.add_node("v");
        let e = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
        (s, e)
    }

    /// Structural identity with a from-scratch recompile of the
    /// accumulated schedule — the module's core contract (the testkit
    /// oracle applies this after every generated batch; this is the
    /// in-crate smoke version).
    fn assert_matches_recompile(s: &TvgStream<u64>) {
        let g = s.to_tvg();
        let compiled = TvgIndex::compile(&g, *s.index().horizon());
        for e in g.edges() {
            assert_eq!(
                s.index().presence(e).spans(),
                compiled.presence(e).spans(),
                "{e} presence"
            );
        }
        for n in g.nodes() {
            assert_eq!(s.index().out_edges(n), compiled.out_edges(n), "{n}");
        }
        assert_eq!(
            s.index().num_edge_events(),
            compiled.num_edge_events(),
            "event count"
        );
    }

    #[test]
    fn up_down_builds_spans() {
        let (mut s, e) = two_node_stream();
        s.ingest(&[
            StreamEvent::Up { edge: e, at: 2 },
            StreamEvent::Down { edge: e, at: 5 },
            StreamEvent::Up { edge: e, at: 9 },
        ])
        .expect("valid feed");
        assert_eq!(s.index().presence(e).spans(), &[(2, 5), (9, 21)]);
        assert_eq!(s.watermark.as_ref(), Some(&9));
        assert_eq!(s.edges[e.index()], EdgeState::Open(9));
        assert_matches_recompile(&s);
    }

    #[test]
    fn reopening_at_the_close_merges() {
        let (mut s, e) = two_node_stream();
        s.ingest(&[
            StreamEvent::Up { edge: e, at: 2 },
            StreamEvent::Down { edge: e, at: 5 },
            StreamEvent::Up { edge: e, at: 5 },
        ])
        .expect("valid feed");
        // The open state is the reopening instant, not the merged span's start.
        assert_eq!(
            s.ingest(&[StreamEvent::Up { edge: e, at: 6 }]),
            Err(StreamError::AlreadyUp { edge: e, since: 5 })
        );
        s.ingest(&[StreamEvent::Down { edge: e, at: 8 }])
            .expect("valid feed");
        assert_eq!(s.index().presence(e).spans(), &[(2, 8)]);
        assert_eq!(s.index().num_edge_events(), 2);
        assert_matches_recompile(&s);
    }

    #[test]
    fn zero_length_pair_leaves_no_trace() {
        let (mut s, e) = two_node_stream();
        s.ingest(&[
            StreamEvent::Up { edge: e, at: 4 },
            StreamEvent::Down { edge: e, at: 4 },
        ])
        .expect("valid feed");
        assert!(s.index().presence(e).is_empty());
        assert_eq!(s.index().num_edge_events(), 0);
        assert_eq!(s.watermark.as_ref(), Some(&4));
        assert_matches_recompile(&s);
    }

    #[test]
    fn event_exactly_at_horizon() {
        let (mut s, e) = two_node_stream();
        s.ingest(&[StreamEvent::Up { edge: e, at: 20 }])
            .expect("the horizon itself is within the window");
        assert_eq!(s.index().presence(e).spans(), &[(20, 21)]);
        assert!(s.index().is_present(e, &20));
        assert_matches_recompile(&s);
        let err = s
            .ingest(&[StreamEvent::Down { edge: e, at: 21 }])
            .expect_err("beyond the horizon");
        assert_eq!(
            err,
            StreamError::BeyondHorizon {
                at: 21,
                horizon: 20
            }
        );
    }

    #[test]
    fn typed_errors_cover_bad_feeds() {
        let (mut s, e) = two_node_stream();
        assert_eq!(
            s.ingest(&[StreamEvent::Down { edge: e, at: 3 }]),
            Err(StreamError::DownBeforeUp { edge: e, at: 3 })
        );
        s.ingest(&[StreamEvent::Up { edge: e, at: 5 }]).expect("ok");
        assert_eq!(
            s.ingest(&[StreamEvent::Up { edge: e, at: 7 }]),
            Err(StreamError::AlreadyUp { edge: e, since: 5 })
        );
        assert_eq!(
            s.ingest(&[StreamEvent::Down { edge: e, at: 3 }]),
            Err(StreamError::OutOfOrder {
                at: 3,
                watermark: 5
            })
        );
        let ghost = EdgeId::from_index(9);
        assert_eq!(
            s.ingest(&[StreamEvent::Up { edge: ghost, at: 6 }]),
            Err(StreamError::UnknownEdge(ghost))
        );
        assert_eq!(
            s.ingest(&[StreamEvent::ExtendHorizon { to: 10 }]),
            Err(StreamError::HorizonRegression {
                to: 10,
                horizon: 20
            })
        );
        assert_eq!(
            s.ingest(&[StreamEvent::ExtendHorizon { to: u64::MAX }]),
            Err(StreamError::HorizonUnrepresentable { to: u64::MAX })
        );
        assert_eq!(
            s.add_edge(
                NodeId::from_index(0),
                NodeId::from_index(7),
                'a',
                Latency::unit()
            ),
            Err(StreamError::UnknownNode(NodeId::from_index(7)))
        );
        // Errors are values with readable diagnostics, not panics.
        assert!(StreamError::DownBeforeUp { edge: e, at: 3u64 }
            .to_string()
            .contains("not up"));
    }

    #[test]
    fn horizon_extension_moves_provisional_closes() {
        let (mut s, e) = two_node_stream();
        let report = s
            .ingest(&[
                StreamEvent::Up { edge: e, at: 3 },
                StreamEvent::ExtendHorizon { to: 30 },
            ])
            .expect("valid feed");
        assert_eq!(s.index().presence(e).spans(), &[(3, 31)]);
        assert_eq!(s.index().horizon(), &30);
        // The batch's earliest change is the Up itself (3), not the
        // extension (21).
        assert_eq!(report.earliest_change, Some(3));
        assert_matches_recompile(&s);
        // A pure extension with open edges changes presence just beyond
        // the old horizon; with no open edges it changes nothing.
        let report = s
            .ingest(&[StreamEvent::ExtendHorizon { to: 40 }])
            .expect("valid");
        assert_eq!(report.earliest_change, Some(31));
        s.ingest(&[StreamEvent::Down { edge: e, at: 35 }])
            .expect("ok");
        let report = s
            .ingest(&[StreamEvent::ExtendHorizon { to: 50 }])
            .expect("valid");
        assert_eq!(report.earliest_change, None);
        assert_matches_recompile(&s);
    }

    #[test]
    fn new_edges_grow_the_csr_in_place() {
        let mut s = TvgStream::<u64>::new(10).expect("10 + 1 is representable");
        let a = s.add_node("a");
        let b = s.add_node("b");
        let e0 = s.add_edge(a, b, 'x', Latency::unit()).expect("valid");
        s.ingest(&[StreamEvent::Up { edge: e0, at: 1 }])
            .expect("ok");
        let report = s
            .ingest(&[StreamEvent::NewEdge {
                src: a,
                dst: b,
                label: 'y',
                latency: Latency::Const(2),
            }])
            .expect("valid");
        assert_eq!(report.earliest_change, None);
        let e1 = EdgeId::from_index(1);
        assert_eq!(s.index().out_edges(a), [e0, e1]);
        s.ingest(&[
            StreamEvent::Up { edge: e1, at: 4 },
            StreamEvent::Down { edge: e1, at: 6 },
        ])
        .expect("ok");
        assert_eq!(s.index().traverse(e1, &4), Some(6));
        assert_matches_recompile(&s);
    }

    #[test]
    fn replay_reproduces_a_batch_fixture() {
        use crate::generators::ring_bus_tvg;
        let g = ring_bus_tvg(5, 5, 'r');
        let (mut s, events) = TvgStream::replay_of(&g, &24).expect("24 + 1 is representable");
        assert!(!events.is_empty());
        s.ingest(&events).expect("replay is a valid feed");
        let compiled = TvgIndex::compile(&g, 24);
        for e in g.edges() {
            assert_eq!(
                s.index().presence(e).spans(),
                compiled.presence(e).spans(),
                "{e}"
            );
        }
        assert_eq!(s.index().num_edge_events(), compiled.num_edge_events());
        assert_matches_recompile(&s);
    }

    #[test]
    fn replay_orders_simultaneous_events_by_edge_then_up_first() {
        // Four edges whose spans open and close at the same instants:
        // e0 and e2 close at 3 while e1 and e3 open there; e2 reopens at
        // 5 while e3 closes; e1 stays open past the horizon.
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        for presence in [
            Presence::Window { from: 1, until: 2 },
            Presence::Window { from: 3, until: 20 },
            Presence::Or(
                Box::new(Presence::Window { from: 0, until: 2 }),
                Box::new(Presence::Window { from: 5, until: 6 }),
            ),
            Presence::Window { from: 3, until: 4 },
        ] {
            b.edge(v[0], v[1], 'a', presence, Latency::unit())
                .expect("valid");
        }
        let g = b.build().expect("valid");
        let (mut s, feed) = TvgStream::replay_of(&g, &8).expect("representable");
        let order: Vec<(u64, usize, &str)> = feed
            .iter()
            .map(|ev| match ev {
                StreamEvent::Up { edge, at } => (*at, edge.index(), "up"),
                StreamEvent::Down { edge, at } => (*at, edge.index(), "down"),
                other => panic!("replay emits only ups and downs, got {other:?}"),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 2, "up"),
                (1, 0, "up"),
                (3, 0, "down"),
                (3, 1, "up"),
                (3, 2, "down"),
                (3, 3, "up"),
                (5, 2, "up"),
                (5, 3, "down"),
                (7, 2, "down"),
            ]
        );
        s.ingest(&feed).expect("replay is a valid feed");
        // One Up per compiled span, so the event count is twice the Ups.
        assert_eq!(s.index().num_edge_events(), 2 * 5);
        assert_matches_recompile(&s);
    }

    #[test]
    fn one_write_after_a_snapshot_copies_one_chunk_and_no_unwritten_column() {
        let mut s = TvgStream::<u64>::new(20).expect("representable");
        let (u, v) = (s.add_node("u"), s.add_node("v"));
        let edges: Vec<EdgeId> = (0..COL_CHUNK)
            .map(|_| s.add_edge(u, v, 'a', Latency::unit()).expect("valid"))
            .collect();
        let ups: Vec<StreamEvent<u64>> = edges
            .iter()
            .map(|&edge| StreamEvent::Up { edge, at: 1 })
            .collect();
        s.ingest(&ups).expect("valid feed");
        let snap = s.snapshot();
        let copied = s.index().chunks_copied();
        s.ingest(&[StreamEvent::Down {
            edge: edges[0],
            at: 5,
        }])
        .expect("valid feed");
        // All 64 edges live in one frozen presence chunk, copied once.
        assert_eq!(s.index().chunks_copied(), copied + 1);
        assert!(!s.live.presence.shares_chunks_with(&snap.presence));
        assert_eq!(s.index().presence(edges[0]).spans(), &[(1, 5)]);
        for &e in &edges {
            assert_eq!(snap.presence(e).spans(), &[(1, 21)], "{e}");
        }
        for &e in &edges[1..] {
            assert_eq!(s.index().presence(e).spans(), &[(1, 21)], "{e}");
        }
        // The graph, which the tick did not write, is still shared.
        assert!(s.live.g.shares_chunks_with(&snap.g));
    }

    #[test]
    fn a_dropped_snapshot_still_counts_the_chunks_it_shared() {
        let mut s = TvgStream::<u64>::new(20).expect("representable");
        let (u, v) = (s.add_node("u"), s.add_node("v"));
        let e = (0..COL_CHUNK)
            .map(|_| s.add_edge(u, v, 'a', Latency::unit()).expect("valid"))
            .collect::<Vec<EdgeId>>()[0];
        let copied = s.index().chunks_copied();
        drop(s.snapshot());
        // No physical copy happens, yet the first write counts.
        s.ingest(&[StreamEvent::Up { edge: e, at: 1 }])
            .expect("valid feed");
        assert_eq!(s.index().chunks_copied(), copied + 1);
        // Topology growth counts the graph once per generation too.
        drop(s.snapshot());
        s.add_node("w");
        s.add_node("x");
        assert_eq!(s.index().chunks_copied(), copied + 2);
    }

    #[test]
    fn failed_batches_stop_at_the_offender() {
        let (mut s, e) = two_node_stream();
        let err = s.ingest(&[
            StreamEvent::Up { edge: e, at: 2 },
            StreamEvent::Up { edge: e, at: 4 },
            StreamEvent::Down { edge: e, at: 6 },
        ]);
        assert_eq!(err, Err(StreamError::AlreadyUp { edge: e, since: 2 }));
        // The valid prefix is applied; the rest is not.
        assert_eq!(s.index().presence(e).spans(), &[(2, 21)]);
        assert_eq!(s.watermark.as_ref(), Some(&2));
        // The prefix's presence change was never reported (the batch
        // errored); the next successful ingest must carry it, so a
        // repair driven by successful reports misses nothing.
        let report = s
            .ingest(&[StreamEvent::Down { edge: e, at: 6 }])
            .expect("valid");
        assert_eq!(report.earliest_change, Some(2));
        // Once reported, the carry-over is consumed.
        let report = s.ingest(&[]).expect("empty batch is valid");
        assert_eq!(report.earliest_change, None);
    }

    /// Regression: constructing a stream whose horizon has no
    /// representable successor used to panic; it is now the typed
    /// [`StreamError::HorizonOverflow`], mirroring the `ExtendHorizon`
    /// path's `HorizonUnrepresentable`.
    #[test]
    fn max_horizon_is_a_typed_error_not_a_panic() {
        assert_eq!(
            TvgStream::<u64>::new(u64::MAX).unwrap_err(),
            StreamError::HorizonOverflow { horizon: u64::MAX }
        );
        assert!(LiveIndex::<u64>::new(u64::MAX).is_none());
        use crate::generators::ring_bus_tvg;
        let g = ring_bus_tvg(3, 3, 'r');
        assert_eq!(
            TvgStream::replay_of(&g, &u64::MAX).unwrap_err(),
            StreamError::HorizonOverflow { horizon: u64::MAX }
        );
        // One below the ceiling still constructs: only the true
        // boundary is rejected.
        assert!(TvgStream::<u64>::new(u64::MAX - 1).is_ok());
    }

    #[test]
    fn node_leave_closes_all_incident_open_spans() {
        let mut s = TvgStream::<u64>::new(20).expect("representable");
        let a = s.add_node("a");
        let b = s.add_node("b");
        let c = s.add_node("c");
        let ab = s.add_edge(a, b, 'x', Latency::unit()).expect("valid");
        let bc = s.add_edge(b, c, 'y', Latency::unit()).expect("valid");
        let ca = s.add_edge(c, a, 'z', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: ab, at: 2 },
            StreamEvent::Up { edge: bc, at: 3 },
            StreamEvent::Up { edge: ca, at: 4 },
        ])
        .expect("valid feed");
        let report = s
            .ingest(&[StreamEvent::NodeLeave { node: b, at: 7 }])
            .expect("leave is valid");
        // Both edges touching b, into and out of it, close at 7; c→a is
        // untouched.
        assert_eq!(report.earliest_change, Some(7));
        assert_eq!(s.index().presence(ab).spans(), &[(2, 7)]);
        assert_eq!(s.index().presence(bc).spans(), &[(3, 7)]);
        assert_eq!(s.index().presence(ca).spans(), &[(4, 21)]);
        assert_eq!(s.edges[ab.index()], EdgeState::Dead);
        assert_eq!(s.edges[bc.index()], EdgeState::Dead);
        assert_eq!(s.edges[ca.index()], EdgeState::Open(4));
        assert_eq!(s.departed[b.index()].as_ref(), Some(&7));
        assert_eq!(s.num_departed(), 1);
        assert_eq!(s.watermark.as_ref(), Some(&7));
        assert_matches_recompile(&s);
    }

    #[test]
    fn events_on_departed_nodes_are_rejected() {
        let mut s = TvgStream::<u64>::new(20).expect("representable");
        let a = s.add_node("a");
        let b = s.add_node("b");
        let ab = s.add_edge(a, b, 'x', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: ab, at: 2 },
            StreamEvent::NodeLeave { node: b, at: 5 },
        ])
        .expect("valid feed");
        let gone = StreamError::NodeDeparted { node: b, at: 5 };
        assert_eq!(
            s.ingest(&[StreamEvent::Up { edge: ab, at: 6 }]),
            Err(gone.clone())
        );
        assert_eq!(
            s.ingest(&[StreamEvent::Down { edge: ab, at: 6 }]),
            Err(gone.clone())
        );
        assert_eq!(
            s.ingest(&[StreamEvent::NewEdge {
                src: a,
                dst: b,
                label: 'y',
                latency: Latency::unit(),
            }]),
            Err(gone.clone())
        );
        assert_eq!(
            s.ingest(&[StreamEvent::NodeLeave { node: b, at: 8 }]),
            Err(gone.clone())
        );
        assert!(gone.to_string().contains("departed at 5"));
        // A leave on an unknown node is the usual UnknownNode.
        let ghost = NodeId::from_index(9);
        assert_eq!(
            s.ingest(&[StreamEvent::NodeLeave { node: ghost, at: 9 }]),
            Err(StreamError::UnknownNode(ghost))
        );
        // The surviving endpoint can still grow new contacts.
        let c = s.add_node("c");
        let ac = s.add_edge(a, c, 'z', Latency::unit()).expect("valid");
        s.ingest(&[StreamEvent::Up { edge: ac, at: 9 }])
            .expect("valid feed");
        assert_matches_recompile(&s);
        // Both endpoints gone, the source first: the source is named.
        // Only the destination gone: the destination is named, even on
        // a `Down` below the watermark. A self-loop closes once and, dead,
        // names its node.
        let d = s.add_node("d");
        let cd = s.add_edge(c, d, 'w', Latency::unit()).expect("valid");
        let cc = s.add_edge(c, c, 'v', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: cc, at: 9 },
            StreamEvent::NodeLeave { node: c, at: 10 },
            StreamEvent::NodeLeave { node: d, at: 11 },
        ])
        .expect("valid feed");
        let c_gone = Err(StreamError::NodeDeparted { node: c, at: 10 });
        assert_eq!(s.ingest(&[StreamEvent::Up { edge: cd, at: 12 }]), c_gone);
        assert_eq!(s.ingest(&[StreamEvent::Down { edge: ac, at: 9 }]), c_gone);
        assert_eq!(s.ingest(&[StreamEvent::Up { edge: cc, at: 12 }]), c_gone);
        assert_eq!(s.index().presence(cc).spans(), &[(9, 10)]);
        assert_matches_recompile(&s);
    }

    #[test]
    fn churn_rejoin_is_a_fresh_node() {
        let mut s = TvgStream::<u64>::new(30).expect("representable");
        let a = s.add_node("a");
        let b = s.add_node("b");
        let ab = s.add_edge(a, b, 'x', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: ab, at: 2 },
            StreamEvent::NodeLeave { node: b, at: 6 },
            StreamEvent::NewNode {
                name: "b".to_string(),
            },
        ])
        .expect("valid feed");
        // The rejoined peer has a fresh id; the old id stays departed.
        let b2 = NodeId::from_index(2);
        assert_eq!(s.index().tvg().num_nodes(), 3);
        assert_eq!(s.departed[b2.index()].as_ref(), None);
        assert_eq!(s.departed[b.index()].as_ref(), Some(&6));
        let ab2 = s.add_edge(a, b2, 'x', Latency::unit()).expect("valid");
        let report = s
            .ingest(&[StreamEvent::Up { edge: ab2, at: 8 }])
            .expect("valid feed");
        assert_eq!(report.earliest_change, Some(8));
        assert_eq!(s.index().presence(ab).spans(), &[(2, 6)]);
        assert_eq!(s.index().presence(ab2).spans(), &[(8, 31)]);
        assert_matches_recompile(&s);
    }

    #[test]
    fn leave_with_zero_length_span_erases_it() {
        // A contact that comes up at the very instant its endpoint
        // departs never existed — the same zero-length rule as an
        // up/down pair at one instant.
        let mut s = TvgStream::<u64>::new(20).expect("representable");
        let a = s.add_node("a");
        let b = s.add_node("b");
        let ab = s.add_edge(a, b, 'x', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: ab, at: 4 },
            StreamEvent::NodeLeave { node: b, at: 4 },
        ])
        .expect("valid feed");
        assert!(s.index().presence(ab).is_empty());
        assert_eq!(s.index().num_edge_events(), 0);
        assert_matches_recompile(&s);
    }

    #[test]
    fn leave_with_no_open_contacts_reports_no_change() {
        let mut s = TvgStream::<u64>::new(20).expect("representable");
        let a = s.add_node("a");
        let b = s.add_node("b");
        let ab = s.add_edge(a, b, 'x', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: ab, at: 2 },
            StreamEvent::Down { edge: ab, at: 5 },
        ])
        .expect("valid feed");
        let report = s
            .ingest(&[StreamEvent::NodeLeave { node: b, at: 9 }])
            .expect("valid feed");
        // Presence is untouched (the contact already closed at 5), so
        // there is nothing for an incremental consumer to repair.
        assert_eq!(report.earliest_change, None);
        assert_eq!(s.index().presence(ab).spans(), &[(2, 5)]);
        assert_eq!(s.watermark.as_ref(), Some(&9));
        assert_matches_recompile(&s);
    }
}
