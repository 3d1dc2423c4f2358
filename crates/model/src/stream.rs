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
//!   the horizon) with typed [`StreamError`]s instead of panics, and
//!   applies each accepted event to a [`LiveIndex`].
//! * [`LiveIndex`] is the incrementally-maintained counterpart of
//!   [`TvgIndex`](crate::TvgIndex): the same per-edge presence spans
//!   and out-edge adjacency — but mutated at the right edge per event
//!   instead of recompiled. It implements [`TemporalIndex`], so the journey engine,
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

use crate::interval::{SpanList, SpanView};
use crate::pcol::{PCol, COL_CHUNK};
use crate::{EdgeId, Latency, NodeId, Presence, TemporalIndex, Time, Tvg, TvgBuilder};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
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
/// Owns its graph (the stream grows it) and the same compiled structures
/// a batch index holds: per-edge presence intervals, out-edge adjacency,
/// destination and constant-latency columns. Every query runs through
/// the shared [`TemporalIndex`] trait, so consumers cannot tell a live index from a
/// recompiled one — and the `streamcheck` oracle asserts they never
/// could (structural identity after every batch).
///
/// Unlike the batch index's flat allocations, every column here is
/// *persistent* ([`crate::pcol`]): fixed-size chunks behind `Arc`,
/// copy-on-write on the chunk a mutation lands in, and the graph itself
/// behind an `Arc` that only rare topology growth unshares. Copy-on-write
/// goes one level further for presence: each edge's spans sit in their
/// own shared slice, so copying a presence chunk copies 64 handles, and
/// only the span lists the tick writes are copied. Cloning a
/// `LiveIndex` is therefore O(changes since the last clone), not
/// O(index) — the property the serve runtime's per-tick snapshot
/// publication is built on. A clone is a true immutable snapshot: later
/// stream mutations copy what they touch and leave every outstanding
/// clone byte-identical.
///
/// The presence ASTs inside the owned graph are `Presence::Never`
/// placeholders: in the streaming regime the *index* is the schedule of
/// record (there is no closed-form schedule to compile from until
/// [`TvgStream::to_tvg`] materializes one).
#[derive(Debug, Clone)]
pub struct LiveIndex<T> {
    g: Arc<Tvg<T>>,
    horizon: T,
    /// `horizon + 1`: the provisional close of open spans.
    end: T,
    presence: PCol<SpanList<T>, COL_CHUNK>,
    arrival_monotone: PCol<bool, COL_CHUNK>,
    /// Per-node out-edge lists in edge-id order (the same order the
    /// batch index's CSR produces).
    adjacency: PCol<Vec<EdgeId>, COL_CHUNK>,
    dsts: PCol<NodeId, COL_CHUNK>,
    const_lat: PCol<Option<T>, COL_CHUNK>,
    /// Graph copies publications have cost, counted as [`crate::pcol`] does.
    graph_copies: u64,
    /// Snapshots taken, and the generation of the last graph write.
    generation: u64,
    graph_stamp: u64,
}

impl<T: Time> LiveIndex<T> {
    /// `None` if `horizon + 1` overflows the time representation (open
    /// spans need a representable provisional close).
    fn new(horizon: T) -> Option<Self> {
        let end = horizon.checked_add(&T::one())?;
        Some(LiveIndex {
            g: Arc::new(Tvg::empty()),
            horizon,
            end,
            presence: PCol::new(),
            arrival_monotone: PCol::new(),
            adjacency: PCol::new(),
            dsts: PCol::new(),
            const_lat: PCol::new(),
            graph_copies: 0,
            generation: 0,
            graph_stamp: 0,
        })
    }

    /// The graph this index answers for.
    #[must_use]
    pub fn tvg(&self) -> &Tvg<T> {
        &self.g
    }

    /// Frozen chunks across all persistent columns (plus the shared
    /// graph): the structure a snapshot shares instead of copying.
    #[must_use]
    pub fn chunks_frozen(&self) -> u64 {
        self.presence.frozen_chunks()
            + self.arrival_monotone.frozen_chunks()
            + self.adjacency.frozen_chunks()
            + self.dsts.frozen_chunks()
            + self.const_lat.frozen_chunks()
            + 1 // the Arc'd graph
    }

    /// Cumulative count of shared structures publications have cost:
    /// one per chunk (or the graph) first written after a
    /// [`TvgStream::snapshot`], whether or not that snapshot is still
    /// alive. The delta between two publishes is that tick's cost.
    #[must_use]
    pub fn chunks_copied(&self) -> u64 {
        self.presence.cow_copies()
            + self.arrival_monotone.cow_copies()
            + self.adjacency.cow_copies()
            + self.dsts.cow_copies()
            + self.const_lat.cow_copies()
            + self.graph_copies
    }

    /// Mutable graph access, unsharing it if a snapshot shares it and
    /// counting the first write per generation. Only topology growth.
    fn g_mut(&mut self) -> &mut Tvg<T> {
        if self.graph_stamp != self.generation {
            self.graph_stamp = self.generation;
            self.graph_copies += 1;
        }
        Arc::make_mut(&mut self.g)
    }

    /// A clone sharing every chunk and the graph; starts a generation.
    fn snapshot(&mut self) -> Self {
        self.generation += 1;
        LiveIndex {
            g: Arc::clone(&self.g),
            horizon: self.horizon.clone(),
            end: self.end.clone(),
            presence: self.presence.snapshot(),
            arrival_monotone: self.arrival_monotone.snapshot(),
            adjacency: self.adjacency.snapshot(),
            dsts: self.dsts.snapshot(),
            const_lat: self.const_lat.snapshot(),
            graph_copies: self.graph_copies,
            generation: self.generation,
            graph_stamp: self.graph_stamp,
        }
    }
}

impl<T: Time> TemporalIndex<T> for LiveIndex<T> {
    fn num_nodes(&self) -> usize {
        self.g.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.dsts.len()
    }

    fn horizon(&self) -> &T {
        &self.horizon
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        SpanView(self.presence.get(e.index()).spans())
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        *self.arrival_monotone.get(e.index())
    }

    fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        self.adjacency.get(n.index())
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        *self.dsts.get(e.index())
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        match self.const_lat.get(e.index()) {
            Some(c) => t.checked_add(c),
            None => self.g.edge(e).latency().arrival(t),
        }
    }
}

/// What [`TvgStream::replay_of`] hands back: the mirrored stream and
/// its replay events.
type ReplayFeed<T> = (TvgStream<T>, Vec<StreamEvent<T>>);

/// The ingestion layer: validates appended events and maintains a
/// [`LiveIndex`] plus the open-span state needed to interpret them.
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
    /// Per edge: the start instant of its currently open span's `Up`.
    open_since: Vec<Option<T>>,
    /// Per node: the instant it left the network, if it did. Ids are
    /// never reused, so departure is final.
    departed: Vec<Option<T>>,
    /// Per node: every edge incident to it, either direction — the set
    /// a `NodeLeave` must close. Ingestion state, not index structure
    /// (the `LiveIndex` keeps only out-edge adjacency, like the CSR).
    incident: Vec<Vec<EdgeId>>,
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
            open_since: Vec::new(),
            departed: Vec::new(),
            incident: Vec::new(),
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
    /// The snapshot *shares* every frozen chunk, every edge's span list
    /// and the graph with the live index (copying only handles and the
    /// small mutable tails), so taking one costs O(chunks), not
    /// O(index) — later mutations copy-on-write the chunks and span
    /// lists they touch and never disturb an outstanding snapshot.
    /// Each call starts a publication generation for
    /// [`LiveIndex::chunks_copied`], even if the snapshot is dropped.
    #[must_use]
    pub fn snapshot(&mut self) -> LiveIndex<T> {
        self.live.snapshot()
    }

    /// The latest accepted event instant, if any event was accepted.
    #[must_use]
    pub fn watermark(&self) -> Option<&T> {
        self.watermark.as_ref()
    }

    /// Whether `e` is currently up (its last `Up` has no `Down` yet),
    /// and since when.
    #[must_use]
    pub fn open_since(&self, e: EdgeId) -> Option<&T> {
        self.open_since.get(e.index()).and_then(Option::as_ref)
    }

    /// When `n` left the network, if it did.
    #[must_use]
    pub fn departed_at(&self, n: NodeId) -> Option<&T> {
        self.departed.get(n.index()).and_then(Option::as_ref)
    }

    /// How many nodes have left the network.
    #[must_use]
    pub fn num_departed(&self) -> usize {
        self.departed.iter().filter(|d| d.is_some()).count()
    }

    /// Adds a node, returning its id. Topology growth carries no
    /// timestamp and never affects existing presence.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.live.adjacency.push(Vec::new());
        self.departed.push(None);
        self.incident.push(Vec::new());
        self.live.g_mut().push_node(name)
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
            if n.index() >= self.live.g.num_nodes() {
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
        self.live
            .arrival_monotone
            .push(latency.arrival_is_monotone());
        self.live.const_lat.push(match &latency {
            Latency::Const(c) => Some(c.clone()),
            _ => None,
        });
        let e = self
            .live
            .g_mut()
            .push_edge(src, dst, letter, Presence::Never, latency);
        self.live.presence.push(SpanList::new());
        self.live.dsts.push(dst);
        self.open_since.push(None);
        self.incident[src.index()].push(e);
        if dst != src {
            self.incident[dst.index()].push(e);
        }
        // The new edge has the maximal id, so it lands at the end of its
        // source's out-list — the same edge-id order the batch CSR
        // produces. Only the chunk holding that one node's list is
        // unshared if snapshots currently share it.
        self.live.adjacency.get_mut(src.index()).push(e);
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

    fn check_edge(&self, e: EdgeId) -> Result<(), StreamError<T>> {
        if e.index() >= self.live.g.num_edges() {
            return Err(StreamError::UnknownEdge(e));
        }
        // A departed endpoint makes the whole edge dead: its spans were
        // closed by the leave, and nothing may reopen (or re-close) them.
        let edge = self.live.g.edge(e);
        for n in [edge.src(), edge.dst()] {
            if let Some(at) = &self.departed[n.index()] {
                return Err(StreamError::NodeDeparted {
                    node: n,
                    at: at.clone(),
                });
            }
        }
        Ok(())
    }

    fn apply_up(&mut self, e: EdgeId, at: &T) -> Result<T, StreamError<T>> {
        self.check_edge(e)?;
        self.check_time(at)?;
        if let Some(since) = &self.open_since[e.index()] {
            return Err(StreamError::AlreadyUp {
                edge: e,
                since: since.clone(),
            });
        }
        // Reopening exactly at the previous close merges into that span
        // (the normalized form has no adjacent spans).
        let provisional_end = self.live.end.clone();
        self.live
            .presence
            .get_mut(e.index())
            .append_span(at.clone(), provisional_end);
        self.open_since[e.index()] = Some(at.clone());
        self.watermark = Some(at.clone());
        Ok(at.clone())
    }

    fn apply_down(&mut self, e: EdgeId, at: &T) -> Result<T, StreamError<T>> {
        self.check_edge(e)?;
        self.check_time(at)?;
        if self.open_since[e.index()].is_none() {
            return Err(StreamError::DownBeforeUp {
                edge: e,
                at: at.clone(),
            });
        }
        self.close_open_span(e, at);
        self.watermark = Some(at.clone());
        Ok(at.clone())
    }

    /// Closes `e`'s open span at `at`, replacing its provisional close
    /// (a zero-length span is erased entirely). Shared by `Down` and the
    /// batched closes a `NodeLeave` performs. The caller validates and
    /// advances the watermark.
    fn close_open_span(&mut self, e: EdgeId, at: &T) {
        self.live.presence.get_mut(e.index()).truncate_last_span(at);
        self.open_since[e.index()] = None;
    }

    fn apply_leave(&mut self, node: NodeId, at: &T) -> Result<Option<T>, StreamError<T>> {
        if node.index() >= self.live.g.num_nodes() {
            return Err(StreamError::UnknownNode(node));
        }
        if let Some(when) = &self.departed[node.index()] {
            return Err(StreamError::NodeDeparted {
                node,
                at: when.clone(),
            });
        }
        self.check_time(at)?;
        // Close every incident open span at the departure instant. Each
        // close is exactly a `Down` at `at`, so the live index stays
        // structurally identical to a recompile of the truncated
        // schedule — the churn case of the streamcheck contract.
        let open: Vec<EdgeId> = self.incident[node.index()]
            .iter()
            .copied()
            .filter(|e| self.open_since[e.index()].is_some())
            .collect();
        let any_closed = !open.is_empty();
        for e in open {
            self.close_open_span(e, at);
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
        for (i, since) in self.open_since.iter().enumerate() {
            if since.is_some() {
                any_open = true;
                self.live.presence.get_mut(i).extend_last_span(&new_end);
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
        for n in self.live.g.nodes() {
            b.node(self.live.g.node_name(n));
        }
        for e in self.live.g.edges() {
            let edge = self.live.g.edge(e);
            let presence = spans_to_presence(self.live.presence.get(e.index()).spans());
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
        for n in g.nodes() {
            stream.add_node(g.node_name(n));
        }
        // `(time, edge, is_down)`: the tuple order is the feed order.
        let mut timed: Vec<(T, EdgeId, bool)> = Vec::new();
        for e in g.edges() {
            let edge = g.edge(e);
            stream
                .add_edge(
                    edge.src(),
                    edge.dst(),
                    edge.label().as_char(),
                    edge.latency().clone(),
                )
                .expect("mirrored edges are valid");
            for (start, end) in edge.presence().intervals(horizon).spans() {
                timed.push((start.clone(), e, false));
                // A close beyond the horizon is the compiled form of "still
                // open": the stream expresses it by not closing at all.
                if end <= horizon {
                    timed.push((end.clone(), e, true));
                }
            }
        }
        timed.sort_unstable();
        let events = timed
            .into_iter()
            .map(|(at, edge, down)| {
                if down {
                    StreamEvent::Down { edge, at }
                } else {
                    StreamEvent::Up { edge, at }
                }
            })
            .collect();
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
        assert_eq!(s.watermark(), Some(&9));
        assert_eq!(s.open_since(e), Some(&9));
        assert_matches_recompile(&s);
    }

    #[test]
    fn reopening_at_the_close_merges() {
        let (mut s, e) = two_node_stream();
        s.ingest(&[
            StreamEvent::Up { edge: e, at: 2 },
            StreamEvent::Down { edge: e, at: 5 },
            StreamEvent::Up { edge: e, at: 5 },
            StreamEvent::Down { edge: e, at: 8 },
        ])
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
        assert_eq!(s.watermark(), Some(&4));
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
    fn a_copied_chunk_shares_every_span_list_the_tick_left_alone() {
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
        for &e in &edges[1..] {
            let (live, old) = (s.index().presence(e).spans(), snap.presence(e).spans());
            assert!(!live.is_empty());
            assert_eq!(live.as_ptr(), old.as_ptr(), "{e} is shared");
        }
        let (live, old) = (
            s.index().presence(edges[0]).spans(),
            snap.presence(edges[0]).spans(),
        );
        assert_ne!(live.as_ptr(), old.as_ptr());
        assert_eq!(live, &[(1, 5)]);
        assert_eq!(old, &[(1, 21)]);
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
        assert_eq!(s.watermark(), Some(&2));
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
        let cb = s.add_edge(c, b, 'y', Latency::unit()).expect("valid");
        let ca = s.add_edge(c, a, 'z', Latency::unit()).expect("valid");
        s.ingest(&[
            StreamEvent::Up { edge: ab, at: 2 },
            StreamEvent::Up { edge: cb, at: 3 },
            StreamEvent::Up { edge: ca, at: 4 },
        ])
        .expect("valid feed");
        let report = s
            .ingest(&[StreamEvent::NodeLeave { node: b, at: 7 }])
            .expect("leave is valid");
        // Both edges touching b close at 7; c→a is untouched.
        assert_eq!(report.earliest_change, Some(7));
        assert_eq!(s.index().presence(ab).spans(), &[(2, 7)]);
        assert_eq!(s.index().presence(cb).spans(), &[(3, 7)]);
        assert_eq!(s.index().presence(ca).spans(), &[(4, 21)]);
        assert_eq!(s.open_since(ab), None);
        assert_eq!(s.open_since(cb), None);
        assert_eq!(s.open_since(ca), Some(&4));
        assert_eq!(s.departed_at(b), Some(&7));
        assert_eq!(s.num_departed(), 1);
        assert_eq!(s.watermark(), Some(&7));
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
        assert_eq!(s.departed_at(b2), None);
        assert_eq!(s.departed_at(b), Some(&6));
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
        assert_eq!(s.watermark(), Some(&9));
        assert_matches_recompile(&s);
    }
}
