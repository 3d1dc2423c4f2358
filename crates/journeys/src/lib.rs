//! Journeys — paths over time — in time-varying graphs.
//!
//! The defining feature of dynamic networks is that a route may exist
//! *over time* even when no snapshot contains it end-to-end. A
//! [`Journey`] is the formal object: a walk plus departure instants, each
//! hop crossing an edge that is present when taken. Whether the traveler
//! may *pause* between hops is the [`WaitingPolicy`] — the knob whose
//! expressive consequences the paper quantifies (direct vs. indirect
//! journeys; `L_nowait`, `L_wait[d]`, `L_wait`).
//!
//! The crate provides:
//!
//! * [`Journey`] / [`Hop`] — representation and validation against a TVG
//!   under a policy, with typed failure reasons ([`JourneyError`]).
//! * [`engine`] — the single-source journey engine over a compiled
//!   [`tvg_model::TvgIndex`]: one label-correcting pass returns foremost
//!   arrivals (and witness journeys) to *every* node, with per-run
//!   [`EngineStats`] work counters.
//! * [`batch`] — the batch-query runtime: slices of independent engine
//!   runs fanned out over scoped worker threads sharing one index, each
//!   tree reduced inside its worker to what the caller keeps, with
//!   results merged back in input order (bit-identical to the serial
//!   path at every thread count). Generic over
//!   [`tvg_model::TemporalIndex`], so batches run against a
//!   batch-compiled index or a streaming [`tvg_model::LiveIndex`]
//!   snapshot between ingest ticks.
//! * [`incremental`] — [`IncrementalForemost`]: a foremost tree that
//!   repairs itself after each ingested event batch (re-relaxing only
//!   labels at or after the batch's earliest change) instead of
//!   rerunning the engine from scratch.
//! * [`foremost_journey`], [`shortest_journey`], [`fastest_journey`] —
//!   the classic journey-optimality triple, exact for every policy;
//!   thin wrappers that compile an index and query the engine.
//! * [`language`] — journey languages `L_f(G)`: the bridge to the
//!   `tvg-expressivity` crate.
//! * [`ReachabilityMatrix`] — who reaches whom, how fast, under which
//!   policy.
//!
//! # Examples
//!
//! The archetypal store-carry-forward situation — the second edge only
//! appears after the first one is gone, so only waiting connects:
//!
//! ```
//! use tvg_journeys::{foremost_journey, SearchLimits, WaitingPolicy};
//! use tvg_model::{Latency, Presence, TvgBuilder};
//!
//! let mut b = TvgBuilder::<u64>::new();
//! let v = b.nodes(3);
//! b.edge(v[0], v[1], 'a', Presence::At(1), Latency::unit())?;
//! b.edge(v[1], v[2], 'b', Presence::At(5), Latency::unit())?;
//! let g = b.build()?;
//!
//! let limits = SearchLimits::new(10, 5);
//! let direct = foremost_journey(&g, v[0], v[2], &1, &WaitingPolicy::NoWait, &limits);
//! assert!(direct.is_none()); // no direct journey exists
//!
//! let waited = foremost_journey(&g, v[0], v[2], &1, &WaitingPolicy::Unbounded, &limits)
//!     .expect("waiting connects");
//! assert_eq!(waited.arrival(), Some(&6));
//! # Ok::<(), tvg_model::TvgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod engine;
pub mod incremental;
mod journey;
pub mod language;
mod policy;
mod reachability;
pub mod search;

pub use batch::{Batch, BatchRunner};
pub use engine::{
    foremost_to, foremost_tree, foremost_tree_multi, Engine, EngineStats, ForemostTree,
};
pub use incremental::{IncrementalForemost, ReplayCounts};
pub use journey::{Hop, Journey, JourneyError};
pub use policy::WaitingPolicy;
pub use reachability::ReachabilityMatrix;
pub use search::{
    expansions, fastest_journey, foremost_journey, reachable_configs, reachable_nodes,
    shortest_journey, SearchLimits,
};
