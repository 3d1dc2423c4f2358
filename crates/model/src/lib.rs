//! The time-varying graph (TVG) model of *Waiting in Dynamic Networks*.
//!
//! A TVG is `G = (V, E, T, ρ, ζ)`: entities `V`, labeled relations `E`,
//! a temporal domain `T`, a presence function `ρ : E × T → {0,1}` telling
//! whether an edge is available at an instant, and a latency function
//! `ζ : E × T → T` telling how long a crossing started at an instant
//! takes. This crate is the model substrate of the reproduction:
//!
//! * [`Time`] — the temporal domain as a trait, instantiated at `u64`
//!   (simulation scale) and [`tvg_bigint::Nat`] (the theorem
//!   constructions, whose times outgrow any machine word).
//! * [`Presence`] / [`Latency`] — schedule ASTs covering the paper's
//!   Table 1 (including the prime-power predicate `t = pⁱqⁱ⁻¹` and affine
//!   latencies `(p−1)t`), periodic/finite classes, arbitrary computable
//!   closures, and the Theorem 2.3 time dilation as a syntactic wrapper.
//! * [`Tvg`] / [`TvgBuilder`] — the graph itself: directed labeled edges,
//!   snapshots, footprints, and whole-graph dilation.
//! * [`TvgIndex`] / [`IntervalSet`] — the compiled query layer: per-edge
//!   presence materialized as sorted half-open intervals over a horizon
//!   (binary-search next-presence, gap-skipping departure enumeration),
//!   CSR out-edge adjacency, and flat destination/latency columns.
//! * [`narrow_tvg`] — timeline compression: rebuilds a `u64`-timed TVG
//!   over `u32` instants when the horizon (and every provable arrival)
//!   fits, halving the time keys in the engine's hot structures; refusal
//!   is a typed [`NarrowError`], never a silent truncation.
//! * [`stream`] — streaming ingestion: a [`TvgStream`] validates
//!   appended edge events (up/down, new edges, horizon extensions) and
//!   maintains a [`LiveIndex`] — the same compiled structures as
//!   [`TvgIndex`], mutated in place per event instead of recompiled.
//!   Both index forms answer queries through the [`TemporalIndex`]
//!   trait, so every consumer runs on either.
//! * [`pcol`] — the persistent chunked columns behind the live index:
//!   fixed-size `Arc` chunks with copy-on-write behind one shared
//!   handle list, so a [`LiveIndex`] snapshot costs O(columns) and a
//!   later write copies the chunk it lands in, not the index.
//! * [`Digraph`] — a minimal static digraph for snapshots and protocols.
//! * [`generators`] — reproducible random/structured TVG families for the
//!   experiment sweeps.
//!
//! # Examples
//!
//! Build the smallest interesting TVG — one edge that exists only at even
//! instants — and cross it:
//!
//! ```
//! use tvg_model::{Latency, Presence, TvgBuilder};
//!
//! let mut b = TvgBuilder::<u64>::new();
//! let (u, v) = (b.node("u"), b.node("v"));
//! let e = b.edge(u, v, 'a',
//!     Presence::Periodic { period: 2, phases: [0u64].into() },
//!     Latency::unit())?;
//! let g = b.build()?;
//!
//! assert_eq!(g.traverse(e, &4), Some(5)); // present at 4, arrive at 5
//! assert_eq!(g.traverse(e, &5), None);    // absent at 5
//! # Ok::<(), tvg_model::TvgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
mod graph;
mod ids;
mod index;
mod interval;
pub mod narrow;
pub mod pcol;
mod schedule;
pub mod stream;
mod time;
mod tvg;
pub mod tvgi;

pub use graph::Digraph;
pub use ids::{EdgeId, NodeId};
pub use index::{TemporalIndex, TvgIndex};
pub use interval::{Instants, IntervalSet, SpanView};
pub use narrow::{narrow_tvg, NarrowError};
pub use schedule::{pq_power_index, InstantSet, Latency, Presence};
pub use stream::{LiveIndex, StreamError, StreamEvent, TvgStream};
pub use time::Time;
pub use tvg::{Edge, Tvg, TvgBuilder, TvgError};
