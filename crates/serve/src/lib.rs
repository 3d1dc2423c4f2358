//! Always-on query service over a live time-varying graph.
//!
//! The *Waiting in Dynamic Networks* reproduction answered journey
//! queries either offline (compile, then query) or tick-alternating
//! (ingest a batch, then query, repeat). This crate closes the gap to a
//! service: queries are answered **while** the schedule keeps changing.
//!
//! Three pieces, one per module:
//!
//! * [`snapshot`] — epoch/RCU-style publication. A single writer clones
//!   the live index between ingest ticks ([`tvg_model::TvgStream::snapshot`])
//!   and publishes each copy as an immutable `Arc<`[`ServeSnapshot`]`>`
//!   through an [`EpochRing`]; readers acquire views with one atomic
//!   load and an `Arc` clone, and the ring releases each epoch once its
//!   last pinned request is answered — in safe Rust only.
//! * [`load`] — a deterministic synthetic client population: seeded
//!   request mix (foremost / matrix-row / beaconing broadcast) under a
//!   discrete Poisson-style arrival process (geometric inter-arrival
//!   gaps), byte-stable across platforms.
//! * [`serve`] — the serve loop itself: requests are pinned to epochs
//!   by timestamp arithmetic, grouped so queries sharing a source and
//!   epoch share one engine pass, and drained by up to N readers (the
//!   batch layer's fan-out) concurrently with the writer's ingestion. The logical outcome is
//!   reader-count invariant; only the timing metrics are real
//!   wall-clock measurements.
//!
//! The scenario layer (`tvg-scenarios`) exposes all of this as the
//! `serve` plan of the `.tvgs` spec language, with the logical section
//! of its report golden-gated in CI at reader counts 1 and 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
mod runner;
pub mod snapshot;

pub use load::{generate_load, LoadSpec, Request, TimedRequest};
pub use runner::{
    availability, epoch_of, serve, Answer, PublishStats, ServeConfig, ServeOutcome, ServeTiming,
    ServedRequest,
};
pub use snapshot::{EpochRing, ServeSnapshot};
