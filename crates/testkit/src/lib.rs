//! Deterministic cross-crate test harness for the *Waiting in Dynamic
//! Networks* reproduction.
//!
//! Every test suite in the workspace draws its randomness, fixtures, and
//! reference oracles from this crate, so that `cargo test` is
//! byte-for-byte reproducible: the same seeds, the same case counts, the
//! same pass/fail output on every run and platform.
//!
//! * [`rng`] — seeded RNG construction. Suite seeds are derived from
//!   stable FNV-1a hashes of test names; there is no wall-clock and no
//!   `thread_rng` anywhere in a test path (the vendored `rand` shim does
//!   not even provide one).
//! * `prop` — a small deterministic property-test loop (the workspace's
//!   offline replacement for `proptest`): fixed case counts, per-case
//!   seeds, and failure messages that name the exact case and seed to
//!   replay.
//! * [`gen`] — random-value generators (words, DFAs, schedule ASTs,
//!   policies, TVG automata, contact traces) shared by every suite.
//! * [`fixtures`] — the paper's named constructions: the Figure-1
//!   automaton, periodic bus networks, random-periodic families.
//! * [`oracles`] — reference language deciders (`is_anbn`, regular
//!   deciders from regexes/DFAs, `Σ*`, the empty language) that theorem
//!   tests compare constructions against.
//! * [`tickscan`] — the pre-index tick-scan journey searches, preserved
//!   as the reference oracle the compiled single-source engine is
//!   checked against.
//! * [`refengine`] — the pre-overhaul generic explorer (BTree-based
//!   frontiers, branchy policy dispatch), preserved as the differential
//!   oracle the cache-local monomorphized cores are pinned
//!   bit-identical to (arrivals, witnesses, work counters).
//! * [`batchcheck`] — the parallel-vs-serial oracle: a batch reduced at
//!   several thread counts must reproduce serial engine runs exactly
//!   (arrivals, witness journeys, and work counters) — against
//!   batch-compiled and live (streaming) indexes alike.
//! * [`streamcheck`] — the live-vs-recompile differential oracle: after
//!   every ingested event batch, the streaming `LiveIndex` must be
//!   structurally identical to a from-scratch recompile of the
//!   accumulated schedule, and a repaired `IncrementalForemost` must
//!   answer exactly like a fresh engine run.
//! * [`speccheck`] — the scenario-runtime oracle: spec text
//!   round-trips through `tvg_scenarios::parse_specs`, reports are
//!   thread-count invariant, and bundled specs reproduce their
//!   checked-in goldens byte for byte.
//! * [`tvgicheck`] — the `.tvgi` round-trip oracle: an index opened
//!   from an on-disk file must answer bit-identically (arrivals,
//!   witnesses, engine counters) to the in-memory compile it
//!   serialized.
//! * [`servecheck`] — the serve-runtime oracles: a pinned
//!   `Arc<ServeSnapshot>` answers byte-identically while the writer
//!   publishes newer epochs, served answers equal from-scratch
//!   computations on their pinned tick prefix, and the logical outcome
//!   is reader-count invariant.
//! * [`readcount`] — a counting index wrapper: tests pin how many span
//!   lists an engine run reads, a deterministic stand-in for its time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batchcheck;
pub mod fixtures;
pub mod gen;
pub mod oracles;
mod prop;
pub mod readcount;
pub mod refengine;
pub mod rng;
pub mod servecheck;
pub mod speccheck;
pub mod streamcheck;
pub mod tickscan;
pub mod tvgicheck;

pub use prop::{check, check_with, Config};

/// The median of wall-clock samples, for the same-run ratio gates.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(mut xs: Vec<std::time::Duration>) -> std::time::Duration {
    xs.sort();
    xs[xs.len() / 2]
}
pub use rng::{case_rng, seed_for};
