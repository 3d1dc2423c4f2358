//! Umbrella crate for the *Waiting in Dynamic Networks* reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can `use tvg_suite::…`. See the individual crates
//! for the real documentation:
//!
//! * [`bigint`] — arbitrary-precision naturals (schedule arithmetic).
//! * [`langs`] — words, automata, grammars, Turing and counter machines.
//! * [`model`] — the time-varying graph model and schedules.
//! * [`journeys`] — journeys, waiting policies, search, reachability.
//! * [`expressivity`] — the paper's constructions (Figure 1, Theorems
//!   2.1–2.3).
//! * [`dynnet`] — dynamic-network protocol simulations.
//! * [`serve`] — the always-on query service: lock-free snapshot
//!   publication over a live stream, epoch-pinned concurrent readers.
//! * [`scenarios`] — the declarative scenario runtime (text specs →
//!   canonical JSON reports; the `tvg-cli` binary drives it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tvg_bigint as bigint;
pub use tvg_dynnet as dynnet;
pub use tvg_expressivity as expressivity;
pub use tvg_journeys as journeys;
pub use tvg_langs as langs;
pub use tvg_model as model;
pub use tvg_scenarios as scenarios;
pub use tvg_serve as serve;
