//! Dynamic-network protocol simulation: the paper's motivation, measured.
//!
//! *“Clearly the task of designing protocols for these networks is less
//! difficult if the environment allows waiting … than if waiting is not
//! feasible.”* This crate turns that sentence into numbers:
//!
//! * [`EvolvingTrace`] — a concrete contact trace (who meets whom, per
//!   step), convertible to a [`tvg_model::Tvg`] so that the journey
//!   machinery applies verbatim.
//! * [`markovian`] — edge-Markovian random dynamic graphs, the standard
//!   model of highly dynamic, possibly always-disconnected networks.
//! * [`broadcast`] — flooding with store-carry-forward buffering
//!   (indirect journeys) vs. no-wait relaying (direct journeys), on the
//!   same trace. The simulator is pinned to the paper's formal journey
//!   semantics by tests.
//! * [`routing`] — unicast delivery: the fraction of ordered node pairs
//!   a journey connects under each waiting policy.
//! * [`metrics`] — delivery ratios and times, aggregated across seeds.
//! * [`json`] — the minimal JSON encoder and parser behind the scenario
//!   reports.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tvg_dynnet::broadcast::{run_broadcast, BroadcastConfig, ForwardingMode};
//! use tvg_dynnet::markovian::{edge_markovian_trace, EdgeMarkovianParams};
//!
//! let params = EdgeMarkovianParams { num_nodes: 16, p_birth: 0.05, p_death: 0.4, steps: 80 };
//! let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(7), &params);
//!
//! let scf = run_broadcast(&trace, &BroadcastConfig {
//!     source: 0, mode: ForwardingMode::StoreCarryForward, source_beacons: true });
//! let nowait = run_broadcast(&trace, &BroadcastConfig {
//!     source: 0, mode: ForwardingMode::NoWaitRelay, source_beacons: true });
//!
//! // Waiting (buffering) never delivers to fewer nodes.
//! assert!(scf.stats().delivery_ratio >= nowait.stats().delivery_ratio);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod json;
pub mod markovian;
pub mod metrics;
pub mod routing;
mod trace;

pub use trace::EvolvingTrace;
