//! Broadcast with and without buffering — the paper's motivation,
//! quantified.
//!
//! The introduction argues that protocol design is easier when the
//! environment provides *store-carry-forward* mechanisms (local
//! buffering) than when it does not. Here both regimes run on the same
//! contact trace:
//!
//! * [`ForwardingMode::StoreCarryForward`] — an informed node buffers the
//!   message forever and forwards on every later contact (indirect
//!   journeys: waiting allowed).
//! * [`ForwardingMode::NoWaitRelay`] — a relay can forward the message
//!   *only in the step it arrives*; if the relay has no contact at that
//!   exact step, its copy is lost (direct journeys: waiting forbidden).
//!   The source itself may re-beacon every step (`source_beacons`), so
//!   the comparison isolates the effect of *relay* buffering.

use crate::metrics::DeliveryStats;
use crate::EvolvingTrace;
use tvg_journeys::{Batch, BatchRunner, EngineStats, SearchLimits, WaitingPolicy};
use tvg_model::{NodeId, TemporalIndex, Time, TvgIndex};

/// Relay discipline of a broadcast.
///
/// The three variants are the protocol-level mirror of the paper's three
/// waiting regimes: `StoreCarryForward` ↔ unbounded waiting,
/// `BoundedBuffer(d)` ↔ `wait[d]`, `NoWaitRelay` ↔ no waiting.
/// `BoundedBuffer(0)` behaves exactly like `NoWaitRelay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingMode {
    /// Informed nodes buffer and forward on every later contact.
    StoreCarryForward,
    /// Relays forward only in the arrival step; copies die otherwise.
    NoWaitRelay,
    /// Relays buffer a copy for at most `d` steps after arrival, then
    /// drop it — the `wait[d]` regime as a protocol.
    BoundedBuffer(u64),
}

/// Configuration of a broadcast run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastConfig {
    /// The node where the message originates.
    pub source: usize,
    /// Relay discipline.
    pub mode: ForwardingMode,
    /// Whether the source re-emits at every step (it owns the message, so
    /// buffering at the source is usually assumed even without relays).
    pub source_beacons: bool,
}

/// Result of a broadcast run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// For each node, the step at which it first held the message
    /// (`Some(0)` for the source).
    pub informed_at: Vec<Option<u64>>,
}

impl BroadcastOutcome {
    /// Summary statistics of the run.
    #[must_use]
    pub fn stats(&self) -> DeliveryStats {
        DeliveryStats::from_informed_times(&self.informed_at)
    }
}

/// Runs a broadcast over `trace`.
///
/// Semantics per step `t`: every node holding an *active* copy transmits
/// over each contact present at `t`; receivers hold the message from step
/// `t + 1`. Under store-carry-forward every informed node stays active
/// forever; under a bounded buffer a copy stays active for `d` further
/// steps after arrival; under no-wait relaying a copy is active only in
/// its arrival step. The source stays active iff `source_beacons`
/// (except under store-carry-forward, where it always does).
///
/// These are exactly journey semantics on the trace-TVG: a copy active
/// for `d` steps after arrival is a traveler allowed to pause at most
/// `d`, and a beaconing source is a journey allowed to depart the source
/// at *any* step. The implementation therefore compiles the trace-TVG
/// once ([`EvolvingTrace::to_tvg`], the index `delivery_ratio` also
/// runs on) and makes one multi-seed single-source engine pass over it
/// ([`broadcast_plan`]) — a node's informing step is its foremost
/// arrival (seeding the source at every step models beaconing; flood
/// re-activations on re-receipt are just later `(node, time)`
/// configurations of the same search).
///
/// # Panics
///
/// Panics if `config.source` is out of range.
#[must_use]
pub fn run_broadcast(trace: &EvolvingTrace, config: &BroadcastConfig) -> BroadcastOutcome {
    assert!(config.source < trace.num_nodes(), "source out of range");
    let horizon = trace.len() as u64;
    let policy = match config.mode {
        ForwardingMode::StoreCarryForward => WaitingPolicy::Unbounded,
        ForwardingMode::NoWaitRelay => WaitingPolicy::NoWait,
        // A buffer outlasting the trace is unbounded within it (and the
        // explicit mapping keeps `ready + d` from overflowing).
        ForwardingMode::BoundedBuffer(d) if d >= horizon => WaitingPolicy::Unbounded,
        ForwardingMode::BoundedBuffer(d) => WaitingPolicy::Bounded(d),
    };
    let g = trace.to_tvg();
    let index = TvgIndex::compile(&g, horizon);
    let limits = SearchLimits::new(horizon, trace.len());
    let (mut outcomes, _stats) = broadcast_plan(
        &index,
        &policy,
        config.source_beacons,
        &[config.source],
        &limits,
        Batch::serial(),
    );
    outcomes.pop().expect("one source, one outcome")
}

/// Runs one broadcast per listed source over any compiled index — the
/// plan-level entry point the scenario runtime (`tvg-scenarios`) calls
/// on generator-built TVGs, and the driver the trace-based
/// [`run_broadcast`] delegates to.
///
/// The waiting policy *is* the relay discipline (`Unbounded` ↔
/// store-carry-forward, `Bounded(d)` ↔ a `d`-step buffer, `NoWait` ↔
/// relay-in-arrival-step-only). A beaconing source re-emits at every
/// instant up to the limits' horizon: it is seeded once per instant
/// (under unbounded waiting a single seed already departs whenever it
/// likes, so one seed suffices). Each outcome's `informed_at[source]`
/// is pinned to `Some(0)`.
///
/// Returns the outcomes in source order plus the summed engine work
/// (one multi-seed engine run per source, at any thread count).
///
/// # Panics
///
/// Panics if a source is out of range for the index's graph.
#[must_use]
pub fn broadcast_plan<T: Time + Send + Sync, I: TemporalIndex<T> + Sync>(
    index: &I,
    policy: &WaitingPolicy<T>,
    source_beacons: bool,
    sources: &[usize],
    limits: &SearchLimits<T>,
    batch: Batch,
) -> (Vec<BroadcastOutcome>, EngineStats) {
    let n = index.num_nodes();
    // A beaconing source re-emits at every step: seed one configuration
    // per instant. Under unbounded waiting a single seed already departs
    // whenever it likes (the source always beacons under SCF).
    let seed_sets: Vec<Vec<(NodeId, T)>> = sources
        .iter()
        .map(|&source| {
            assert!(source < n, "source out of range");
            let source = NodeId::from_index(source);
            if matches!(policy, WaitingPolicy::Unbounded) || !source_beacons {
                vec![(source, T::zero())]
            } else {
                let mut seeds = Vec::new();
                let mut t = T::zero();
                loop {
                    seeds.push((source, t.clone()));
                    if t >= limits.horizon {
                        break;
                    }
                    t = t.succ();
                }
                seeds
            }
        })
        .collect();
    // Worker-side reduction: each tree collapses to its informed_at
    // vector inside the worker (a plan holds outcomes, not trees).
    // Informed-at steps are widened back to `u64` so outcomes are
    // domain-independent (`u32`-narrowed runs report identical bytes).
    let (outcomes, stats) =
        BatchRunner::new(index, batch).map_seed_sets(&seed_sets, policy, limits, |seeds, tree| {
            let source = seeds[0].0.index();
            let informed_at = (0..n)
                .map(|node| {
                    if node == source {
                        Some(0)
                    } else {
                        tree.arrival(NodeId::from_index(node))
                            .and_then(Time::to_u64)
                    }
                })
                .collect();
            BroadcastOutcome { informed_at }
        });
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markovian::{edge_markovian_trace, EdgeMarkovianParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn scf(source: usize) -> BroadcastConfig {
        BroadcastConfig {
            source,
            mode: ForwardingMode::StoreCarryForward,
            source_beacons: true,
        }
    }

    fn nowait(source: usize) -> BroadcastConfig {
        BroadcastConfig {
            source,
            mode: ForwardingMode::NoWaitRelay,
            source_beacons: true,
        }
    }

    /// Source 0 under `mode`, emitting only at step 0.
    fn silent(mode: ForwardingMode) -> BroadcastConfig {
        BroadcastConfig {
            source: 0,
            mode,
            source_beacons: false,
        }
    }

    /// The paper's archetype: 0 meets 1, later 1 meets 2. Buffering at
    /// node 1 is the only way to deliver to 2.
    fn gap_trace() -> EvolvingTrace {
        EvolvingTrace::new(
            3,
            vec![
                BTreeSet::from([(0, 1)]),
                BTreeSet::new(),
                BTreeSet::from([(1, 2)]),
                BTreeSet::new(),
            ],
        )
    }

    #[test]
    fn buffering_bridges_the_gap() {
        let outcome = run_broadcast(&gap_trace(), &scf(0));
        assert_eq!(outcome.informed_at, vec![Some(0), Some(1), Some(3)]);
        let stats = outcome.stats();
        assert_eq!(stats.delivery_ratio, 1.0);
        assert_eq!(stats.max_time, Some(3));
    }

    #[test]
    fn no_wait_relay_loses_the_copy() {
        let outcome = run_broadcast(&gap_trace(), &nowait(0));
        // Node 1 receives at step 1 but has no contact at step 1: its copy
        // dies; node 2 is never informed.
        assert_eq!(outcome.informed_at, vec![Some(0), Some(1), None]);
        assert!((outcome.stats().delivery_ratio - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_wait_succeeds_on_back_to_back_contacts() {
        // 0-1 at step 0, 1-2 at step 1: the relay can forward immediately.
        let tr = EvolvingTrace::new(3, vec![BTreeSet::from([(0, 1)]), BTreeSet::from([(1, 2)])]);
        let outcome = run_broadcast(&tr, &nowait(0));
        assert_eq!(outcome.informed_at, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn source_beaconing_matters() {
        // Source's only contact happens twice; without beaconing the
        // second emission never happens.
        let tr = EvolvingTrace::new(2, vec![BTreeSet::new(), BTreeSet::from([(0, 1)])]);
        let with = run_broadcast(&tr, &nowait(0));
        assert_eq!(with.informed_at[1], Some(2));
        let without = run_broadcast(&tr, &silent(ForwardingMode::NoWaitRelay));
        // Source copy is active only at step 0, no contact then.
        assert_eq!(without.informed_at[1], None);
    }

    #[test]
    fn bounded_buffer_interpolates() {
        // d = 0 ≡ no-wait relaying; huge d ≡ store-carry-forward;
        // delivery is monotone in d.
        for seed in 0..8u64 {
            let params = EdgeMarkovianParams {
                num_nodes: 10,
                p_birth: 0.04,
                p_death: 0.5,
                steps: 50,
            };
            let tr = edge_markovian_trace(&mut StdRng::seed_from_u64(seed), &params);
            let run = |mode| {
                run_broadcast(
                    &tr,
                    &BroadcastConfig {
                        source: 0,
                        mode,
                        source_beacons: true,
                    },
                )
            };
            assert_eq!(
                run(ForwardingMode::BoundedBuffer(0)).informed_at,
                run(ForwardingMode::NoWaitRelay).informed_at,
                "seed {seed}: d=0 must equal no-wait"
            );
            assert_eq!(
                run(ForwardingMode::BoundedBuffer(u64::MAX)).informed_at,
                run(ForwardingMode::StoreCarryForward).informed_at,
                "seed {seed}: d=∞ must equal scf"
            );
            let mut prev = run(ForwardingMode::BoundedBuffer(0)).stats().delivery_ratio;
            for d in [1u64, 2, 4, 8, 16] {
                let cur = run(ForwardingMode::BoundedBuffer(d)).stats().delivery_ratio;
                assert!(cur >= prev, "seed {seed}: delivery must be monotone in d");
                prev = cur;
            }
        }
    }

    #[test]
    fn bounded_buffer_bridges_exact_gaps() {
        // Contact at step 0, next at step 3: the relay needs to hold the
        // copy for 2 extra steps.
        let tr = EvolvingTrace::new(
            3,
            vec![
                BTreeSet::from([(0, 1)]),
                BTreeSet::new(),
                BTreeSet::new(),
                BTreeSet::from([(1, 2)]),
            ],
        );
        let run = |d| run_broadcast(&tr, &silent(ForwardingMode::BoundedBuffer(d)));
        // Copy arrives at node 1 at step 1; the contact is at step 3, so
        // the buffer must last ≥ 2 further steps.
        assert_eq!(run(1).informed_at[2], None);
        assert_eq!(run(2).informed_at[2], Some(4));
    }

    #[test]
    fn scf_dominates_nowait_on_random_traces() {
        // On every seeded trace, SCF informs a superset of nodes, no
        // later.
        for seed in 0..10u64 {
            let params = EdgeMarkovianParams {
                num_nodes: 12,
                p_birth: 0.05,
                p_death: 0.4,
                steps: 60,
            };
            let tr = edge_markovian_trace(&mut StdRng::seed_from_u64(seed), &params);
            let s = run_broadcast(&tr, &scf(0));
            let nw = run_broadcast(&tr, &nowait(0));
            for node in 0..12 {
                match (s.informed_at[node], nw.informed_at[node]) {
                    (None, Some(_)) => {
                        panic!("seed {seed}: nowait informed node {node}, scf didn't")
                    }
                    (Some(ts), Some(tn)) => assert!(ts <= tn, "seed {seed} node {node}"),
                    _ => {}
                }
            }
            assert!(s.stats().delivery_ratio >= nw.stats().delivery_ratio);
        }
    }

    #[test]
    fn broadcast_agrees_with_journey_semantics() {
        // Each relay discipline informs a node exactly when the foremost
        // journey under the matching waiting policy arrives on the
        // trace-TVG: SCF ↔ unbounded waiting, a d-step buffer ↔ wait[d],
        // no-wait relaying (without beaconing) ↔ direct journeys. This
        // pins the simulator to the paper's formal definitions.
        use tvg_journeys::foremost_journey;
        for seed in 0..6u64 {
            let params = EdgeMarkovianParams {
                num_nodes: 8,
                p_birth: 0.1,
                p_death: 0.5,
                steps: 25,
            };
            let tr = edge_markovian_trace(&mut StdRng::seed_from_u64(seed), &params);
            let g = tr.to_tvg();
            let limits = SearchLimits::new(tr.len() as u64, tr.len() + 1);
            for (config, policy) in [
                (scf(0), WaitingPolicy::Unbounded),
                (silent(ForwardingMode::NoWaitRelay), WaitingPolicy::NoWait),
                (
                    silent(ForwardingMode::BoundedBuffer(2)),
                    WaitingPolicy::Bounded(2),
                ),
                (
                    silent(ForwardingMode::BoundedBuffer(8)),
                    WaitingPolicy::Bounded(8),
                ),
            ] {
                let run = run_broadcast(&tr, &config);
                for node in 1..8usize {
                    let arrival = foremost_journey(
                        &g,
                        NodeId::from_index(0),
                        NodeId::from_index(node),
                        &0,
                        &policy,
                        &limits,
                    )
                    .and_then(|j| j.arrival().copied());
                    assert_eq!(
                        run.informed_at[node], arrival,
                        "seed {seed} node {node} ({:?} vs {policy} journey)",
                        config.mode
                    );
                }
            }
        }
    }
}
