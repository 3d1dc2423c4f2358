//! The live-vs-recompile differential oracle for streaming ingestion.
//!
//! `tvg_model::stream` promises two things after every ingested batch:
//!
//! 1. the incrementally-maintained [`tvg_model::LiveIndex`] is
//!    **structurally identical** to `TvgIndex::compile` of the
//!    accumulated schedule ([`TvgStream::to_tvg`]) at the current
//!    horizon — same presence spans, same CSR adjacency, same
//!    monotonicity cache, and an edge-event count of twice the spans;
//! 2. a repaired [`IncrementalForemost`] answers exactly like a *fresh*
//!    engine run on that recompiled index — identical arrivals
//!    everywhere, identical witnesses for the exact explorers
//!    (`NoWait`/`Bounded`), and semantically equivalent witnesses (same
//!    arrival, same hops, validates hop by hop) for the Pareto explorer
//!    (`Unbounded`), whose tie-break between equally-foremost routes is
//!    label-allocation order, which repair deliberately does not replay;
//! 3. under the exact explorers a presence-repairing refresh raises the
//!    tree's `expanded` counter by exactly a fresh run's `expanded` on
//!    that recompiled index, however much of the replay it skipped.
//!
//! Like `tickscan` and `batchcheck`, this lives in the testkit so every
//! crate's suite can apply the same oracle to its own streams; the
//! `stream_props` property suite applies it after every generated batch.

use tvg_journeys::{
    foremost_tree_multi, ForemostTree, IncrementalForemost, Journey, WaitingPolicy,
};
use tvg_model::stream::{IngestReport, TvgStream};
use tvg_model::{NodeId, TemporalIndex, Time, Tvg, TvgIndex};

/// Asserts that `stream`'s live index is structurally identical to a
/// from-scratch `TvgIndex::compile` of the accumulated schedule at the
/// stream's current horizon.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first structural
/// divergence, or if the stream has no nodes yet.
pub fn assert_live_matches_recompile<T: Time>(stream: &TvgStream<T>, label: &str) {
    let live = stream.index();
    let g = stream.to_tvg();
    let compiled = TvgIndex::compile(&g, live.horizon().clone());
    assert_eq!(
        live.tvg().num_nodes(),
        g.num_nodes(),
        "{label}: node count diverges"
    );
    assert_eq!(
        live.tvg().num_edges(),
        g.num_edges(),
        "{label}: edge count diverges"
    );
    for e in g.edges() {
        assert_eq!(
            live.presence(e).spans(),
            compiled.presence(e).spans(),
            "{label}: presence spans of {e} diverge"
        );
        assert_eq!(
            live.arrival_is_monotone(e),
            compiled.arrival_is_monotone(e),
            "{label}: monotonicity cache of {e} diverges"
        );
    }
    for n in g.nodes() {
        assert_eq!(
            live.out_edges(n),
            compiled.out_edges(n),
            "{label}: adjacency of {n}"
        );
    }
    // Span equality above covers everything a timeline encoded; the
    // count is the one derived figure reports carry.
    let spans: usize = g.edges().map(|e| compiled.presence(e).num_spans()).sum();
    assert_eq!(
        compiled.num_edge_events(),
        2 * spans,
        "{label}: compiled event count is not twice the spans"
    );
    assert_eq!(
        live.num_edge_events(),
        2 * spans,
        "{label}: live event count is not twice the spans"
    );
}

/// Asserts that a repaired [`IncrementalForemost`] matches a fresh
/// engine run on the recompiled accumulated schedule: arrivals equal at
/// every node; witnesses byte-identical under the exact explorers,
/// semantically equivalent (same arrival, same hops, validates from a
/// seed) under the Pareto explorer. A deferred seed, naming a node the
/// stream does not hold yet, seeds neither run. The tree's reached
/// counter must equal its count of reached nodes.
///
/// # Panics
///
/// Panics (with `label` in the message) on the first divergence.
pub fn assert_incremental_matches_fresh<T: Time>(
    stream: &TvgStream<T>,
    inc: &IncrementalForemost<T>,
    label: &str,
) {
    let (g, seeds, fresh) = fresh_run(stream, inc);
    let policy = inc.policy();
    assert_eq!(
        inc.num_reached(),
        g.nodes().filter(|&n| inc.arrival(n).is_some()).count(),
        "{label}: reached counter diverges from the reached nodes under {policy}"
    );
    for node in g.nodes() {
        assert_eq!(
            inc.arrival(node),
            fresh.arrival(node),
            "{label}: arrival at {node} diverges under {policy}"
        );
        let live_witness = inc.journey_to(node);
        let fresh_witness = fresh.journey_to(node);
        match policy {
            WaitingPolicy::Unbounded => match (&live_witness, &fresh_witness) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.num_hops(),
                        b.num_hops(),
                        "{label}: witness hops to {node} diverge under {policy}"
                    );
                    assert_eq!(
                        a.arrival(),
                        b.arrival(),
                        "{label}: witness arrival at {node} diverges under {policy}"
                    );
                    assert!(
                        witness_realizes(&g, &seeds, policy, a, node),
                        "{label}: repaired witness to {node} does not validate under {policy}"
                    );
                }
                (None, None) => {}
                _ => panic!("{label}: witness existence diverges at {node} under {policy}"),
            },
            _ => assert_eq!(
                live_witness, fresh_witness,
                "{label}: witness to {node} diverges under {policy}"
            ),
        }
    }
}

/// Asserts the exact work accounting of one refresh: under `NoWait` and
/// `Bounded`, a refresh that repaired presence
/// (`report.earliest_change` is `Some`) raised `inc`'s `expanded` from
/// `expanded_before` by exactly the `expanded` of a fresh engine run on
/// the recompiled accumulated schedule. The skipped part of a replay
/// adds recorded counts, so this pins every record as exact. Pareto
/// trees and pure topology batches are not checked.
///
/// # Panics
///
/// Panics (with `label` in the message) if the counts differ.
pub fn assert_repair_work_matches_fresh<T: Time>(
    stream: &TvgStream<T>,
    inc: &IncrementalForemost<T>,
    expanded_before: u64,
    report: &IngestReport<T>,
    label: &str,
) {
    if report.earliest_change.is_none() || *inc.policy() == WaitingPolicy::Unbounded {
        return;
    }
    let (_, _, fresh) = fresh_run(stream, inc);
    assert_eq!(
        inc.stats().expanded - expanded_before,
        fresh.stats().expanded,
        "{label}: repair expansion work diverges from a fresh run under {}",
        inc.policy()
    );
}

/// The accumulated schedule, the seeds `inc` can explore from, and a
/// fresh run from them on the recompiled schedule. A deferred seed,
/// naming a node the stream does not hold yet, is left out.
fn fresh_run<T: Time>(
    stream: &TvgStream<T>,
    inc: &IncrementalForemost<T>,
) -> (Tvg<T>, Vec<(NodeId, T)>, ForemostTree<T>) {
    let g = stream.to_tvg();
    let compiled = TvgIndex::compile(&g, stream.index().horizon().clone());
    let seeds: Vec<(NodeId, T)> = inc
        .seeds()
        .iter()
        .filter(|(s, _)| s.index() < g.num_nodes())
        .cloned()
        .collect();
    let fresh = foremost_tree_multi(&compiled, &seeds, inc.policy(), inc.limits());
    (g, seeds, fresh)
}

/// Whether `j` is a valid journey from one of `seeds` to `node` under
/// `policy` (an empty journey requires `node` to be a seed).
fn witness_realizes<T: Time>(
    g: &Tvg<T>,
    seeds: &[(NodeId, T)],
    policy: &WaitingPolicy<T>,
    j: &Journey<T>,
    node: NodeId,
) -> bool {
    if j.is_empty() {
        return seeds.iter().any(|(s, _)| *s == node);
    }
    seeds
        .iter()
        .any(|(s, t)| j.validate(g, *s, t, policy).is_ok() && j.destination(g, *s) == node)
}
