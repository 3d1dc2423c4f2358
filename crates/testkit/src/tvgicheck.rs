//! The `.tvgi` round-trip oracle: a [`ShardedIndex`] opened from a
//! file written by [`write_tvgi`] must answer **bit-identically** to
//! the in-memory [`TvgIndex`] it serialized — same arrival at every
//! node, same witness journey to every node, same engine work counters
//! — under every waiting policy and at every shard count.
//!
//! This is the contract that makes the compile-once workflow sound:
//! `tvg-cli compile` + `run --index` may substitute the file-backed
//! index for a fresh compile anywhere, because nothing observable
//! distinguishes them. Sharding must be invisible too — the file's
//! node-range partition is a storage layout, not a semantic boundary,
//! so the oracle sweeps shard counts including degenerate (1) and
//! more-shards-than-nodes cases.
//!
//! Like the other testkit oracles this is a library function so every
//! suite can apply it to its own graphs; `tvgi_props` applies it to
//! the bundled scenario graphs × 3 policies × shard counts 1/2/4.

use std::path::PathBuf;
use tvg_journeys::{foremost_tree, SearchLimits, WaitingPolicy};
use tvg_model::tvgi::{write_tvgi, ShardedIndex, TvgiTime};
use tvg_model::{TemporalIndex, Tvg, TvgIndex};

/// A scratch `.tvgi` path unique to `label` within this test process.
/// Seed-stable (no wall clock): collisions across processes are
/// prevented by the pid, within a process by the label.
#[must_use]
pub fn scratch_path(label: &str) -> PathBuf {
    let sanitized: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    std::env::temp_dir().join(format!("tvgi-{}-{sanitized}.tvgi", std::process::id()))
}

/// Asserts that `g` compiled at `horizon` and round-tripped through a
/// `.tvgi` file at `shards` answers bit-identically to the in-memory
/// index: for every source node and each of `policies`, the foremost
/// tree's arrivals, witness journeys, and [`tvg_journeys::EngineStats`]
/// are equal. Also pins the structural accessors (presence spans,
/// adjacency, destinations) and the edge-event count (twice the spans
/// on both sides).
///
/// # Panics
///
/// Panics (with `label` in the message) on the first divergence, or if
/// the scratch file cannot be written.
pub fn assert_tvgi_round_trip<T: TvgiTime>(
    g: &Tvg<T>,
    horizon: T,
    shards: u32,
    policies: &[WaitingPolicy<T>],
    label: &str,
) {
    let index = TvgIndex::compile(g, horizon);
    let path = scratch_path(&format!("{label}-s{shards}"));
    write_tvgi(&index, shards, None, &path)
        .unwrap_or_else(|e| panic!("{label}: write_tvgi failed: {e}"));
    let mapped =
        ShardedIndex::<T>::open(&path).unwrap_or_else(|e| panic!("{label}: open failed: {e}"));

    // Structural equality first: the mapped index exposes the same
    // graph the compiled one does.
    assert_eq!(mapped.num_nodes(), g.num_nodes(), "{label}: node count");
    assert_eq!(mapped.num_edges(), g.num_edges(), "{label}: edge count");
    for e in g.edges() {
        assert_eq!(
            mapped.presence(e).spans(),
            index.presence(e).spans(),
            "{label}: presence spans of {e} diverge"
        );
        assert_eq!(
            mapped.arrival_is_monotone(e),
            index.arrival_is_monotone(e),
            "{label}: monotonicity of {e} diverges"
        );
        assert_eq!(mapped.dst(e), index.dst(e), "{label}: destination of {e}");
    }
    for n in g.nodes() {
        assert_eq!(
            mapped.out_edges(n),
            index.out_edges(n),
            "{label}: adjacency of {n} diverges"
        );
        assert_eq!(mapped.node_name(n), g.node_name(n), "{label}: name of {n}");
    }
    let spans: usize = g.edges().map(|e| index.presence(e).num_spans()).sum();
    assert_eq!(
        index.num_edge_events(),
        2 * spans,
        "{label}: compiled event count is not twice the spans"
    );
    assert_eq!(
        mapped.num_edge_events(),
        2 * spans,
        "{label}: mapped event count is not twice the spans"
    );

    // Behavioral equality: every engine answer, witness, and counter.
    let limits = SearchLimits::new(horizon, usize::MAX);
    for policy in policies {
        for src in g.nodes() {
            let on_compiled = foremost_tree(&index, src, &T::zero(), policy, &limits);
            let on_mapped = foremost_tree(&mapped, src, &T::zero(), policy, &limits);
            assert_eq!(
                on_compiled.stats(),
                on_mapped.stats(),
                "{label}: engine stats diverge from {src} under {policy}"
            );
            for node in g.nodes() {
                assert_eq!(
                    on_compiled.arrival(node),
                    on_mapped.arrival(node),
                    "{label}: arrival at {node} from {src} diverges under {policy}"
                );
                assert_eq!(
                    on_compiled.journey_to(node),
                    on_mapped.journey_to(node),
                    "{label}: witness to {node} from {src} diverges under {policy}"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
