//! Properties of the serve runtime, applied to generated workloads via
//! the [`servecheck`] oracles:
//!
//! * a reader holding an old `Arc<ServeSnapshot>` computes
//!   byte-identical answers while the writer concurrently publishes
//!   every later epoch (the snapshot-pinning property);
//! * every concurrently-served answer equals a from-scratch engine run
//!   on a fresh stream that ingested exactly the request's pinned tick
//!   prefix (the serve-vs-offline differential);
//! * the logical outcome is identical at reader counts 1, 2, and 4 —
//!   the invariance the CI golden gate relies on;
//! * the per-epoch publication counters (events, chunks shared, chunks
//!   copied-on-write) of a concurrent run equal a single-threaded
//!   offline replay of the same ticks;
//! * every structure-sharing snapshot is byte-identical to a
//!   from-scratch rebuild of its epoch's tick prefix, even while the
//!   stream keeps mutating the shared chunks underneath;
//! * counters and reader-count invariance hold at both ends of epoch
//!   release: every request on the final epoch, or one on every epoch.

use rand::Rng;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_model::generators::{edge_markovian_contacts, scale_free_temporal};
use tvg_model::Tvg;
use tvg_serve::{availability, generate_load, LoadSpec, ServeConfig, TimedRequest};
use tvg_testkit::{fixtures, servecheck, Config};

/// Draws a small serve workload: a contact schedule, its horizon, and
/// an ingest tick size.
fn workload<R: Rng + ?Sized>(rng: &mut R) -> (Tvg<u64>, u64, usize) {
    if rng.gen_bool(0.5) {
        let horizon = rng.gen_range(12..24);
        let g = scale_free_temporal(rng.gen_range(6..12), horizon, rng.gen::<u64>());
        (g, horizon, rng.gen_range(4..12))
    } else {
        let horizon = rng.gen_range(10..20);
        let g = edge_markovian_contacts(rng.gen_range(5..9), horizon, 0.3, 0.4, rng.gen::<u64>());
        (g, horizon, rng.gen_range(3..9))
    }
}

fn config_for(
    g: &Tvg<u64>,
    horizon: u64,
    policy: WaitingPolicy<u64>,
    readers: usize,
) -> ServeConfig {
    let _ = g;
    ServeConfig {
        readers,
        policy,
        limits: SearchLimits::new(horizon, horizon as usize + 1),
        start: 0,
    }
}

#[test]
fn pinned_snapshots_answer_identically_under_concurrent_publication() {
    tvg_testkit::check_with(
        Config::named_with_cases("serve::pinning", 12),
        |rng, case| {
            let (g, horizon, chunk) = workload(rng);
            for policy in fixtures::policies(2) {
                servecheck::assert_pinned_snapshot_is_frozen(
                    &g,
                    horizon,
                    chunk,
                    &policy,
                    &format!("serve::pinning case {case} under {policy}"),
                );
            }
        },
    );
}

#[test]
fn served_answers_match_offline_recomputation_of_their_epoch() {
    tvg_testkit::check_with(
        Config::named_with_cases("serve::offline", 10),
        |rng, case| {
            let (g, horizon, chunk) = workload(rng);
            let requests = generate_load(&LoadSpec {
                requests: rng.gen_range(8..24),
                mean_gap: rng.gen_range(1..4),
                mix: (2, 1, 1),
                nodes: g.num_nodes(),
                seed_instant: 0,
                seed: rng.gen::<u64>(),
            });
            let policy = fixtures::policies(2)[case % 3];
            let config = config_for(&g, horizon, policy, rng.gen_range(1..5));
            servecheck::assert_serve_matches_offline(
                &g,
                horizon,
                chunk,
                &requests,
                &config,
                &format!("serve::offline case {case} under {policy}"),
            );
        },
    );
}

#[test]
fn serve_outcome_is_reader_count_invariant() {
    tvg_testkit::check_with(
        Config::named_with_cases("serve::readers", 8),
        |rng, case| {
            let (g, horizon, chunk) = workload(rng);
            let requests = generate_load(&LoadSpec {
                requests: rng.gen_range(12..32),
                mean_gap: rng.gen_range(1..3),
                mix: (3, 2, 1),
                nodes: g.num_nodes(),
                seed_instant: 0,
                seed: rng.gen::<u64>(),
            });
            let policy = fixtures::policies(2)[case % 3];
            let config = config_for(&g, horizon, policy, 1);
            servecheck::assert_serve_is_reader_count_invariant(
                &g,
                horizon,
                chunk,
                &requests,
                &config,
                &[1, 2, 4, 8],
                &format!("serve::readers case {case} under {policy}"),
            );
        },
    );
}

#[test]
fn publication_counters_match_offline_replay() {
    tvg_testkit::check_with(
        Config::named_with_cases("serve::publications", 10),
        |rng, case| {
            let (g, horizon, chunk) = workload(rng);
            let requests = generate_load(&LoadSpec {
                requests: rng.gen_range(6..16),
                mean_gap: rng.gen_range(1..4),
                mix: (2, 1, 1),
                nodes: g.num_nodes(),
                seed_instant: 0,
                seed: rng.gen::<u64>(),
            });
            let policy = fixtures::policies(2)[case % 3];
            let config = config_for(&g, horizon, policy, rng.gen_range(1..5));
            servecheck::assert_publication_counters(
                &g,
                horizon,
                chunk,
                &requests,
                &config,
                &format!("serve::publications case {case} under {policy}"),
            );
        },
    );
}

#[test]
fn shared_snapshots_are_structurally_identical_to_rebuilds() {
    tvg_testkit::check_with(
        Config::named_with_cases("serve::structure", 10),
        |rng, case| {
            let (g, horizon, chunk) = workload(rng);
            servecheck::assert_snapshots_match_rebuild(
                &g,
                horizon,
                chunk,
                &format!("serve::structure case {case}"),
            );
        },
    );
}

#[test]
fn release_schedules_keep_counters_and_reader_invariance() {
    tvg_testkit::check_with(
        Config::named_with_cases("serve::release", 8),
        |rng, case| {
            let (g, horizon, chunk) = workload(rng);
            let (_, ticks) = servecheck::replay_ticks(&g, horizon, chunk);
            // Instant 0 and each tick's availability: every pinnable epoch.
            let instants: Vec<u64> = std::iter::once(0).chain(availability(&ticks)).collect();
            let requests = generate_load(&LoadSpec {
                requests: instants.len(),
                mean_gap: 1,
                mix: (2, 1, 1),
                nodes: g.num_nodes(),
                seed_instant: 0,
                seed: rng.gen::<u64>(),
            });
            let policy = fixtures::policies(2)[case % 3];
            let config = config_for(&g, horizon, policy, rng.gen_range(1..5));
            let every_epoch = instants;
            let final_epoch = vec![u64::MAX; every_epoch.len()];
            for (shape, at) in [("final epoch", final_epoch), ("every epoch", every_epoch)] {
                let load: Vec<TimedRequest> = (requests.iter().zip(at))
                    .map(|(r, at)| TimedRequest { at, ..*r })
                    .collect();
                let label = format!("serve::release case {case}, {shape}, under {policy}");
                servecheck::assert_publication_counters(&g, horizon, chunk, &load, &config, &label);
                servecheck::assert_serve_is_reader_count_invariant(
                    &g,
                    horizon,
                    chunk,
                    &load,
                    &config,
                    &[1, 2, 4],
                    &label,
                );
            }
        },
    );
}
