//! Property tests for the dynamic-network simulations: dominance laws,
//! semantic pinning to journeys, and trace normalization.
//!
//! Runs on `tvg-testkit`'s deterministic harness; random traces come
//! from `tvg_testkit::gen::{markovian_params, markovian_trace}`.

use rand::Rng;
use std::collections::BTreeSet;
use tvg_dynnet::broadcast::{run_broadcast, BroadcastConfig, ForwardingMode};
use tvg_dynnet::metrics::DeliveryStats;
use tvg_dynnet::EvolvingTrace;
use tvg_testkit::gen;
use tvg_testkit::Config;

#[test]
fn scf_dominates_nowait_pointwise() {
    let cfg = Config::named_with_cases("scf_dominates_nowait_pointwise", 48);
    tvg_testkit::check_with(cfg, |rng, _| {
        let trace = gen::markovian_trace(rng);
        let scf = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::StoreCarryForward,
                source_beacons: true,
            },
        );
        let nw = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::NoWaitRelay,
                source_beacons: true,
            },
        );
        for node in 0..trace.num_nodes() {
            match (scf.informed_at[node], nw.informed_at[node]) {
                (None, Some(_)) => panic!("no-wait informed node {node}, scf did not"),
                (Some(a), Some(b)) => assert!(a <= b),
                _ => {}
            }
        }
    });
}

#[test]
fn beaconing_only_helps() {
    let cfg = Config::named_with_cases("beaconing_only_helps", 48);
    tvg_testkit::check_with(cfg, |rng, _| {
        let trace = gen::markovian_trace(rng);
        let with = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::NoWaitRelay,
                source_beacons: true,
            },
        );
        let without = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::NoWaitRelay,
                source_beacons: false,
            },
        );
        assert!(with.stats().delivery_ratio >= without.stats().delivery_ratio);
    });
}

#[test]
fn informed_times_are_causal() {
    let cfg = Config::named_with_cases("informed_times_are_causal", 48);
    tvg_testkit::check_with(cfg, |rng, _| {
        let trace = gen::markovian_trace(rng);
        let scf = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::StoreCarryForward,
                source_beacons: true,
            },
        );
        assert_eq!(scf.informed_at[0], Some(0));
        for node in 0..trace.num_nodes() {
            if let Some(t) = scf.informed_at[node] {
                assert!(t as usize <= trace.len());
            }
        }
    });
}

#[test]
fn delivery_stats_are_consistent() {
    tvg_testkit::check("delivery_stats_are_consistent", |rng, _| {
        let len = rng.gen_range(1usize..30);
        let times: Vec<Option<u64>> = (0..len)
            .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0u64..100)))
            .collect();
        let stats = DeliveryStats::from_informed_times(&times);
        assert!((0.0..=1.0).contains(&stats.delivery_ratio));
        let informed: Vec<u64> = times.iter().flatten().copied().collect();
        if informed.is_empty() {
            assert_eq!(stats.mean_time, None);
            assert_eq!(stats.max_time, None);
        } else {
            let max = *informed.iter().max().expect("nonempty");
            assert_eq!(stats.max_time, Some(max));
            let mean = stats.mean_time.expect("nonempty");
            assert!(mean <= max as f64);
            if let Some(p95) = stats.p95_time {
                assert!(p95 <= max);
            }
        }
    });
}

#[test]
fn stationary_density_within_bounds() {
    tvg_testkit::check("stationary_density_within_bounds", |rng, _| {
        let d = gen::markovian_params(rng).stationary_density();
        assert!((0.0..=1.0).contains(&d));
    });
}

#[test]
fn trace_contacts_are_normalized() {
    let cfg = Config::named_with_cases("trace_contacts_are_normalized", 48);
    tvg_testkit::check_with(cfg, |rng, _| {
        // Every contact is a pair of distinct in-range nodes, so its
        // conversion holds both orientations under one schedule.
        let trace = gen::markovian_trace(rng);
        let g = trace.to_tvg();
        for pair in g.edges().collect::<Vec<_>>().chunks(2) {
            let (ab, ba) = (g.edge(pair[0]), g.edge(pair[1]));
            assert!(ab.src().index() < ab.dst().index());
            assert!(ab.dst().index() < trace.num_nodes());
            assert_eq!((ba.src(), ba.dst()), (ab.dst(), ab.src()));
            for t in 0..trace.len() as u64 {
                assert_eq!(ab.presence().is_present(&t), ba.presence().is_present(&t));
            }
        }
    });
}

#[test]
fn tvg_conversion_has_matching_contacts() {
    let cfg = Config::named_with_cases("tvg_conversion_has_matching_contacts", 32);
    tvg_testkit::check_with(cfg, |rng, _| {
        let trace = gen::markovian_trace(rng);
        let g = trace.to_tvg();
        assert_eq!(g.num_nodes(), trace.num_nodes());
        // Every contact is traversable in both directions at its
        // instant: the conversion's snapshots rebuild the trace.
        let mut snapshots = Vec::new();
        for t in 0..trace.len() {
            let snapshot: BTreeSet<(usize, usize)> = g
                .snapshot(&(t as u64))
                .into_iter()
                .map(|e| {
                    let edge = g.edge(e);
                    let (a, b) = (edge.src().index(), edge.dst().index());
                    (a.min(b), a.max(b))
                })
                .collect();
            snapshots.push(snapshot);
        }
        assert_eq!(EvolvingTrace::new(trace.num_nodes(), snapshots), trace);
    });
}
