//! Property tests for schedules and TVGs: the dilation contract on
//! arbitrary schedule ASTs, periodicity laws, and traversal invariants.
//!
//! Runs on `tvg-testkit`'s deterministic harness; schedule ASTs come from
//! `tvg_testkit::gen::{presence, latency}`.

use rand::Rng;
use std::collections::BTreeSet;
use tvg_model::{Latency, Presence, Time, TvgBuilder};
use tvg_testkit::gen::{latency, presence};

#[test]
fn dilation_contract_for_presence() {
    tvg_testkit::check("dilation_contract_for_presence", |rng, _| {
        let p = presence(rng, 3);
        let factor = rng.gen_range(1u64..6);
        let t = rng.gen_range(0u64..200);
        let dilated = p.clone().dilate(factor);
        let expected = t % factor == 0 && p.is_present(&(t / factor));
        assert_eq!(dilated.is_present(&t), expected);
    });
}

#[test]
fn dilation_by_one_is_identity() {
    tvg_testkit::check("dilation_by_one_is_identity", |rng, _| {
        let p = presence(rng, 3);
        let t = rng.gen_range(0u64..100);
        assert_eq!(p.clone().dilate(1).is_present(&t), p.is_present(&t));
    });
}

#[test]
fn boolean_combinators_obey_logic() {
    tvg_testkit::check("boolean_combinators_obey_logic", |rng, _| {
        let a = presence(rng, 3);
        let b = presence(rng, 3);
        let t = rng.gen_range(0u64..100);
        let not_a = Presence::Not(Box::new(a.clone()));
        assert_eq!(not_a.is_present(&t), !a.is_present(&t));
        let and = Presence::And(Box::new(a.clone()), Box::new(b.clone()));
        assert_eq!(and.is_present(&t), a.is_present(&t) && b.is_present(&t));
        let or = Presence::Or(Box::new(a.clone()), Box::new(b.clone()));
        assert_eq!(or.is_present(&t), a.is_present(&t) || b.is_present(&t));
    });
}

#[test]
fn next_present_is_sound_and_minimal() {
    tvg_testkit::check("next_present_is_sound_and_minimal", |rng, _| {
        let p = presence(rng, 3);
        let from = rng.gen_range(0u64..60);
        let until = from + rng.gen_range(0u64..40);
        let next = p.intervals(&until).view().next_at_or_after(&from);
        match next.filter(|t| *t <= until) {
            Some(t) => {
                assert!(t >= from && t <= until);
                assert!(p.is_present(&t));
                for earlier in from..t {
                    assert!(!p.is_present(&earlier));
                }
            }
            None => {
                for t in from..=until {
                    assert!(!p.is_present(&t));
                }
            }
        }
    });
}

#[test]
fn latency_dilation_contract() {
    tvg_testkit::check("latency_dilation_contract", |rng, _| {
        let l = latency(rng);
        let factor = rng.gen_range(1u64..6);
        let t = rng.gen_range(0u64..100);
        let dilated = l.clone().dilate(factor);
        if let (Some(inner_arrival), Some(dilated_arrival)) =
            (l.arrival(&t), dilated.arrival(&(t * factor)))
        {
            assert_eq!(dilated_arrival, inner_arrival * factor);
        }
    });
}

#[test]
fn arrival_never_precedes_departure() {
    tvg_testkit::check("arrival_never_precedes_departure", |rng, _| {
        let l = latency(rng);
        let t = rng.gen_range(0u64..1000);
        if let Some(a) = l.arrival(&t) {
            assert!(a >= t);
        }
    });
}

#[test]
fn periodic_schedules_are_periodic() {
    tvg_testkit::check("periodic_schedules_are_periodic", |rng, _| {
        let period = rng.gen_range(1u64..10);
        let count = rng.gen_range(0..6);
        let phases: BTreeSet<u64> = (0..count).map(|_| rng.gen_range(0..period)).collect();
        let t = rng.gen_range(0u64..100);
        let p = Presence::Periodic { period, phases };
        assert_eq!(p.is_present(&t), p.is_present(&(t + period)));
    });
}

#[test]
fn tvg_traversal_respects_schedules() {
    tvg_testkit::check("tvg_traversal_respects_schedules", |rng, _| {
        let p = presence(rng, 3);
        let l = latency(rng);
        let t = rng.gen_range(0u64..100);
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        let e = b
            .edge(v[0], v[1], 'a', p.clone(), l.clone())
            .expect("valid");
        let g = b.build().expect("valid");
        match g.traverse(e, &t) {
            Some(arrival) => {
                assert!(p.is_present(&t));
                assert_eq!(Some(arrival), l.arrival(&t));
            }
            None => {
                assert!(!p.is_present(&t) || l.arrival(&t).is_none());
            }
        }
    });
}

#[test]
fn whole_graph_dilation_matches_edge_dilation() {
    tvg_testkit::check("whole_graph_dilation_matches_edge_dilation", |rng, _| {
        let p = presence(rng, 3);
        let l = latency(rng);
        let d = rng.gen_range(0u64..5);
        let t = rng.gen_range(0u64..120);
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        let e = b.edge(v[0], v[1], 'a', p, l).expect("valid");
        let g = b.build().expect("valid");
        let dilated = g.dilate(d);
        let factor = d + 1;
        // Dilated graph at factor·t behaves as the original at t.
        if t % factor == 0 {
            let orig = g.traverse(e, &(t / factor));
            let dil = dilated.traverse(e, &t);
            assert_eq!(dil, orig.map(|a| a * factor));
        } else {
            assert_eq!(dilated.traverse(e, &t), None);
        }
    });
}

#[test]
fn snapshot_is_consistent_with_presence() {
    tvg_testkit::check("snapshot_is_consistent_with_presence", |rng, _| {
        let p = presence(rng, 3);
        let t = rng.gen_range(0u64..60);
        let mut b = TvgBuilder::<u64>::new();
        let v = b.nodes(2);
        let e = b
            .edge(v[0], v[1], 'x', p.clone(), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        assert_eq!(g.snapshot(&t).contains(&e), p.is_present(&t));
    });
}

#[test]
fn time_trait_laws_u64() {
    tvg_testkit::check("time_trait_laws_u64", |rng, _| {
        let a = rng.gen_range(0u64..1_000_000);
        let b = rng.gen_range(0u64..1_000_000);
        assert_eq!(Time::checked_add(&a, &b), a.checked_add(b));
        if a >= b {
            assert_eq!(Time::checked_sub(&a, &b), Some(a - b));
        } else {
            assert_eq!(Time::checked_sub(&a, &b), None);
        }
        assert_eq!(a.succ(), a + 1);
    });
}

/// Failure modes of the `u32` timeline compression: every way a graph
/// can fail to narrow is a *typed* refusal — never a silent truncation
/// that would quietly corrupt arrivals.
#[test]
fn narrowing_failure_modes_are_typed_errors() {
    use tvg_model::{narrow_tvg, NarrowError};

    // A horizon beyond what u32 can represent is refused up front, even
    // on a graph whose schedule would otherwise narrow fine.
    let mut b = TvgBuilder::<u64>::new();
    let v = b.nodes(2);
    b.edge(v[0], v[1], 'a', Presence::Always, Latency::Const(0))
        .expect("valid");
    let g = b.build().expect("valid");
    let horizon = u64::from(u32::MAX);
    assert_eq!(
        narrow_tvg(&g, horizon).err(),
        Some(NarrowError::HorizonExceedsU32 { horizon }),
        "horizon + 1 must stay representable in u32"
    );

    // A latency whose arrival can overflow u32 within the horizon is
    // refused per edge, not clamped.
    let mut b = TvgBuilder::<u64>::new();
    let v = b.nodes(2);
    let e = b
        .edge(v[0], v[1], 'a', Presence::Always, Latency::Const(1 << 33))
        .expect("valid");
    let g = b.build().expect("valid");
    assert_eq!(
        narrow_tvg(&g, 100).err(),
        Some(NarrowError::ArrivalOverflow { edge: e }),
        "overflowing arrivals are a typed refusal"
    );

    // An opaque latency cannot be proven to fit, so it is refused too —
    // and the error names the offending edge.
    let mut b = TvgBuilder::<u64>::new();
    let v = b.nodes(2);
    let e = b
        .edge(
            v[0],
            v[1],
            'a',
            Presence::Always,
            Latency::Custom(std::sync::Arc::new(|_t: &u64| 1)),
        )
        .expect("valid");
    let g = b.build().expect("valid");
    let err = narrow_tvg(&g, 100).expect_err("custom latency is refused");
    assert_eq!(err, NarrowError::UnprovableLatency { edge: e });
    assert!(
        err.to_string().contains(&e.to_string()),
        "the refusal names the edge: {err}"
    );
}
