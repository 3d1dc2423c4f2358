//! Property tests for the compiled interval layer: on every fixture and
//! on random schedule ASTs, `Presence::intervals` must agree with the
//! closure evaluation instant for instant, and the compiled
//! `next_at_or_after` must agree with a scan of the closure.
//!
//! These pin the satellite contract of the temporal index: compilation
//! is a pure change of representation, never of semantics.

use rand::Rng;
use tvg_model::{Presence, TemporalIndex, Time, Tvg, TvgIndex};
use tvg_testkit::fixtures;
use tvg_testkit::gen;

/// The earliest instant in `[from, until]` at which `rho` is present,
/// by linear scan of the closure.
fn scan<T: Time>(rho: &Presence<T>, from: &T, until: &T) -> Option<T> {
    let mut t = from.clone();
    while t <= *until {
        if rho.is_present(&t) {
            return Some(t);
        }
        t = t.succ();
    }
    None
}

/// Asserts closure/compiled agreement for every edge of `g` over
/// `[0, horizon]`, both membership and next-present queries.
fn assert_index_matches_closures<T: Time>(g: &Tvg<T>, horizon: u64, label: &str) {
    let h = T::from_u64(horizon);
    let index = TvgIndex::compile(g, h.clone());
    for e in g.edges() {
        let rho = g.edge(e).presence();
        let set = index.presence(e);
        let mut t = T::zero();
        loop {
            assert_eq!(
                set.contains(&t),
                rho.is_present(&t),
                "{label}: edge {e} membership at t={t}"
            );
            // The next member up to the horizon vs. the linear scan.
            assert_eq!(
                set.next_at_or_after(&t).filter(|x| *x <= h),
                scan(rho, &t, &h),
                "{label}: edge {e} next-present from t={t}"
            );
            if t == h {
                break;
            }
            t = t.succ();
        }
    }
}

#[test]
fn periodic_fixtures_compile_exactly() {
    let params = fixtures::small_periodic_params(4);
    for seed in 0..8u64 {
        let g = fixtures::periodic_family_tvg(&params, seed);
        assert_index_matches_closures(&g, 40, &format!("periodic seed {seed}"));
    }
    assert_index_matches_closures(&fixtures::ring_bus(5, 4), 32, "ring bus");
}

#[test]
fn commuter_line_compiles_exactly() {
    assert_index_matches_closures(&fixtures::commuter_line(), 30, "commuter line");
}

#[test]
fn figure1_schedules_compile_exactly() {
    // The paper's Figure-1 automaton runs on Nat time with the Table-1
    // schedules (including the prime-power predicate). A small horizon
    // covers the first witnesses (p²q = 12 for p=2, q=3).
    let aut = fixtures::figure1();
    let g = aut.automaton().tvg();
    assert_index_matches_closures(g, 200, "figure 1 (p=2, q=3)");
    let aut53 = fixtures::figure1_pq(5, 3);
    assert_index_matches_closures(aut53.automaton().tvg(), 200, "figure 1 (p=5, q=3)");
}

#[test]
fn random_presence_asts_compile_exactly() {
    tvg_testkit::check("random_presence_asts_compile_exactly", |rng, _| {
        let rho = gen::presence(rng, 3);
        let horizon: u64 = rng.gen_range(0..70);
        let set = rho.intervals(&horizon);
        for t in 0..=horizon {
            assert_eq!(
                set.view().contains(&t),
                rho.is_present(&t),
                "{rho:?} at t={t} (horizon {horizon})"
            );
        }
        for t in horizon + 1..horizon + 4 {
            assert!(!set.view().contains(&t), "{rho:?} beyond horizon at t={t}");
        }
        // Windows with arbitrary bounds, including empty and clipped ones.
        for _ in 0..8 {
            let from = rng.gen_range(0..=horizon);
            let until = rng.gen_range(0..=horizon);
            assert_eq!(
                set.view().next_at_or_after(&from).filter(|x| *x <= until),
                scan(&rho, &from, &until),
                "{rho:?} next in [{from}, {until}]"
            );
        }
    });
}

#[test]
fn compilation_is_consistent_across_horizons() {
    // Compiling further out never changes what happens below a shorter
    // horizon: intervals(h₂) restricted to [0, h₁] equals intervals(h₁).
    tvg_testkit::check_with(
        tvg_testkit::Config::named_with_cases("compilation_is_consistent_across_horizons", 32),
        |rng, _| {
            let rho = gen::presence(rng, 3);
            let h1 = rng.gen_range(0..40u64);
            let h2 = h1 + rng.gen_range(0..30u64);
            let near = rho.intervals(&h1);
            let far = rho.intervals(&h2);
            for t in 0..=h1 {
                assert_eq!(
                    near.view().contains(&t),
                    far.view().contains(&t),
                    "{rho:?} at t={t} (h1={h1}, h2={h2})"
                );
            }
        },
    );
}

#[test]
fn streamed_appends_equal_batch_normalization() {
    // A stream's presence maintenance (append at the right edge,
    // truncate the provisional close) must land on exactly the set that
    // batch normalization (`from_spans`) produces from the same closed
    // spans — for any monotone up/down sequence, adjacency merges and
    // zero-length pairs included.
    use tvg_model::stream::{StreamEvent, TvgStream};
    use tvg_model::{IntervalSet, Latency, TemporalIndex};
    tvg_testkit::check_with(
        tvg_testkit::Config::named_with_cases("streamed_appends_equal_batch_normalization", 64),
        |rng, _| {
            let horizon = 40u64;
            let end = horizon + 1;
            let mut s = TvgStream::new(horizon).expect("representable");
            let (u, v) = (s.add_node("u"), s.add_node("v"));
            let edge = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
            let mut events = Vec::new();
            let mut closed: Vec<(u64, u64)> = Vec::new();
            let mut t = 0u64;
            let mut open: Option<u64> = None;
            for _ in 0..rng.gen_range(1..12usize) {
                // Monotone clock; steps of zero exercise same-instant
                // transitions (zero-length pairs, reopen-at-close).
                t = (t + rng.gen_range(0..6u64)).min(horizon);
                match open {
                    None => {
                        events.push(StreamEvent::Up { edge, at: t });
                        open = Some(t);
                    }
                    Some(up) => {
                        events.push(StreamEvent::Down { edge, at: t });
                        closed.push((up, t));
                        open = None;
                    }
                }
            }
            s.ingest(&events).expect("a monotone up/down feed is valid");
            if let Some(up) = open {
                closed.push((up, end));
            }
            let batch = IntervalSet::from_spans(closed.clone());
            assert_eq!(
                s.index().presence(edge).spans(),
                batch.spans(),
                "closed spans {closed:?} (open tail {open:?})"
            );
        },
    );
}

#[test]
fn append_at_boundary_edge_cases() {
    use tvg_model::stream::{StreamError, StreamEvent, TvgStream};
    use tvg_model::{Latency, TemporalIndex};

    // Event exactly at the horizon: a single-instant open span.
    let mut s = TvgStream::<u64>::new(8).expect("8 + 1 is representable");
    let u = s.add_node("u");
    let v = s.add_node("v");
    let e = s.add_edge(u, v, 'a', Latency::unit()).expect("valid");
    s.ingest(&[StreamEvent::Up { edge: e, at: 8 }])
        .expect("the horizon is inside the window");
    assert_eq!(s.index().presence(e).spans(), &[(8, 9)]);
    assert!(s.index().is_present(e, &8));

    // One past the horizon is a typed rejection, not a panic.
    let mut s2 = TvgStream::<u64>::new(8).expect("8 + 1 is representable");
    let u2 = s2.add_node("u");
    let v2 = s2.add_node("v");
    let e2 = s2.add_edge(u2, v2, 'a', Latency::unit()).expect("valid");
    assert_eq!(
        s2.ingest(&[StreamEvent::Up { edge: e2, at: 9 }]),
        Err(StreamError::BeyondHorizon { at: 9, horizon: 8 })
    );

    // Zero-length up/down pair: accepted, leaves no presence, no events.
    s2.ingest(&[
        StreamEvent::Up { edge: e2, at: 3 },
        StreamEvent::Down { edge: e2, at: 3 },
    ])
    .expect("zero-length pairs are dropped, not rejected");
    assert!(s2.index().presence(e2).is_empty());
    assert_eq!(s2.index().num_edge_events(), 0);

    // Down before any up: typed error, stream state untouched.
    assert_eq!(
        s2.ingest(&[StreamEvent::Down { edge: e2, at: 5 }]),
        Err(StreamError::DownBeforeUp { edge: e2, at: 5 })
    );
    assert!(s2.index().presence(e2).is_empty());

    // Out-of-order (before the watermark): typed error.
    assert_eq!(
        s2.ingest(&[StreamEvent::Up { edge: e2, at: 1 }]),
        Err(StreamError::OutOfOrder {
            at: 1,
            watermark: 3
        })
    );
}
