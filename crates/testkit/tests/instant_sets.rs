//! `InstantSet`, the sorted shared slice behind `Presence::FiniteSet`:
//! it agrees with a `BTreeSet` model, and every contact producer hands
//! both orientations of a contact one allocation, which narrowing keeps.

use rand::Rng;
use std::collections::BTreeSet;
use tvg_dynnet::EvolvingTrace;
use tvg_model::generators::{
    commuter_fleet, edge_markovian_contacts, scale_free_temporal, waypoint_grid_contacts,
};
use tvg_model::{narrow_tvg, EdgeId, InstantSet, IntervalSet, Presence, Time, Tvg};

#[test]
fn instant_sets_agree_with_a_btreeset_model() {
    tvg_testkit::check("instant_sets_agree_with_a_btreeset_model", |rng, _| {
        let raw: Vec<u64> = (0..rng.gen_range(0..12))
            .map(|_| match rng.gen_range(0..5) {
                0 => u64::MAX - rng.gen_range(0..3),
                _ => rng.gen_range(0..24),
            })
            .collect();
        let model: BTreeSet<u64> = raw.iter().copied().collect();
        let set: InstantSet<u64> = raw.into_iter().collect();
        assert!(set.as_slice().iter().eq(&model), "{set:?} vs {model:?}");
        let rho = Presence::FiniteSet(set);
        let top = model.last().copied().unwrap_or(0);
        for t in model.iter().chain(&[0, 1, top / 2, top.wrapping_add(1)]) {
            assert_eq!(rho.is_present(t), model.contains(t), "{rho:?} at {t}");
        }
        // Below, at and above the largest instant, and at the top of the
        // domain, which compiles its predecessor window.
        for horizon in [top / 2, top, top.saturating_add(5), u64::MAX] {
            let units = model
                .range(..=horizon.min(u64::MAX - 1))
                .map(|&t| (t, t + 1));
            let old = IntervalSet::from_spans(units.collect());
            assert_eq!(rho.intervals(&horizon), old, "{rho:?} at {horizon}");
        }
    });
}

/// Where edge `i`'s instants live.
fn instants<T: Time>(g: &Tvg<T>, i: usize) -> *const T {
    match g.edge(EdgeId::from_index(i)).presence() {
        Presence::FiniteSet(set) => set.as_slice().as_ptr(),
        other => panic!("edge {i} is {other:?}"),
    }
}

/// Every generator pushes a contact's two orientations back to back.
/// `line_timetable_tvg` builds one edge per hop, so it has nothing to share.
#[test]
fn both_orientations_of_a_contact_share_one_allocation() {
    let snapshots = vec![BTreeSet::from([(0, 1)]), BTreeSet::from([(0, 1), (1, 2)])];
    let graphs = [
        ("scale_free", scale_free_temporal(300, 16, 5)),
        ("markov", edge_markovian_contacts(12, 16, 0.2, 0.3, 5)),
        ("waypoint", waypoint_grid_contacts(12, 3, 3, 24, 5)),
        ("commuter_fleet", commuter_fleet(3, 4, 5, 2, 3)),
        ("trace", EvolvingTrace::new(3, snapshots).to_tvg()),
    ];
    for (what, g) in &graphs {
        let narrow = narrow_tvg(g, 64).expect("fits u32");
        assert!(g.num_edges() > 0, "{what}");
        for i in (0..g.num_edges()).step_by(2) {
            assert_eq!(instants(g, i), instants(g, i + 1), "{what} {i}");
            assert_eq!(instants(&narrow, i), instants(&narrow, i + 1), "{what} {i}");
        }
        for n in g.nodes() {
            assert!(std::ptr::eq(g.node_name(n), narrow.node_name(n)), "{what}");
        }
    }
}
