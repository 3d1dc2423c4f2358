//! Compile-once / query-many reachability on a 1000-node generated TVG.
//!
//! The compiled temporal index ([`tvg_model::TvgIndex`]) materializes
//! every edge's presence schedule as sorted intervals, then the
//! single-source journey engine answers "when does the message reach
//! every node?" in one label-correcting pass per source — the workload
//! that used to take one tick-scan search *per destination*.
//!
//! Run with: `cargo run --release --example temporal_index`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tvg_suite::journeys::engine::foremost_tree;
use tvg_suite::journeys::{SearchLimits, WaitingPolicy};
use tvg_suite::langs::Alphabet;
use tvg_suite::model::generators::{random_periodic_tvg, RandomPeriodicParams};
use tvg_suite::model::{NodeId, TemporalIndex, TvgIndex};

fn main() {
    // A 1000-node, 4000-edge random periodic TVG — far beyond what the
    // paper draws by hand, well within what the index handles.
    let params = RandomPeriodicParams {
        num_nodes: 1000,
        num_edges: 4000,
        period: 32,
        phase_density: 0.25,
        alphabet: Alphabet::ab(),
    };
    let g = random_periodic_tvg(&mut StdRng::seed_from_u64(2012), &params);
    let horizon = 256u64;

    // Compile once…
    let t0 = Instant::now();
    let index = TvgIndex::compile(&g, horizon);
    let compile_time = t0.elapsed();
    println!(
        "compiled {} nodes / {} edges over horizon {horizon}: {} edge events in {compile_time:?}",
        g.num_nodes(),
        g.num_edges(),
        index.num_edge_events(),
    );

    // …query many: one single-source engine run per source answers
    // foremost arrival for all 1000 destinations at once.
    let limits = SearchLimits::new(horizon, 64);
    for policy in [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(8),
        WaitingPolicy::Unbounded,
    ] {
        let t1 = Instant::now();
        let sources = [0usize, 250, 500, 750];
        let mut total_reached = 0usize;
        let mut sample_arrival = None;
        for &s in &sources {
            let tree = foremost_tree(&index, NodeId::from_index(s), &0, &policy, &limits);
            total_reached += tree.num_reached();
            if s == 0 {
                sample_arrival = tree.arrival(NodeId::from_index(999)).copied();
            }
        }
        let per_source = t1.elapsed() / sources.len() as u32;
        println!(
            "{policy:<9} {} sources × 1000 destinations: mean reach {:>6.1} nodes, \
             v0→v999 arrival {:?}, {per_source:?} per single-source pass",
            sources.len(),
            total_reached as f64 / sources.len() as f64,
            sample_arrival,
        );
    }

    println!();
    println!(
        "the same four rows via tick-scan search would be {} independent \
         per-pair explorations; the engine does them in {} passes",
        4 * (g.num_nodes() - 1),
        4
    );
}
