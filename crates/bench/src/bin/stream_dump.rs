//! Canonical streaming-ingestion dump for the determinism gate, driven
//! by the bundled streaming scenario specs.
//!
//! The workloads come from the `plan streaming` specs under `scenarios/`
//! (discovered through the same `tvg_cli::spec_files` walk the golden
//! gates use, so a newly added streaming spec joins this gate
//! automatically; batch-side plans are covered by `matrix_dump`): each
//! scenario's generator and batch size define the feed (a schedule
//! replay, or the churn family's native join/leave feed), which is then
//! driven through the streaming path — batched ingest ticks,
//! incremental foremost repair per tick, and a batched all-sources query
//! against the live snapshot — across all three waiting policies, every
//! answer printed in a fixed textual format. The batch thread count
//! follows `TVG_BATCH_THREADS` (via `Batch::auto`), so CI runs this
//! binary at `=1` and `=4` and diffs the outputs byte for byte: any
//! parallel nondeterminism on the live-snapshot query path, and any
//! divergence of the incremental repair across runs, fails the build.
//!
//! Usage: `TVG_BATCH_THREADS=4 cargo run --release -p tvg-bench --bin stream_dump`

use tvg_bench::fmt_arrival;
use tvg_journeys::{Batch, BatchRunner, IncrementalForemost, WaitingPolicy};
use tvg_model::{NodeId, TemporalIndex};
use tvg_scenarios::{Plan, Scenario};

fn policies() -> [WaitingPolicy<u64>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(3),
        WaitingPolicy::Unbounded,
    ]
}

/// Ingests the scenario's stream feed (schedule replay, or the churn
/// family's native join/leave feed) in its spec-declared batch size;
/// after each tick, dumps the repaired incremental tree per policy, then
/// one batched all-sources query against the final live snapshot.
fn dump_streamed(s: &Scenario) {
    let Plan::Streaming {
        src, start, batch, ..
    } = s.plan()
    else {
        unreachable!("stream_dump only embeds streaming specs");
    };
    let g = s.build_graph();
    let limits = s.limits();
    let (mut stream, events) = s.stream_feed(&g, limits.horizon);
    let source = NodeId::from_index(*src);
    let mut incs: Vec<IncrementalForemost<u64>> = policies()
        .into_iter()
        .map(|p| IncrementalForemost::new(stream.index(), &[(source, *start)], p, limits.clone()))
        .collect();
    for (tick, chunk) in events.chunks(*batch).enumerate() {
        let report = stream.ingest(chunk).expect("scenario feeds are valid");
        for inc in &mut incs {
            inc.refresh(stream.index(), &report);
            let arrivals: Vec<String> = stream
                .index()
                .tvg()
                .nodes()
                .map(|n| fmt_arrival(inc.arrival(n)))
                .collect();
            println!(
                "stream {} tick={tick} policy={} events={} inc: {}",
                s.name(),
                inc.policy(),
                stream.index().num_edge_events(),
                arrivals.join(",")
            );
        }
    }
    // One batched query tick against the final snapshot per policy.
    let sources: Vec<NodeId> = stream.index().tvg().nodes().collect();
    for policy in policies() {
        let (reached, stats) = BatchRunner::new(stream.index(), Batch::auto()).map_sources(
            &sources,
            start,
            &policy,
            &limits,
            |_, tree| tree.num_reached(),
        );
        let row: Vec<String> = reached.iter().map(usize::to_string).collect();
        println!(
            "stream {} snapshot policy={policy} runs={} reached: {}",
            s.name(),
            stats.runs,
            row.join(",")
        );
    }
}

fn main() {
    // Stderr, not stdout: the dump itself must be canonical so CI can
    // `diff` two runs at different thread counts byte for byte.
    eprintln!("batch threads: {}", Batch::auto().num_threads());

    for (spec, _) in tvg_cli::spec_files(&tvg_cli::bundled_scenarios_dir()).expect("bundled specs")
    {
        for scenario in tvg_cli::load_specs(&spec).expect("bundled specs are valid") {
            // Batch-side plans dump through `matrix_dump`.
            if matches!(scenario.plan(), Plan::Streaming { .. }) {
                println!("report {}", scenario.run().canonical_json());
                dump_streamed(&scenario);
            }
        }
    }
}
