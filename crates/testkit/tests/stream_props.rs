//! Differential properties of streaming ingestion: after *every*
//! ingested batch of every generated event script,
//!
//! * the live index must be structurally identical to a from-scratch
//!   recompile of the accumulated schedule ([`streamcheck`]);
//! * repaired incremental foremost trees must answer exactly like
//!   fresh engine runs, across all three waiting policies;
//! * query batches against the live snapshot must be thread-count
//!   invariant (the [`batchcheck`] oracle, here applied to a live
//!   index for the first time).
//!
//! Plus targeted coverage the generator cannot guarantee to hit:
//! `Nat`-domain streaming of the Figure-1 schedule, the
//! append-at-boundary edge cases of the stream layer, and a
//! chunk-boundary torture test that lands mutations exactly on the
//! persistent columns' chunk edges (`COL_CHUNK`) with reopen-at-close
//! merges and a horizon extension, while retained snapshots pin every
//! intermediate epoch against a rebuild.

use tvg_bigint::Nat;
use tvg_journeys::{IncrementalForemost, SearchLimits, WaitingPolicy};
use tvg_model::stream::TvgStream;
use tvg_model::{NodeId, TemporalIndex, Time};
use tvg_testkit::{batchcheck, gen, streamcheck, Config};

fn policies() -> [WaitingPolicy<u64>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(2),
        WaitingPolicy::Unbounded,
    ]
}

#[test]
fn live_index_and_incremental_trees_match_recompile_after_every_batch() {
    tvg_testkit::check_with(
        Config::named_with_cases("stream::differential", 32),
        |rng, case| {
            let script = gen::event_stream(rng);
            let mut stream = script.stream;
            let limits = SearchLimits::new(script.final_horizon, 12);
            let seeds = vec![(NodeId::from_index(0), 0u64)];
            let mut incs: Vec<IncrementalForemost<u64>> = policies()
                .into_iter()
                .map(|policy| {
                    IncrementalForemost::new(stream.index(), &seeds, policy, limits.clone())
                })
                .collect();
            for (i, batch) in script.batches.iter().enumerate() {
                let report = stream
                    .ingest(batch)
                    .expect("generated scripts are valid feeds");
                let label = format!("{} case {case} batch {i}", script.label);
                streamcheck::assert_live_matches_recompile(&stream, &label);
                for inc in &mut incs {
                    inc.refresh(stream.index(), &report);
                }
                for inc in &incs {
                    streamcheck::assert_incremental_matches_fresh(&stream, inc, &label);
                }
            }
        },
    );
}

#[test]
fn churn_scripts_match_recompile_and_fresh_after_every_batch() {
    // Same oracle, feeds that shrink the node set: the peer-lifecycle
    // generator's native join/leave feed (from an empty stream) and
    // fixture replays with injected departures and rejoins.
    tvg_testkit::check_with(
        Config::named_with_cases("stream::churn_differential", 32),
        |rng, case| {
            let script = gen::churn_script(rng);
            let mut stream = script.stream;
            let limits = SearchLimits::new(script.final_horizon, 12);
            let seeds = vec![(NodeId::from_index(0), 0u64)];
            let mut incs: Vec<IncrementalForemost<u64>> = policies()
                .into_iter()
                .map(|policy| {
                    IncrementalForemost::new(stream.index(), &seeds, policy, limits.clone())
                })
                .collect();
            for (i, batch) in script.batches.iter().enumerate() {
                let report = stream
                    .ingest(batch)
                    .expect("generated churn scripts are valid feeds");
                let label = format!("{} case {case} batch {i}", script.label);
                streamcheck::assert_live_matches_recompile(&stream, &label);
                for inc in &mut incs {
                    inc.refresh(stream.index(), &report);
                    streamcheck::assert_incremental_matches_fresh(&stream, inc, &label);
                }
            }
        },
    );
}

#[test]
fn leave_then_rejoin_keeps_ids_fresh_and_answers_exact() {
    use tvg_model::stream::StreamEvent;
    use tvg_model::Latency;

    // v departs mid-stream with an open contact to the source; a later
    // joiner takes over under a FRESH id (the departed id is never
    // reused), with its own edge. After every step the live index and
    // all three repaired trees must match from-scratch runs.
    for policy in policies() {
        let mut s = TvgStream::<u64>::new(20).expect("20 + 1 is representable");
        let src = s.add_node("src");
        let v = s.add_node("v");
        let e = s.add_edge(src, v, 'a', Latency::unit()).expect("valid");
        let limits = SearchLimits::new(20, 8);
        let mut inc = IncrementalForemost::new(s.index(), &[(src, 0u64)], policy, limits);
        let report = s
            .ingest(&[
                StreamEvent::Up { edge: e, at: 2 },
                StreamEvent::NodeLeave { node: v, at: 4 },
            ])
            .expect("valid feed");
        inc.refresh(s.index(), &report);
        streamcheck::assert_live_matches_recompile(&s, "leave");
        streamcheck::assert_incremental_matches_fresh(&s, &inc, "leave");
        assert_eq!(s.departed_at(v), Some(&4), "{}", inc.policy());

        let report = s
            .ingest(&[
                StreamEvent::NewNode {
                    name: "v-replacement".into(),
                },
                StreamEvent::NewEdge {
                    src,
                    dst: NodeId::from_index(2),
                    label: 'b',
                    latency: Latency::unit(),
                },
                StreamEvent::Up {
                    edge: tvg_model::EdgeId::from_index(1),
                    at: 6,
                },
            ])
            .expect("rejoin under a fresh id is valid");
        inc.refresh(s.index(), &report);
        streamcheck::assert_live_matches_recompile(&s, "rejoin");
        streamcheck::assert_incremental_matches_fresh(&s, &inc, "rejoin");
        let rejoined = NodeId::from_index(2);
        assert_eq!(s.index().tvg().num_nodes(), 3, "fresh id, not reuse");
        assert_eq!(s.departed_at(v), Some(&4), "departure is permanent");
        assert_eq!(s.departed_at(rejoined), None, "{}", inc.policy());
        // The replacement's edge opens at t=6, long after the seed
        // instant — only unbounded waiting can use it from a t=0 seed.
        if matches!(inc.policy(), WaitingPolicy::Unbounded) {
            assert!(
                inc.arrival(rejoined).is_some(),
                "replacement reachable under unbounded waiting"
            );
        }
        // Events on the departed id stay rejected even after the rejoin.
        let err = s
            .ingest(&[StreamEvent::Up { edge: e, at: 8 }])
            .expect_err("departed endpoint must reject");
        assert!(
            matches!(
                err,
                tvg_model::stream::StreamError::NodeDeparted { node, at: 4 } if node == v
            ),
            "got {err:?}"
        );
    }
}

#[test]
fn a_leave_at_the_chunk_boundary_closes_every_open_span() {
    use tvg_model::pcol::COL_CHUNK;
    use tvg_model::stream::StreamEvent;
    use tvg_model::Latency;
    use tvg_testkit::servecheck;

    // The torture fixture — a hub with COL_CHUNK + 1 spokes, so the
    // per-edge columns straddle a frozen chunk and its tail — but the
    // final mutation is a NodeLeave of the hub with every span OPEN:
    // one event that retracts COL_CHUNK + 1 provisional closes, the two
    // boundary edges included, across the frozen/tail divide.
    let build = || {
        let mut stream = TvgStream::<u64>::new(90).expect("representable horizon");
        let hub = stream.add_node("hub");
        let edges: Vec<_> = (0..=COL_CHUNK)
            .map(|i| {
                let v = stream.add_node(&format!("s{i}"));
                stream
                    .add_edge(hub, v, 'a', Latency::unit())
                    .expect("valid edge")
            })
            .collect();
        (stream, edges)
    };
    let (mut stream, edges) = build();
    // Nine up/down rounds so every span column grows across its frozen
    // chunks, then reopen everything and cut it all down with one leave.
    let mut batches: Vec<Vec<StreamEvent<u64>>> = Vec::new();
    for r in 0..9u64 {
        let mut batch = Vec::new();
        for &e in &edges {
            batch.push(StreamEvent::Up { edge: e, at: 8 * r });
        }
        for &e in &edges {
            batch.push(StreamEvent::Down {
                edge: e,
                at: 8 * r + 4,
            });
        }
        batches.push(batch);
    }
    let reopen = edges
        .iter()
        .map(|&e| StreamEvent::Up { edge: e, at: 80 })
        .collect();
    batches.push(reopen);
    batches.push(vec![StreamEvent::NodeLeave {
        node: NodeId::from_index(0),
        at: 84,
    }]);

    let mut snapshots = vec![stream.snapshot()];
    for (i, batch) in batches.iter().enumerate() {
        stream.ingest(batch).expect("churn torture feed is valid");
        streamcheck::assert_live_matches_recompile(&stream, &format!("churn torture batch {i}"));
        snapshots.push(stream.snapshot());
    }
    assert!(stream.index().chunks_frozen() > 1, "columns froze chunks");
    assert_eq!(stream.num_departed(), 1);

    // Every retained snapshot — the post-leave one included — must be
    // structurally identical to a fresh stream replaying its prefix.
    for (epoch, snapshot) in snapshots.iter().enumerate() {
        let (mut fresh, _) = build();
        for batch in &batches[..epoch] {
            fresh.ingest(batch).expect("churn torture feed is valid");
        }
        servecheck::assert_index_structure_eq(
            snapshot,
            fresh.index(),
            &format!("churn torture epoch {epoch} snapshot vs rebuild"),
        );
    }
}

#[test]
fn incremental_tree_survives_the_roots_neighbor_departing() {
    use tvg_model::stream::StreamEvent;
    use tvg_model::Latency;

    // A line 0-1-2-3 where everything beyond the source routes through
    // node 1; when node 1 departs with every edge open, the whole
    // downstream subtree's arrivals must be retracted exactly as a
    // fresh run on the truncated schedule would compute them.
    for policy in policies() {
        let mut s = TvgStream::<u64>::new(30).expect("30 + 1 is representable");
        let v: Vec<NodeId> = (0..4).map(|i| s.add_node(&format!("v{i}"))).collect();
        let edges: Vec<_> = (0..3)
            .map(|i| {
                s.add_edge(v[i], v[i + 1], 'a', Latency::unit())
                    .expect("valid edge")
            })
            .collect();
        let limits = SearchLimits::new(30, 10);
        let ups: Vec<StreamEvent<u64>> = edges
            .iter()
            .map(|&e| StreamEvent::Up { edge: e, at: 2 })
            .collect();
        let mut s2 = s.clone();
        let report = s2.ingest(&ups).expect("valid feed");
        let mut inc = IncrementalForemost::new(s2.index(), &[(v[0], 2u64)], policy, limits);
        let _ = report; // initial state built after the ups
        assert!(inc.arrival(v[3]).is_some(), "{}", inc.policy());

        let report = s2
            .ingest(&[StreamEvent::NodeLeave { node: v[1], at: 3 }])
            .expect("valid leave");
        inc.refresh(s2.index(), &report);
        streamcheck::assert_live_matches_recompile(&s2, "neighbor departs");
        streamcheck::assert_incremental_matches_fresh(&s2, &inc, "neighbor departs");
        // The source keeps its own arrival; everything routed through
        // the departed neighbor is gone (the spans closed at t=3, and
        // nothing re-opens them).
        assert_eq!(inc.arrival(v[0]), Some(&2), "{}", inc.policy());
        assert_eq!(inc.arrival(v[2]), None, "{}", inc.policy());
        assert_eq!(inc.arrival(v[3]), None, "{}", inc.policy());
    }
}

#[test]
fn live_snapshot_query_batches_are_thread_invariant() {
    tvg_testkit::check_with(
        Config::named_with_cases("stream::batch_threads", 6),
        |rng, case| {
            let script = gen::event_stream(rng);
            let mut stream = script.stream;
            // Query the snapshot mid-feed (after the first batch) and at
            // the end — the "ingest tick, query tick" loop.
            let checkpoints = [0, script.batches.len() - 1];
            let limits = SearchLimits::new(script.final_horizon, 10);
            for (i, batch) in script.batches.iter().enumerate() {
                stream.ingest(batch).expect("valid feed");
                if !checkpoints.contains(&i) {
                    continue;
                }
                for policy in policies() {
                    batchcheck::assert_all_sources_batch_matches_serial(
                        stream.index(),
                        &0,
                        &policy,
                        &limits,
                        &format!("{} case {case} batch {i}", script.label),
                    );
                }
            }
        },
    );
}

#[test]
fn figure1_nat_schedule_streams_identically() {
    // The theorem constructions run over `Nat`; the stream layer is
    // generic over the time domain, and the Figure-1 automaton's
    // schedule (prime-power presence included) must replay exactly.
    let aut = tvg_testkit::fixtures::figure1();
    let g = aut.automaton().tvg();
    let horizon = Nat::from_u64(60);
    let (mut stream, events) = TvgStream::replay_of(g, &horizon).expect("60 + 1 is representable");
    assert!(!events.is_empty(), "figure-1 has presence below 60");
    // One event per batch: the oracle holds at every prefix.
    for ev in &events {
        stream.ingest(std::slice::from_ref(ev)).expect("valid feed");
        streamcheck::assert_live_matches_recompile(&stream, "figure1-nat");
    }
    for e in g.edges() {
        for t in 0u64..=60 {
            let t = Nat::from_u64(t);
            assert_eq!(
                stream.index().is_present(e, &t),
                g.is_present(e, &t),
                "{e} at {t}"
            );
        }
    }
}

#[test]
fn chunk_boundary_torture_survives_sharing_and_retraction() {
    use tvg_journeys::foremost_tree_multi;
    use tvg_model::pcol::COL_CHUNK;
    use tvg_model::stream::StreamEvent;
    use tvg_model::{Latency, TvgIndex};
    use tvg_testkit::servecheck;

    // A hub with COL_CHUNK + 1 spokes: every per-edge column (presence,
    // monotonicity, destinations, latencies) and the per-node adjacency
    // column get exactly one full frozen chunk plus a one-element tail,
    // so the boundary indices COL_CHUNK - 1 and COL_CHUNK straddle the
    // frozen/tail divide.
    let build = || {
        let mut stream = TvgStream::<u64>::new(40).expect("representable horizon");
        let hub = stream.add_node("hub");
        let edges: Vec<_> = (0..=COL_CHUNK)
            .map(|i| {
                let v = stream.add_node(&format!("s{i}"));
                stream
                    .add_edge(hub, v, 'a', Latency::unit())
                    .expect("valid edge")
            })
            .collect();
        (stream, edges)
    };
    let (mut stream, edges) = build();
    let boundary = [edges[COL_CHUNK - 1], edges[COL_CHUNK]];

    // Nine up/down rounds over all edges. Rounds 3 and 6 reopen the
    // boundary edges at exactly their previous close — the merge that
    // rewrites an already-closed span at the watermark. The last round
    // leaves the hub's first edge and both boundary edges open so the
    // final horizon extension moves their provisional closes.
    let mut batches: Vec<Vec<StreamEvent<u64>>> = Vec::new();
    for r in 0..9u64 {
        let reopen = r == 3 || r == 6;
        let last = r == 8;
        let mut batch = Vec::new();
        if reopen {
            for &e in &boundary {
                batch.push(StreamEvent::Up {
                    edge: e,
                    at: 4 * (r - 1) + 2,
                });
            }
        }
        for (i, &e) in edges.iter().enumerate() {
            if reopen && (i == COL_CHUNK - 1 || i == COL_CHUNK) {
                continue;
            }
            batch.push(StreamEvent::Up { edge: e, at: 4 * r });
        }
        for (i, &e) in edges.iter().enumerate() {
            if last && (i == 0 || i == COL_CHUNK - 1 || i == COL_CHUNK) {
                continue;
            }
            batch.push(StreamEvent::Down {
                edge: e,
                at: 4 * r + 2,
            });
        }
        batches.push(batch);
    }
    batches.push(vec![StreamEvent::ExtendHorizon { to: 60 }]);

    let mut snapshots = vec![stream.snapshot()];
    for (i, batch) in batches.iter().enumerate() {
        stream.ingest(batch).expect("torture feed is valid");
        streamcheck::assert_live_matches_recompile(&stream, &format!("torture batch {i}"));
        snapshots.push(stream.snapshot());
    }

    // The workload really crossed the chunk boundaries it targets.
    assert!(edges.len() > COL_CHUNK, "per-edge columns span two chunks");
    let frozen = stream.index().chunks_frozen();
    assert!(frozen > 1, "columns froze chunks, got {frozen}");
    let copied = stream.index().chunks_copied();
    assert!(
        copied > 0,
        "retained snapshots forced copy-on-write, got {copied}"
    );

    // Every retained snapshot — all sharing chunks with the stream that
    // kept mutating — is structurally identical to a fresh stream that
    // replayed exactly its batch prefix and shares nothing.
    for (epoch, snapshot) in snapshots.iter().enumerate() {
        let (mut fresh, _) = build();
        for batch in &batches[..epoch] {
            fresh.ingest(batch).expect("torture feed is valid");
        }
        servecheck::assert_index_structure_eq(
            snapshot,
            fresh.index(),
            &format!("torture epoch {epoch} snapshot vs rebuild"),
        );
    }

    // And the final index answers bit-identically to a batch compile:
    // arrivals and engine work counters under all three policies.
    let g = stream.to_tvg();
    let compiled = TvgIndex::compile(&g, *stream.index().horizon());
    let limits = SearchLimits::new(60, 12);
    let seeds = vec![(NodeId::from_index(0), 0u64)];
    for policy in policies() {
        let live = foremost_tree_multi(stream.index(), &seeds, &policy, &limits);
        let fresh = foremost_tree_multi(&compiled, &seeds, &policy, &limits);
        for n in g.nodes() {
            assert_eq!(
                live.arrival(n),
                fresh.arrival(n),
                "torture: arrival at {n} diverges under {policy}"
            );
        }
        assert_eq!(
            live.stats(),
            fresh.stats(),
            "torture: engine stats diverge under {policy}"
        );
    }
}

#[test]
fn incremental_repair_really_reuses_work() {
    // The repair must not silently degenerate into a full re-run: on a
    // long feed, total incremental work (settles across the initial run
    // plus every refresh) must stay well below the recompute strategy's
    // total (a fresh run per batch).
    use tvg_journeys::foremost_tree;
    use tvg_model::generators::scale_free_temporal;
    use tvg_model::TvgIndex;
    let g = scale_free_temporal(16, 48, 3);
    let (mut stream, events) = TvgStream::replay_of(&g, &48).expect("48 + 1 is representable");
    let limits = SearchLimits::new(48, 12);
    let src = NodeId::from_index(0);
    let mut inc = IncrementalForemost::new(
        stream.index(),
        &[(src, 0u64)],
        WaitingPolicy::Bounded(3),
        limits.clone(),
    );
    let mut recompute_settled = 0u64;
    let mut ticks = 0u64;
    for batch in events.chunks(8) {
        let report = stream.ingest(batch).expect("valid feed");
        inc.refresh(stream.index(), &report);
        let batch_tvg = stream.to_tvg();
        let index = TvgIndex::compile(&batch_tvg, *stream.index().horizon());
        let fresh = foremost_tree(&index, src, &0, &WaitingPolicy::Bounded(3), &limits);
        recompute_settled += fresh.stats().settled;
        ticks += 1;
    }
    assert!(ticks > 5, "workload must span several ticks, got {ticks}");
    let incremental_settled = inc.stats().settled;
    assert!(
        incremental_settled * 2 < recompute_settled,
        "repair must reuse work: incremental settled {incremental_settled} \
         vs recompute total {recompute_settled}"
    );
}
