//! The bench-regression gate: median wall times of the E7 (compiled
//! index), E9 (streaming ingest), E13 (snapshot publication), and E14
//! (on-disk `.tvgi` index) hot paths, emitted as machine-readable JSON
//! and compared against checked-in baselines.
//!
//! Unlike the criterion benches (scaling shapes, human-read), this
//! binary exists to *fail CI* when a hot path rots by an order of
//! magnitude. Medians over several repetitions make the numbers robust
//! to scheduler noise; the comparison tolerance is deliberately
//! generous (default 3× for same-machine checks; CI passes
//! `--tolerance 10.0` because its runners are a different machine class
//! than the one that emitted the baselines) and baselines below
//! [`NOISE_FLOOR_US`] are floored before the ratio is taken, so only
//! genuine regressions — not machine variance — trip the gate.
//! Speedups never fail: the gate is one-sided. Metrics named `*_per_sec`
//! are throughput rates — higher is better, so their check ratio is
//! inverted (the gate trips when the rate *falls* past tolerance).
//!
//! Usage:
//! * `bench_medians emit [dir]` — write `BENCH_E7.json`,
//!   `BENCH_E9.json`, `BENCH_E13.json`, and `BENCH_E14.json` under
//!   `dir` (default `.`), print them to stdout.
//! * `bench_medians check <baseline-dir> [--tolerance X]` — re-measure
//!   and fail (exit 1) if any metric exceeds `X ×` its baseline in
//!   `<baseline-dir>/BENCH_E7.json` / `BENCH_E9.json` /
//!   `BENCH_E13.json` / `BENCH_E14.json`.
//!
//! The workloads deliberately mirror `benches/temporal_index.rs` (E7),
//! `benches/stream_ingest.rs` (E9), `benches/snapshot_publish.rs`
//! (E13), and `benches/mmap_query.rs` (E14) at CI-friendly sizes; the
//! reference numbers live in `EXPERIMENTS.md`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tvg_dynnet::json::{parse, Json};
use tvg_journeys::engine::{foremost_to, foremost_tree};
use tvg_journeys::{IncrementalForemost, SearchLimits, WaitingPolicy};
use tvg_model::generators::{random_periodic_tvg, scale_free_temporal, RandomPeriodicParams};
use tvg_model::stream::{StreamEvent, TvgStream};
use tvg_model::tvgi::{write_tvgi, ShardedIndex};
use tvg_model::{narrow_tvg, NodeId, TemporalIndex, Tvg, TvgIndex};

/// Metrics are compared against at least this many microseconds of
/// baseline: sub-millisecond medians (the 30 µs pair queries) are
/// dominated by scheduler and machine variance on shared CI runners,
/// and must not flake the gate red without a genuine order-of-magnitude
/// regression.
const NOISE_FLOOR_US: u64 = 200;

/// Median wall time of `reps` runs of `f`, in whole microseconds
/// (clamped up to 1 so ratios never divide by zero).
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_micros()
        })
        .collect();
    samples.sort_unstable();
    u64::try_from(samples[samples.len() / 2])
        .unwrap_or(u64::MAX)
        .max(1)
}

/// The E7 workload: the ≥10k-edge-event random periodic TVG of
/// `benches/temporal_index.rs`.
fn e7_workload() -> (Tvg<u64>, u64) {
    let params = RandomPeriodicParams {
        num_nodes: 64,
        num_edges: 256,
        period: 16,
        phase_density: 0.5,
        alphabet: tvg_langs::Alphabet::ab(),
    };
    let g = random_periodic_tvg(&mut StdRng::seed_from_u64(7), &params);
    (g, 512)
}

fn e7_metrics() -> BTreeMap<String, u64> {
    let (g, horizon) = e7_workload();
    let src = NodeId::from_index(0);
    let dst = NodeId::from_index(g.num_nodes() - 1);
    let mut m = BTreeMap::new();
    m.insert(
        "compile_us".to_string(),
        median_us(5, || TvgIndex::compile(&g, horizon).num_edge_events()),
    );
    // Queries run in the narrowed `u32` domain — the domain the scenario
    // runtime picks for this horizon (512 ≪ 2³²), so the gate watches
    // the path production traffic actually takes.
    let narrowed = narrow_tvg(&g, horizon).expect("horizon 512 fits u32");
    let h32 = u32::try_from(horizon).expect("fits u32");
    let limits = SearchLimits::new(h32, 24);
    let index = TvgIndex::compile(&narrowed, h32);
    m.insert(
        "pair_unbounded_us".to_string(),
        median_us(5, || {
            foremost_to(&index, src, dst, &0u32, &WaitingPolicy::Unbounded, &limits).is_some()
        }),
    );
    m.insert(
        "all_dest_unbounded_us".to_string(),
        median_us(5, || {
            foremost_tree(&index, src, &0u32, &WaitingPolicy::Unbounded, &limits).num_reached()
        }),
    );
    m.insert(
        "all_dest_bounded4_us".to_string(),
        median_us(3, || {
            foremost_tree(&index, src, &0u32, &WaitingPolicy::Bounded(4), &limits).num_reached()
        }),
    );
    // Throughput: settled configurations per second of the bounded-4
    // all-destinations run — a `_per_sec` metric, so the check gate
    // inverts the ratio (a *drop* in throughput is the regression).
    let settled = foremost_tree(&index, src, &0u32, &WaitingPolicy::Bounded(4), &limits)
        .stats()
        .settled;
    let bounded4_us = m["all_dest_bounded4_us"];
    m.insert(
        "settles_per_sec".to_string(),
        settled.saturating_mul(1_000_000) / bounded4_us.max(1),
    );
    m
}

/// The E9 workload: the n=200 scale-free feed of
/// `benches/stream_ingest.rs`, 64-event ingest ticks, `wait[3]`.
fn e9_workload() -> (TvgStream<u64>, Vec<StreamEvent<u64>>) {
    let g = scale_free_temporal(200, 64, 17);
    TvgStream::replay_of(&g, &64).expect("64 + 1 is representable")
}

fn e9_metrics() -> BTreeMap<String, u64> {
    const BATCH: usize = 64;
    let (base, events) = e9_workload();
    let limits = SearchLimits::new(64, 16);
    let src = NodeId::from_index(0);
    let incremental = || {
        let mut stream = base.clone();
        let mut inc = IncrementalForemost::new(
            stream.index(),
            &[(src, 0u64)],
            WaitingPolicy::Bounded(3),
            limits.clone(),
        );
        for batch in events.chunks(BATCH) {
            let report = stream.ingest(batch).expect("replay is valid");
            inc.refresh(stream.index(), &report);
        }
        inc.num_reached()
    };
    let recompile = || {
        let mut stream = base.clone();
        let mut reached = 0usize;
        for batch in events.chunks(BATCH) {
            stream.ingest(batch).expect("replay is valid");
            let g = stream.to_tvg();
            let index = TvgIndex::compile(&g, *stream.index().horizon());
            reached =
                foremost_tree(&index, src, &0, &WaitingPolicy::Bounded(3), &limits).num_reached();
        }
        reached
    };
    let mut m = BTreeMap::new();
    m.insert("incremental_us".to_string(), median_us(3, incremental));
    m.insert("recompile_us".to_string(), median_us(3, recompile));
    m
}

/// The E13 workload: the n=1000 scale-free live feed of
/// `benches/snapshot_publish.rs`, published as one retained snapshot
/// per 512-event ingest tick (retention forces the copy-on-write a
/// serve run's `EpochRing` would). Only the publication wall time is
/// measured — ingest is E9's job.
fn e13_metrics() -> BTreeMap<String, u64> {
    const BATCH: usize = 512;
    let g = scale_free_temporal(1000, 48, 13);
    let (base, events) = TvgStream::replay_of(&g, &48).expect("48 + 1 is representable");
    let epochs = events.chunks(BATCH).len() as u64 + 1;
    let rep = || {
        let mut stream = base.clone();
        let mut retained = Vec::with_capacity(usize::try_from(epochs).expect("small"));
        retained.push(stream.snapshot());
        let mut micros = 0u128;
        for batch in events.chunks(BATCH) {
            stream.ingest(batch).expect("replay is valid");
            let t = Instant::now();
            retained.push(stream.snapshot());
            micros += t.elapsed().as_micros();
        }
        std::hint::black_box(&retained);
        micros
    };
    let mut samples: Vec<u128> = (0..5).map(|_| rep()).collect();
    samples.sort_unstable();
    let publish_us = u64::try_from(samples[samples.len() / 2])
        .unwrap_or(u64::MAX)
        .max(1);
    let mut m = BTreeMap::new();
    m.insert("publish_us".to_string(), publish_us);
    // Throughput: published epochs per second — a `_per_sec` metric, so
    // the check gate inverts the ratio (a falling rate is the
    // regression).
    m.insert(
        "publish_per_sec".to_string(),
        epochs.saturating_mul(1_000_000) / publish_us,
    );
    m
}

/// The E14 workload: the n=20k scale-free graph of
/// `benches/mmap_query.rs`, compiled once, serialized to a scratch
/// `.tvgi` at 4 shards, and queried from both index forms. The gate
/// watches the whole compile-once lifecycle — compile, serialize,
/// reopen — plus the query medians whose ratio E14 reports: a
/// file-backed query must stay in the same order of magnitude as the
/// in-memory one, or the compile-once workflow has silently stopped
/// paying for itself.
fn e14_metrics() -> BTreeMap<String, u64> {
    const HORIZON: u64 = 64;
    let g = scale_free_temporal(20_000, HORIZON, 29);
    let path = std::env::temp_dir().join(format!("tvg-bench-e14-{}.tvgi", std::process::id()));
    let mut m = BTreeMap::new();
    m.insert(
        "compile_us".to_string(),
        median_us(3, || TvgIndex::compile(&g, HORIZON).num_edge_events()),
    );
    let index = TvgIndex::compile(&g, HORIZON);
    m.insert(
        "write_us".to_string(),
        median_us(3, || {
            write_tvgi(&index, 4, None, &path)
                .expect("scratch .tvgi writes")
                .bytes
        }),
    );
    m.insert(
        "open_us".to_string(),
        median_us(3, || {
            ShardedIndex::<u64>::open(&path)
                .expect("just-written file opens")
                .num_edge_events()
        }),
    );
    let mapped = ShardedIndex::<u64>::open(&path).expect("just-written file opens");
    let limits = SearchLimits::new(HORIZON, 32);
    let src = NodeId::from_index(0);
    let policy = WaitingPolicy::Bounded(3);
    // Racing two indexes is only meaningful if they agree.
    assert_eq!(
        foremost_tree(&index, src, &0u64, &policy, &limits).num_reached(),
        foremost_tree(&mapped, src, &0u64, &policy, &limits).num_reached(),
        "in-memory and file-backed indexes disagree"
    );
    m.insert(
        "query_compiled_us".to_string(),
        median_us(5, || {
            foremost_tree(&index, src, &0u64, &policy, &limits).num_reached()
        }),
    );
    m.insert(
        "query_mapped_us".to_string(),
        median_us(5, || {
            foremost_tree(&mapped, src, &0u64, &policy, &limits).num_reached()
        }),
    );
    let _ = std::fs::remove_file(&path);
    m
}

fn to_json(metrics: &BTreeMap<String, u64>) -> String {
    let obj: BTreeMap<String, Json> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(*v)))
        .collect();
    format!("{}\n", Json::Obj(obj))
}

fn from_json(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Json::Obj(map) = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))? else {
        return Err(format!("{}: expected a JSON object", path.display()));
    };
    map.into_iter()
        .map(|(k, v)| match v {
            Json::Int(n) => Ok((k, n)),
            other => Err(format!(
                "{}: metric {k:?} is not an integer ({other})",
                path.display()
            )),
        })
        .collect()
}

fn measure_all() -> Vec<(&'static str, BTreeMap<String, u64>)> {
    vec![
        ("BENCH_E7.json", e7_metrics()),
        ("BENCH_E9.json", e9_metrics()),
        ("BENCH_E13.json", e13_metrics()),
        ("BENCH_E14.json", e14_metrics()),
    ]
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit") => {
            let dir = PathBuf::from(args.get(1).map_or(".", String::as_str));
            for (file, metrics) in measure_all() {
                let text = to_json(&metrics);
                let path = dir.join(file);
                if let Err(e) = std::fs::write(&path, &text) {
                    eprintln!("error: {}: {e}", path.display());
                    return std::process::ExitCode::FAILURE;
                }
                print!("{file}: {text}");
            }
            std::process::ExitCode::SUCCESS
        }
        Some("check") => {
            let Some(baseline_dir) = args.get(1).map(PathBuf::from) else {
                eprintln!("usage: bench_medians check <baseline-dir> [--tolerance X]");
                return std::process::ExitCode::FAILURE;
            };
            let tolerance: f64 = match args.get(2).map(String::as_str) {
                Some("--tolerance") => match args.get(3).and_then(|t| t.parse().ok()) {
                    Some(t) if t >= 1.0 => t,
                    _ => {
                        eprintln!("error: --tolerance needs a number >= 1.0");
                        return std::process::ExitCode::FAILURE;
                    }
                },
                None => 3.0,
                Some(other) => {
                    eprintln!("error: unknown flag {other:?}");
                    return std::process::ExitCode::FAILURE;
                }
            };
            let mut failed = false;
            for (file, current) in measure_all() {
                let baseline = match from_json(&baseline_dir.join(file)) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return std::process::ExitCode::FAILURE;
                    }
                };
                for metric in current.keys() {
                    if !baseline.contains_key(metric) {
                        eprintln!(
                            "FAIL {file} {metric}: no baseline (re-run `bench_medians emit` over the baseline dir)"
                        );
                        failed = true;
                    }
                }
                for (metric, &base) in &baseline {
                    let Some(&now) = current.get(metric) else {
                        eprintln!("FAIL {file} {metric}: metric vanished from the bench");
                        failed = true;
                        continue;
                    };
                    if metric.ends_with("_per_sec") {
                        // Throughput: higher is better, so the ratio is
                        // inverted — the gate trips when the rate falls
                        // below 1/tolerance of baseline.
                        let ratio = base as f64 / now.max(1) as f64;
                        let verdict = if ratio <= tolerance { "ok" } else { "FAIL" };
                        println!(
                            "{verdict} {file} {metric}: {now}/s vs baseline {base}/s ({ratio:.2}x slowdown, tolerance {tolerance:.1}x)"
                        );
                        failed |= ratio > tolerance;
                    } else {
                        let floor = base.max(NOISE_FLOOR_US);
                        let ratio = now as f64 / floor as f64;
                        let verdict = if ratio <= tolerance { "ok" } else { "FAIL" };
                        println!(
                            "{verdict} {file} {metric}: {now} µs vs baseline {base} µs (floored to {floor}; {ratio:.2}x, tolerance {tolerance:.1}x)"
                        );
                        failed |= ratio > tolerance;
                    }
                }
            }
            if failed {
                eprintln!("bench-regression gate FAILED (order-of-magnitude rot; re-baseline only if intended)");
                std::process::ExitCode::FAILURE
            } else {
                std::process::ExitCode::SUCCESS
            }
        }
        _ => {
            eprintln!("usage: bench_medians <emit [dir] | check <baseline-dir> [--tolerance X]>");
            std::process::ExitCode::FAILURE
        }
    }
}
