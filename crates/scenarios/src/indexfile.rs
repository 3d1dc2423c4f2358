//! Compile-once index files: a scenario's compiled index serialized to
//! a `.tvgi` (see [`tvg_model::tvgi`]) and its batch plans re-run from
//! the opened [`ShardedIndex`] with no recompilation.
//!
//! [`compile_index`] makes exactly the time-domain decision
//! [`Scenario::run`] makes — [`narrow_tvg`] plus the policy-arithmetic
//! check — so a `.tvgi` written here holds the same index, in the same
//! domain, that a direct run would have compiled; the file's stored
//! width (4 or 8 bytes per time word) records which way the decision
//! went. [`run_with_index`] reads that width back, opens the file in
//! the matching domain, and dispatches the scenario's plan through the
//! same generic batch runners a direct run uses — producing a
//! [`Report`] whose canonical bytes are identical to `Scenario::run`'s
//! (the round-trip oracle in the testkit pins this).
//!
//! Only batch-shaped plans (`single_source`, `matrix`, `matrix_sample`,
//! `broadcast`) run from a file: the streaming and serve plans are
//! defined by their ingest feed, which a frozen index does not carry.
//! Every scenario embeds its canonical spec text at write time and
//! [`run_with_index`] refuses a file whose embedded text differs from
//! the scenario it is asked to run — a `.tvgi` is an artifact *of* one
//! workload, not a generic graph container.
//!
//! The report's non-canonical `timing` splits the wall time into
//! `open_us` (opening and validating the file) and `plan_us` (the
//! plan's engine runs and reduction), so every indexed run shows
//! whether it was bound by the decoder or by the engine.

use crate::report::{obj, Report};
use crate::run::{
    narrow_policy, run_broadcast_plan, run_matrix, run_matrix_sample, run_single_source,
};
use crate::spec::{Plan, Scenario};
use std::path::Path;
use tvg_dynnet::json::Json;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_model::tvgi::{peek_tvgi, write_tvgi, ShardedIndex, TvgiError, TvgiSummary, TvgiTime};
use tvg_model::{narrow_tvg, TemporalIndex, TvgIndex};

/// A compile-to-file or run-from-file failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexFileError {
    /// The `.tvgi` layer itself failed (I/O, corruption, format).
    Tvgi(TvgiError),
    /// The scenario's plan cannot run from a frozen index (streaming
    /// and serve plans are defined by their ingest feed).
    UnsupportedPlan {
        /// The rejected plan's spec name.
        plan: &'static str,
    },
    /// The file's embedded canonical spec text differs from the
    /// scenario being run — the index was compiled for another
    /// workload (or the same workload under different parameters).
    SpecMismatch {
        /// The scenario that was asked to run.
        scenario: String,
    },
}

impl std::fmt::Display for IndexFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexFileError::Tvgi(e) => write!(f, "{e}"),
            IndexFileError::UnsupportedPlan { plan } => write!(
                f,
                "the {plan} plan replays an ingest feed and cannot run from a frozen index \
                 (batch plans only: single_source, matrix, matrix_sample, broadcast)"
            ),
            IndexFileError::SpecMismatch { scenario } => write!(
                f,
                "index file was compiled for a different workload than scenario {scenario:?} \
                 (recompile with `tvg-cli compile`)"
            ),
        }
    }
}

impl std::error::Error for IndexFileError {}

impl From<TvgiError> for IndexFileError {
    fn from(e: TvgiError) -> Self {
        IndexFileError::Tvgi(e)
    }
}

/// Rejects the plans a frozen index cannot answer.
fn require_batch_plan(scenario: &Scenario) -> Result<(), IndexFileError> {
    match scenario.plan() {
        Plan::Streaming { .. } | Plan::Serve { .. } => Err(IndexFileError::UnsupportedPlan {
            plan: scenario.plan().name(),
        }),
        _ => Ok(()),
    }
}

/// The plan's start instant, exactly as [`Scenario::run`] extracts it
/// for the narrowing decision (plans without one start at 0).
fn plan_start(plan: &Plan) -> u64 {
    match plan {
        Plan::SingleSource { start, .. }
        | Plan::Matrix { start, .. }
        | Plan::MatrixSample { start, .. } => *start,
        _ => 0,
    }
}

/// Builds the scenario's TVG, compiles its index in the same time
/// domain a direct [`Scenario::run`] would pick, and serializes it to
/// `path` as a `.tvgi` with `shards` node-range shards, embedding the
/// scenario's canonical spec text for the open-time provenance check.
///
/// # Errors
///
/// [`IndexFileError::UnsupportedPlan`] for streaming/serve scenarios,
/// or any [`TvgiError`] from the writer (I/O, non-constant latency).
pub fn compile_index(
    scenario: &Scenario,
    shards: u32,
    path: &Path,
) -> Result<TvgiSummary, IndexFileError> {
    require_batch_plan(scenario)?;
    let g = scenario.build_graph();
    let limits = scenario.limits();
    let spec = scenario.to_string();
    let start = plan_start(scenario.plan());
    let summary = match (
        narrow_tvg(&g, limits.horizon),
        narrow_policy(scenario.policy(), limits.horizon),
    ) {
        (Ok(narrowed), Some(_)) if start <= limits.horizon => {
            let horizon = u32::try_from(limits.horizon).expect("narrowing checked the horizon");
            let index = TvgIndex::compile(&narrowed, horizon);
            write_tvgi(&index, shards, Some(&spec), path)?
        }
        _ => {
            let index = TvgIndex::compile(&g, limits.horizon);
            write_tvgi(&index, shards, Some(&spec), path)?
        }
    };
    Ok(summary)
}

/// Runs the scenario's batch plan from a `.tvgi` file instead of
/// regenerating and recompiling: the header's stored width picks the
/// time domain, the embedded spec text is checked against the
/// scenario, and the plan dispatches through the same generic batch
/// runners a direct run uses. The returned [`Report`]'s canonical
/// bytes equal `scenario.run()`'s.
///
/// # Errors
///
/// [`IndexFileError::UnsupportedPlan`] for streaming/serve scenarios,
/// [`IndexFileError::SpecMismatch`] when the file was compiled for a
/// different workload, or any [`TvgiError`] from opening the file.
pub fn run_with_index(scenario: &Scenario, path: &Path) -> Result<Report, IndexFileError> {
    require_batch_plan(scenario)?;
    match peek_tvgi(path)?.width {
        4 => run_on::<u32>(scenario, path),
        _ => run_on::<u64>(scenario, path),
    }
}

/// Converts the scenario's `u64` policy into the file's time domain.
/// A `u32` file exists only because [`narrow_policy`] proved the
/// bounded delay fits, so the conversion cannot truncate.
fn policy_in<T: TvgiTime>(policy: &WaitingPolicy<u64>) -> WaitingPolicy<T> {
    match policy {
        WaitingPolicy::NoWait => WaitingPolicy::NoWait,
        WaitingPolicy::Unbounded => WaitingPolicy::Unbounded,
        WaitingPolicy::Bounded(d) => WaitingPolicy::Bounded(T::from_u64(*d)),
    }
}

fn run_on<T: TvgiTime + Send + Sync>(
    scenario: &Scenario,
    path: &Path,
) -> Result<Report, IndexFileError> {
    let started = std::time::Instant::now();
    let index = ShardedIndex::<T>::open(path)?;
    let opened = std::time::Instant::now();
    if index.spec() != scenario.to_string() {
        return Err(IndexFileError::SpecMismatch {
            scenario: scenario.name().to_string(),
        });
    }
    let batch = scenario.batch();
    let limits = SearchLimits::new(
        T::from_u64(scenario.plan().horizon()),
        scenario.plan().max_hops(),
    );
    let policy = policy_in::<T>(scenario.policy());
    let (results, engine) = match scenario.plan() {
        Plan::SingleSource { src, start, .. } => {
            run_single_source(&index, batch, *src, &T::from_u64(*start), &policy, &limits)
        }
        Plan::Matrix { start, .. } => {
            run_matrix(&index, batch, &T::from_u64(*start), &policy, &limits)
        }
        Plan::MatrixSample {
            sources,
            seed,
            start,
            ..
        } => run_matrix_sample(
            &index,
            batch,
            *sources,
            *seed,
            &T::from_u64(*start),
            &policy,
            &limits,
        ),
        Plan::Broadcast {
            source, beacons, ..
        } => run_broadcast_plan(&index, batch, *source, *beacons, &policy, &limits),
        Plan::Streaming { .. } | Plan::Serve { .. } => {
            unreachable!("require_batch_plan rejected feed-defined plans")
        }
    };
    let micros =
        |span: std::time::Duration| Json::Int(u64::try_from(span.as_micros()).unwrap_or(u64::MAX));
    let timing = obj([
        ("open_us", micros(opened - started)),
        ("plan_us", micros(opened.elapsed())),
    ]);
    Ok(Report {
        scenario: scenario.name().to_string(),
        generator: scenario.generator().name(),
        generator_params: scenario.generator().params_json(),
        policy: scenario.policy().to_string(),
        plan: scenario.plan().name(),
        threads: scenario.threads().to_string(),
        nodes: index.num_nodes(),
        edges: index.num_edges(),
        edge_events: index.num_edge_events(),
        results,
        engine,
        wall_micros: started.elapsed().as_micros(),
        timing,
    })
}
