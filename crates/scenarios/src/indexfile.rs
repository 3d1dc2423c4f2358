//! Compile-once index files: a scenario's compiled index serialized to
//! a `.tvgi` (see [`tvg_model::tvgi`]) and its batch plans re-run from
//! the opened [`ShardedIndex`] with no recompilation.
//!
//! A `.tvgi` is the second index source of the one batch pipeline in
//! `crate::run`. [`compile_index`] generates the graph, takes the
//! scenario's one time-domain decision (`Scenario::narrowed`), and
//! writes the index a direct [`Scenario::run`] compiles; the file's
//! stored width (4 or 8 bytes per time word) records the outcome.
//! [`run_with_index`] reads that width back, opens the file in the
//! matching domain, and hands the index to the same dispatcher and
//! report builder a direct run uses, so the canonical bytes equal
//! `Scenario::run`'s (the round-trip oracle in the testkit pins this).
//!
//! Only batch-shaped plans (`single_source`, `matrix`, `matrix_sample`,
//! `broadcast`) run from a file: the streaming and serve plans are
//! defined by their ingest feed, which a frozen index does not carry.
//! Every scenario embeds its canonical spec text at write time and
//! [`run_with_index`] refuses a file whose embedded text differs from
//! the scenario it is asked to run — a `.tvgi` is an artifact *of* one
//! workload, not a generic graph container.
//!
//! Both directions time their phases in the report's phase record. An
//! indexed run's `timing` splits its wall time into `open_us` (reading
//! the header, opening and validating the file), `engine_us` and
//! `reduce_us`, so it shows whether it was bound by the decoder or by
//! the engine; [`compile_index`] returns `build_us`, `narrow_us` (when
//! the graph was narrowed), `compile_us` and `write_us`.

use crate::report::{Phase, Phases, Report};
use crate::spec::{Plan, Scenario};
use std::collections::BTreeMap;
use std::path::Path;
use tvg_dynnet::json::Json;
use tvg_model::tvgi::{peek_tvgi, write_tvgi, ShardedIndex, TvgiError, TvgiSummary, TvgiTime};
use tvg_model::{Tvg, TvgIndex};

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

/// Builds the scenario's TVG, compiles its index in the time domain
/// [`Scenario::run`] decides on, and serializes it to `path` as a
/// `.tvgi`, embedding the scenario's canonical spec text for the
/// open-time provenance check. Returns the file's summary and the
/// `timing` object of its phases.
///
/// # Errors
///
/// [`IndexFileError::UnsupportedPlan`] for streaming/serve scenarios,
/// or any [`TvgiError`] from the writer (I/O, non-constant latency).
pub fn compile_index(
    scenario: &Scenario,
    path: &Path,
) -> Result<(TvgiSummary, Json), IndexFileError> {
    require_batch_plan(scenario)?;
    let mut phases = Phases::start();
    let g = phases.time(Phase::Build, || scenario.build_graph());
    let summary = match scenario.narrowed(g, &mut phases) {
        Ok(narrowed) => write_index(scenario, &narrowed, path, &mut phases),
        Err(g) => write_index(scenario, &g, path, &mut phases),
    }?;
    Ok((summary, phases.finish(BTreeMap::new()).1))
}

fn write_index<T: TvgiTime>(
    scenario: &Scenario,
    g: &Tvg<T>,
    path: &Path,
    phases: &mut Phases,
) -> Result<TvgiSummary, IndexFileError> {
    let horizon = T::from_u64(scenario.plan().horizon());
    let index = phases.time(Phase::Compile, || TvgIndex::compile(g, horizon));
    let spec = scenario.to_string();
    Ok(phases.time(Phase::Write, || write_tvgi(&index, 1, Some(&spec), path))?)
}

/// Runs the scenario's batch plan from a `.tvgi` file instead of
/// regenerating and recompiling: the header's stored width picks the
/// time domain, the embedded spec text is checked against the
/// scenario, and the plan runs through the same dispatcher and report
/// builder a direct run uses. The returned [`Report`]'s canonical
/// bytes equal `scenario.run()`'s.
///
/// # Errors
///
/// [`IndexFileError::UnsupportedPlan`] for streaming/serve scenarios,
/// [`IndexFileError::SpecMismatch`] when the file was compiled for a
/// different workload, or any [`TvgiError`] from opening the file.
pub fn run_with_index(scenario: &Scenario, path: &Path) -> Result<Report, IndexFileError> {
    require_batch_plan(scenario)?;
    let mut phases = Phases::start();
    match phases.time(Phase::Open, || peek_tvgi(path))? {
        4 => run_on::<u32>(scenario, path, phases),
        _ => run_on::<u64>(scenario, path, phases),
    }
}

fn run_on<T: TvgiTime + Send + Sync>(
    scenario: &Scenario,
    path: &Path,
    mut phases: Phases,
) -> Result<Report, IndexFileError> {
    let index = phases.time(Phase::Open, || ShardedIndex::<T>::open(path))?;
    if index.spec() != scenario.to_string() {
        return Err(IndexFileError::SpecMismatch {
            scenario: scenario.name().to_string(),
        });
    }
    Ok(scenario.run_batch_plan(&index, phases))
}
