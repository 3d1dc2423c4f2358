//! The library behind the `tvg-cli` binary: spec-file handling, report
//! emission, and golden verification, kept out of `main.rs` so the
//! integration tests drive exactly the code the binary runs.
//!
//! Commands (see [`run_command`]):
//!
//! * `run <spec>... [--index <file.tvgi>]` — execute every scenario in
//!   the files, print one canonical JSON report per line to stdout
//!   (wall times go to stderr: they are real but not canonical). With
//!   `--index`, batch plans are answered from a compiled `.tvgi` index
//!   file (see `compile`) instead of regenerating and recompiling —
//!   same canonical bytes, no compile cost.
//! * `check <spec>...` — parse and fully validate, run nothing.
//! * `compile <spec> -o <file.tvgi> [--shards <k>] [--scenario <name>]`
//!   — compile one scenario's index and serialize it as a sharded
//!   on-disk `.tvgi` file for `run --index`.
//! * `profile <spec>...` — run every scenario and print one JSON line of
//!   engine throughput each (queries/sec, settles/sec, time/query) —
//!   the profiling-first gate's human- and CI-artifact-facing face.
//! * `verify <dir>` — run every `*.tvgs` spec under `<dir>` and
//!   byte-compare the output with the checked-in golden
//!   `<dir>/golden/<stem>.json`; any difference is a failure. This is
//!   the CI golden gate (run at `TVG_BATCH_THREADS=1` and `=4`).
//! * `bless <dir>` — regenerate the goldens `verify` compares against.
//!
//! Every failure is reported with its file; the process-level exit code
//! is nonzero iff anything failed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tvg_scenarios::{parse_specs, Scenario};

/// A CLI failure: what went wrong, tied to the file it happened in.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No command or an unknown command was given.
    Usage(String),
    /// A spec argument that is a directory, not a spec file (`run`,
    /// `check`, `profile`, and `compile` take files; `verify` and
    /// `bless` are the directory-shaped commands).
    IsDirectory {
        /// The directory that was passed where a file was needed.
        path: PathBuf,
    },
    /// A `.tvgi` index file could not be compiled, opened, or run
    /// (format corruption, workload mismatch, unsupported plan).
    Index {
        /// The index file involved.
        path: PathBuf,
        /// The typed index error, stringified for display.
        error: String,
    },
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error, stringified.
        error: String,
    },
    /// A spec failed to parse/validate.
    BadSpec {
        /// The spec file.
        path: PathBuf,
        /// The typed parse error, stringified for display.
        error: String,
    },
    /// One or more golden comparisons failed (`verify` checks every
    /// spec before failing, so all drifted goldens are listed at once).
    GoldenMismatch {
        /// Every spec whose report diverged, paired with the first line
        /// at which report and golden differ (1-based).
        mismatches: Vec<(PathBuf, usize)>,
        /// Golden files with no matching `*.tvgs` spec — stale leftovers
        /// from a renamed or deleted spec. They are drift too: a gate
        /// that silently carries dead goldens can green-light a rename
        /// that quietly dropped coverage.
        orphans: Vec<PathBuf>,
    },
    /// `verify` found no spec files at all (an empty gate must fail
    /// loudly, not pass vacuously).
    NoSpecs {
        /// The directory searched.
        dir: PathBuf,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::IsDirectory { path } => write!(
                f,
                "{}: is a directory, not a spec file (pass a *.tvgs file; \
                 `verify` and `bless` take directories)",
                path.display()
            ),
            CliError::Index { path, error } => write!(f, "{}: {error}", path.display()),
            CliError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            CliError::BadSpec { path, error } => write!(f, "{}: {error}", path.display()),
            CliError::GoldenMismatch {
                mismatches,
                orphans,
            } => {
                for (path, line) in mismatches {
                    writeln!(
                        f,
                        "{}: report differs from golden at line {line}",
                        path.display()
                    )?;
                }
                for path in orphans {
                    writeln!(f, "{}: orphaned golden (no matching spec)", path.display())?;
                }
                write!(f, "run `tvg-cli bless` to accept intended drift")
            }
            CliError::NoSpecs { dir } => {
                write!(f, "{}: no *.tvgs specs found", dir.display())
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The usage string printed on argument errors.
pub const USAGE: &str = "usage: tvg-cli <command> [args]
  run <spec>... [--index <file.tvgi>]
                    run scenarios, print canonical JSON reports to stdout;
                    with --index, answer batch plans from a compiled
                    index file instead of regenerating and recompiling
  check <spec>...   parse and validate specs without running them
  compile <spec> -o <file.tvgi> [--shards <k>] [--scenario <name>]
                    compile a scenario's index once and serialize it as
                    a sharded on-disk .tvgi index file
  profile <spec>... run scenarios and print engine throughput (queries/sec,
                    settles/sec, time/query) as one JSON line per scenario
  verify <dir>      run every <dir>/*.tvgs and diff against <dir>/golden/
  bless <dir>       regenerate <dir>/golden/ from the current reports";

/// Output of a successful command: what to print to stdout and stderr.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Output {
    /// Canonical output (reports, verification summary).
    pub stdout: String,
    /// Human commentary (wall times, per-file progress).
    pub stderr: String,
}

/// Parses and runs one CLI invocation (`args` excludes the binary name).
///
/// # Errors
///
/// Returns the first [`CliError`] encountered; the caller maps any error
/// to a nonzero exit code.
pub fn run_command(args: &[String]) -> Result<Output, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".to_string()))?;
    match command.as_str() {
        "run" => {
            let (index, specs) = take_index_flag(rest)?;
            if specs.is_empty() {
                return Err(CliError::Usage("run: need at least one spec file".into()));
            }
            let mut out = Output::default();
            for path in specs.iter().map(|s| Path::new(s.as_str())) {
                let scenarios = load_specs(path)?;
                for scenario in &scenarios {
                    let report = match &index {
                        Some(index_path) => tvg_scenarios::run_with_index(scenario, index_path)
                            .map_err(|e| CliError::Index {
                                path: index_path.clone(),
                                error: e.to_string(),
                            })?,
                        None => scenario.run(),
                    };
                    writeln!(out.stdout, "{}", report.canonical_json()).expect("string write");
                    writeln!(
                        out.stderr,
                        "ran {} ({}) in {} µs",
                        scenario.name(),
                        path.display(),
                        report.wall_micros()
                    )
                    .expect("string write");
                    let timing = report.timing();
                    if timing != &tvg_scenarios::Json::Null {
                        writeln!(out.stderr, "timing {} {timing}", scenario.name())
                            .expect("string write");
                    }
                }
            }
            Ok(out)
        }
        "check" => {
            if rest.is_empty() {
                return Err(CliError::Usage("check: need at least one spec file".into()));
            }
            let mut out = Output::default();
            for path in rest.iter().map(Path::new) {
                let scenarios = load_specs(path)?;
                writeln!(
                    out.stdout,
                    "ok {} ({} scenario{})",
                    path.display(),
                    scenarios.len(),
                    if scenarios.len() == 1 { "" } else { "s" }
                )
                .expect("string write");
            }
            Ok(out)
        }
        "compile" => {
            let mut spec_path: Option<PathBuf> = None;
            let mut out_path: Option<PathBuf> = None;
            let mut shards: u32 = 1;
            let mut pick: Option<String> = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "-o" | "--out" => {
                        out_path = Some(PathBuf::from(it.next().ok_or_else(|| {
                            CliError::Usage("compile: -o needs an output path".into())
                        })?));
                    }
                    "--shards" => {
                        shards = it
                            .next()
                            .and_then(|s| s.parse().ok())
                            .filter(|&k| k > 0)
                            .ok_or_else(|| {
                                CliError::Usage("compile: --shards needs a positive integer".into())
                            })?;
                    }
                    "--scenario" => {
                        pick = Some(
                            it.next()
                                .ok_or_else(|| {
                                    CliError::Usage("compile: --scenario needs a name".into())
                                })?
                                .clone(),
                        );
                    }
                    other if spec_path.is_none() && !other.starts_with('-') => {
                        spec_path = Some(PathBuf::from(other));
                    }
                    other => {
                        return Err(CliError::Usage(format!(
                            "compile: unexpected argument {other:?}"
                        )))
                    }
                }
            }
            let spec_path =
                spec_path.ok_or_else(|| CliError::Usage("compile: need a spec file".into()))?;
            let out_path =
                out_path.ok_or_else(|| CliError::Usage("compile: need -o <file.tvgi>".into()))?;
            let scenarios = load_specs(&spec_path)?;
            let scenario = match &pick {
                Some(name) => scenarios.iter().find(|s| s.name() == name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "compile: no scenario named {name:?} in {}",
                        spec_path.display()
                    ))
                })?,
                None => match scenarios.as_slice() {
                    [one] => one,
                    many => {
                        return Err(CliError::Usage(format!(
                            "compile: {} holds {} scenarios; pick one with --scenario <name>",
                            spec_path.display(),
                            many.len()
                        )))
                    }
                },
            };
            let summary =
                tvg_scenarios::compile_index(scenario, shards, &out_path).map_err(|e| {
                    CliError::Index {
                        path: out_path.clone(),
                        error: e.to_string(),
                    }
                })?;
            let mut out = Output::default();
            writeln!(
                out.stdout,
                "compiled {} -> {} ({} bytes, {} shards, width {}, {} nodes, {} edges, \
                 {} spans, {} events)",
                scenario.name(),
                out_path.display(),
                summary.bytes,
                summary.shards,
                summary.width,
                summary.num_nodes,
                summary.num_edges,
                summary.num_spans,
                2 * summary.num_spans,
            )
            .expect("string write");
            Ok(out)
        }
        "profile" => {
            if rest.is_empty() {
                return Err(CliError::Usage(
                    "profile: need at least one spec file".into(),
                ));
            }
            let mut out = Output::default();
            for path in rest.iter().map(Path::new) {
                let scenarios = load_specs(path)?;
                for scenario in &scenarios {
                    writeln!(out.stdout, "{}", profile_line(scenario)).expect("string write");
                }
            }
            Ok(out)
        }
        "verify" => {
            let dir = single_dir(rest, "verify")?;
            let mut out = Output::default();
            let mut mismatches = Vec::new();
            for (spec_path, golden_path) in spec_files(&dir)? {
                let report = render_reports(&spec_path)?;
                // A missing golden is drift (the spec was never
                // blessed), folded into the same mismatch list so one
                // verify run reports every failing spec; any other read
                // failure is a real I/O problem and surfaces as such.
                let golden = match std::fs::read_to_string(&golden_path) {
                    Ok(text) => text,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                    Err(e) => {
                        return Err(CliError::Io {
                            path: golden_path.clone(),
                            error: e.to_string(),
                        })
                    }
                };
                if report != golden {
                    let line = tvg_scenarios::first_divergent_line(&report, &golden);
                    mismatches.push((spec_path, line));
                    continue;
                }
                writeln!(out.stdout, "verified {}", spec_path.display()).expect("string write");
            }
            let orphans = orphaned_goldens(&dir)?;
            if mismatches.is_empty() && orphans.is_empty() {
                Ok(out)
            } else {
                Err(CliError::GoldenMismatch {
                    mismatches,
                    orphans,
                })
            }
        }
        "bless" => {
            let dir = single_dir(rest, "bless")?;
            let golden_dir = dir.join("golden");
            std::fs::create_dir_all(&golden_dir).map_err(|e| CliError::Io {
                path: golden_dir.clone(),
                error: e.to_string(),
            })?;
            let mut out = Output::default();
            for (spec_path, golden_path) in spec_files(&dir)? {
                let report = render_reports(&spec_path)?;
                std::fs::write(&golden_path, &report).map_err(|e| CliError::Io {
                    path: golden_path.clone(),
                    error: e.to_string(),
                })?;
                writeln!(out.stdout, "blessed {}", golden_path.display()).expect("string write");
            }
            // Blessing accepts *all* intended drift, including goldens
            // whose spec was renamed or deleted since the last bless.
            for orphan in orphaned_goldens(&dir)? {
                std::fs::remove_file(&orphan).map_err(|e| CliError::Io {
                    path: orphan.clone(),
                    error: e.to_string(),
                })?;
                writeln!(out.stdout, "removed {}", orphan.display()).expect("string write");
            }
            Ok(out)
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Runs one scenario and renders its engine throughput as a single JSON
/// line: the run/settle/expansion counters from the report's
/// [`tvg_journeys::EngineStats`], the wall time, and the derived rates
/// the profiling workflow watches (queries/sec, settles/sec, ns/query).
/// A serve scenario additionally reports its publication metrics —
/// epoch count, mean events per epoch, frozen chunks shared with the
/// final snapshot, chunk copies forced by snapshot isolation, and the
/// epochs/sec publication rate.
///
/// Counters (including the publication chunk/event counters) are
/// deterministic (golden-pinned); the wall time and rates are real
/// measurements and vary run to run — `profile` output is for humans
/// and CI artifacts, never for golden comparison.
#[must_use]
pub fn profile_line(scenario: &Scenario) -> String {
    let report = scenario.run();
    let stats = report.engine_stats();
    let wall_us = report.wall_micros().max(1);
    let per_sec = |count: u64| (u128::from(count) * 1_000_000) / wall_us;
    let mut line = format!(
        "{{\"scenario\": \"{}\", \"runs\": {}, \"settled\": {}, \"expanded\": {}, \
         \"wall_us\": {wall_us}, \"queries_per_sec\": {}, \"settles_per_sec\": {}, \
         \"ns_per_query\": {}",
        scenario.name(),
        stats.runs,
        stats.settled,
        stats.expanded,
        per_sec(stats.runs),
        per_sec(stats.settled),
        ns_per_query(wall_us, stats.runs),
    );
    if let Some(publication) = publication_profile(report.timing()) {
        line.push_str(&publication);
    }
    line.push('}');
    line
}

/// Wall time per engine run at nanosecond resolution. Batch specs
/// routinely answer a query in well under a microsecond, so a µs-domain
/// division truncates them all to an impossibly fast `0`; scaling to
/// nanoseconds first keeps the quotient meaningful.
fn ns_per_query(wall_us: u128, runs: u64) -> u128 {
    wall_us.saturating_mul(1_000) / u128::from(runs.max(1))
}

/// The serve plan's publication metrics as extra profile-line fields
/// (`None` for plans without a publication timing section).
fn publication_profile(timing: &tvg_scenarios::Json) -> Option<String> {
    use tvg_scenarios::Json;
    let Json::Obj(map) = timing else { return None };
    let ints = |key: &str| -> Option<Vec<u64>> {
        let Some(Json::Arr(items)) = map.get(key) else {
            return None;
        };
        items
            .iter()
            .map(|v| match v {
                Json::Int(n) => Some(*n),
                _ => None,
            })
            .collect()
    };
    let events = ints("events_per_epoch")?;
    let frozen = ints("chunks_frozen")?;
    let copied = ints("chunks_copied")?;
    let epochs_per_sec = match map.get("epochs_per_sec") {
        Some(Json::Num(r)) => *r,
        _ => 0.0,
    };
    let epochs = events.len() as u64;
    // Epoch 0 precedes any ingest, so the mean is over the ticks.
    let mean_events = events.iter().sum::<u64>() / epochs.saturating_sub(1).max(1);
    Some(format!(
        ", \"epochs\": {epochs}, \"events_per_epoch\": {mean_events}, \
         \"chunks_frozen\": {}, \"chunks_copied\": {}, \"epochs_per_sec\": {epochs_per_sec}",
        frozen.last().copied().unwrap_or(0),
        copied.iter().sum::<u64>(),
    ))
}

/// The `*.json` files under `<dir>/golden/` that no `<dir>/*.tvgs` spec
/// would produce, sorted by name. A missing golden directory is simply
/// empty (nothing was ever blessed).
fn orphaned_goldens(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let expected: std::collections::BTreeSet<PathBuf> = spec_files(dir)?
        .into_iter()
        .map(|(_, golden)| golden)
        .collect();
    let golden_dir = dir.join("golden");
    let entries = match std::fs::read_dir(&golden_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(CliError::Io {
                path: golden_dir,
                error: e.to_string(),
            })
        }
    };
    let mut orphans: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .filter(|p| !expected.contains(p))
        .collect();
    orphans.sort();
    Ok(orphans)
}

fn single_dir(rest: &[String], command: &str) -> Result<PathBuf, CliError> {
    match rest {
        [dir] => Ok(PathBuf::from(dir)),
        _ => Err(CliError::Usage(format!(
            "{command}: need exactly one directory"
        ))),
    }
}

/// The workspace's bundled `scenarios/` directory, resolved relative to
/// this crate so every gate that consumes the bundle (the CLI tests,
/// the dump binaries, the root user stories) agrees on one location.
#[must_use]
pub fn bundled_scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Splits `rest` into an optional `--index <path>` flag and the
/// remaining (spec-file) arguments, in order.
fn take_index_flag(rest: &[String]) -> Result<(Option<PathBuf>, Vec<String>), CliError> {
    let mut index = None;
    let mut specs = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--index" {
            index = Some(PathBuf::from(it.next().ok_or_else(|| {
                CliError::Usage("run: --index needs a .tvgi path".into())
            })?));
        } else {
            specs.push(arg.clone());
        }
    }
    Ok((index, specs))
}

/// Loads and fully validates a spec file. A directory is a typed
/// [`CliError::IsDirectory`] up front — `read_to_string` on a
/// directory would otherwise surface as an opaque I/O error.
pub fn load_specs(path: &Path) -> Result<Vec<Scenario>, CliError> {
    if path.is_dir() {
        return Err(CliError::IsDirectory {
            path: path.to_path_buf(),
        });
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_path_buf(),
        error: e.to_string(),
    })?;
    parse_specs(&text).map_err(|e| CliError::BadSpec {
        path: path.to_path_buf(),
        error: e.to_string(),
    })
}

/// Runs every scenario in a spec file and concatenates the canonical
/// report lines — the exact bytes `verify` diffs and `bless` writes.
pub fn render_reports(path: &Path) -> Result<String, CliError> {
    let mut out = String::new();
    for scenario in load_specs(path)? {
        out.push_str(&scenario.run().canonical_json());
        out.push('\n');
    }
    Ok(out)
}

/// The `(spec, golden)` path pairs of a scenario directory, sorted by
/// file name so runs are order-deterministic.
pub fn spec_files(dir: &Path) -> Result<Vec<(PathBuf, PathBuf)>, CliError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CliError::Io {
        path: dir.to_path_buf(),
        error: e.to_string(),
    })?;
    let mut specs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "tvgs"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        return Err(CliError::NoSpecs {
            dir: dir.to_path_buf(),
        });
    }
    Ok(specs
        .into_iter()
        .map(|spec| {
            let stem = spec.file_stem().expect("tvgs files have stems");
            let golden = dir
                .join("golden")
                .join(format!("{}.json", stem.to_string_lossy()));
            (spec, golden)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::ns_per_query;

    /// The bug this replaced: `wall_us / runs` truncated every
    /// sub-microsecond query to 0 — a 1 µs wall over 8 runs profiled as
    /// infinitely fast. The ns-domain quotient stays meaningful.
    #[test]
    fn sub_microsecond_queries_profile_as_nonzero() {
        assert_eq!(ns_per_query(1, 8), 125);
        assert_eq!(ns_per_query(1000, 3), 333_333);
        assert_eq!(ns_per_query(5, 1), 5_000);
        // Zero runs must not divide by zero.
        assert_eq!(ns_per_query(7, 0), 7_000);
        // And the µs→ns scaling saturates rather than overflowing.
        assert_eq!(ns_per_query(u128::MAX, 1), u128::MAX);
    }
}
