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
//! * `compile <spec> -o <file.tvgi> [--scenario <name>]` — compile one
//!   scenario's index and serialize it as an on-disk `.tvgi` file for
//!   `run --index` (its phase timing goes to stderr).
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
use tvg_scenarios::{parse_specs, Json, Scenario};

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
const USAGE: &str = "usage: tvg-cli <command> [args]
  run <spec>... [--index <file.tvgi>]
                    run scenarios, print canonical JSON reports to stdout;
                    with --index, answer batch plans from a compiled
                    index file instead of regenerating and recompiling
  check <spec>...   parse and validate specs without running them
  compile <spec> -o <file.tvgi> [--scenario <name>]
                    compile a scenario's index once and serialize it as
                    an on-disk .tvgi index file
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
            let ([index], specs) = take_flags("run", rest, ["--index"])?;
            let index = index.map(PathBuf::from);
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
                        report.wall_us()
                    )
                    .expect("string write");
                    writeln!(out.stderr, "timing {} {}", scenario.name(), report.timing())
                        .expect("string write");
                }
            }
            Ok(out)
        }
        "check" => {
            let ([], specs) = take_flags("check", rest, [])?;
            if specs.is_empty() {
                return Err(CliError::Usage("check: need at least one spec file".into()));
            }
            let mut out = Output::default();
            for path in specs.iter().map(Path::new) {
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
            let ([out_path, pick], specs) = take_flags("compile", rest, ["-o", "--scenario"])?;
            let ([spec_path], Some(out_path)) = (specs.as_slice(), out_path) else {
                return Err(CliError::Usage(
                    "compile: need one spec file and -o <file.tvgi>".into(),
                ));
            };
            let out_path = PathBuf::from(out_path);
            let scenarios = load_specs(Path::new(spec_path))?;
            let scenario = match (&pick, scenarios.as_slice()) {
                (Some(name), all) => all.iter().find(|s| s.name() == name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "compile: no scenario named {name:?} in {spec_path}"
                    ))
                })?,
                (None, [one]) => one,
                (None, many) => {
                    return Err(CliError::Usage(format!(
                        "compile: {spec_path} holds {} scenarios; pick one with --scenario <name>",
                        many.len()
                    )))
                }
            };
            let (summary, timing) =
                tvg_scenarios::compile_index(scenario, &out_path).map_err(|e| CliError::Index {
                    path: out_path.clone(),
                    error: e.to_string(),
                })?;
            let mut out = Output::default();
            writeln!(
                out.stdout,
                "compiled {} -> {} ({} bytes, width {}, {} nodes, {} edges, {} spans, \
                 {} events)",
                scenario.name(),
                out_path.display(),
                summary.bytes,
                summary.width,
                summary.num_nodes,
                summary.num_edges,
                summary.num_spans,
                2 * summary.num_spans,
            )
            .expect("string write");
            writeln!(out.stderr, "timing {} {timing}", scenario.name()).expect("string write");
            Ok(out)
        }
        "profile" => {
            let ([], specs) = take_flags("profile", rest, [])?;
            if specs.is_empty() {
                return Err(CliError::Usage(
                    "profile: need at least one spec file".into(),
                ));
            }
            let mut out = Output::default();
            for path in specs.iter().map(Path::new) {
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
/// [`engine_stats`](tvg_scenarios::Report::engine_stats), the wall
/// time, the engine phase the rates divide by (`engine_us`; see
/// [`engine_us`]), and the derived rates the profiling workflow watches
/// (queries/sec, settles/sec, ns/query; see `rates`). A serve scenario
/// additionally reports its publication metrics — epoch count, mean
/// events per epoch, frozen chunks shared with the final snapshot,
/// chunk copies forced by snapshot isolation, the writer's ingest and
/// publish spans, epochs per second of publication and requests per
/// second of the serve phase.
///
/// Counters (including the publication chunk/event counters) are
/// deterministic (golden-pinned); the wall time and rates are real
/// measurements and vary run to run — `profile` output is for humans
/// and CI artifacts, never for golden comparison.
#[must_use]
fn profile_line(scenario: &Scenario) -> String {
    let report = scenario.run();
    let stats = report.engine_stats();
    let engine_us = engine_us(report.timing());
    let [queries, settles, ns] = rates(engine_us, stats.runs, stats.settled);
    let mut line = format!(
        "{{\"scenario\": \"{}\", \"runs\": {}, \"settled\": {}, \"expanded\": {}, \
         \"wall_us\": {}, \"engine_us\": {engine_us}, \"queries_per_sec\": {queries}, \
         \"settles_per_sec\": {settles}, \"ns_per_query\": {ns}",
        scenario.name(),
        stats.runs,
        stats.settled,
        stats.expanded,
        report.wall_us(),
    );
    if let Some(publication) = publication_profile(report.timing(), report.results()) {
        line.push_str(&publication);
    }
    line.push('}');
    line
}

/// The integer under `key` of a JSON object, if any.
fn int(json: &Json, key: &str) -> Option<u64> {
    match json {
        Json::Obj(map) => match map.get(key) {
            Some(Json::Int(n)) => Some(*n),
            _ => None,
        },
        _ => None,
    }
}

/// The engine phase every plan's rates divide by: `repair_us +
/// engine_us`, whichever of the two the timing carries. A streaming
/// plan's per-tick repairs are engine work beside its initial tree and
/// final query; generation, narrowing, compile, file open, feed,
/// ingest, publication and reduction stay out.
fn engine_us(timing: &Json) -> u64 {
    ["repair_us", "engine_us"]
        .iter()
        .filter_map(|key| int(timing, key))
        .sum()
}

/// `[queries_per_sec, settles_per_sec, ns_per_query]` for `runs` engine
/// runs that settled `settled` configurations over `span_us`.
fn rates(span_us: u64, runs: u64, settled: u64) -> [u128; 3] {
    let ns = ns_per_query(span_us.max(1).into(), runs);
    [per_sec(runs, span_us), per_sec(settled, span_us), ns]
}

/// `count` per second of `span_us` (a zero span counts as 1 µs).
fn per_sec(count: u64, span_us: u64) -> u128 {
    u128::from(count) * 1_000_000 / u128::from(span_us.max(1))
}

/// Wall time per engine run at nanosecond resolution. Batch specs
/// routinely answer a query in well under a microsecond, so a µs-domain
/// division truncates them all to an impossibly fast `0`; scaling to
/// nanoseconds first keeps the quotient meaningful.
fn ns_per_query(wall_us: u128, runs: u64) -> u128 {
    wall_us.saturating_mul(1_000) / u128::from(runs.max(1))
}

/// The serve plan's publication metrics as extra profile-line fields
/// (`None` for plans without a publication timing section), with its
/// rates derived from the phases that bound them: epochs over
/// `publish_us`, requests over `serve_us`.
fn publication_profile(timing: &Json, results: &Json) -> Option<String> {
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
    let [ingest_us, publish_us, serve_us] =
        ["ingest_us", "publish_us", "serve_us"].map(|key| int(timing, key).unwrap_or(0));
    let epochs = events.len() as u64;
    // Epoch 0 precedes any ingest, so the mean is over the ticks.
    let mean_events = events.iter().sum::<u64>() / epochs.saturating_sub(1).max(1);
    Some(format!(
        ", \"epochs\": {epochs}, \"events_per_epoch\": {mean_events}, \
         \"chunks_frozen\": {}, \"chunks_copied\": {}, \"ingest_us\": {ingest_us}, \
         \"publish_us\": {publish_us}, \"epochs_per_sec\": {}, \"requests_per_sec\": {}",
        frozen.last().copied().unwrap_or(0),
        copied.iter().sum::<u64>(),
        per_sec(epochs, publish_us),
        per_sec(int(results, "requests").unwrap_or(0), serve_us),
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
    match take_flags(command, rest, [])?.1.as_slice() {
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

/// Splits `rest` into the values of `flags`, each taking one argument,
/// and the remaining (spec-file) arguments, in order. A repeated flag
/// and any other flag (a misspelling such as `--indx`) are usage
/// errors, not a silently dropped value or a spec file that does not
/// exist.
fn take_flags<const N: usize>(
    command: &str,
    rest: &[String],
    flags: [&str; N],
) -> Result<([Option<String>; N], Vec<String>), CliError> {
    let usage = |msg: String| CliError::Usage(format!("{command}: {msg}"));
    let mut values = [const { None }; N];
    let mut specs = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match flags.iter().position(|flag| flag == arg) {
            Some(i) => {
                let value = it
                    .next()
                    .ok_or_else(|| usage(format!("{arg} needs a value")))?;
                if values[i].replace(value.clone()).is_some() {
                    return Err(usage(format!("{arg} given more than once")));
                }
            }
            None if arg.starts_with('-') => return Err(usage(format!("unknown flag {arg:?}"))),
            None => specs.push(arg.clone()),
        }
    }
    Ok((values, specs))
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
fn render_reports(path: &Path) -> Result<String, CliError> {
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
    use super::{engine_us, ns_per_query, rates, Json};

    /// `engine_us` of each `key=value` timing in `text`.
    fn engine_us_of(text: &str) -> u64 {
        let timing = text.split(' ').map(|kv| {
            let (key, us) = kv.split_once('=').expect("key=value");
            (key.to_string(), Json::Int(us.parse().expect("integer")))
        });
        engine_us(&Json::Obj(timing.collect()))
    }

    /// Every plan's rates divide by `repair_us + engine_us`, whichever
    /// of the two its timing carries, never by the wall time or by
    /// another phase.
    #[test]
    fn rates_divide_by_the_engine_phase() {
        for (text, span) in [
            (
                "build_us=617083 narrow_us=9 engine_us=12988 reduce_us=40",
                12_988,
            ),
            ("serve_us=900000 publish_us=2 engine_us=400000", 400_000),
            ("build_us=4000 open_us=7", 0),
        ] {
            assert_eq!(engine_us_of(text), span, "{text}");
        }
        assert_eq!(engine_us(&Json::Null), 0);
        assert_eq!(rates(12_988, 8, 21), [615, 1_616, 1_623_500]);
        // A zero-length phase must not divide by zero.
        assert_eq!(rates(0, 2, 3), [2_000_000, 3_000_000, 500]);
    }

    /// A streaming plan's engine phase is its summed per-tick repair
    /// plus its `engine_us` (the initial tree and the final snapshot
    /// query); feed construction and ingest stay out of the rates.
    #[test]
    fn streaming_rates_divide_by_repair_plus_snapshot() {
        for (text, span) in [
            (
                "feed_us=20000 ingest_us=1 repair_us=580000 engine_us=290000",
                870_000,
            ),
            ("ingest_us=300000 repair_us=580000", 580_000),
        ] {
            assert_eq!(engine_us_of(text), span, "{text}");
        }
        assert_eq!(rates(870_000, 87, 174), [100, 200, 10_000_000]);
    }

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
