//! CLI-level gates for the `.tvgi` compile-once workflow and the
//! directory-argument usability fix.

use std::path::PathBuf;
use tvg_cli::{bundled_scenarios_dir, run_command, CliError};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_string()).collect()
}

/// A scratch path unique to this test process and `label`.
fn scratch(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tvg-cli-{}-{label}", std::process::id()))
}

#[test]
fn a_directory_where_a_spec_file_belongs_is_a_typed_error() {
    let dir = bundled_scenarios_dir().display().to_string();
    for command in ["run", "check", "profile"] {
        let err = run_command(&args(&[command, &dir])).expect_err("directories are not specs");
        assert!(
            matches!(err, CliError::IsDirectory { .. }),
            "{command}: expected IsDirectory, got {err:?}"
        );
        // The message tells the user where directories DO go.
        assert!(err.to_string().contains("is a directory"));
        assert!(err.to_string().contains("verify"));
    }
    let out = scratch("dir.tvgi").display().to_string();
    let err = run_command(&args(&["compile", &dir, "-o", &out]))
        .expect_err("compile rejects directories too");
    assert!(matches!(err, CliError::IsDirectory { .. }));
}

#[test]
fn compile_then_run_from_index_reproduces_the_direct_report() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    let index = scratch("ring.tvgi").display().to_string();

    let compiled =
        run_command(&args(&["compile", &spec, "-o", &index])).expect("bundled spec compiles");
    assert!(
        compiled.stdout.starts_with("compiled ring-matrix -> "),
        "unexpected compile output: {}",
        compiled.stdout
    );

    let direct = run_command(&args(&["run", &spec])).expect("direct run");
    let mapped = run_command(&args(&["run", &spec, "--index", &index])).expect("indexed run");
    assert_eq!(
        mapped.stdout, direct.stdout,
        "run --index must reproduce the canonical bytes of a direct run"
    );
    let _ = std::fs::remove_file(&index);
}

#[test]
fn an_index_compiled_for_another_workload_is_a_typed_error() {
    let ring = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let grid = bundled_scenarios_dir().join("grid-nowait-matrix.tvgs");
    let index = scratch("grid.tvgi").display().to_string();
    run_command(&args(&[
        "compile",
        &grid.display().to_string(),
        "-o",
        &index,
    ]))
    .expect("grid spec compiles");
    let err = run_command(&args(&[
        "run",
        &ring.display().to_string(),
        "--index",
        &index,
    ]))
    .expect_err("workload mismatch must fail");
    assert!(
        matches!(err, CliError::Index { .. }),
        "expected Index error, got {err:?}"
    );
    assert!(err.to_string().contains("different workload"));
    let _ = std::fs::remove_file(&index);
}

#[test]
fn compile_on_a_multi_scenario_spec_needs_a_pick() {
    let sweep = bundled_scenarios_dir().join("ring-bus-sweep.tvgs");
    let sweep = sweep.display().to_string();
    let index = scratch("sweep.tvgi").display().to_string();
    let err = run_command(&args(&["compile", &sweep, "-o", &index]))
        .expect_err("ambiguous spec must fail");
    assert!(
        matches!(err, CliError::Usage(_)),
        "expected Usage, got {err:?}"
    );
    assert!(err.to_string().contains("--scenario"));

    let err = run_command(&args(&[
        "compile",
        &sweep,
        "-o",
        &index,
        "--scenario",
        "no-such-scenario",
    ]))
    .expect_err("unknown scenario name must fail");
    assert!(matches!(err, CliError::Usage(_)));
}

#[test]
fn compile_validates_its_flags() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    assert!(matches!(
        run_command(&args(&["compile", &spec])),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run_command(&args(&["compile", &spec, "-o"])),
        Err(CliError::Usage(_))
    ));
    // The shard count is not an option: `compile` writes one shard.
    let err = run_command(&args(&["compile", &spec, "-o", "x.tvgi", "--shards", "2"]))
        .expect_err("--shards was removed");
    assert!(matches!(err, CliError::Usage(_)) && err.to_string().contains("--shards"));
    assert!(matches!(
        run_command(&args(&["run", "--index"])),
        Err(CliError::Usage(_))
    ));
}

#[test]
fn a_repeated_index_flag_is_a_usage_error() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    let err = run_command(&args(&[
        "run", &spec, "--index", "a.tvgi", "--index", "b.tvgi",
    ]))
    .expect_err("two index files must not silently keep the last");
    assert!(
        matches!(err, CliError::Usage(_)),
        "expected Usage, got {err:?}"
    );
    assert!(err.to_string().contains("more than once"));
}

/// A repeated `-o` or `--scenario` is refused before anything is
/// written, rather than silently keeping the last value.
#[test]
fn repeated_compile_flags_are_usage_errors() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    let (a, b) = (scratch("twice-a.tvgi"), scratch("twice-b.tvgi"));
    let (a, b) = (a.display().to_string(), b.display().to_string());
    for repeat in [["-o", &b], ["--scenario", "ring-matrix"]] {
        let argv = ["compile", &spec, "--scenario", "ring-matrix", "-o", &a];
        let err = run_command(&args(&[&argv[..], &repeat[..]].concat()))
            .expect_err("a repeated flag must fail");
        assert!(
            matches!(err, CliError::Usage(_)) && err.to_string().contains("more than once"),
            "{}: got {err:?}",
            repeat[0]
        );
    }
    assert!(!std::path::Path::new(&a).exists() && !std::path::Path::new(&b).exists());
}

/// Every command parses its flags the same way: a flag it does not
/// take (misspelled, or another command's) is a usage error naming the
/// flag, never a spec or directory argument that does not exist.
#[test]
fn a_misspelled_flag_is_a_usage_error_not_a_missing_spec() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    let dir = bundled_scenarios_dir().display().to_string();
    for command in ["run", "check", "compile", "profile", "verify", "bless"] {
        let target = if matches!(command, "verify" | "bless") {
            &dir
        } else {
            &spec
        };
        for flag in ["--indx", "--index"]
            .into_iter()
            .filter(|&f| (command, f) != ("run", "--index"))
        {
            let err = run_command(&args(&[command, flag, "x.tvgi", target]))
                .expect_err("an unknown flag must fail");
            assert!(
                matches!(err, CliError::Usage(_)) && err.to_string().contains(flag),
                "{command} {flag}: expected a usage error naming it, got {err:?}"
            );
        }
    }
}

/// The one timing schema: `argv` prints a `timing` line on stderr with
/// exactly the keys `keys` (in order), and its disjoint phases sum to no
/// more than the run's wall time. Every `_us` key is a phase but the
/// latency percentiles, and serve's writer (`ingest_us`, `publish_us`)
/// and reader (`engine_us`) spans nest inside `serve_us`.
fn assert_phase_schema(argv: &[&str], keys: &str) {
    let started = std::time::Instant::now();
    let out = run_command(&args(argv)).expect("command succeeds");
    let elapsed = u64::try_from(started.elapsed().as_nanos() / 1_000).expect("fits");
    // `<prefix> <scenario> <rest>` on stderr (one scenario per spec).
    let line = |prefix: &str| {
        let rest = out.stderr.lines().find_map(|l| l.strip_prefix(prefix))?;
        Some(rest.split_once(' ')?.1)
    };
    let timing = line("timing ").unwrap_or_else(|| panic!("{argv:?}: {:?}", out.stderr));
    // Values are integers or integer arrays, so every quoted string is a key.
    let found: Vec<&str> = timing.split('"').skip(1).step_by(2).collect();
    assert_eq!(
        found,
        keys.split_whitespace().collect::<Vec<_>>(),
        "{argv:?}"
    );
    // `run` reports the wall time it measured; `compile` none, so the
    // test's own clock bounds it.
    let wall = line("ran ")
        .and_then(|rest| rest.split(" in ").nth(1)?.strip_suffix(" µs")?.parse().ok())
        .unwrap_or(elapsed);
    let mut nested = vec!["p50_us", "p95_us", "max_us"];
    if found.contains(&"serve_us") {
        nested.extend(["ingest_us", "publish_us", "engine_us"]);
    }
    let int_at = |key: &str| -> u64 {
        let value = timing
            .split(&format!("\"{key}\":"))
            .nth(1)
            .unwrap_or_default();
        value
            .split([',', '}'])
            .next()
            .unwrap_or_default()
            .parse()
            .expect("integer")
    };
    let phases: u64 = found
        .iter()
        .filter(|key| key.ends_with("_us") && !nested.contains(key))
        .map(|key| int_at(key))
        .sum();
    assert!(
        phases <= wall,
        "{argv:?}: phases {phases} µs > wall {wall} µs"
    );
}

fn bundled(name: &str) -> String {
    bundled_scenarios_dir()
        .join(format!("{name}.tvgs"))
        .display()
        .to_string()
}

/// `compile` splits its cost into generation, narrowing, the compile
/// proper and the file write.
#[test]
fn compile_reports_its_build_narrow_compile_and_write_time() {
    let index = scratch("schema.tvgi").display().to_string();
    assert_phase_schema(
        &["compile", &bundled("ring-matrix"), "-o", &index],
        "build_us compile_us narrow_us write_us",
    );
    let _ = std::fs::remove_file(&index);
}

/// `run --index` splits its wall time into the file open and the plan:
/// the engine fan-out and the caller-side reduce.
#[test]
fn an_indexed_run_reports_its_open_and_plan_time() {
    let spec = bundled("ring-matrix");
    let index = scratch("timing.tvgi").display().to_string();
    run_command(&args(&["compile", &spec, "-o", &index])).expect("bundled spec compiles");
    assert_phase_schema(
        &["run", &spec, "--index", &index],
        "engine_us open_us reduce_us",
    );
    let _ = std::fs::remove_file(&index);
}

/// A direct batch run splits it into generation, narrowing, compile and
/// the plan (engine plus reduce).
#[test]
fn a_direct_batch_run_reports_its_build_compile_and_plan_time() {
    assert_phase_schema(
        &["run", &bundled("ring-matrix")],
        "build_us compile_us engine_us narrow_us reduce_us",
    );
}

/// A streaming run splits it into generation, feed construction, ingest
/// and repair summed over the ticks, the engine (the initial tree plus
/// the final snapshot query) and the reduce, plus the repairs' replayed
/// and reused survivor counts.
#[test]
fn a_streaming_run_reports_its_feed_ingest_repair_and_snapshot_time() {
    assert_phase_schema(
        &["run", &bundled("markov-stream")],
        "build_us engine_us feed_us ingest_us reduce_us repair_us replayed reused",
    );
}

/// A serve run reports its driver phases, the writer's and readers'
/// spans nested in `serve_us`, the latency percentiles and the per-epoch
/// counter arrays.
#[test]
fn a_serve_run_reports_its_driver_writer_and_reader_time() {
    assert_phase_schema(
        &["run", &bundled("scale-free-serve")],
        "build_us chunks_copied chunks_frozen engine_us events_per_epoch feed_us ingest_us \
         load_us max_us p50_us p95_us publish_us reduce_us serve_us",
    );
}
