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

#[test]
fn a_misspelled_flag_is_a_usage_error_not_a_missing_spec() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    let err = run_command(&args(&["run", &spec, "--indx", "x.tvgi"]))
        .expect_err("an unknown flag must fail");
    assert!(
        matches!(err, CliError::Usage(_)),
        "expected Usage, got {err:?}"
    );
    assert!(err.to_string().contains("--indx"));
}

/// The keys of the `timing` line `run` prints on stderr for `scenario`.
fn timing_keys(scenario: &str, run_args: &[&str]) -> Vec<String> {
    let out = run_command(&args(run_args)).expect("run succeeds");
    let prefix = format!("timing {scenario} ");
    let timing = out
        .stderr
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no timing line in {:?}", out.stderr));
    // Integer values carry no quotes, so every quoted string is a key.
    let keys = timing.split('"').skip(1).step_by(2);
    keys.map(String::from).collect()
}

/// `run --index` splits its wall time into the file open and the plan on
/// stderr's `timing` line; the key set is pinned, the values are clocks.
#[test]
fn an_indexed_run_reports_its_open_and_plan_time() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let spec = spec.display().to_string();
    let index = scratch("timing.tvgi").display().to_string();
    run_command(&args(&["compile", &spec, "-o", &index])).expect("bundled spec compiles");
    let keys = timing_keys("ring-matrix", &["run", &spec, "--index", &index]);
    let _ = std::fs::remove_file(&index);
    assert_eq!(keys, ["open_us", "plan_us"]);
}

/// A direct batch run splits it into generation, narrowing plus
/// compile, and the plan.
#[test]
fn a_direct_batch_run_reports_its_build_compile_and_plan_time() {
    let spec = bundled_scenarios_dir().join("ring-matrix.tvgs");
    let keys = timing_keys("ring-matrix", &["run", &spec.display().to_string()]);
    assert_eq!(keys, ["build_us", "compile_us", "plan_us"]);
}

/// A streaming run splits it into generation, feed construction, ingest
/// and repair summed over the ticks, and the final snapshot query. It
/// records no `plan_us`; `profile` takes its rates over repair plus
/// snapshot.
#[test]
fn a_streaming_run_reports_its_feed_ingest_repair_and_snapshot_time() {
    let spec = bundled_scenarios_dir().join("markov-stream.tvgs");
    let keys = timing_keys("markov-stream", &["run", &spec.display().to_string()]);
    assert_eq!(
        keys,
        [
            "build_us",
            "feed_us",
            "ingest_us",
            "repair_us",
            "snapshot_us"
        ]
    );
}
