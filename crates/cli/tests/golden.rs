//! The golden gate, in-tree: every bundled spec under `scenarios/` must
//! reproduce its checked-in golden report byte for byte — through the
//! same code path the `tvg-cli verify` CI job runs. A report drift
//! without a blessed golden fails `cargo test` before it ever reaches
//! CI.

use tvg_cli::{bundled_scenarios_dir as scenarios_dir, run_command, spec_files, CliError};
use tvg_scenarios::Threads;

#[test]
fn bundled_specs_reproduce_their_goldens() {
    let dir = scenarios_dir();
    let pairs = spec_files(&dir).expect("bundled specs exist");
    assert_eq!(pairs.len(), 12, "twelve bundled spec files ship in-tree");
    for (spec, golden) in pairs {
        let report = run_command(&["run".to_string(), spec.display().to_string()])
            .expect("spec runs")
            .stdout;
        let golden_text = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!("{}: {e} (run `tvg-cli bless scenarios`)", golden.display())
        });
        assert_eq!(
            report,
            golden_text,
            "{}: report drifted from golden (re-bless if intended)",
            spec.display()
        );
    }
}

#[test]
fn bundled_specs_are_thread_invariant() {
    // The golden bytes must be reachable from any thread count — this is
    // what lets CI verify at TVG_BATCH_THREADS=1 and =4 against ONE
    // golden. Pin it explicitly per scenario, independent of env.
    let dir = scenarios_dir();
    for (spec, _) in spec_files(&dir).expect("bundled specs exist") {
        for scenario in tvg_cli::load_specs(&spec).expect("spec parses") {
            let one = scenario.with_threads(Threads::Fixed(1)).run();
            let four = scenario.with_threads(Threads::Fixed(4)).run();
            assert_eq!(
                one.canonical_json()
                    .replace("\"threads\":\"1\"", "\"threads\":\"4\""),
                four.canonical_json(),
                "{}: results changed with thread count",
                scenario.name()
            );
        }
    }
}

#[test]
fn verify_command_passes_on_the_bundled_tree() {
    let dir = scenarios_dir();
    let out = run_command(&["verify".to_string(), dir.display().to_string()])
        .expect("bundled goldens verify");
    assert_eq!(out.stdout.lines().count(), 12);
    assert!(out.stdout.lines().all(|l| l.starts_with("verified ")));
}

#[test]
fn verify_detects_a_single_byte_of_drift() {
    // Copy the tree into a temp dir, flip one byte of one golden,
    // delete another entirely, and plant a golden with no spec: the
    // gate must fail with one error that names ALL THREE (verify checks
    // everything before failing; a missing golden counts as drift, and
    // so does an orphaned one).
    let dir = scenarios_dir();
    let tmp = std::env::temp_dir().join(format!("tvg-cli-golden-drift-{}", std::process::id()));
    let golden_tmp = tmp.join("golden");
    std::fs::create_dir_all(&golden_tmp).expect("temp dir");
    for (spec, golden) in spec_files(&dir).expect("bundled specs exist") {
        std::fs::copy(&spec, tmp.join(spec.file_name().expect("file name"))).expect("copy spec");
        std::fs::copy(
            &golden,
            golden_tmp.join(golden.file_name().expect("file name")),
        )
        .expect("copy golden");
    }
    let victim = golden_tmp.join("ring-matrix.json");
    let mut text = std::fs::read_to_string(&victim).expect("golden exists");
    text = text.replace("\"ratio\":0.5", "\"ratio\":0.75");
    std::fs::write(&victim, text).expect("write tampered golden");
    std::fs::remove_file(golden_tmp.join("star-ferry-single.json")).expect("remove golden");
    std::fs::write(golden_tmp.join("ghost-spec.json"), "{}\n").expect("plant orphaned golden");
    let err = run_command(&["verify".to_string(), tmp.display().to_string()])
        .expect_err("tampered golden must fail");
    match err {
        CliError::GoldenMismatch {
            mismatches,
            orphans,
        } => {
            let names: Vec<_> = mismatches
                .iter()
                .map(|(p, _)| p.file_name().expect("spec file").to_string_lossy())
                .collect();
            assert_eq!(
                names,
                ["ring-matrix.tvgs", "star-ferry-single.tvgs"],
                "both failing specs reported in one pass"
            );
            let stray: Vec<_> = orphans
                .iter()
                .map(|p| p.file_name().expect("golden file").to_string_lossy())
                .collect();
            assert_eq!(stray, ["ghost-spec.json"], "the orphan is drift too");
        }
        other => panic!("expected GoldenMismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn bless_removes_orphaned_goldens() {
    // `bless` accepts all intended drift, including goldens left behind
    // by a renamed or deleted spec — after a bless, verify must pass.
    let dir = scenarios_dir();
    let tmp = std::env::temp_dir().join(format!("tvg-cli-golden-orphan-{}", std::process::id()));
    let golden_tmp = tmp.join("golden");
    std::fs::create_dir_all(&golden_tmp).expect("temp dir");
    std::fs::copy(dir.join("ring-matrix.tvgs"), tmp.join("ring-matrix.tvgs")).expect("copy spec");
    std::fs::copy(
        dir.join("golden/ring-matrix.json"),
        golden_tmp.join("ring-matrix.json"),
    )
    .expect("copy golden");
    std::fs::write(golden_tmp.join("renamed-away.json"), "{}\n").expect("plant orphaned golden");
    let tmp_arg = tmp.display().to_string();
    let err = run_command(&["verify".to_string(), tmp_arg.clone()])
        .expect_err("orphan alone must fail verify");
    assert!(
        matches!(&err, CliError::GoldenMismatch { mismatches, orphans }
            if mismatches.is_empty() && orphans.len() == 1),
        "expected a pure-orphan mismatch, got {err:?}"
    );
    let blessed = run_command(&["bless".to_string(), tmp_arg.clone()]).expect("bless succeeds");
    assert!(
        blessed.stdout.contains("removed ") && blessed.stdout.contains("renamed-away.json"),
        "bless reports the removal: {}",
        blessed.stdout
    );
    run_command(&["verify".to_string(), tmp_arg]).expect("verify passes after bless");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn usage_and_missing_files_are_typed_errors() {
    assert!(matches!(run_command(&[]), Err(CliError::Usage(_))));
    assert!(matches!(
        run_command(&["frobnicate".to_string()]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run_command(&["run".to_string()]),
        Err(CliError::Usage(_))
    ));
    assert!(matches!(
        run_command(&["run".to_string(), "/no/such/spec.tvgs".to_string()]),
        Err(CliError::Io { .. })
    ));
    let empty = std::env::temp_dir().join(format!("tvg-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir");
    assert!(matches!(
        run_command(&["verify".to_string(), empty.display().to_string()]),
        Err(CliError::NoSpecs { .. })
    ));
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn run_command_emits_one_canonical_line_per_scenario() {
    let dir = scenarios_dir();
    let spec = dir.join("ring-matrix.tvgs");
    let out = run_command(&["run".to_string(), spec.display().to_string()]).expect("runs");
    assert_eq!(out.stdout.lines().count(), 1);
    let golden =
        std::fs::read_to_string(dir.join("golden/ring-matrix.json")).expect("golden exists");
    assert_eq!(out.stdout, golden);
    assert!(out.stderr.contains("ran ring-matrix"));
}

#[test]
fn profile_command_reports_throughput_per_scenario() {
    let dir = scenarios_dir();
    let spec = dir.join("ring-matrix.tvgs");
    let out = run_command(&["profile".to_string(), spec.display().to_string()]).expect("profiles");
    assert_eq!(out.stdout.lines().count(), 1, "one JSON line per scenario");
    let line = out.stdout.lines().next().expect("one line");
    // Wall times (and thus the rates) vary run to run; the line's shape
    // and its deterministic counters must not.
    for field in [
        "\"scenario\": \"ring-matrix\"",
        "\"runs\": ",
        "\"settled\": ",
        "\"expanded\": ",
        "\"wall_us\": ",
        "\"engine_us\": ",
        "\"queries_per_sec\": ",
        "\"settles_per_sec\": ",
        "\"ns_per_query\": ",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
    // The counters agree with what the golden report pinned.
    let golden =
        std::fs::read_to_string(dir.join("golden/ring-matrix.json")).expect("golden exists");
    for counter in ["runs", "settled", "expanded"] {
        let pinned = golden
            .split(&format!("\"{counter}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .expect("golden pins the counter");
        assert!(
            line.contains(&format!("\"{counter}\": {pinned}")),
            "{counter} drifted from the golden's {pinned}: {line}"
        );
    }
    assert!(
        run_command(&["profile".to_string()]).is_err(),
        "profile with no specs is a usage error"
    );
}

#[test]
fn profile_serve_line_reports_publication_and_ingest() {
    let spec = scenarios_dir().join("scale-free-serve.tvgs");
    let out = run_command(&["profile".to_string(), spec.display().to_string()]).expect("profiles");
    let line = out.stdout.lines().next().expect("one line");
    for field in [
        "\"epochs\": 7",
        "\"chunks_frozen\": ",
        "\"chunks_copied\": ",
        "\"ingest_us\": ",
        "\"publish_us\": ",
        "\"engine_us\": ",
        "\"epochs_per_sec\": ",
        "\"requests_per_sec\": ",
    ] {
        assert!(line.contains(field), "missing {field} in {line}");
    }
}
