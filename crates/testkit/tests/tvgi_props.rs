//! The `.tvgi` on-disk index gates.
//!
//! Two families of properties:
//!
//! 1. **Round-trip fidelity** — the bundled batch scenarios, run
//!    through `compile_index` + `run_with_index`, must reproduce
//!    `Scenario::run`'s canonical report bytes exactly, in both time
//!    domains; and the engine-level oracle (`tvgicheck`) pins arrivals,
//!    witnesses, and stats bit-identical on generated graphs.
//! 2. **Failure modes** — every way a file can be wrong (truncated,
//!    foreign magic, retired version, overlapping or misaligned section
//!    table, any single flipped byte, resealed arrays that contradict
//!    each other) is a typed [`TvgiError`], never a panic and never a
//!    silently-wrong index.

use tvg_journeys::WaitingPolicy;
use tvg_model::generators::scale_free_temporal;
use tvg_model::tvgi::{peek_tvgi, write_tvgi, ShardedIndex, TvgiError};
use tvg_model::{narrow_tvg, TvgIndex};
use tvg_scenarios::{compile_index, parse_specs, run_with_index, IndexFileError, Plan};
use tvg_testkit::fixtures;
use tvg_testkit::tvgicheck::{assert_tvgi_round_trip, scratch_path};

// ---------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------

#[test]
fn generated_graphs_round_trip() {
    let g = scale_free_temporal(50, 40, 11);
    assert_tvgi_round_trip(&g, 40, &fixtures::policies(3), "sf50");
}

#[test]
fn narrowed_graphs_round_trip_in_the_u32_domain() {
    let g = scale_free_temporal(30, 24, 5);
    let narrowed = narrow_tvg(&g, 24).expect("small horizons narrow");
    let narrowed_policies = [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(3u32),
        WaitingPolicy::Unbounded,
    ];
    assert_tvgi_round_trip(&narrowed, 24u32, &narrowed_policies, "sf30-u32");
}

/// The acceptance oracle: every bundled batch-plan scenario reports
/// byte-identically from a `.tvgi`.
#[test]
fn bundled_batch_scenarios_report_identically_from_tvgi() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut covered = 0usize;
    for entry in std::fs::read_dir(&dir).expect("bundled scenario dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "tvgs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("spec reads");
        for scenario in parse_specs(&text).expect("bundled specs are valid") {
            if matches!(scenario.plan(), Plan::Streaming { .. } | Plan::Serve { .. }) {
                continue;
            }
            let file = scratch_path(scenario.name());
            compile_index(&scenario, &file).expect("batch scenarios compile");
            let mapped = run_with_index(&scenario, &file)
                .expect("compiled file runs")
                .canonical_json();
            assert_eq!(
                mapped,
                scenario.run().canonical_json(),
                "{}: report from .tvgi diverges",
                scenario.name()
            );
            let _ = std::fs::remove_file(&file);
            covered += 1;
        }
    }
    assert!(
        covered >= 5,
        "the bundle should hold at least five batch scenarios (got {covered})"
    );
}

/// Every bundled spec narrows, so this pins the other side of the one
/// time-domain decision: a bounded delay whose `horizon + d` overflows
/// `u32` keeps the scenario in `u64`, and `compile_index` writes what
/// `run` compiles in either domain.
#[test]
fn compile_index_writes_the_domain_run_decides() {
    for (policy, width) in [("wait[4294967295]", 8), ("wait[3]", 4)] {
        let spec = format!(
            "scenario w\ngenerator ring_bus n=6 period=4\npolicy {policy}\nplan matrix horizon=16\n"
        );
        let scenario = parse_specs(&spec).expect("valid spec").remove(0);
        let file = scratch_path(&format!("domain-{width}"));
        compile_index(&scenario, &file).expect("compiles");
        assert_eq!(peek_tvgi(&file), Ok(width), "{policy}");
        let mapped = run_with_index(&scenario, &file).expect("compiled file runs");
        let _ = std::fs::remove_file(&file);
        assert_eq!(
            mapped.canonical_json(),
            scenario.run().canonical_json(),
            "{policy}"
        );
    }
}

#[test]
fn feed_defined_plans_are_refused_typed() {
    let spec = "\
scenario s
generator ring_bus n=4 period=4
policy nowait
plan streaming src=0 horizon=16 batch=4
";
    let scenario = parse_specs(spec).expect("valid spec").remove(0);
    let file = scratch_path("streaming-refused");
    assert_eq!(
        compile_index(&scenario, &file),
        Err(IndexFileError::UnsupportedPlan { plan: "streaming" })
    );
    assert_eq!(
        run_with_index(&scenario, &file),
        Err(IndexFileError::UnsupportedPlan { plan: "streaming" })
    );
}

#[test]
fn a_file_compiled_for_another_workload_is_refused() {
    let specs = |n: u64| {
        format!(
            "scenario s\ngenerator ring_bus n=4 period=4\npolicy nowait\nplan matrix horizon={n}\n"
        )
    };
    let a = parse_specs(&specs(16)).expect("valid").remove(0);
    let b = parse_specs(&specs(32)).expect("valid").remove(0);
    let file = scratch_path("workload-mismatch");
    compile_index(&a, &file).expect("compiles");
    assert_eq!(
        run_with_index(&b, &file),
        Err(IndexFileError::SpecMismatch {
            scenario: "s".to_string()
        })
    );
    let _ = std::fs::remove_file(&file);
}

// ---------------------------------------------------------------------
// Failure modes: every corruption is a typed error, never a panic
// ---------------------------------------------------------------------

/// Writes a small valid `.tvgi` and returns its bytes.
fn valid_file(label: &str) -> (std::path::PathBuf, Vec<u8>) {
    let g = scale_free_temporal(12, 20, 3);
    let index = TvgIndex::compile(&g, 20u64);
    let path = scratch_path(label);
    write_tvgi(&index, 1, Some("spec text"), &path).expect("writes");
    let bytes = std::fs::read(&path).expect("reads back");
    (path, bytes)
}

fn open_bytes(label: &str, bytes: &[u8]) -> Result<ShardedIndex<u64>, TvgiError> {
    let path = scratch_path(label);
    std::fs::write(&path, bytes).expect("scratch write");
    let out = ShardedIndex::<u64>::open(&path);
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    let (path, bytes) = valid_file("truncate");
    let _ = std::fs::remove_file(&path);
    // The empty file, a partial header, a partial section table, and a
    // partial payload: every prefix is an error, never a panic.
    for cut in [0, 7, 23, 24, 40, bytes.len() / 2, bytes.len() - 1] {
        let err = open_bytes("truncate-cut", &bytes[..cut]).expect_err("prefix must fail");
        assert!(
            matches!(
                err,
                TvgiError::Truncated
                    | TvgiError::SectionOutOfBounds(_)
                    | TvgiError::ChecksumMismatch
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn foreign_magic_and_future_version_are_typed() {
    let (path, bytes) = valid_file("header");
    let _ = std::fs::remove_file(&path);

    let mut wrong_magic = bytes.clone();
    wrong_magic[0..4].copy_from_slice(b"ELF\x7f");
    assert_eq!(
        open_bytes("bad-magic", &wrong_magic).expect_err("must fail"),
        TvgiError::BadMagic
    );
    assert_eq!(bytes[0..4], *b"TVGI");

    assert_eq!(bytes[4..6], 4u16.to_le_bytes(), "format version 4");
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&5u16.to_le_bytes());
    assert_eq!(
        open_bytes("bad-version", &future).expect_err("must fail"),
        TvgiError::UnsupportedVersion(5)
    );

    // Opening a u64 file as u32 (and vice versa) is the typed width
    // error, and peek reports the true width for dispatch.
    let path = scratch_path("width");
    std::fs::write(&path, &bytes).expect("scratch write");
    assert_eq!(peek_tvgi(&path).expect("valid header"), 8);
    assert_eq!(
        ShardedIndex::<u32>::open(&path).expect_err("wrong domain"),
        TvgiError::BadWidth {
            found: 8,
            expected: 4
        }
    );
    let _ = std::fs::remove_file(&path);
}

/// A header width other than 4 or 8 says which widths exist, not that
/// it mismatches some requested width.
#[test]
fn a_width_other_than_4_or_8_is_typed() {
    let (path, mut bytes) = valid_file("width5");
    bytes[6] = 5;
    std::fs::write(&path, &bytes).expect("scratch write");
    let err = peek_tvgi(&path).expect_err("width 5 must fail");
    let _ = std::fs::remove_file(&path);
    assert_eq!(err, TvgiError::UnsupportedWidth(5));
    assert_eq!(
        err.to_string(),
        "time width 5 is unsupported: width must be 4 or 8"
    );
    assert_eq!(
        open_bytes("width5-open", &bytes).expect_err("must fail"),
        TvgiError::UnsupportedWidth(5)
    );
}

/// The number of section-table entries the header announces.
fn sections(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize
}

/// Section-table entry `i` starts at `24 + 20·i`: id at +0, offset at
/// +4, len at +12.
fn table_entry_at(i: usize) -> usize {
    24 + 20 * i
}

fn entry_field(bytes: &mut [u8], entry: usize, field_off: usize) -> &mut [u8] {
    let at = table_entry_at(entry) + field_off;
    &mut bytes[at..at + 8]
}

#[test]
fn overlapping_sections_are_typed() {
    let (path, mut bytes) = valid_file("overlap");
    let _ = std::fs::remove_file(&path);
    // Point entry 1's offset at entry 0's payload: a structural
    // overlap, caught before any decode (no reseal needed — the table
    // is validated before the checksum pass).
    let first_off = u64::from_le_bytes(entry_field(&mut bytes, 0, 4).try_into().unwrap());
    entry_field(&mut bytes, 1, 4).copy_from_slice(&first_off.to_le_bytes());
    let err = open_bytes("overlap-open", &bytes).expect_err("must fail");
    assert!(
        matches!(err, TvgiError::SectionOverlap(..)),
        "unexpected error {err:?}"
    );
}

#[test]
fn misaligned_sections_are_typed() {
    let (path, mut bytes) = valid_file("misalign");
    let _ = std::fs::remove_file(&path);
    let off = u64::from_le_bytes(entry_field(&mut bytes, 0, 4).try_into().unwrap());
    entry_field(&mut bytes, 0, 4).copy_from_slice(&(off + 1).to_le_bytes());
    let err = open_bytes("misalign-open", &bytes).expect_err("must fail");
    assert!(
        matches!(err, TvgiError::Misaligned(_)),
        "unexpected error {err:?}"
    );
}

/// The sweep: flip one byte at a time across the whole file (stepping
/// through every region — header, table, payload) and open it. Every
/// flip must surface as a typed error; none may open successfully,
/// because the checksum covers everything except its own field, and a
/// flipped checksum byte makes the stored and computed sums disagree.
#[test]
fn single_byte_corruption_never_opens_and_never_panics() {
    let (path, bytes) = valid_file("sweep");
    let _ = std::fs::remove_file(&path);
    // Step 7 keeps the sweep fast while visiting every section and
    // every byte-within-word position; the first 64 bytes (header +
    // first table entries) are swept exhaustively.
    let positions = (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(7));
    for at in positions {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x01;
        let err = open_bytes("sweep-open", &corrupt)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {at} opened successfully"));
        // Which typed error depends on the region hit; the contract is
        // "typed, not panic, not silence".
        let _ = err;
    }
}

/// The byte position of section `id`'s table entry.
fn table_entry(bytes: &[u8], id: u32) -> usize {
    (0..sections(bytes))
        .map(table_entry_at)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == id)
        .unwrap_or_else(|| panic!("section {id} present"))
}

/// Version 1 carried an event timeline (sections 11 and 12) and
/// per-shard boundary summaries (section 17), version 2 an FNV-1a
/// checksum, and version 3 node names (sections 2 and 3), an edge
/// directory (5 and 6) and shard ranges (10): all are refused by
/// version, and a current-version table naming a retired id is typed.
#[test]
fn version_one_files_and_retired_sections_are_typed() {
    let (path, bytes) = valid_file("retired");
    let _ = std::fs::remove_file(&path);
    assert_eq!(bytes[4..6], 4u16.to_le_bytes(), "format version 4");
    for old in [1u16, 2, 3] {
        let mut stale = bytes.clone();
        stale[4..6].copy_from_slice(&old.to_le_bytes());
        assert_eq!(
            open_bytes("old-version-open", &stale).expect_err("must fail"),
            TvgiError::UnsupportedVersion(old)
        );
    }
    for retired in [2u32, 3, 5, 6, 10, 11, 12, 17] {
        // Rename the SPEC entry (section 4); the table is validated
        // before the checksum, so no reseal is needed.
        let mut forged = bytes.clone();
        let entry = table_entry(&forged, 4);
        forged[entry..entry + 4].copy_from_slice(&retired.to_le_bytes());
        assert!(
            matches!(
                open_bytes("retired-open", &forged).expect_err("must fail"),
                TvgiError::Inconsistent(_)
            ),
            "retired section id {retired} must be refused"
        );
    }
}
