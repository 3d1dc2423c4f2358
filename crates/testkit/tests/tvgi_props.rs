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
use tvg_model::generators::{ring_bus_tvg, scale_free_temporal};
use tvg_model::tvgi::{
    checksum, peek_tvgi, write_tvgi, ShardedIndex, TvgiError, MAGIC, READ_CHUNK, VERSION,
};
use tvg_model::{narrow_tvg, EdgeId, NodeId, TemporalIndex, TvgIndex};
use tvg_scenarios::{compile_index, parse_specs, run_with_index, IndexFileError, Plan};
use tvg_testkit::tvgicheck::{assert_tvgi_round_trip, scratch_path};

/// The three policy archetypes of the paper, in the `u64` domain.
fn policies() -> [WaitingPolicy<u64>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(3),
        WaitingPolicy::Unbounded,
    ]
}

// ---------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------

#[test]
fn generated_graphs_round_trip() {
    let g = scale_free_temporal(50, 40, 11);
    assert_tvgi_round_trip(&g, 40, &policies(), "sf50");
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

/// A `u64` file whose `SPANS` section outgrows one read chunk, laid out
/// so that a 16-byte span pair straddles a chunk boundary: the reader
/// must carry the pair's first word into the next chunk.
#[test]
fn u64_span_pairs_straddling_read_chunks_round_trip() {
    let horizon = 12_000u64;
    let g = ring_bus_tvg(15, 2, 'r');
    let index = TvgIndex::compile(&g, horizon);
    let path = scratch_path("straddle");
    write_tvgi(&index, 1, None, &path).expect("writes");
    let bytes = std::fs::read(&path).expect("reads back");
    let _ = std::fs::remove_file(&path);
    let spans = section_range(&bytes, 16);
    assert!(
        spans.1 > READ_CHUNK,
        "the SPANS section must outgrow a read chunk"
    );
    assert!(
        splits_a_pair(&bytes, spans),
        "no span pair straddles a read-chunk boundary"
    );
    // Decoding is what this pins; one policy keeps the run short.
    let policy = [WaitingPolicy::Unbounded];
    assert_tvgi_round_trip(&g, horizon, &policy, "straddle");
}

/// Whether a read-chunk boundary falls in the middle of a 16-byte span
/// pair of the `SPANS` section at `(offset, len)`. Chunks start where
/// the section table ends, rounded up to a multiple of 8.
fn splits_a_pair(bytes: &[u8], (offset, len): (usize, usize)) -> bool {
    let payload_start = table_entry_at(sections(bytes)).next_multiple_of(8);
    (payload_start..offset + len)
        .step_by(READ_CHUNK)
        .any(|boundary| boundary > offset && (boundary - offset) % 16 == 8)
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
        assert_eq!(
            peek_tvgi(&file).map(|info| info.width),
            Ok(width),
            "{policy}"
        );
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

/// Re-seals a patched file with the format's own checksum, so a test
/// can forge payload bytes that pass the checksum.
fn reseal(bytes: &mut [u8]) {
    let sum = checksum(bytes);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
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
    assert_eq!(MAGIC, *b"TVGI");

    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert_eq!(
        open_bytes("bad-version", &future).expect_err("must fail"),
        TvgiError::UnsupportedVersion(VERSION + 1)
    );

    // Opening a u64 file as u32 (and vice versa) is the typed width
    // error, and peek reports the true width for dispatch.
    let path = scratch_path("width");
    std::fs::write(&path, &bytes).expect("scratch write");
    assert_eq!(peek_tvgi(&path).expect("valid header").width, 8);
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

/// The `(offset, len)` of section `id`.
fn section_range(bytes: &[u8], id: u32) -> (usize, usize) {
    let at = table_entry(bytes, id);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (word(at + 4), word(at + 12))
}

#[test]
fn resealed_payload_corruption_is_caught_by_consistency_checks() {
    let (path, bytes) = valid_file("reseal");
    let _ = std::fs::remove_file(&path);
    // Make SPAN_OFF (section 15) decrease once, keeping its first and
    // last words, and reseal the checksum: the checksum now passes, so
    // the cross-section consistency layer must catch the lie.
    let (off, len) = section_range(&bytes, 15);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let last = word(off + len - 8);
    let i = (1..len / 8 - 1)
        .find(|&i| (1..last).contains(&word(off + 8 * (i + 1))))
        .expect("some edge starts inside the span arena");
    let mut forged = bytes.clone();
    let bigger = word(off + 8 * (i + 1)) + 1;
    forged[off + 8 * i..off + 8 * i + 8].copy_from_slice(&bigger.to_le_bytes());
    reseal(&mut forged);
    assert_eq!(
        open_bytes("reseal-open", &forged).expect_err("forged offsets must fail"),
        TvgiError::Inconsistent("SPAN_OFF not monotone over SPANS")
    );
}

/// Regression: a resealed file whose spans were unsorted, empty or
/// overlapping used to open, and the binary searches over each edge's
/// spans then answered wrongly. Each forgery edits the first two spans
/// of an edge that has at least two.
#[test]
fn resealed_span_forgeries_are_inconsistent() {
    let (path, bytes) = valid_file("forged-spans");
    let _ = std::fs::remove_file(&path);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (span_off, len) = section_range(&bytes, 15);
    let offsets: Vec<usize> = (0..len / 8).map(|e| word(span_off + 8 * e)).collect();
    let first = offsets
        .windows(2)
        .find(|w| w[1] - w[0] >= 2)
        .expect("two spans")[0];
    // Word `w` of the edge's spans: start 0, end 0, start 1, end 1.
    let (spans, _) = section_range(&bytes, 16);
    let at = |w: usize| spans + 8 * (2 * first + w);

    let mut swapped = bytes.clone();
    swapped[at(0)..at(2)].copy_from_slice(&bytes[at(2)..at(4)]);
    swapped[at(2)..at(4)].copy_from_slice(&bytes[at(0)..at(2)]);
    let mut empty = bytes.clone();
    empty.copy_within(at(0)..at(1), at(1));
    let mut overlapping = bytes.clone();
    overlapping.copy_within(at(3)..at(4), at(1));
    for (label, mut forged) in [
        ("swapped", swapped),
        ("empty", empty),
        ("overlapping", overlapping),
    ] {
        reseal(&mut forged);
        assert_eq!(
            open_bytes(label, &forged).expect_err("forged spans must fail"),
            TvgiError::Inconsistent("SPANS not sorted, disjoint and non-empty per edge"),
            "{label}"
        );
    }
}

/// Regression: a resealed file whose `CSR_EDGES` listed one edge twice
/// used to open and answer with the wrong adjacency. The CSR must list
/// every edge exactly once.
#[test]
fn resealed_csr_forgeries_are_inconsistent() {
    let g = scale_free_temporal(12, 20, 3);
    let index = TvgIndex::compile(&g, 20u64);
    let path = scratch_path("forged-csr");
    write_tvgi(&index, 1, None, &path).expect("writes");
    let bytes = std::fs::read(&path).expect("reads back");
    let _ = std::fs::remove_file(&path);
    let edges = |ids: [usize; 3]| ids.map(EdgeId::from_index);
    assert_eq!(index.out_edges(NodeId::from_index(0)), edges([0, 2, 19]));

    // The second CSR word overwritten by the first: node 0 would read
    // [e0, e0, e19], and e2 would be listed nowhere.
    let (csr, _) = section_range(&bytes, 14);
    let mut duplicated = bytes.clone();
    duplicated.copy_within(csr..csr + 4, csr + 4);
    reseal(&mut duplicated);

    // The first CSR word replaced by an edge id past the last edge: e0
    // would be listed nowhere.
    let mut omitted = bytes.clone();
    let past = u32::try_from(g.num_edges()).expect("small graph");
    omitted[csr..csr + 4].copy_from_slice(&past.to_le_bytes());
    reseal(&mut omitted);

    for (label, forged) in [("duplicated", duplicated), ("omitted", omitted)] {
        assert_eq!(
            open_bytes(label, &forged).expect_err("forged CSR must fail"),
            TvgiError::Inconsistent("CSR_EDGES does not list every edge exactly once"),
            "{label}"
        );
    }
}

/// Regression: a resealed file whose META node or edge count (words 0
/// and 1) is huge used to panic with a multiplication overflow while
/// sizing the sections; every such count is now a typed inconsistency.
#[test]
fn resealed_huge_counts_are_inconsistent_not_overflow() {
    let (path, bytes) = valid_file("huge-counts");
    let _ = std::fs::remove_file(&path);
    let (meta, _) = section_range(&bytes, 1);
    for word in [0, 1] {
        for count in [1u64 << 62, u64::MAX] {
            let mut forged = bytes.clone();
            let at = meta + 8 * word;
            forged[at..at + 8].copy_from_slice(&count.to_le_bytes());
            reseal(&mut forged);
            let err = open_bytes("huge-counts-open", &forged).expect_err("forged count must fail");
            assert!(
                matches!(err, TvgiError::Inconsistent(_)),
                "META word {word} = {count}: unexpected error {err:?}"
            );
        }
    }
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
    assert_eq!(VERSION, 4);
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
