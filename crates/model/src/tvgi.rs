//! The on-disk index: a compiled schedule persisted as a `.tvgi` file.
//!
//! [`TvgIndex::compile`] pays the full materialization cost — presence
//! spans, CSR adjacency, per-edge columns — every time a process
//! starts. This module makes that cost a *build step*: [`write_tvgi`]
//! serializes a compiled index into a versioned, little-endian,
//! section-table binary format, and [`ShardedIndex::open`] gives it
//! back as a read-only [`TemporalIndex`] in the same layout every index
//! shares (a [`SpanView`] per edge, an `&[EdgeId]` slice per node), so
//! an index compiles once and any number of processes query it without
//! recompiling.
//!
//! # Format (version 3)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "TVGI" · version u16 · width u8 (4|8)   │
//! │   · reserved u8 · shards u32 · sections u32 · checksum u64   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: sections × (id u32 · shard u32 ·              │
//! │   offset u64 · len u64)   — offsets 8-byte aligned           │
//! ├──────────────────────────────────────────────────────────────┤
//! │ global sections: META · NAMES_OFF/NAMES_BYTES · SPEC ·       │
//! │   EDGE_SHARD/EDGE_LOCAL/EDGE_DST/EDGE_MONO/EDGE_LAT ·        │
//! │   SHARD_RANGES                                               │
//! ├──────────────────────────────────────────────────────────────┤
//! │ shard 0: CSR_OFF · CSR_EDGES · SPAN_OFF · SPANS              │
//! │ shard 1: …                                  (× shards)       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every multi-byte value is little-endian. *Time-valued* sections
//! (`SPANS`, `EDGE_LAT`, the horizon word of `META`) store `width`-byte
//! words — 4 when the index was compiled in the
//! [`narrow_tvg`](crate::narrow_tvg)-compressed `u32` domain, 8 for
//! native `u64` times — so narrowing halves the hot sections on disk
//! exactly as it halves them in memory.
//!
//! The file holds exactly what a query reads: presence spans, adjacency,
//! and the per-edge destination, monotonicity, and latency columns. The
//! edge-event count a report carries is twice the span count, read from
//! the `SPANS` lengths. Version 1 also stored a global event timeline
//! and per-shard boundary summaries that no query read, and version 2
//! used a byte-serial FNV-1a checksum; files of either version are
//! refused as [`TvgiError::UnsupportedVersion`], and a table naming one
//! of version 1's retired section ids is [`TvgiError::Inconsistent`].
//!
//! # Checksum
//!
//! The header's `checksum` ([`checksum`]) covers the whole file except
//! its own field: header bytes `0..16`, then bytes `24..end`. That
//! stream is folded as little-endian `u64` words, word `j` into lane
//! `j mod 4` by `lane ← mix(lane ⊕ word)` with
//! `mix(x) = (x·K) ⊕ ((x·K) ≫ 29)` for an odd `K`; a final partial word
//! is zero-padded, and the four lanes and the byte length are folded
//! through `mix` into the result. Every step is a bijection in the word
//! and in the lane, so a change confined to one 8-byte word — any
//! one-byte corruption in particular — always changes the checksum: it
//! is either a typed structural error or a
//! [`TvgiError::ChecksumMismatch`], never a panic or a wrong answer.
//! Four independent lanes keep the multiplier busy, which makes the
//! checksum several times faster than a byte-serial hash.
//!
//! # Sharding
//!
//! [`write_tvgi`]'s `shards` argument `k` splits the node range into `k`
//! balanced contiguous ranges at write time (`tvg-cli compile` writes
//! one). An edge belongs to its source's shard; each shard carries its
//! own CSR and span store, and `EDGE_SHARD`/`EDGE_LOCAL` give each edge's
//! slot in its shard's CSR. The per-shard sections of one id follow each
//! other in shard order. Shards are a storage split only: the reader
//! joins them at open, and edge ids stay *global*, which is what keeps
//! a [`ShardedIndex`] bit-identical to the in-memory index — same
//! witness journeys, same engine stats — at every shard count.
//!
//! # Zero-copy, honestly
//!
//! The workspace forbids `unsafe`, so the reader does not `mmap(2)`:
//! [`ShardedIndex::open`] validates the header and section table, then
//! reads the rest of the file once, in file order, through one fixed
//! buffer, checksumming each chunk and decoding it straight into the
//! arena it ends up in: `CSR_EDGES` into one `Vec<EdgeId>`, `SPANS` into
//! one `Vec<(T, T)>` (a `u64` pair can straddle two 8-aligned chunks,
//! so its first word waits for the next one). Shard after shard appends
//! to the same arenas, so neither exists twice in memory. The per-shard
//! offset arrays are then rebased in place into one global CSR and one
//! span-offset array, and each edge is mapped to its CSR slot once. Every
//! query after that is a plain slice read, as it is on the in-memory
//! indexes; one up-front decode is the price of a
//! `#![forbid(unsafe_code)]` workspace.
//!
//! The edge directory must agree with the CSR: the CSR has to list every
//! edge at the slot `EDGE_SHARD`/`EDGE_LOCAL` give it, which makes the
//! CSR a permutation of the edges. A file that lists an edge twice is
//! refused as [`TvgiError::Inconsistent`], even when its checksum holds.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::index::{TemporalIndex, TvgIndex};
use crate::interval::SpanView;
use crate::{EdgeId, Latency, NodeId, Time};

/// Magic bytes opening every `.tvgi` file.
pub const MAGIC: [u8; 4] = *b"TVGI";

/// The format version this build writes and reads.
pub const VERSION: u16 = 3;

/// Fixed header length in bytes.
const HEADER_LEN: u64 = 24;

/// Byte length of one section-table entry.
const TABLE_ENTRY_LEN: u64 = 24;

/// The `shard` field of a global (non-sharded) section.
const GLOBAL: u32 = u32::MAX;

/// Bytes [`ShardedIndex::open`] reads and decodes per pass step. The
/// chunks start at the end of the section table, 8-aligned.
pub const READ_CHUNK: usize = 256 << 10;

mod section {
    //! Section identifiers of format version 3. Ids 11, 12, and 17 are
    //! retired (version 1's event timeline and boundary summaries) and
    //! never reused.
    pub const META: u32 = 1;
    pub const NAMES_OFF: u32 = 2;
    pub const NAMES_BYTES: u32 = 3;
    pub const SPEC: u32 = 4;
    pub const EDGE_SHARD: u32 = 5;
    pub const EDGE_LOCAL: u32 = 6;
    pub const EDGE_DST: u32 = 7;
    pub const EDGE_MONO: u32 = 8;
    pub const EDGE_LAT: u32 = 9;
    pub const SHARD_RANGES: u32 = 10;
    pub const CSR_OFF: u32 = 13;
    pub const CSR_EDGES: u32 = 14;
    pub const SPAN_OFF: u32 = 15;
    pub const SPANS: u32 = 16;

    /// Every section id of this version.
    pub fn all() -> impl Iterator<Item = u32> {
        (META..=SHARD_RANGES).chain(CSR_OFF..=SPANS)
    }

    /// Whether `id` is written once per shard.
    pub fn is_sharded(id: u32) -> bool {
        matches!(id, CSR_OFF..=SPANS)
    }
}

/// Number of `u64` words in the `META` section: nodes, edges, horizon,
/// shards.
const META_WORDS: usize = 4;

/// Everything that can go wrong opening, validating, or writing a
/// `.tvgi` file. Every failure mode is a typed variant — a corrupt or
/// truncated file must never panic the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvgiError {
    /// An underlying filesystem error (message carried verbatim).
    Io(String),
    /// The file ends before a structure it promised (header, section
    /// table, or section payload).
    Truncated,
    /// The file does not start with the `TVGI` magic.
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// The header's time width is neither 4 nor 8.
    UnsupportedWidth(u8),
    /// The time width does not match the time domain the caller asked
    /// to open the file under.
    BadWidth {
        /// Width recorded in the file header.
        found: u8,
        /// Width of the requested time domain.
        expected: u8,
    },
    /// Two sections overlap in the byte range they claim.
    SectionOverlap(u32, u32),
    /// A section's offset or length is not a multiple of its element
    /// width.
    Misaligned(u32),
    /// A section extends beyond the end of the file or into the header.
    SectionOutOfBounds(u32),
    /// A required section is absent (for a per-shard section: not
    /// present once per shard).
    MissingSection(u32),
    /// The same `(id, shard)` section appears twice.
    DuplicateSection(u32),
    /// The whole-file checksum does not match the header.
    ChecksumMismatch,
    /// Structurally well-formed but self-contradictory content (counts
    /// that disagree, offsets that are not monotone, ids out of range).
    Inconsistent(&'static str),
    /// The index uses a non-constant latency on some edge; the format
    /// only persists constant latencies.
    UnsupportedLatency(EdgeId),
}

impl std::fmt::Display for TvgiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TvgiError::Io(e) => write!(f, "tvgi i/o error: {e}"),
            TvgiError::Truncated => write!(f, "tvgi file is truncated"),
            TvgiError::BadMagic => write!(f, "not a tvgi file (bad magic)"),
            TvgiError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported tvgi version {v} (this build reads {VERSION})"
                )
            }
            TvgiError::UnsupportedWidth(width) => {
                write!(f, "time width {width} is unsupported: width must be 4 or 8")
            }
            TvgiError::BadWidth { found, expected } => {
                write!(
                    f,
                    "time width {found} does not match requested width {expected}"
                )
            }
            TvgiError::SectionOverlap(a, b) => write!(f, "sections {a} and {b} overlap"),
            TvgiError::Misaligned(id) => write!(f, "section {id} is misaligned"),
            TvgiError::SectionOutOfBounds(id) => {
                write!(f, "section {id} extends beyond the file")
            }
            TvgiError::MissingSection(id) => write!(f, "required section {id} is missing"),
            TvgiError::DuplicateSection(id) => write!(f, "section {id} appears twice"),
            TvgiError::ChecksumMismatch => write!(f, "tvgi checksum mismatch (corrupt file)"),
            TvgiError::Inconsistent(what) => write!(f, "inconsistent tvgi content: {what}"),
            TvgiError::UnsupportedLatency(e) => {
                write!(
                    f,
                    "edge {e} has a non-constant latency; tvgi stores constants only"
                )
            }
        }
    }
}

impl std::error::Error for TvgiError {}

impl From<std::io::Error> for TvgiError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TvgiError::Truncated
        } else {
            TvgiError::Io(e.to_string())
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// The machine-word time domains a `.tvgi` file can store: `u64`
/// (native simulation times) and `u32` (the
/// [`narrow_tvg`](crate::narrow_tvg)-compressed domain). Sealed — the
/// format has exactly two widths.
pub trait TvgiTime: Time + Copy + sealed::Sealed {
    /// Bytes per stored time word (4 or 8).
    const WIDTH: u8;

    /// Widens to the transport word.
    fn to_word(self) -> u64;

    /// Narrows from the transport word, `None` if it does not fit.
    fn from_word(w: u64) -> Option<Self>;

    /// Appends the little-endian `WIDTH`-byte words of `bytes`.
    fn decode(bytes: &[u8], out: &mut Vec<Self>);

    /// Appends the `(start, end)` pairs of little-endian `WIDTH`-byte
    /// words of `bytes`, a whole number of pairs.
    fn decode_pairs(bytes: &[u8], out: &mut Vec<(Self, Self)>);
}

impl TvgiTime for u32 {
    const WIDTH: u8 = 4;

    fn to_word(self) -> u64 {
        u64::from(self)
    }

    fn from_word(w: u64) -> Option<Self> {
        u32::try_from(w).ok()
    }

    fn decode(bytes: &[u8], out: &mut Vec<Self>) {
        decode_u32s(bytes, out);
    }

    fn decode_pairs(bytes: &[u8], out: &mut Vec<(Self, Self)>) {
        let word = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| (word(&c[..4]), word(&c[4..]))),
        );
    }
}

impl TvgiTime for u64 {
    const WIDTH: u8 = 8;

    fn to_word(self) -> u64 {
        self
    }

    fn from_word(w: u64) -> Option<Self> {
        Some(w)
    }

    fn decode(bytes: &[u8], out: &mut Vec<Self>) {
        decode_u64s(bytes, out);
    }

    fn decode_pairs(bytes: &[u8], out: &mut Vec<(Self, Self)>) {
        let word = |c: &[u8]| u64::from_le_bytes(le_array(c));
        out.extend(
            bytes
                .chunks_exact(16)
                .map(|c| (word(&c[..8]), word(&c[8..]))),
        );
    }
}

// ---------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------

/// Odd multiplier of the checksum's word mix.
const MIX_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Starting values of the checksum's four lanes.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Bytes per checksum block: one word per lane.
const BLOCK: usize = 32;

/// The checksum's word mix: a multiply by an odd constant, then a fold
/// of the high bits down. Both steps are bijections on `u64`.
#[inline]
fn mix(x: u64) -> u64 {
    let y = x.wrapping_mul(MIX_K);
    y ^ (y >> 29)
}

/// The whole-file checksum a `.tvgi` header stores: the four-lane word
/// mix (see the module docs) over header bytes `0..16` and bytes
/// `24..`, so every byte except the checksum field itself. This is the
/// one definition the writer, the reader, and tests that forge files
/// all share.
///
/// A slice shorter than the header is checksummed as if its missing
/// bytes were absent.
#[must_use]
pub fn checksum(file: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(&file[..file.len().min(16)]);
    sum.update(file.get(24..).unwrap_or(&[]));
    sum.finish()
}

/// The streaming form of [`checksum`]: the stream may arrive in any
/// chunk split. Partial blocks wait in `pending`, so word `j` of the
/// stream always lands in lane `j mod 4`.
#[derive(Debug, Clone)]
struct Checksum {
    lanes: [u64; 4],
    len: u64,
    pending: [u8; BLOCK],
    pending_len: usize,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            len: 0,
            pending: [0; BLOCK],
            pending_len: 0,
        }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (BLOCK - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            let block = self.pending;
            self.fold_blocks(&block);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % BLOCK;
        self.fold_blocks(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Folds whole blocks: word `i` of each block into lane `i`, the
    /// four lanes as independent dependency chains.
    fn fold_blocks(&mut self, blocks: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in blocks.chunks_exact(BLOCK) {
            let word = |i: usize| u64::from_le_bytes(le_array(&block[8 * i..8 * i + 8]));
            a = mix(a ^ word(0));
            b = mix(b ^ word(1));
            c = mix(c ^ word(2));
            d = mix(d ^ word(3));
        }
        self.lanes = [a, b, c, d];
    }

    fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        let tail = &self.pending[..self.pending_len];
        for (lane, bytes) in lanes.iter_mut().zip(tail.chunks(8)) {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            *lane = mix(*lane ^ u64::from_le_bytes(word));
        }
        lanes.iter().fold(mix(self.len), |h, &lane| mix(h ^ lane))
    }
}

/// The first `N` bytes of `bytes` as an array (callers pass exact
/// slices, so the zero fill never shows).
#[inline]
fn le_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    let n = bytes.len().min(N);
    out[..n].copy_from_slice(&bytes[..n]);
    out
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

/// What a section's words decode to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bytes,
    U32,
    U64,
    /// Time words (`EDGE_LAT`).
    Time,
    /// Edge ids (`CSR_EDGES`).
    Edges,
    /// `(start, end)` time pairs (`SPANS`).
    Spans,
}

fn kind(id: u32) -> Kind {
    match id {
        section::META | section::NAMES_OFF | section::CSR_OFF | section::SPAN_OFF => Kind::U64,
        section::NAMES_BYTES | section::SPEC => Kind::Bytes,
        section::EDGE_LAT => Kind::Time,
        section::CSR_EDGES => Kind::Edges,
        section::SPANS => Kind::Spans,
        _ => Kind::U32,
    }
}

/// Element width in bytes of a section's words, given the file's time
/// width. `1` means raw bytes (no alignment constraint beyond the
/// table's 8-byte offsets).
fn elem_width(id: u32, time_width: u8) -> u64 {
    match kind(id) {
        Kind::Bytes => 1,
        Kind::U32 | Kind::Edges => 4,
        Kind::U64 => 8,
        Kind::Time => u64::from(time_width),
        Kind::Spans => 2 * u64::from(time_width),
    }
}

fn decode_u32s(bytes: &[u8], out: &mut Vec<u32>) {
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
}

fn decode_u64s(bytes: &[u8], out: &mut Vec<u64>) {
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(le_array(c))),
    );
}

fn decode_edges(bytes: &[u8], out: &mut Vec<EdgeId>) {
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| EdgeId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))),
    );
}

/// One entry of the section table.
#[derive(Debug, Clone, Copy)]
struct Section {
    id: u32,
    shard: u32,
    offset: u64,
    len: u64,
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// What [`write_tvgi`] produced, for logs and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TvgiSummary {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Shard count actually written (clamped to the node count).
    pub shards: u32,
    /// Stored time width in bytes (4 or 8).
    pub width: u8,
    /// Node count.
    pub num_nodes: usize,
    /// Edge count.
    pub num_edges: usize,
    /// Total presence spans across all shards (half the edge-event
    /// count).
    pub num_spans: usize,
}

/// Balanced contiguous node ranges: `k` shards over `n` nodes, sizes
/// differing by at most one. Returns the `k + 1` boundary array.
fn shard_ranges(n: usize, k: u32) -> Vec<u32> {
    let k = k as usize;
    let base = n / k;
    let rem = n % k;
    let mut ranges = Vec::with_capacity(k + 1);
    let mut at = 0usize;
    ranges.push(0u32);
    for i in 0..k {
        at += base + usize::from(i < rem);
        ranges.push(u32::try_from(at).expect("node count fits in u32"));
    }
    ranges
}

/// Serializes a compiled index into `path` as a `.tvgi` file with
/// `shards` node-range shards (clamped to `[1, num_nodes]`), embedding
/// `spec` (the canonical scenario text, if any) for provenance checks
/// at open time.
///
/// # Errors
///
/// [`TvgiError::UnsupportedLatency`] if any edge's latency is not
/// [`Latency::Const`] (the format persists constant latencies only —
/// every built-in generator emits them), or [`TvgiError::Io`] on a
/// filesystem failure.
pub fn write_tvgi<T: TvgiTime>(
    index: &TvgIndex<'_, T>,
    shards: u32,
    spec: Option<&str>,
    path: &Path,
) -> Result<TvgiSummary, TvgiError> {
    let g = index.tvg();
    let n = g.num_nodes();
    let m = g.num_edges();
    let k = shards.clamp(1, u32::try_from(n.max(1)).unwrap_or(u32::MAX));

    // Per-edge constant latencies — the one schedule feature the format
    // needs from the AST. Anything fancier must stay on the
    // compile-per-run path.
    let mut edge_lat: Vec<u64> = Vec::with_capacity(m);
    for e in g.edges() {
        match g.edge(e).latency() {
            Latency::Const(c) => edge_lat.push(c.to_word()),
            _ => return Err(TvgiError::UnsupportedLatency(e)),
        }
    }

    let ranges = shard_ranges(n, k);

    // Edge directory: owning shard (= src's shard) and local slot, in
    // shard-CSR order so SPAN_OFF is a plain prefix sum.
    let mut edge_shard = vec![0u32; m];
    let mut edge_local = vec![0u32; m];
    let mut num_spans = 0usize;

    struct ShardBuf {
        csr_off: Vec<u64>,
        csr_edges: Vec<u32>,
        span_off: Vec<u64>,
        spans: Vec<u64>,
    }
    let mut shard_bufs: Vec<ShardBuf> = Vec::with_capacity(k as usize);
    for s in 0..k as usize {
        let (lo, hi) = (ranges[s] as usize, ranges[s + 1] as usize);
        let mut buf = ShardBuf {
            csr_off: Vec::with_capacity(hi - lo + 1),
            csr_edges: Vec::new(),
            span_off: Vec::new(),
            spans: Vec::new(),
        };
        buf.csr_off.push(0);
        buf.span_off.push(0);
        let mut local = 0u32;
        for node in lo..hi {
            for &e in index.out_edges(NodeId::from_index(node)) {
                let ei = e.index();
                edge_shard[ei] = u32::try_from(s).expect("shard fits in u32");
                edge_local[ei] = local;
                local += 1;
                buf.csr_edges
                    .push(u32::try_from(ei).expect("edge index fits in u32"));
                for (start, end) in index.presence(e).spans() {
                    buf.spans.push(start.to_word());
                    buf.spans.push(end.to_word());
                }
                buf.span_off.push(buf.spans.len() as u64 / 2);
            }
            buf.csr_off.push(buf.csr_edges.len() as u64);
        }
        num_spans += buf.spans.len() / 2;
        shard_bufs.push(buf);
    }

    // Node names.
    let mut names_off: Vec<u64> = Vec::with_capacity(n + 1);
    let mut names_bytes: Vec<u8> = Vec::new();
    names_off.push(0);
    for node in g.nodes() {
        names_bytes.extend_from_slice(g.node_name(node).as_bytes());
        names_off.push(names_bytes.len() as u64);
    }

    let spec_bytes = spec.unwrap_or("").as_bytes().to_vec();
    let horizon = index.horizon().to_word();
    let meta: Vec<u64> = vec![n as u64, m as u64, horizon, u64::from(k)];

    // Assemble the payload plan: (id, shard, bytes).
    let width = T::WIDTH;
    let time_bytes = |words: &[u64]| -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * width as usize);
        for &w in words {
            out.extend_from_slice(&w.to_le_bytes()[..width as usize]);
        }
        out
    };
    let u64_bytes = |words: &[u64]| -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * 8);
        for &w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    };
    let u32_bytes = |words: &[u32]| -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * 4);
        for &w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    };

    let mut payloads: Vec<(u32, u32, Vec<u8>)> = vec![
        (section::META, GLOBAL, u64_bytes(&meta)),
        (section::NAMES_OFF, GLOBAL, u64_bytes(&names_off)),
        (section::NAMES_BYTES, GLOBAL, names_bytes),
        (section::SPEC, GLOBAL, spec_bytes),
        (section::EDGE_SHARD, GLOBAL, u32_bytes(&edge_shard)),
        (section::EDGE_LOCAL, GLOBAL, u32_bytes(&edge_local)),
        (
            section::EDGE_DST,
            GLOBAL,
            u32_bytes(
                &g.edges()
                    .map(|e| u32::try_from(g.edge(e).dst().index()).expect("node fits in u32"))
                    .collect::<Vec<u32>>(),
            ),
        ),
        (
            section::EDGE_MONO,
            GLOBAL,
            u32_bytes(
                &g.edges()
                    .map(|e| u32::from(index.arrival_is_monotone(e)))
                    .collect::<Vec<u32>>(),
            ),
        ),
        (section::EDGE_LAT, GLOBAL, time_bytes(&edge_lat)),
        (section::SHARD_RANGES, GLOBAL, u32_bytes(&ranges)),
    ];
    for (s, buf) in shard_bufs.into_iter().enumerate() {
        let s = u32::try_from(s).expect("shard fits in u32");
        payloads.push((section::CSR_OFF, s, u64_bytes(&buf.csr_off)));
        payloads.push((section::CSR_EDGES, s, u32_bytes(&buf.csr_edges)));
        payloads.push((section::SPAN_OFF, s, u64_bytes(&buf.span_off)));
        payloads.push((section::SPANS, s, time_bytes(&buf.spans)));
    }

    // Lay out sections after the table, each 8-byte aligned.
    let table_len = TABLE_ENTRY_LEN * payloads.len() as u64;
    let mut offset = HEADER_LEN + table_len;
    offset = offset.next_multiple_of(8);
    let mut table: Vec<Section> = Vec::with_capacity(payloads.len());
    for (id, shard, bytes) in &payloads {
        table.push(Section {
            id: *id,
            shard: *shard,
            offset,
            len: bytes.len() as u64,
        });
        offset = (offset + bytes.len() as u64).next_multiple_of(8);
    }
    let file_len = offset;

    // Header with a zero checksum placeholder, then table, then
    // payload — hashing everything but the checksum field as we go —
    // then seek back and patch the real checksum in.
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut sum = Checksum::new();
    let mut head = Vec::with_capacity(HEADER_LEN as usize);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.push(width);
    head.push(0);
    head.extend_from_slice(&k.to_le_bytes());
    head.extend_from_slice(
        &u32::try_from(payloads.len())
            .expect("few sections")
            .to_le_bytes(),
    );
    sum.update(&head);
    head.extend_from_slice(&0u64.to_le_bytes());
    w.write_all(&head)?;

    fn emit(
        w: &mut BufWriter<File>,
        sum: &mut Checksum,
        written: &mut u64,
        bytes: &[u8],
    ) -> Result<(), TvgiError> {
        sum.update(bytes);
        w.write_all(bytes)?;
        *written += bytes.len() as u64;
        Ok(())
    }
    let mut written = HEADER_LEN;
    for sec in &table {
        let mut entry = Vec::with_capacity(TABLE_ENTRY_LEN as usize);
        entry.extend_from_slice(&sec.id.to_le_bytes());
        entry.extend_from_slice(&sec.shard.to_le_bytes());
        entry.extend_from_slice(&sec.offset.to_le_bytes());
        entry.extend_from_slice(&sec.len.to_le_bytes());
        emit(&mut w, &mut sum, &mut written, &entry)?;
    }
    for (sec, (_, _, bytes)) in table.iter().zip(&payloads) {
        let pad = sec.offset - written;
        emit(&mut w, &mut sum, &mut written, &vec![0u8; pad as usize])?;
        emit(&mut w, &mut sum, &mut written, bytes)?;
    }
    let tail_pad = file_len - written;
    emit(
        &mut w,
        &mut sum,
        &mut written,
        &vec![0u8; tail_pad as usize],
    )?;

    let mut file = w.into_inner().map_err(|e| TvgiError::Io(e.to_string()))?;
    file.seek(SeekFrom::Start(16))?;
    file.write_all(&sum.finish().to_le_bytes())?;
    file.sync_all()?;

    Ok(TvgiSummary {
        bytes: file_len,
        shards: k,
        width,
        num_nodes: n,
        num_edges: m,
        num_spans,
    })
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Header facts readable without decoding the payload — what a caller
/// needs to pick the time domain before [`ShardedIndex::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TvgiInfo {
    /// Stored time width in bytes (4 or 8).
    pub width: u8,
    /// Shard count.
    pub shards: u32,
}

/// Reads just the header of `path` (magic, version, width, shards),
/// validating magic/version/width.
///
/// # Errors
///
/// The same header-level [`TvgiError`] variants as
/// [`ShardedIndex::open`].
pub fn peek_tvgi(path: &Path) -> Result<TvgiInfo, TvgiError> {
    let mut f = File::open(path)?;
    let mut head = [0u8; HEADER_LEN as usize];
    f.read_exact(&mut head)?;
    parse_header(&head)
}

fn parse_header(head: &[u8; HEADER_LEN as usize]) -> Result<TvgiInfo, TvgiError> {
    if head[0..4] != MAGIC {
        return Err(TvgiError::BadMagic);
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != VERSION {
        return Err(TvgiError::UnsupportedVersion(version));
    }
    let width = head[6];
    if width != 4 && width != 8 {
        return Err(TvgiError::UnsupportedWidth(width));
    }
    if head[7] != 0 {
        return Err(TvgiError::Inconsistent("reserved header byte is set"));
    }
    let shards = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    Ok(TvgiInfo { width, shards })
}

/// A `.tvgi` file opened read-only, in the layout every
/// [`TemporalIndex`] shares.
///
/// [`ShardedIndex::open`] joins the file's node-range shards into one
/// global CSR (`&[EdgeId]` per node) and one span arena of `(start,
/// end)` pairs, and maps every edge to its CSR slot, so a query reads
/// plain slices and never a shard: [`TemporalIndex::presence`] is a
/// [`SpanView`] like every other index's. It answers bit-identically to
/// the [`TvgIndex`] it was written from, at every shard count (same
/// arrivals, same witness journeys, same engine stats): edge ids are
/// global, adjacency order is preserved, and arrivals use the same
/// checked constant-latency arithmetic.
#[derive(Debug)]
pub struct ShardedIndex<T> {
    horizon: T,
    /// Node `n`'s out-edges are `csr_edges[csr_off[n]..csr_off[n + 1]]`.
    csr_off: Vec<u64>,
    csr_edges: Vec<EdgeId>,
    /// The edge at CSR slot `s` owns `spans[span_off[s]..span_off[s + 1]]`.
    span_off: Vec<u64>,
    spans: Vec<(T, T)>,
    /// Each edge's CSR slot.
    edge_slot: Vec<u32>,
    edge_dst: Vec<u32>,
    edge_mono: Vec<u32>,
    edge_lat: Vec<T>,
    names_off: Vec<u64>,
    names_bytes: Vec<u8>,
    spec: String,
}

/// Every section's decoded words, filled as the file streams past. The
/// pieces of a per-shard section arrive in shard order (validated with
/// the table), so each arena is the concatenation of its shards, and
/// the CSR and span arenas are decoded in place, once.
struct Arenas<T> {
    bytes: BTreeMap<u32, Vec<u8>>,
    u32s: BTreeMap<u32, Vec<u32>>,
    u64s: BTreeMap<u32, Vec<u64>>,
    edge_lat: Vec<T>,
    csr_edges: Vec<EdgeId>,
    spans: Vec<(T, T)>,
    /// The start word of a span whose end word is in the next piece:
    /// chunks are 8-aligned, so a 16-byte `u64` pair can straddle two.
    half: Option<[u8; 8]>,
}

impl<T: TvgiTime> Arenas<T> {
    /// Empty arenas with room for every section's validated length.
    fn for_table(table: &[Section]) -> Self {
        let mut words: BTreeMap<u32, usize> = BTreeMap::new();
        for sec in table {
            let n = usize::try_from(sec.len / elem_width(sec.id, T::WIDTH)).unwrap_or(0);
            *words.entry(sec.id).or_default() += n;
        }
        let mut arenas = Arenas {
            bytes: BTreeMap::new(),
            u32s: BTreeMap::new(),
            u64s: BTreeMap::new(),
            edge_lat: Vec::new(),
            csr_edges: Vec::new(),
            spans: Vec::new(),
            half: None,
        };
        for (id, n) in words {
            match kind(id) {
                Kind::Bytes => arenas.bytes.entry(id).or_default().reserve_exact(n),
                Kind::U32 => arenas.u32s.entry(id).or_default().reserve_exact(n),
                Kind::U64 => arenas.u64s.entry(id).or_default().reserve_exact(n),
                Kind::Time => arenas.edge_lat.reserve_exact(n),
                Kind::Edges => arenas.csr_edges.reserve_exact(n),
                Kind::Spans => arenas.spans.reserve_exact(n),
            }
        }
        arenas
    }

    /// Appends `bytes`, a whole-word piece of a section `id`.
    fn decode(&mut self, id: u32, bytes: &[u8]) {
        match kind(id) {
            Kind::Bytes => self.bytes.entry(id).or_default().extend_from_slice(bytes),
            Kind::U32 => decode_u32s(bytes, self.u32s.entry(id).or_default()),
            Kind::U64 => decode_u64s(bytes, self.u64s.entry(id).or_default()),
            Kind::Time => T::decode(bytes, &mut self.edge_lat),
            Kind::Edges => decode_edges(bytes, &mut self.csr_edges),
            Kind::Spans => self.decode_spans(bytes),
        }
    }

    /// Appends span pairs, completing a pending half pair first and
    /// keeping a trailing start word for the next piece.
    fn decode_spans(&mut self, mut bytes: &[u8]) {
        let width = usize::from(T::WIDTH);
        if let Some(start) = self.half.take() {
            let mut pair = [0u8; 16];
            pair[..width].copy_from_slice(&start[..width]);
            pair[width..2 * width].copy_from_slice(&bytes[..width]);
            T::decode_pairs(&pair[..2 * width], &mut self.spans);
            bytes = &bytes[width..];
        }
        let whole = bytes.len() - bytes.len() % (2 * width);
        T::decode_pairs(&bytes[..whole], &mut self.spans);
        if whole < bytes.len() {
            self.half = Some(le_array(&bytes[whole..]));
        }
    }
}

/// Joins `sizes.len()` per-shard offset arrays, concatenated in `off`,
/// into one global prefix array, in place. Shard `s` holds
/// `sizes[s] + 1` entries: `0`, then non-decreasing up to its own item
/// count. Each is rebased onto the items of the shards before it, and
/// the boundary entry two neighbours share is kept once. Returns each
/// shard's item count.
fn join_offsets(
    off: &mut Vec<u64>,
    sizes: &[usize],
    what: &'static str,
) -> Result<Vec<usize>, TvgiError> {
    let bad = || TvgiError::Inconsistent(what);
    let mut counts = Vec::with_capacity(sizes.len());
    let (mut read, mut write, mut base) = (0usize, 1usize, 0u64);
    for &size in sizes {
        let end = read.checked_add(size).ok_or_else(bad)?;
        let seg = off.get(read..=end).ok_or_else(bad)?;
        if seg[0] != 0 || seg.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad());
        }
        let count = seg[size];
        // Every entry is at most `count`, so no rebased entry overflows.
        let next_base = base.checked_add(count).ok_or_else(bad)?;
        if (write, base) == (read + 1, 0) {
            write = end + 1; // the first shard is in place already
        } else {
            for i in read + 1..=end {
                off[write] = base + off[i];
                write += 1;
            }
        }
        base = next_base;
        counts.push(usize::try_from(count).map_err(|_| bad())?);
        read = end + 1;
    }
    if read != off.len() {
        return Err(bad());
    }
    off.truncate(write);
    Ok(counts)
}

impl<T: TvgiTime> ShardedIndex<T> {
    /// Opens `path`, fully validating the container before decoding:
    /// magic/version/width, section-table bounds, alignment, overlap,
    /// duplicates and shard order, the whole-file checksum, then
    /// cross-section consistency. After the table, the file is read
    /// once, in order, through one fixed buffer that is checksummed and
    /// decoded in the same pass; no recompilation.
    ///
    /// # Errors
    ///
    /// A [`TvgiError`] naming the first failure — a corrupt file is
    /// always a typed error, never a panic.
    pub fn open(path: &Path) -> Result<Self, TvgiError> {
        let mut f = File::open(path)?;
        let file_len = f.metadata()?.len();
        let mut head = [0u8; HEADER_LEN as usize];
        f.read_exact(&mut head)?;
        let info = parse_header(&head)?;
        if info.width != T::WIDTH {
            return Err(TvgiError::BadWidth {
                found: info.width,
                expected: T::WIDTH,
            });
        }
        let checksum = u64::from_le_bytes(le_array(&head[16..24]));
        let n_sections = u32::from_le_bytes(le_array(&head[12..16]));

        // Section table.
        let table_len = TABLE_ENTRY_LEN * u64::from(n_sections);
        let payload_start = HEADER_LEN + table_len;
        if payload_start > file_len {
            return Err(TvgiError::Truncated);
        }
        let mut table_bytes =
            vec![0u8; usize::try_from(table_len).map_err(|_| TvgiError::Truncated)?];
        f.read_exact(&mut table_bytes)?;
        let table: Vec<Section> = table_bytes
            .chunks_exact(TABLE_ENTRY_LEN as usize)
            .map(|entry| Section {
                id: u32::from_le_bytes(le_array(&entry[0..4])),
                shard: u32::from_le_bytes(le_array(&entry[4..8])),
                offset: u64::from_le_bytes(le_array(&entry[8..16])),
                len: u64::from_le_bytes(le_array(&entry[16..24])),
            })
            .collect();

        // Structural validation before any payload decode.
        let mut seen = std::collections::BTreeSet::new();
        for sec in &table {
            if !section::all().any(|id| id == sec.id) {
                return Err(TvgiError::Inconsistent("unknown or retired section id"));
            }
            let ew = elem_width(sec.id, info.width);
            if sec.offset % 8 != 0 || sec.len % ew != 0 {
                return Err(TvgiError::Misaligned(sec.id));
            }
            if sec.offset < payload_start || sec.len > file_len || sec.offset > file_len - sec.len {
                return Err(TvgiError::SectionOutOfBounds(sec.id));
            }
            if !seen.insert((sec.id, sec.shard)) {
                return Err(TvgiError::DuplicateSection(sec.id));
            }
        }
        let mut by_offset: Vec<usize> = (0..table.len()).collect();
        by_offset.sort_by_key(|&i| table[i].offset);
        for pair in by_offset.windows(2) {
            let (a, b) = (&table[pair[0]], &table[pair[1]]);
            if a.offset + a.len > b.offset {
                return Err(TvgiError::SectionOverlap(a.id, b.id));
            }
        }
        // A global section appears once; a per-shard one once per
        // shard, in shard order along the file.
        let mut per_id: BTreeMap<u32, u32> = BTreeMap::new();
        for &i in &by_offset {
            let sec = &table[i];
            let n = per_id.entry(sec.id).or_default();
            let expected = if section::is_sharded(sec.id) {
                *n
            } else {
                GLOBAL
            };
            if sec.shard != expected {
                return Err(TvgiError::Inconsistent("section shard out of order"));
            }
            *n += 1;
        }
        for id in section::all() {
            let expected = if section::is_sharded(id) {
                info.shards
            } else {
                1
            };
            if per_id.get(&id) != Some(&expected) {
                return Err(TvgiError::MissingSection(id));
            }
        }

        // One pass over the payload: every chunk is checksummed and its
        // section pieces decoded while it is in cache. Chunks start
        // 8-aligned and sections start 8-aligned, so every piece is
        // whole words. The arenas together hold at most the validated,
        // non-overlapping section lengths: no more than the file.
        let mut sum = Checksum::new();
        sum.update(&head[..16]);
        sum.update(&table_bytes);
        let mut arenas = Arenas::<T>::for_table(&table);
        let mut buf = vec![0u8; READ_CHUNK];
        let mut pos = payload_start;
        let mut next = 0;
        while pos < file_len {
            let take = (file_len - pos).min(READ_CHUNK as u64) as usize;
            let chunk = &mut buf[..take];
            f.read_exact(chunk)?;
            sum.update(chunk);
            let end = pos + take as u64;
            while let Some(&i) = by_offset.get(next) {
                let sec = &table[i];
                let sec_end = sec.offset + sec.len;
                let (lo, hi) = (sec.offset.max(pos), sec_end.min(end));
                if lo < hi {
                    arenas.decode(sec.id, &chunk[(lo - pos) as usize..(hi - pos) as usize]);
                }
                if sec_end > end {
                    break;
                }
                next += 1;
            }
            pos = end;
        }
        if sum.finish() != checksum {
            return Err(TvgiError::ChecksumMismatch);
        }

        // Cross-section consistency. Every section is present (checked
        // with the table), so each arena exists.
        let mut take = |id: u32| arenas.u32s.remove(&id).unwrap_or_default();
        let ranges = take(section::SHARD_RANGES);
        let edge_shard = take(section::EDGE_SHARD);
        let mut edge_slot = take(section::EDGE_LOCAL);
        let edge_dst = take(section::EDGE_DST);
        let edge_mono = take(section::EDGE_MONO);
        let mut take = |id: u32| arenas.u64s.remove(&id).unwrap_or_default();
        let meta = take(section::META);
        let names_off = take(section::NAMES_OFF);
        let mut csr_off = take(section::CSR_OFF);
        let mut span_off = take(section::SPAN_OFF);
        let mut take = |id: u32| arenas.bytes.remove(&id).unwrap_or_default();
        let names_bytes = take(section::NAMES_BYTES);
        let spec = String::from_utf8(take(section::SPEC))
            .map_err(|_| TvgiError::Inconsistent("SPEC is not UTF-8"))?;
        let Arenas {
            edge_lat,
            csr_edges,
            spans,
            ..
        } = arenas;

        if meta.len() != META_WORDS {
            return Err(TvgiError::Inconsistent("META has the wrong word count"));
        }
        // Counts come from the file: ids are `u32`, so a count that does
        // not fit one is an inconsistency, and `count + 1` cannot overflow.
        let count = |word: u64, what| {
            u32::try_from(word)
                .map(|c| c as usize)
                .map_err(|_| TvgiError::Inconsistent(what))
        };
        let num_nodes = count(meta[0], "node count")?;
        let num_edges = count(meta[1], "edge count")?;
        let horizon =
            T::from_word(meta[2]).ok_or(TvgiError::Inconsistent("horizon exceeds time width"))?;
        if meta[3] != u64::from(info.shards) {
            return Err(TvgiError::Inconsistent(
                "META shard count disagrees with header",
            ));
        }
        let expect_len = |len: usize, elems: usize, what: &'static str| {
            if len == elems {
                Ok(())
            } else {
                Err(TvgiError::Inconsistent(what))
            }
        };
        expect_len(
            ranges.len(),
            info.shards as usize + 1,
            "SHARD_RANGES length",
        )?;
        if ranges[0] != 0
            || *ranges.last().expect("nonempty") as usize != num_nodes
            || ranges.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TvgiError::Inconsistent("SHARD_RANGES not a partition"));
        }
        expect_len(edge_shard.len(), num_edges, "EDGE_SHARD length")?;
        expect_len(edge_slot.len(), num_edges, "EDGE_LOCAL length")?;
        expect_len(edge_dst.len(), num_edges, "EDGE_DST length")?;
        expect_len(edge_mono.len(), num_edges, "EDGE_MONO length")?;
        expect_len(edge_lat.len(), num_edges, "EDGE_LAT length")?;
        expect_len(names_off.len(), num_nodes + 1, "NAMES_OFF length")?;
        if names_off[0] != 0
            || *names_off.last().expect("nonempty") != names_bytes.len() as u64
            || names_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TvgiError::Inconsistent(
                "NAMES_OFF not monotone over NAMES_BYTES",
            ));
        }

        // The shards, joined: one CSR over every node, one span-offset
        // array over every CSR slot.
        let nodes_per_shard: Vec<usize> =
            ranges.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
        let edges_per_shard = join_offsets(&mut csr_off, &nodes_per_shard, "CSR_OFF not monotone")?;
        expect_len(
            csr_edges.len(),
            num_edges,
            "shard CSRs do not cover every edge",
        )?;
        expect_len(
            *csr_off.last().expect("nonempty") as usize,
            num_edges,
            "CSR_OFF does not end at the edge count",
        )?;
        join_offsets(
            &mut span_off,
            &edges_per_shard,
            "SPAN_OFF not monotone over SPANS",
        )?;
        expect_len(
            *span_off.last().expect("nonempty") as usize,
            spans.len(),
            "SPAN_OFF not monotone over SPANS",
        )?;

        // Each edge's CSR slot, from its shard and local slot. Requiring
        // the CSR to list the edge there makes the CSR a permutation of
        // the edges and the edge directory agree with it.
        let shard_first: Vec<u32> = ranges[..ranges.len() - 1]
            .iter()
            .map(|&first_node| csr_off[first_node as usize] as u32)
            .collect();
        for (e, slot) in edge_slot.iter_mut().enumerate() {
            let &first = shard_first
                .get(edge_shard[e] as usize)
                .ok_or(TvgiError::Inconsistent("EDGE_SHARD names an absent shard"))?;
            let at = first.checked_add(*slot);
            if at.and_then(|at| csr_edges.get(at as usize)) != Some(&EdgeId::from_index(e)) {
                return Err(TvgiError::Inconsistent(
                    "CSR_EDGES does not list the edge at its EDGE_LOCAL slot",
                ));
            }
            *slot = at.expect("checked above");
        }
        if edge_dst.iter().any(|&d| d as usize >= num_nodes) {
            return Err(TvgiError::Inconsistent("EDGE_DST out of range"));
        }

        Ok(ShardedIndex {
            horizon,
            csr_off,
            csr_edges,
            span_off,
            spans,
            edge_slot,
            edge_dst,
            edge_mono,
            edge_lat,
            names_off,
            names_bytes,
            spec,
        })
    }

    /// The canonical scenario text embedded at compile time (empty if
    /// none was).
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The name of node `n` from the embedded name table.
    #[must_use]
    pub fn node_name(&self, n: NodeId) -> &str {
        let lo = usize::try_from(self.names_off[n.index()]).expect("validated at open");
        let hi = usize::try_from(self.names_off[n.index() + 1]).expect("validated at open");
        std::str::from_utf8(&self.names_bytes[lo..hi]).unwrap_or("<non-utf8>")
    }
}

impl<T: TvgiTime> TemporalIndex<T> for ShardedIndex<T> {
    fn num_nodes(&self) -> usize {
        self.csr_off.len() - 1
    }

    fn num_edges(&self) -> usize {
        self.edge_slot.len()
    }

    fn horizon(&self) -> &T {
        &self.horizon
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        let slot = self.edge_slot[e.index()] as usize;
        SpanView(&self.spans[self.span_off[slot] as usize..self.span_off[slot + 1] as usize])
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        self.edge_mono[e.index()] != 0
    }

    fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.csr_edges[self.csr_off[n.index()] as usize..self.csr_off[n.index() + 1] as usize]
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        NodeId::from_index(self.edge_dst[e.index()] as usize)
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        t.checked_add(&self.edge_lat[e.index()])
    }

    /// Two events per span.
    fn num_edge_events(&self) -> usize {
        2 * self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ring_bus_tvg;
    use crate::{Presence, Tvg, TvgBuilder};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvgi-unit-{}-{name}.tvgi", std::process::id()));
        p
    }

    fn sample() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(5);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 4,
                phases: [0u64, 1].into(),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::After(5u64), Latency::Const(2))
            .expect("valid");
        b.edge(v[0], v[2], 'c', Presence::Never, Latency::unit())
            .expect("valid");
        b.edge(v[3], v[4], 'd', Presence::At(7u64), Latency::unit())
            .expect("valid");
        b.edge(v[4], v[0], 'e', Presence::Always, Latency::Const(3))
            .expect("valid");
        b.build().expect("valid")
    }

    fn assert_equivalent(idx: &TvgIndex<'_, u64>, mapped: &ShardedIndex<u64>) {
        assert_eq!(idx.num_nodes(), mapped.num_nodes());
        assert_eq!(idx.num_edges(), mapped.num_edges());
        assert_eq!(idx.horizon(), mapped.horizon());
        for e in (0..idx.num_edges()).map(EdgeId::from_index) {
            assert_eq!(idx.presence(e).view(), mapped.presence(e), "{e} spans");
            assert_eq!(idx.arrival_is_monotone(e), mapped.arrival_is_monotone(e));
            assert_eq!(idx.tvg().edge(e).dst(), mapped.dst(e));
            for t in [0u64, 1, 3, 7, 11] {
                assert_eq!(idx.arrival(e, &t), mapped.arrival(e, &t), "{e}@{t}");
                assert_eq!(idx.traverse(e, &t), mapped.traverse(e, &t));
            }
        }
        for n in (0..idx.num_nodes()).map(NodeId::from_index) {
            assert_eq!(idx.out_edges(n), mapped.out_edges(n), "{n} adjacency");
        }
        assert_eq!(idx.num_edge_events(), mapped.num_edge_events());
    }

    #[test]
    fn round_trips_at_every_shard_count() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 20);
        for shards in [1u32, 2, 3, 5, 9] {
            let path = tmp(&format!("rt{shards}"));
            let summary = write_tvgi(&idx, shards, Some("spec text"), &path).expect("write");
            assert_eq!(summary.shards, shards.min(5));
            assert_eq!(summary.width, 8);
            let mapped = ShardedIndex::<u64>::open(&path).expect("open");
            assert_eq!(mapped.spec(), "spec text");
            assert_eq!(
                mapped.node_name(NodeId::from_index(0)),
                g.node_name(NodeId::from_index(0))
            );
            assert_equivalent(&idx, &mapped);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn narrowed_u32_file_is_half_width() {
        let g = sample();
        let narrowed = crate::narrow_tvg(&g, 20).expect("fits");
        let idx32 = TvgIndex::compile(&narrowed, 20u32);
        let path = tmp("w32");
        let summary = write_tvgi(&idx32, 2, None, &path).expect("write");
        assert_eq!(summary.width, 4);
        // Opening under the wrong width is a typed refusal…
        assert!(matches!(
            ShardedIndex::<u64>::open(&path),
            Err(TvgiError::BadWidth {
                found: 4,
                expected: 8
            })
        ));
        // …and the right width answers like the narrowed compile.
        let mapped = ShardedIndex::<u32>::open(&path).expect("open");
        let e = EdgeId::from_index(1);
        assert_eq!(idx32.traverse(e, &6), mapped.traverse(e, &6));
        assert_eq!(peek_tvgi(&path).expect("peek").width, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_constant_latency_is_refused() {
        let mut b = TvgBuilder::<u64>::new();
        let (u, v) = (b.node("u"), b.node("v"));
        b.edge(
            u,
            v,
            'a',
            Presence::Always,
            Latency::Affine { mul: 2, add: 1 },
        )
        .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 10);
        let path = tmp("nonconst");
        assert_eq!(
            write_tvgi(&idx, 1, None, &path),
            Err(TvgiError::UnsupportedLatency(EdgeId::from_index(0)))
        );
        std::fs::remove_file(&path).ok();
    }

    /// A deterministic byte stream for the checksum tests.
    fn stream(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect()
    }

    /// Freezes the version-3 definition: any change to the mix, the
    /// lane seeds, the lane order, or the finish changes this value.
    #[test]
    fn checksum_of_a_fixed_string_is_pinned() {
        let mut file = b"TVGI\x03\x00\x08\x00".to_vec();
        file.extend_from_slice(&[0xAA; 16]);
        file.extend_from_slice(b"time-varying graphs: waiting in dynamic networks");
        assert_eq!(checksum(&file), 0xbeb3_58cd_98f6_ce96);
        // Bytes 16..24 are the stored checksum field, outside the sum.
        let mut other = file.clone();
        other[16..24].copy_from_slice(&[0x55; 8]);
        assert_eq!(checksum(&other), 0xbeb3_58cd_98f6_ce96);
    }

    #[test]
    fn checksum_is_independent_of_the_chunk_split() {
        let bytes = stream(1000, 7);
        let mut one = Checksum::new();
        one.update(&bytes);
        let whole = one.finish();
        for round in 0..40usize {
            let mut sum = Checksum::new();
            let (mut at, mut k) = (0, 0);
            while at < bytes.len() {
                let step = ((round * 7 + k * 13) % 70).min(bytes.len() - at);
                sum.update(&bytes[at..at + step]);
                at += step;
                k += 1;
            }
            assert_eq!(sum.finish(), whole, "split round {round}");
        }
    }

    #[test]
    fn every_single_word_change_changes_the_checksum() {
        // A stream whose length is not a multiple of 8, so the zero-padded
        // tail word is exercised too.
        let bytes = stream(4099, 11);
        let base = checksum(&bytes);
        let words = (bytes.len() - 24).div_ceil(8);
        let mut rng = stream(2000 * 16, 5).into_iter();
        let mut draw = || {
            let mut w = [0u8; 8];
            for b in &mut w {
                *b = rng.next().expect("enough draws");
            }
            u64::from_le_bytes(w)
        };
        for _ in 0..2000 {
            let word = usize::try_from(draw() % words as u64).expect("small");
            let flip = draw().max(1);
            let mut forged = bytes.clone();
            let at = 24 + 8 * word;
            let end = (at + 8).min(forged.len());
            for (i, b) in forged[at..end].iter_mut().enumerate() {
                *b ^= flip.to_le_bytes()[i];
            }
            if forged == bytes {
                continue; // the XOR landed wholly past the end of the tail
            }
            assert_ne!(checksum(&forged), base, "xor {flip:#x} into word {word}");
        }
    }

    #[test]
    fn ring_round_trip_matches_on_u32_and_u64() {
        let g = ring_bus_tvg(12, 6, 'r');
        let idx = TvgIndex::compile(&g, 30);
        let path = tmp("ring");
        write_tvgi(&idx, 4, None, &path).expect("write");
        let mapped = ShardedIndex::<u64>::open(&path).expect("open");
        assert_equivalent(&idx, &mapped);
        std::fs::remove_file(&path).ok();
    }
}
