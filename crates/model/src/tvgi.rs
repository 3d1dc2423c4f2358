//! The on-disk index: a compiled schedule persisted as a `.tvgi` file.
//!
//! [`TvgIndex::compile`] pays the full materialization cost — presence
//! spans, CSR adjacency, per-edge columns — every time a process
//! starts. This module makes that cost a *build step*: [`write_tvgi`]
//! streams a compiled index's arrays into a versioned, little-endian,
//! section-table binary format, and [`ShardedIndex::open`] decodes them
//! back into the same arrays, as a read-only [`TemporalIndex`] that
//! answers from the layout every compiled index shares (a
//! [`SpanView`](crate::SpanView) per edge, an `&[EdgeId]` slice per
//! node), so an index compiles once and any number of processes query
//! it without recompiling.
//!
//! # Format (version 4)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "TVGI" · version u16 · width u8 (4|8)   │
//! │   · reserved 5 B (zero) · sections u32 · checksum u64        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: sections × (id u32 · offset u64 · len u64),   │
//! │   zero-padded to a multiple of 8 bytes                       │
//! ├──────────────────────────────────────────────────────────────┤
//! │ sections, each at an 8-byte aligned offset:                  │
//! │   META       nodes n · edges m · horizon    u64 × 3          │
//! │   SPEC       canonical scenario text        bytes            │
//! │   EDGE_DST   destination of each edge       u32 × m          │
//! │   EDGE_MONO  monotone-arrival bit per edge  u64 × ⌈m/64⌉     │
//! │   EDGE_LAT   constant latency of each edge  time × m         │
//! │   CSR_OFF    out-edge offsets of each node  u64 × n+1        │
//! │   CSR_EDGES  out-edges, node by node        u32 × m          │
//! │   SPAN_OFF   span offsets of each edge      u64 × m+1        │
//! │   SPANS      (start, end) pairs by edge id  time × 2         │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every multi-byte value is little-endian. *Time-valued* sections
//! (`SPANS`, `EDGE_LAT`, the horizon word of `META`) store `width`-byte
//! words — 4 when the index was compiled in the
//! [`narrow_tvg`](crate::narrow_tvg)-compressed `u32` domain, 8 for
//! native `u64` times — so narrowing halves the hot sections on disk
//! exactly as it halves them in memory. Bit `e mod 64` of word
//! `⌊e/64⌋` of `EDGE_MONO` is edge `e`'s monotone-arrival flag.
//!
//! The file holds exactly the arrays a compiled index answers from:
//! presence spans indexed by edge id, adjacency, and the per-edge
//! destination, monotonicity, and latency columns. The edge-event count
//! a report carries is twice the span count. Version 1 also stored a
//! global event timeline and per-shard boundary summaries, version 2
//! used a byte-serial FNV-1a checksum, and version 3 split the CSR and
//! spans into node-range shards behind an edge directory and carried a
//! node-name table, none of which a query read. Files of those versions
//! are refused as [`TvgiError::UnsupportedVersion`], and a table naming
//! a retired section id is [`TvgiError::Inconsistent`].
//!
//! # Checksum
//!
//! The header's `checksum` covers the whole file except
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
//! # Zero-copy, honestly
//!
//! The workspace forbids `unsafe`, so the reader does not `mmap(2)`:
//! [`ShardedIndex::open`] validates the header and section table, sizes
//! every array from the table, then reads the rest of the file once, in
//! file order, through one fixed buffer, checksumming each chunk and
//! decoding it straight into the array it ends up in (a `u64` span pair
//! can straddle two 8-aligned chunks, so its first word waits for the
//! next one). Nothing is joined, rebased or remapped afterwards: the
//! file's arrays *are* the in-memory arrays, so every query after the
//! pass is the same slice read a compiled index does. One up-front
//! decode is the price of a `#![forbid(unsafe_code)]` workspace. The
//! writer is the mirror image: it streams each array from the compiled
//! layout through the checksum into a buffered file, with no staging
//! copy of any section.
//!
//! The checks after the checksum make the arrays safe to index: both
//! offset arrays start at zero, never decrease and end at the length of
//! the array they index, `CSR_EDGES` lists every edge exactly once,
//! every destination names a node, no `EDGE_MONO` bit is set past the
//! last edge, and each edge's spans are non-empty, sorted and apart
//! (each starts after the previous one ends), as the span lookups'
//! binary searches assume. A file that breaks one is refused as
//! [`TvgiError::Inconsistent`], even when its checksum holds.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::index::{flat_answers, FlatIndex, TemporalIndex, TvgIndex};
use crate::{EdgeId, NodeId, Time};

/// Magic bytes opening every `.tvgi` file.
const MAGIC: [u8; 4] = *b"TVGI";

/// The format version this build writes and reads.
const VERSION: u16 = 4;

/// Fixed header length in bytes.
const HEADER_LEN: u64 = 24;

/// Byte length of one section-table entry.
const TABLE_ENTRY_LEN: u64 = 20;

/// Bytes [`ShardedIndex::open`] reads and decodes per pass step. The
/// chunks start at the end of the padded section table, 8-aligned.
const READ_CHUNK: usize = 256 << 10;

mod section {
    //! Section identifiers of format version 4. Ids 2, 3, 5, 6 and 10
    //! (version 3's node names, edge directory and shard ranges) and
    //! 11, 12 and 17 (version 1's event timeline and boundary
    //! summaries) are retired and never reused.
    pub(super) const META: u32 = 1;
    pub(super) const SPEC: u32 = 4;
    pub(super) const EDGE_DST: u32 = 7;
    pub(super) const EDGE_MONO: u32 = 8;
    pub(super) const EDGE_LAT: u32 = 9;
    pub(super) const CSR_OFF: u32 = 13;
    pub(super) const CSR_EDGES: u32 = 14;
    pub(super) const SPAN_OFF: u32 = 15;
    pub(super) const SPANS: u32 = 16;

    /// Every section id of this version, in the writer's file order.
    pub(super) const ALL: [u32; 9] = [
        META, SPEC, EDGE_DST, EDGE_MONO, EDGE_LAT, CSR_OFF, CSR_EDGES, SPAN_OFF, SPANS,
    ];
}

/// Number of `u64` words in the `META` section: nodes, edges, horizon.
const META_WORDS: usize = 3;

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
    /// The file's format version is not the one this build reads (4).
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
    /// A required section is absent.
    MissingSection(u32),
    /// The same section id appears twice.
    DuplicateSection(u32),
    /// The whole-file checksum does not match the header.
    ChecksumMismatch,
    /// Structurally well-formed but self-contradictory content (counts
    /// that disagree, offsets that are not monotone, ids out of range).
    Inconsistent(&'static str),
    /// The index uses a non-constant latency on some edge; the format
    /// only persists constant latencies.
    UnsupportedLatency(EdgeId),
    /// [`write_tvgi`] was asked for a shard count other than 1; the
    /// format holds one unsharded layout.
    UnsupportedShards(u32),
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
            TvgiError::UnsupportedShards(k) => {
                write!(f, "cannot write {k} shards: a tvgi file is not sharded")
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

    /// Appends the little-endian `WIDTH`-byte words of `bytes`, each
    /// through `wrap`.
    fn decode<X>(bytes: &[u8], out: &mut Vec<X>, wrap: impl Fn(Self) -> X);

    /// Appends the `(start, end)` pairs of little-endian `WIDTH`-byte
    /// words of `bytes`, a whole number of pairs.
    fn decode_pairs(bytes: &[u8], out: &mut Vec<(Self, Self)>);
}

// Each width decodes through fixed-size chunks, which compiles to a
// tight loop; a width-generic loop ran several times slower.

impl TvgiTime for u32 {
    const WIDTH: u8 = 4;

    fn to_word(self) -> u64 {
        u64::from(self)
    }

    fn from_word(w: u64) -> Option<Self> {
        u32::try_from(w).ok()
    }

    fn decode<X>(bytes: &[u8], out: &mut Vec<X>, wrap: impl Fn(Self) -> X) {
        decode_u32s(bytes, out, wrap);
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

    fn decode<X>(bytes: &[u8], out: &mut Vec<X>, wrap: impl Fn(Self) -> X) {
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|c| wrap(u64::from_le_bytes(le_array(c)))),
        );
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
/// `24..`, so every byte except the checksum field itself. Tests that
/// forge files reseal them with it.
///
/// A slice shorter than the header is checksummed as if its missing
/// bytes were absent.
#[cfg(test)]
fn checksum(file: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(&file[..file.len().min(16)]);
    sum.update(file.get(24..).unwrap_or(&[]));
    sum.finish()
}

/// The streaming form of the file checksum: the stream may arrive in any
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

/// Element width in bytes of a section's words, given the file's time
/// width. `1` means raw bytes (no alignment constraint beyond the
/// table's 8-byte offsets).
fn elem_width(id: u32, time_width: u8) -> u64 {
    match id {
        section::SPEC => 1,
        section::EDGE_DST | section::CSR_EDGES => 4,
        section::EDGE_LAT => u64::from(time_width),
        section::SPANS => 2 * u64::from(time_width),
        _ => 8,
    }
}

fn decode_u64s(bytes: &[u8], out: &mut Vec<u64>) {
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(le_array(c))),
    );
}

fn decode_u32s<X>(bytes: &[u8], out: &mut Vec<X>, wrap: impl Fn(u32) -> X) {
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| wrap(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))),
    );
}

/// One entry of the section table.
#[derive(Debug, Clone, Copy)]
struct Section {
    id: u32,
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
    /// Stored time width in bytes (4 or 8).
    pub width: u8,
    /// Node count.
    pub num_nodes: usize,
    /// Edge count.
    pub num_edges: usize,
    /// Total presence spans (half the edge-event count).
    pub num_spans: usize,
}

/// The writer's byte sink: every byte goes through the checksum into
/// the buffered file.
struct Sink {
    w: BufWriter<File>,
    sum: Checksum,
    at: u64,
}

impl Sink {
    fn put(&mut self, bytes: &[u8]) -> Result<(), TvgiError> {
        self.sum.update(bytes);
        self.w.write_all(bytes)?;
        self.at += bytes.len() as u64;
        Ok(())
    }

    /// Zero padding up to `offset`, which is at most 7 bytes ahead.
    fn pad_to(&mut self, offset: u64) -> Result<(), TvgiError> {
        let pad = usize::try_from(offset - self.at).expect("padding is under 8 bytes");
        self.put(&[0; 8][..pad])
    }

    /// The low `width` bytes of each word, little-endian, encoded
    /// through one small stack buffer.
    fn words(
        &mut self,
        width: usize,
        words: impl IntoIterator<Item = u64>,
    ) -> Result<(), TvgiError> {
        let mut buf = [0u8; 4096];
        let mut len = 0;
        for word in words {
            buf[len..len + width].copy_from_slice(&word.to_le_bytes()[..width]);
            len += width;
            if len == buf.len() {
                self.put(&buf)?;
                len = 0;
            }
        }
        self.put(&buf[..len])
    }
}

/// Serializes a compiled index into `path` as a `.tvgi` file, embedding
/// `spec` (the canonical scenario text, if any) for provenance checks
/// at open time. Each array streams from the index's layout through the
/// checksum into the file.
///
/// `shards` must be 1: the format has no shards any more, and the
/// argument stays only until the benchmark adapter that passes it is
/// updated (ROADMAP item 1, step 0, removes it).
///
/// # Errors
///
/// [`TvgiError::UnsupportedShards`] if `shards` is not 1,
/// [`TvgiError::UnsupportedLatency`] if any edge's latency is not
/// [`crate::Latency::Const`] (the format persists constant latencies
/// only — every built-in generator emits them), or [`TvgiError::Io`] on
/// a filesystem failure.
pub fn write_tvgi<T: TvgiTime>(
    index: &TvgIndex<'_, T>,
    shards: u32,
    spec: Option<&str>,
    path: &Path,
) -> Result<TvgiSummary, TvgiError> {
    if shards != 1 {
        return Err(TvgiError::UnsupportedShards(shards));
    }
    let a = &index.flat;
    if let Some(e) = a.lat.iter().position(Option::is_none) {
        return Err(TvgiError::UnsupportedLatency(EdgeId::from_index(e)));
    }
    let spec = spec.unwrap_or("").as_bytes();
    let (n, m) = (a.csr_off.len() - 1, a.dst.len());
    let width = usize::from(T::WIDTH);
    let len = |id| match id {
        section::META => 8 * META_WORDS,
        section::SPEC => spec.len(),
        section::EDGE_DST | section::CSR_EDGES => 4 * m,
        section::EDGE_MONO => 8 * a.mono.len(),
        section::EDGE_LAT => width * m,
        section::CSR_OFF => 8 * (n + 1),
        section::SPAN_OFF => 8 * (m + 1),
        _ => 2 * width * a.spans.len(),
    };

    // Lay the sections out after the table, each 8-byte aligned.
    let mut offset = (HEADER_LEN + TABLE_ENTRY_LEN * section::ALL.len() as u64).next_multiple_of(8);
    let table = section::ALL.map(|id| {
        let sec = Section {
            id,
            offset,
            len: len(id) as u64,
        };
        offset = (offset + sec.len).next_multiple_of(8);
        sec
    });
    let file_len = offset;

    // The header with its checksum field left zero and outside the sum,
    // then the table and every section; the checksum is patched in last.
    let mut out = Sink {
        w: BufWriter::new(File::create(path)?),
        sum: Checksum::new(),
        at: 0,
    };
    let mut head = [0u8; 16];
    head[..4].copy_from_slice(&MAGIC);
    head[4..6].copy_from_slice(&VERSION.to_le_bytes());
    head[6] = T::WIDTH;
    head[12..].copy_from_slice(&(table.len() as u32).to_le_bytes());
    out.put(&head)?;
    out.w.write_all(&[0; 8])?;
    out.at += 8;
    for sec in &table {
        out.put(&sec.id.to_le_bytes())?;
        out.put(&sec.offset.to_le_bytes())?;
        out.put(&sec.len.to_le_bytes())?;
    }
    for sec in &table {
        out.pad_to(sec.offset)?;
        match sec.id {
            section::META => out.words(8, [n as u64, m as u64, a.horizon.to_word()]),
            section::SPEC => out.put(spec),
            section::EDGE_DST => out.words(4, a.dst.iter().map(|d| d.index() as u64)),
            section::EDGE_MONO => out.words(8, a.mono.iter().copied()),
            section::EDGE_LAT => out.words(width, a.lat.iter().flatten().map(|c| c.to_word())),
            section::CSR_OFF => out.words(8, a.csr_off.iter().copied()),
            section::CSR_EDGES => out.words(4, a.csr_edges.iter().map(|e| e.index() as u64)),
            section::SPAN_OFF => out.words(8, a.span_off.iter().copied()),
            _ => out.words(
                width,
                a.spans
                    .iter()
                    .flat_map(|(start, end)| [start.to_word(), end.to_word()]),
            ),
        }?;
    }
    out.pad_to(file_len)?;

    let sum = out.sum.finish();
    let mut file = out
        .w
        .into_inner()
        .map_err(|e| TvgiError::Io(e.to_string()))?;
    file.seek(SeekFrom::Start(16))?;
    file.write_all(&sum.to_le_bytes())?;
    file.sync_all()?;

    Ok(TvgiSummary {
        bytes: file_len,
        width: T::WIDTH,
        num_nodes: n,
        num_edges: m,
        num_spans: a.spans.len(),
    })
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Reads just the header of `path` (magic, version, width), validating
/// it, and returns the stored time width in bytes (4 or 8): what a
/// caller needs to pick the time domain before [`ShardedIndex::open`].
///
/// # Errors
///
/// The same header-level [`TvgiError`] variants as
/// [`ShardedIndex::open`].
pub fn peek_tvgi(path: &Path) -> Result<u8, TvgiError> {
    let mut f = File::open(path)?;
    let mut head = [0u8; HEADER_LEN as usize];
    f.read_exact(&mut head)?;
    parse_header(&head)
}

fn parse_header(head: &[u8; HEADER_LEN as usize]) -> Result<u8, TvgiError> {
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
    if head[7..12].iter().any(|&b| b != 0) {
        return Err(TvgiError::Inconsistent("reserved header bytes are set"));
    }
    Ok(width)
}

/// Decodes and validates the section table before any payload is read:
/// every id is a section of this version and appears once, each section
/// is aligned to its element width and lies inside the payload, and no
/// two overlap. Returns the sections in file order.
fn parse_table(
    bytes: &[u8],
    payload_start: u64,
    file_len: u64,
    width: u8,
) -> Result<Vec<Section>, TvgiError> {
    let mut table: Vec<Section> = bytes
        .chunks_exact(TABLE_ENTRY_LEN as usize)
        .map(|entry| Section {
            id: u32::from_le_bytes(le_array(&entry[0..4])),
            offset: u64::from_le_bytes(le_array(&entry[4..12])),
            len: u64::from_le_bytes(le_array(&entry[12..20])),
        })
        .collect();
    for (i, sec) in table.iter().enumerate() {
        if !section::ALL.contains(&sec.id) {
            return Err(TvgiError::Inconsistent("unknown or retired section id"));
        }
        if sec.offset % 8 != 0 || sec.len % elem_width(sec.id, width) != 0 {
            return Err(TvgiError::Misaligned(sec.id));
        }
        if sec.offset < payload_start || sec.len > file_len || sec.offset > file_len - sec.len {
            return Err(TvgiError::SectionOutOfBounds(sec.id));
        }
        if table[..i].iter().any(|earlier| earlier.id == sec.id) {
            return Err(TvgiError::DuplicateSection(sec.id));
        }
    }
    if let Some(&id) = section::ALL
        .iter()
        .find(|&&id| table.iter().all(|sec| sec.id != id))
    {
        return Err(TvgiError::MissingSection(id));
    }
    table.sort_by_key(|sec| sec.offset);
    for pair in table.windows(2) {
        if pair[0].offset + pair[0].len > pair[1].offset {
            return Err(TvgiError::SectionOverlap(pair[0].id, pair[1].id));
        }
    }
    Ok(table)
}

/// A `.tvgi` file opened read-only: the flat arrays a compiled
/// [`TvgIndex`] holds, decoded from the file, plus the embedded spec
/// text.
///
/// It answers bit-identically to the [`TvgIndex`] it was written from
/// (same arrivals, same witness journeys, same engine stats): edge ids,
/// adjacency order and spans are stored as compiled, and arrivals use
/// the same checked constant-latency arithmetic. The name predates
/// version 4, which has no shards; ROADMAP item 1 renames the type
/// together with the benchmark adapter that names it.
#[derive(Debug)]
pub struct ShardedIndex<T> {
    flat: FlatIndex<T>,
    spec: String,
}

/// A file's arrays, filled as its bytes stream past.
struct Decoder<T> {
    meta: Vec<u64>,
    spec: Vec<u8>,
    flat: FlatIndex<T>,
    /// The start word of a span whose end word is in the next piece:
    /// chunks are 8-aligned, so a 16-byte `u64` pair can straddle two.
    half: Option<[u8; 8]>,
    /// Whether some decoded span is empty.
    empty_span: bool,
    /// Entry `i`: span `i + 1` starts before span `i` ends, or where it
    /// ends. Taken while each piece of `SPANS` is in cache: a second
    /// pass over the arena after decoding cost more than decoding it.
    reaches_back: Vec<bool>,
}

impl<T: TvgiTime> Decoder<T> {
    /// Empty arrays with room for every section's validated length:
    /// together no more than the file holds.
    fn for_table(table: &[Section]) -> Self {
        let words = |id| {
            table
                .iter()
                .find(|sec| sec.id == id)
                .and_then(|sec| usize::try_from(sec.len / elem_width(id, T::WIDTH)).ok())
                .unwrap_or(0)
        };
        Decoder {
            meta: Vec::with_capacity(words(section::META)),
            spec: Vec::with_capacity(words(section::SPEC)),
            flat: FlatIndex {
                horizon: T::zero(),
                csr_off: Vec::with_capacity(words(section::CSR_OFF)),
                csr_edges: Vec::with_capacity(words(section::CSR_EDGES)),
                span_off: Vec::with_capacity(words(section::SPAN_OFF)),
                spans: Vec::with_capacity(words(section::SPANS)),
                dst: Vec::with_capacity(words(section::EDGE_DST)),
                mono: Vec::with_capacity(words(section::EDGE_MONO)),
                lat: Vec::with_capacity(words(section::EDGE_LAT)),
            },
            half: None,
            empty_span: false,
            reaches_back: Vec::with_capacity(words(section::SPANS)),
        }
    }

    /// Appends `bytes`, a whole-word piece of section `id`.
    fn decode(&mut self, id: u32, bytes: &[u8]) {
        let a = &mut self.flat;
        match id {
            section::META => decode_u64s(bytes, &mut self.meta),
            section::SPEC => self.spec.extend_from_slice(bytes),
            section::EDGE_DST => decode_u32s(bytes, &mut a.dst, NodeId),
            section::EDGE_MONO => decode_u64s(bytes, &mut a.mono),
            section::EDGE_LAT => T::decode(bytes, &mut a.lat, Some),
            section::CSR_OFF => decode_u64s(bytes, &mut a.csr_off),
            section::CSR_EDGES => decode_u32s(bytes, &mut a.csr_edges, EdgeId),
            section::SPAN_OFF => decode_u64s(bytes, &mut a.span_off),
            _ => self.decode_spans(bytes),
        }
    }

    /// Appends span pairs, completing a pending half pair first and
    /// keeping a trailing start word for the next piece.
    fn decode_spans(&mut self, mut bytes: &[u8]) {
        let width = usize::from(T::WIDTH);
        let spans = &mut self.flat.spans;
        let from = spans.len();
        if let Some(start) = self.half.take() {
            let mut pair = [0u8; 16];
            pair[..width].copy_from_slice(&start[..width]);
            pair[width..2 * width].copy_from_slice(&bytes[..width]);
            T::decode_pairs(&pair[..2 * width], spans);
            bytes = &bytes[width..];
        }
        let whole = bytes.len() - bytes.len() % (2 * width);
        T::decode_pairs(&bytes[..whole], spans);
        if whole < bytes.len() {
            self.half = Some(le_array(&bytes[whole..]));
        }
        let new = &spans[from.saturating_sub(1)..];
        self.reaches_back
            .extend(new.windows(2).map(|p| p[0].1 >= p[1].0));
        self.empty_span |= spans[from..]
            .iter()
            .fold(false, |any, (start, end)| any | (start >= end));
    }

    /// Cross-section consistency: the counts in `META` size every
    /// array, and every stored index lands in range.
    fn finish(self) -> Result<ShardedIndex<T>, TvgiError> {
        let Decoder {
            meta,
            spec,
            mut flat,
            empty_span,
            reaches_back,
            ..
        } = self;
        let [nodes, edges, horizon] = meta[..] else {
            return Err(TvgiError::Inconsistent("META has the wrong word count"));
        };
        // Ids are `u32`, so a count that does not fit one is an
        // inconsistency, and `count + 1` cannot overflow.
        let count = |word: u64, what| {
            u32::try_from(word)
                .map(|c| c as usize)
                .map_err(|_| TvgiError::Inconsistent(what))
        };
        let (n, m) = (count(nodes, "node count")?, count(edges, "edge count")?);
        flat.horizon =
            T::from_word(horizon).ok_or(TvgiError::Inconsistent("horizon exceeds time width"))?;
        let check = |ok: bool, what| {
            if ok {
                Ok(())
            } else {
                Err(TvgiError::Inconsistent(what))
            }
        };
        check(flat.dst.len() == m, "EDGE_DST length")?;
        check(flat.lat.len() == m, "EDGE_LAT length")?;
        check(flat.mono.len() == m.div_ceil(64), "EDGE_MONO length")?;
        check(
            flat.mono
                .last()
                .is_none_or(|w| m % 64 == 0 || w >> (m % 64) == 0),
            "EDGE_MONO sets a bit past the last edge",
        )?;
        check(flat.csr_edges.len() == m, "CSR_EDGES length")?;
        check(
            offsets_span(&flat.csr_off, n, m),
            "CSR_OFF not monotone over CSR_EDGES",
        )?;
        check(
            offsets_span(&flat.span_off, m, flat.spans.len()),
            "SPAN_OFF not monotone over SPANS",
        )?;
        // The span lookups binary-search each edge's spans, so every
        // edge must hold what `IntervalSet::from_spans` produces: spans
        // that are non-empty and start after the previous one ends. So a
        // span may reach back to its predecessor in the arena only where
        // a non-empty edge's spans begin, and each such edge begins at a
        // distinct position.
        let reaching_back = reaches_back.iter().filter(|&&back| back).count();
        let at_edge_begins = flat
            .span_off
            .windows(2)
            .filter(|w| 0 < w[0] && w[0] < w[1])
            .filter(|w| reaches_back[w[0] as usize - 1])
            .count();
        check(
            !empty_span && reaching_back == at_edge_begins,
            "SPANS not sorted, disjoint and non-empty per edge",
        )?;
        let mut listed = vec![0u64; m.div_ceil(64)];
        for e in &flat.csr_edges {
            let i = e.index();
            let fresh = i < m && listed[i / 64] >> (i % 64) & 1 == 0;
            check(fresh, "CSR_EDGES does not list every edge exactly once")?;
            listed[i / 64] |= 1 << (i % 64);
        }
        check(
            flat.dst.iter().all(|d| d.index() < n),
            "EDGE_DST out of range",
        )?;
        let spec =
            String::from_utf8(spec).map_err(|_| TvgiError::Inconsistent("SPEC is not UTF-8"))?;
        Ok(ShardedIndex { flat, spec })
    }
}

/// Whether `off` holds `len + 1` offsets that start at zero, never
/// decrease, and end at `end`.
fn offsets_span(off: &[u64], len: usize, end: usize) -> bool {
    off.len() == len + 1
        && off[0] == 0
        && off[len] == end as u64
        && off.windows(2).all(|w| w[0] <= w[1])
}

impl<T: TvgiTime> ShardedIndex<T> {
    /// Opens `path`, fully validating the container before decoding:
    /// magic/version/width, section-table bounds, alignment, overlap and
    /// duplicates, the whole-file checksum, then cross-section
    /// consistency. After the table, the file is read once, in order,
    /// through one fixed buffer that is checksummed and decoded in the
    /// same pass; no recompilation.
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
        let width = parse_header(&head)?;
        if width != T::WIDTH {
            return Err(TvgiError::BadWidth {
                found: width,
                expected: T::WIDTH,
            });
        }
        let checksum = u64::from_le_bytes(le_array(&head[16..24]));
        let n_sections = u32::from_le_bytes(le_array(&head[12..16]));

        // The table and its padding up to the 8-aligned payload.
        let table_len = TABLE_ENTRY_LEN * u64::from(n_sections);
        let payload_start = (HEADER_LEN + table_len).next_multiple_of(8);
        if payload_start > file_len {
            return Err(TvgiError::Truncated);
        }
        let mut table_bytes = vec![
            0u8;
            usize::try_from(payload_start - HEADER_LEN)
                .map_err(|_| TvgiError::Truncated)?
        ];
        f.read_exact(&mut table_bytes)?;
        let table = parse_table(&table_bytes, payload_start, file_len, width)?;

        // One pass over the payload: every chunk is checksummed and its
        // section pieces decoded while it is in cache. Chunks start
        // 8-aligned and sections start 8-aligned, so every piece is
        // whole words.
        let mut sum = Checksum::new();
        sum.update(&head[..16]);
        sum.update(&table_bytes);
        let mut decoder = Decoder::<T>::for_table(&table);
        let mut buf = vec![0u8; READ_CHUNK];
        let mut pos = payload_start;
        let mut next = 0;
        while pos < file_len {
            let take = (file_len - pos).min(READ_CHUNK as u64) as usize;
            let chunk = &mut buf[..take];
            f.read_exact(chunk)?;
            sum.update(chunk);
            let end = pos + take as u64;
            while let Some(sec) = table.get(next) {
                let sec_end = sec.offset + sec.len;
                let (lo, hi) = (sec.offset.max(pos), sec_end.min(end));
                if lo < hi {
                    decoder.decode(sec.id, &chunk[(lo - pos) as usize..(hi - pos) as usize]);
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
        decoder.finish()
    }

    /// The canonical scenario text embedded at compile time (empty if
    /// none was).
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl<T: TvgiTime> TemporalIndex<T> for ShardedIndex<T> {
    flat_answers!();

    /// Every decoded latency is constant.
    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        t.checked_add(self.flat.lat[e.index()].as_ref()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ring_bus_tvg, scale_free_temporal};
    use crate::{Latency, Presence, Tvg, TvgBuilder};

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

    fn assert_equivalent<T: TvgiTime>(idx: &TvgIndex<'_, T>, mapped: &ShardedIndex<T>) {
        assert_eq!(idx.num_nodes(), mapped.num_nodes());
        assert_eq!(idx.num_edges(), mapped.num_edges());
        assert_eq!(idx.horizon(), mapped.horizon());
        for e in (0..idx.num_edges()).map(EdgeId::from_index) {
            assert_eq!(idx.presence(e), mapped.presence(e), "{e} spans");
            assert_eq!(idx.arrival_is_monotone(e), mapped.arrival_is_monotone(e));
            assert_eq!(idx.tvg().edge(e).dst(), mapped.dst(e));
            for t in [0, 1, 3, 7, 11].map(T::from_u64) {
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
    fn round_trips_with_the_spec_text() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 20);
        let path = tmp("rt");
        let summary = write_tvgi(&idx, 1, Some("spec text"), &path).expect("write");
        assert_eq!(summary.width, 8);
        assert_eq!(
            summary.bytes,
            std::fs::metadata(&path).expect("written").len()
        );
        let mapped = ShardedIndex::<u64>::open(&path).expect("open");
        assert_eq!(mapped.spec(), "spec text");
        assert_equivalent(&idx, &mapped);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_shard_count_other_than_one_is_refused() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 20);
        let path = tmp("shards");
        for shards in [0, 2, u32::MAX] {
            assert_eq!(
                write_tvgi(&idx, shards, None, &path),
                Err(TvgiError::UnsupportedShards(shards))
            );
        }
        assert!(!path.exists(), "a refused write creates no file");
    }

    #[test]
    fn narrowed_u32_file_is_half_width() {
        let g = sample();
        let narrowed = crate::narrow_tvg(&g, 20).expect("fits");
        let idx32 = TvgIndex::compile(&narrowed, 20u32);
        let path = tmp("w32");
        let summary = write_tvgi(&idx32, 1, None, &path).expect("write");
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
        assert_eq!(peek_tvgi(&path).expect("peek"), 4);
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

    /// Freezes the checksum definition (unchanged since version 3): any
    /// change to the mix, the lane seeds, the lane order, or the finish
    /// changes this value.
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
        write_tvgi(&idx, 1, None, &path).expect("write");
        assert_equivalent(&idx, &ShardedIndex::<u64>::open(&path).expect("open"));
        let narrowed = crate::narrow_tvg(&g, 30).expect("fits");
        let idx32 = TvgIndex::compile(&narrowed, 30u32);
        write_tvgi(&idx32, 1, None, &path).expect("write");
        assert_equivalent(&idx32, &ShardedIndex::<u32>::open(&path).expect("open"));
        std::fs::remove_file(&path).ok();
    }

    /// Writes a small valid `.tvgi` and returns its bytes.
    fn valid_file(label: &str) -> (std::path::PathBuf, Vec<u8>) {
        let g = scale_free_temporal(12, 20, 3);
        let index = TvgIndex::compile(&g, 20u64);
        let path = tmp(label);
        write_tvgi(&index, 1, Some("spec text"), &path).expect("writes");
        let bytes = std::fs::read(&path).expect("reads back");
        (path, bytes)
    }

    fn open_bytes(label: &str, bytes: &[u8]) -> Result<ShardedIndex<u64>, TvgiError> {
        let path = tmp(label);
        std::fs::write(&path, bytes).expect("scratch write");
        let out = ShardedIndex::<u64>::open(&path);
        let _ = std::fs::remove_file(&path);
        out
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

    /// Re-seals a patched file with the format's own checksum, so a test
    /// can forge payload bytes that pass the checksum.
    fn reseal(bytes: &mut [u8]) {
        let sum = checksum(bytes);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
    }

    /// A `u64` file whose `SPANS` section outgrows one read chunk, laid out
    /// so that a 16-byte span pair straddles a chunk boundary: the reader
    /// must carry the pair's first word into the next chunk.
    #[test]
    fn u64_span_pairs_straddling_read_chunks_round_trip() {
        let horizon = 12_000u64;
        let g = ring_bus_tvg(15, 2, 'r');
        let index = TvgIndex::compile(&g, horizon);
        let path = tmp("straddle");
        write_tvgi(&index, 1, None, &path).expect("writes");
        let bytes = std::fs::read(&path).expect("reads back");
        let _ = std::fs::remove_file(&path);
        let spans = section_range(&bytes, section::SPANS);
        assert!(
            spans.1 > READ_CHUNK,
            "the SPANS section must outgrow a read chunk"
        );
        assert!(
            splits_a_pair(&bytes, spans),
            "no span pair straddles a read-chunk boundary"
        );
        let path = tmp("straddle-open");
        std::fs::write(&path, &bytes).expect("scratch write");
        assert_equivalent(&index, &ShardedIndex::<u64>::open(&path).expect("opens"));
        let _ = std::fs::remove_file(&path);
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

    #[test]
    fn resealed_payload_corruption_is_caught_by_consistency_checks() {
        let (path, bytes) = valid_file("reseal");
        let _ = std::fs::remove_file(&path);
        // Make SPAN_OFF (section 15) decrease once, keeping its first and
        // last words, and reseal the checksum: the checksum now passes, so
        // the cross-section consistency layer must catch the lie.
        let (off, len) = section_range(&bytes, section::SPAN_OFF);
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
        let (span_off, len) = section_range(&bytes, section::SPAN_OFF);
        let offsets: Vec<usize> = (0..len / 8).map(|e| word(span_off + 8 * e)).collect();
        let first = offsets
            .windows(2)
            .find(|w| w[1] - w[0] >= 2)
            .expect("two spans")[0];
        // Word `w` of the edge's spans: start 0, end 0, start 1, end 1.
        let (spans, _) = section_range(&bytes, section::SPANS);
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
        let path = tmp("forged-csr");
        write_tvgi(&index, 1, None, &path).expect("writes");
        let bytes = std::fs::read(&path).expect("reads back");
        let _ = std::fs::remove_file(&path);
        let edges = |ids: [usize; 3]| ids.map(EdgeId::from_index);
        assert_eq!(index.out_edges(NodeId::from_index(0)), edges([0, 2, 19]));

        // The second CSR word overwritten by the first: node 0 would read
        // [e0, e0, e19], and e2 would be listed nowhere.
        let (csr, _) = section_range(&bytes, section::CSR_EDGES);
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
        let (meta, _) = section_range(&bytes, section::META);
        for word in [0, 1] {
            for count in [1u64 << 62, u64::MAX] {
                let mut forged = bytes.clone();
                let at = meta + 8 * word;
                forged[at..at + 8].copy_from_slice(&count.to_le_bytes());
                reseal(&mut forged);
                let err =
                    open_bytes("huge-counts-open", &forged).expect_err("forged count must fail");
                assert!(
                    matches!(err, TvgiError::Inconsistent(_)),
                    "META word {word} = {count}: unexpected error {err:?}"
                );
            }
        }
    }
}
