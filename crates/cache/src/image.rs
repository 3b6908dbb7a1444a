//! The suite image: the cache's one on-disk format, a single packed
//! binary file holding every artifact the engine memoizes, laid out for
//! zero-copy warm starts.
//!
//! The engine mounts `<cache dir>/suite.img` when it starts and rewrites
//! it at the end of any run that computed something; `bpfree image build
//! PATH` writes the same file anywhere, and `bpfree exp --image PATH`
//! mounts one explicitly. Mounting is **one** buffered read: the whole
//! file lands in a single `Arc<Vec<u8>>`, and typed accessors hand out
//! views *borrowed from that buffer*. In particular a trace's index
//! sequence is served as a [`ByteView`] window straight into the image
//! bytes ([`BranchTrace::from_borrowed_parts`]), so a warm start
//! performs zero per-trace sequence decode allocations — the property
//! the `traces_are_served_zero_copy` test asserts by finding a mounted
//! trace's sequence inside the image buffer.
//!
//! # File layout (cache format v8)
//!
//! All multi-byte fields are little-endian. The file is:
//!
//! ```text
//! [ 72-byte header | section payloads… | string table | directory ]
//! ```
//!
//! **Header** (72 bytes):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `b"BPFIMG08"` |
//! | 8      | 4    | endian marker `0x0A0B0C0D` (reads scrambled on a big-endian writer) |
//! | 12     | 4    | format version (= the crate's `FORMAT_VERSION`, 8) |
//! | 16     | 8    | entry count |
//! | 24     | 8    | directory offset (absolute, 8-aligned, dir is last) |
//! | 32     | 8    | string-table offset (absolute) |
//! | 40     | 8    | total file length |
//! | 48     | 8    | build fingerprint of the writing build ([`crate::BUILD_FINGERPRINT`]) |
//! | 56     | 8    | FNV-1a 64 checksum of header bytes 0..56 |
//! | 64     | 8    | FNV-1a 64 checksum of the string table + directory (bytes `strings_off..EOF`) |
//!
//! **Section payloads** each start 8-aligned (zero padding between
//! them). **Directory entries** are fixed 48-byte records, one per
//! (kind, benchmark, options fingerprint, dataset):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | kind tag ([`SectionKind`]) |
//! | 4      | 4+4  | benchmark name: offset + length into the string table |
//! | 12     | 4+4  | options fingerprint: offset + length into the string table |
//! | 20     | 4    | dataset index (`u32::MAX` = not dataset-scoped) |
//! | 24     | 8    | payload offset (absolute) |
//! | 32     | 8    | payload length |
//! | 40     | 8    | FNV-1a 64 checksum of the payload bytes |
//!
//! # Writing: deterministic and streamed
//!
//! [`ImageBuilder::write_to`] sorts the directory by (kind, name,
//! fingerprint, dataset) and dedups strings in first-use order, so
//! two builds from the same *borrowed* [`Artifact`]s are
//! **byte-identical** regardless of insertion order. It then encodes,
//! checksums and writes one payload at a time, then the string table
//! and directory, and patches the 72-byte header (offsets, checksums)
//! in last: peak memory is the largest payload, not the image.
//!
//! # Integrity
//!
//! [`SuiteImage::open`] validates the magic, endian marker, version,
//! header checksum, total length, every directory field's bounds, the
//! string table slices' UTF-8, and **every section checksum** before
//! returning. Any failure — truncation, bit flip, wrong version —
//! yields `Err`: the engine treats the cache as empty and recomputes,
//! so a corrupt image can cost time, never correctness. An image that
//! opens but carries another build's fingerprint
//! ([`SuiteImage::fingerprint`]) is the engine's to refuse. Payload
//! *content* is additionally validated structurally by each typed
//! accessor, which returns `None` (not a panic) on any malformed
//! payload that happens to checksum correctly.
//!
//! [`BranchTrace::from_borrowed_parts`]: bpfree_sim::BranchTrace::from_borrowed_parts

use std::collections::HashMap;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use bpfree_core::{BranchClass, BranchClassifier, Direction, HeuristicTable};
use bpfree_ir::{BlockId, BranchRef, FuncId, Program};
use bpfree_sim::{BranchTrace, ByteView, EdgeCounts, EdgeProfile, RunResult, TraceEvent, TraceSeq};

use crate::{
    PredictionArtifacts, PredictionRow, RunArtifacts, TraceArtifacts, BUILD_FINGERPRINT,
    FORMAT_VERSION,
};

/// The image magic: format family + the two-digit format version.
pub const MAGIC: [u8; 8] = *b"BPFIMG08";

/// Little-endian byte-order marker; reads scrambled if the file was
/// written with the opposite endianness.
const ENDIAN_MARK: u32 = 0x0A0B_0C0D;

const HEADER_LEN: usize = 72;
const DIR_ENTRY_LEN: usize = 48;

/// What a directory entry stores — one tag per artifact kind the
/// engine memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SectionKind {
    /// A compiled [`bpfree_ir::Program`], stored as IR text.
    Compile,
    /// Per-branch prediction rows ([`PredictionArtifacts`]).
    Prediction,
    /// One dataset's edge profile + run result ([`RunArtifacts`]).
    Run,
    /// One dataset's replayable trace ([`TraceArtifacts`]), sequence
    /// served zero-copy.
    Trace,
}

impl SectionKind {
    /// All kinds, in tag order.
    pub const ALL: [SectionKind; 4] = [
        SectionKind::Compile,
        SectionKind::Prediction,
        SectionKind::Run,
        SectionKind::Trace,
    ];

    fn tag(self) -> u32 {
        self as u32
    }

    fn from_tag(tag: u32) -> Option<SectionKind> {
        SectionKind::ALL.get(tag as usize).copied()
    }

    /// The lowercase kind name, as printed by `bpfree image ls`.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Compile => "compile",
            SectionKind::Prediction => "prediction",
            SectionKind::Run => "run",
            SectionKind::Trace => "trace",
        }
    }
}

/// One decoded directory entry of an open image.
#[derive(Debug, Clone)]
pub struct ImageEntry {
    /// The artifact kind.
    pub kind: SectionKind,
    /// The benchmark name.
    pub name: String,
    /// The compile-options fingerprint the artifact was built under.
    pub opt: String,
    /// The dataset index within the benchmark's dataset list, for
    /// dataset-scoped kinds (run, trace).
    pub dataset: Option<u32>,
    payload_off: usize,
    payload_len: usize,
}

impl ImageEntry {
    /// Payload size in bytes (excluding the 48-byte directory record).
    pub fn payload_bytes(&self) -> usize {
        self.payload_len
    }
}

// ---- little-endian cursor over a payload slice ----

struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.b.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---- payload codecs ----

fn direction_byte(d: Option<Direction>) -> u8 {
    match d {
        None => 0,
        Some(Direction::Taken) => 1,
        Some(Direction::FallThru) => 2,
    }
}

fn direction_from(b: u8) -> Option<Option<Direction>> {
    match b {
        0 => Some(None),
        1 => Some(Some(Direction::Taken)),
        2 => Some(Some(Direction::FallThru)),
        _ => None,
    }
}

pub(crate) fn encode_prediction_payload(rows: &[PredictionRow]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + rows.len() * 17);
    put_u32(&mut out, rows.len() as u32);
    for r in rows {
        put_u32(&mut out, r.branch.func.0);
        put_u32(&mut out, r.branch.block.0);
        out.push(match r.class {
            BranchClass::NonLoop => 0,
            BranchClass::Loop => 1,
        });
        out.push(direction_byte(r.loop_pred));
        for &h in &r.heuristics {
            out.push(direction_byte(h));
        }
    }
    out
}

pub(crate) fn decode_prediction_payload(bytes: &[u8]) -> Option<PredictionArtifacts> {
    let mut c = Cur::new(bytes);
    let n = c.u32()? as usize;
    if n > c.remaining() / 17 {
        return None;
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let func = c.u32()?;
        let block = c.u32()?;
        let class = match c.u8()? {
            0 => BranchClass::NonLoop,
            1 => BranchClass::Loop,
            _ => return None,
        };
        let loop_pred = direction_from(c.u8()?)?;
        // The Loop ⇔ Some(loop_pred) invariant is structural, not a
        // matter of staleness — reject rows that violate it outright.
        if (class == BranchClass::Loop) != loop_pred.is_some() {
            return None;
        }
        let mut heuristics = [None; 7];
        for h in &mut heuristics {
            *h = direction_from(c.u8()?)?;
        }
        // Heuristics only cover non-loop branches; a loop row with
        // heuristic cells is corrupt.
        if class == BranchClass::Loop && heuristics.iter().any(Option::is_some) {
            return None;
        }
        rows.push(PredictionRow {
            branch: BranchRef {
                func: FuncId(func),
                block: BlockId(block),
            },
            class,
            loop_pred,
            heuristics,
        });
    }
    if !c.done() {
        return None;
    }
    Some(PredictionArtifacts { rows })
}

pub(crate) fn encode_run_payload(profile: &EdgeProfile, run: RunResult) -> Vec<u8> {
    let mut counts: Vec<(BranchRef, EdgeCounts)> = profile.iter().collect();
    counts.sort_by_key(|(b, _)| *b);
    let mut out = Vec::with_capacity(20 + counts.len() * 24);
    put_i64(&mut out, run.exit);
    put_u64(&mut out, run.instructions);
    put_u32(&mut out, counts.len() as u32);
    for (b, c) in counts {
        put_u32(&mut out, b.func.0);
        put_u32(&mut out, b.block.0);
        put_u64(&mut out, c.taken);
        put_u64(&mut out, c.fallthru);
    }
    out
}

pub(crate) fn decode_run_payload(bytes: &[u8]) -> Option<RunArtifacts> {
    let mut c = Cur::new(bytes);
    let exit = c.i64()?;
    let instructions = c.u64()?;
    let n = c.u32()? as usize;
    if n > c.remaining() / 24 {
        return None;
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        let func = c.u32()?;
        let block = c.u32()?;
        let taken = c.u64()?;
        let fallthru = c.u64()?;
        counts.push((
            BranchRef {
                func: FuncId(func),
                block: BlockId(block),
            },
            EdgeCounts { taken, fallthru },
        ));
    }
    if !c.done() {
        return None;
    }
    Some(RunArtifacts {
        profile: counts.into_iter().collect(),
        run: RunResult { exit, instructions },
    })
}

/// Trace payload: 40-byte fixed header, then `n_dict` 24-byte
/// dictionary records, then the raw index sequence in the trace's own
/// width — one byte per event when the dictionary fits in 256 entries
/// (the borrowed zero-copy representation), else four. With an
/// 8-aligned payload the sequence itself starts 8-aligned too
/// (40 + 24·k ≡ 0 mod 8).
pub(crate) fn encode_trace_payload(trace: &BranchTrace, run: RunResult) -> Vec<u8> {
    let dict = trace.dict();
    let width = match trace.seq() {
        TraceSeq::Narrow(_) => 1,
        TraceSeq::Wide(_) => 4,
    };
    let mut out = Vec::with_capacity(40 + dict.len() * 24 + trace.len() * width);
    put_i64(&mut out, run.exit);
    put_u64(&mut out, run.instructions);
    put_u64(&mut out, trace.trailing_instrs());
    put_u32(&mut out, dict.len() as u32);
    out.push(width as u8);
    out.extend_from_slice(&[0; 3]);
    put_u64(&mut out, trace.len() as u64);
    for e in dict {
        put_u64(&mut out, e.instrs);
        put_u32(&mut out, e.branch.func.0);
        put_u32(&mut out, e.branch.block.0);
        out.push(u8::from(e.taken));
        out.extend_from_slice(&[0; 7]);
    }
    match trace.seq() {
        TraceSeq::Narrow(seq) => out.extend_from_slice(seq),
        TraceSeq::Wide(seq) => {
            for &i in seq {
                put_u32(&mut out, i);
            }
        }
    }
    out
}

/// Decodes a trace payload at `[off, off + len)` inside `buf`. Narrow
/// sequences are *not copied*: the returned trace borrows its index
/// sequence from `buf` via [`ByteView`], validated (bounds + tally) in
/// one pass by [`BranchTrace::from_borrowed_parts`].
pub(crate) fn decode_trace_payload(
    buf: &Arc<Vec<u8>>,
    off: usize,
    len: usize,
) -> Option<TraceArtifacts> {
    let bytes = buf.get(off..off.checked_add(len)?)?;
    let mut c = Cur::new(bytes);
    let exit = c.i64()?;
    let instructions = c.u64()?;
    let tail = c.u64()?;
    let n_dict = c.u32()? as usize;
    let width = c.u8()? as usize;
    if c.take(3)? != [0; 3] {
        return None;
    }
    let n_events = usize::try_from(c.u64()?).ok()?;
    if !matches!(width, 1 | 4) || (width == 1) != (n_dict <= 256) {
        return None;
    }
    if n_dict > c.remaining() / 24 {
        return None;
    }
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        let instrs = c.u64()?;
        let func = c.u32()?;
        let block = c.u32()?;
        let taken = match c.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        if c.take(7)? != [0; 7] {
            return None;
        }
        dict.push(TraceEvent {
            instrs,
            branch: BranchRef {
                func: FuncId(func),
                block: BlockId(block),
            },
            taken,
        });
    }
    if c.remaining() != n_events.checked_mul(width)? {
        return None;
    }
    let trace = if width == 1 {
        let view = ByteView::new(Arc::clone(buf), off + c.pos, n_events)?;
        BranchTrace::from_borrowed_parts(dict, view, tail)?
    } else {
        // Wide sequences (dictionary past 256 entries) fall back to
        // owned storage — the one image path that still decodes.
        let mut seq = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            seq.push(c.u32()?);
        }
        BranchTrace::from_parts(dict, seq, tail)?
    };
    Some(TraceArtifacts {
        trace,
        run: RunResult { exit, instructions },
    })
}

// ---- builder ----

/// One artifact to pack, borrowed from wherever it lives (the engine's
/// memos, a test fixture). Each variant is one [`SectionKind`]; its
/// payload is encoded only when [`ImageBuilder::write_to`] reaches it.
#[derive(Clone, Copy)]
pub enum Artifact<'a> {
    /// A compiled program, stored as IR text.
    Compile(&'a Program),
    /// The dense prediction rows of a classifier + heuristic table.
    Prediction(&'a BranchClassifier, &'a HeuristicTable),
    /// One dataset's edge profile and run result.
    Run(&'a EdgeProfile, RunResult),
    /// One dataset's replayable trace and the run result it rides with.
    Trace(&'a BranchTrace, RunResult),
}

impl Artifact<'_> {
    fn kind(&self) -> SectionKind {
        match self {
            Artifact::Compile(_) => SectionKind::Compile,
            Artifact::Prediction(..) => SectionKind::Prediction,
            Artifact::Run(..) => SectionKind::Run,
            Artifact::Trace(..) => SectionKind::Trace,
        }
    }

    fn encode(&self) -> Vec<u8> {
        match *self {
            Artifact::Compile(program) => program.to_string().into_bytes(),
            Artifact::Prediction(classifier, table) => encode_prediction_payload(
                &PredictionArtifacts::from_computed(classifier, table).rows,
            ),
            Artifact::Run(profile, run) => encode_run_payload(profile, run),
            Artifact::Trace(trace, run) => encode_trace_payload(trace, run),
        }
    }
}

struct PendingEntry<'a> {
    name: &'a str,
    opt: &'a str,
    dataset: u32,
    artifact: Artifact<'a>,
}

/// Collects borrowed artifacts and streams them into one deterministic
/// image. Insertion order never matters: [`ImageBuilder::write_to`]
/// sorts the directory first, so two builds over the same artifacts are
/// byte-identical.
pub struct ImageBuilder<'a> {
    fingerprint: u64,
    entries: Vec<PendingEntry<'a>>,
}

impl Default for ImageBuilder<'_> {
    fn default() -> Self {
        ImageBuilder::stamped(BUILD_FINGERPRINT)
    }
}

impl<'a> ImageBuilder<'a> {
    /// An empty builder whose image is stamped with this build's
    /// fingerprint.
    pub fn new() -> ImageBuilder<'a> {
        ImageBuilder::default()
    }

    /// An empty builder whose image is stamped with `fingerprint`, as
    /// another build would write it.
    pub fn stamped(fingerprint: u64) -> ImageBuilder<'a> {
        ImageBuilder {
            fingerprint,
            entries: Vec::new(),
        }
    }

    /// Adds one artifact under its directory address: the benchmark
    /// name, the compile-options fingerprint, and the dataset index for
    /// run and trace entries.
    pub fn add(
        &mut self,
        name: &'a str,
        opt: &'a str,
        dataset: Option<u32>,
        artifact: Artifact<'a>,
    ) {
        self.entries.push(PendingEntry {
            name,
            opt,
            dataset: dataset.unwrap_or(u32::MAX),
            artifact,
        });
    }

    /// Streams the image into `out`, which must start empty at
    /// position 0: a zeroed header, then each payload encoded and
    /// written one at a time, the string table, the directory, and
    /// finally the real header (seeking back to 0). Returns the entry
    /// count and the image size in bytes.
    pub fn write_to<W: Write + Seek>(mut self, out: &mut W) -> io::Result<(usize, u64)> {
        self.entries
            .sort_by_key(|e| (e.artifact.kind(), e.name, e.opt, e.dataset));

        // String table, deduped in first-use order over sorted entries.
        let mut strings = Vec::<u8>::new();
        let mut interned = HashMap::<&str, (u32, u32)>::new();
        let mut intern = |s: &'a str| {
            *interned.entry(s).or_insert_with(|| {
                let at = (strings.len() as u32, s.len() as u32);
                strings.extend_from_slice(s.as_bytes());
                at
            })
        };
        let string_refs: Vec<_> = self
            .entries
            .iter()
            .map(|e| (intern(e.name), intern(e.opt)))
            .collect();

        out.write_all(&[0; HEADER_LEN])?;
        let mut pos = HEADER_LEN;
        let mut placed = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let payload = e.artifact.encode();
            pos = pad8(out, pos)?;
            placed.push((pos, payload.len(), fnv(&payload)));
            out.write_all(&payload)?;
            pos += payload.len();
        }
        let strings_off = pad8(out, pos)?;

        // Everything from the string table to EOF is small and covered
        // by one checksum, so it is assembled before it is written.
        let mut tail = strings;
        tail.resize(align8(tail.len()), 0);
        let dir_off = strings_off + tail.len();
        for ((e, &(payload_off, payload_len, payload_sum)), &(name_at, opt_at)) in
            self.entries.iter().zip(&placed).zip(&string_refs)
        {
            put_u32(&mut tail, e.artifact.kind().tag());
            put_u32(&mut tail, name_at.0);
            put_u32(&mut tail, name_at.1);
            put_u32(&mut tail, opt_at.0);
            put_u32(&mut tail, opt_at.1);
            put_u32(&mut tail, e.dataset);
            put_u64(&mut tail, payload_off as u64);
            put_u64(&mut tail, payload_len as u64);
            put_u64(&mut tail, payload_sum);
        }
        out.write_all(&tail)?;
        let total_len = strings_off + tail.len();
        debug_assert_eq!(total_len, dir_off + self.entries.len() * DIR_ENTRY_LEN);

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, ENDIAN_MARK);
        put_u32(&mut header, FORMAT_VERSION);
        put_u64(&mut header, self.entries.len() as u64);
        put_u64(&mut header, dir_off as u64);
        put_u64(&mut header, strings_off as u64);
        put_u64(&mut header, total_len as u64);
        put_u64(&mut header, self.fingerprint);
        let head_sum = fnv(&header);
        put_u64(&mut header, head_sum);
        put_u64(&mut header, fnv(&tail));
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&header)?;
        Ok((self.entries.len(), total_len as u64))
    }

    /// The image bytes, built in memory.
    pub fn finish(self) -> Vec<u8> {
        let mut out = io::Cursor::new(Vec::new());
        self.write_to(&mut out)
            .expect("writing an image to memory cannot fail");
        out.into_inner()
    }

    /// [`ImageBuilder::write_to`] a temp file next to `path`, then
    /// renamed over it: readers, concurrent writers included, only ever
    /// see a complete image, and the last rename wins.
    pub fn write(self, path: &Path) -> io::Result<(usize, u64)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        (|| {
            let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
            let written = self.write_to(&mut out)?;
            out.flush()?;
            drop(out);
            std::fs::rename(&tmp, path)?;
            Ok(written)
        })()
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }
}

/// Zero-pads from `pos` to the next multiple of 8; returns the new
/// position.
fn pad8(out: &mut impl Write, pos: usize) -> io::Result<usize> {
    let to = align8(pos);
    out.write_all(&[0; 8][..to - pos])?;
    Ok(to)
}

// ---- reader ----

/// An open, fully integrity-checked suite image. All typed accessors
/// borrow from the one shared buffer; traces are served zero-copy.
pub struct SuiteImage {
    buf: Arc<Vec<u8>>,
    fingerprint: u64,
    entries: Vec<ImageEntry>,
}

impl SuiteImage {
    /// Reads and validates an image file: one buffered read, then the
    /// full header/directory/checksum validation described in the
    /// module docs. Every failure mode is a clean `Err`.
    pub fn open(path: &Path) -> Result<SuiteImage, String> {
        let buf = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        SuiteImage::from_bytes(buf)
    }

    /// [`SuiteImage::open`] over an in-memory buffer.
    pub fn from_bytes(buf: Vec<u8>) -> Result<SuiteImage, String> {
        let b = &buf;
        let err = |m: &str| Err(format!("suite image: {m}"));
        if b.len() < HEADER_LEN {
            return err("shorter than the 72-byte header");
        }
        if b[..8] != MAGIC {
            return err("bad magic");
        }
        let mut c = Cur::new(&b[8..HEADER_LEN]);
        let endian = c.u32().unwrap();
        let version = c.u32().unwrap();
        let n_entries = c.u64().unwrap();
        let dir_off = c.u64().unwrap();
        let strings_off = c.u64().unwrap();
        let total_len = c.u64().unwrap();
        let fingerprint = c.u64().unwrap();
        let head_sum = c.u64().unwrap();
        let tail_sum = c.u64().unwrap();
        if endian != ENDIAN_MARK {
            return err("endianness mismatch");
        }
        if version != FORMAT_VERSION {
            return err("format version mismatch");
        }
        if head_sum != fnv(&b[..56]) {
            return err("header checksum mismatch");
        }
        if total_len != b.len() as u64 {
            return err("total length mismatch (truncated or padded file)");
        }
        let dir_off = usize::try_from(dir_off).map_err(|_| "suite image: huge dir offset")?;
        let strings_off =
            usize::try_from(strings_off).map_err(|_| "suite image: huge strings offset")?;
        let n = usize::try_from(n_entries).map_err(|_| "suite image: huge entry count")?;
        if strings_off < HEADER_LEN || dir_off < strings_off || dir_off % 8 != 0 {
            return err("section offsets out of order");
        }
        if n.checked_mul(DIR_ENTRY_LEN)
            .and_then(|d| dir_off.checked_add(d))
            != Some(b.len())
        {
            return err("directory does not span the file tail");
        }
        if tail_sum != fnv(&b[strings_off..]) {
            return err("string table / directory checksum mismatch");
        }
        let strings = &b[strings_off..dir_off];

        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let rec = &b[dir_off + i * DIR_ENTRY_LEN..dir_off + (i + 1) * DIR_ENTRY_LEN];
            let mut c = Cur::new(rec);
            let kind = SectionKind::from_tag(c.u32().unwrap())
                .ok_or_else(|| format!("suite image: entry {i}: unknown kind"))?;
            let name_off = c.u32().unwrap() as usize;
            let name_len = c.u32().unwrap() as usize;
            let opt_off = c.u32().unwrap() as usize;
            let opt_len = c.u32().unwrap() as usize;
            let dataset = c.u32().unwrap();
            let payload_off = usize::try_from(c.u64().unwrap())
                .map_err(|_| format!("suite image: entry {i}: huge payload offset"))?;
            let payload_len = usize::try_from(c.u64().unwrap())
                .map_err(|_| format!("suite image: entry {i}: huge payload length"))?;
            let payload_sum = c.u64().unwrap();
            let string_at = |off: usize, len: usize| -> Result<String, String> {
                let s = off
                    .checked_add(len)
                    .and_then(|end| strings.get(off..end))
                    .ok_or_else(|| format!("suite image: entry {i}: string out of bounds"))?;
                std::str::from_utf8(s)
                    .map(str::to_string)
                    .map_err(|_| format!("suite image: entry {i}: non-UTF-8 string"))
            };
            let name = string_at(name_off, name_len)?;
            let opt = string_at(opt_off, opt_len)?;
            let payload = payload_off
                .checked_add(payload_len)
                .filter(|&end| payload_off >= HEADER_LEN && end <= strings_off)
                .map(|end| &b[payload_off..end])
                .ok_or_else(|| format!("suite image: entry {i}: payload out of bounds"))?;
            if fnv(payload) != payload_sum {
                return Err(format!(
                    "suite image: entry {i} ({} {name}): payload checksum mismatch",
                    kind.name()
                ));
            }
            entries.push(ImageEntry {
                kind,
                name,
                opt,
                dataset: (dataset != u32::MAX).then_some(dataset),
                payload_off,
                payload_len,
            });
        }
        Ok(SuiteImage {
            buf: Arc::new(buf),
            fingerprint,
            entries,
        })
    }

    /// The build fingerprint the image is stamped with: the writing
    /// build's [`crate::BUILD_FINGERPRINT`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The decoded directory, in on-disk (sorted) order.
    pub fn entries(&self) -> &[ImageEntry] {
        &self.entries
    }

    /// Total image size in bytes — the warm start's entire read volume.
    pub fn total_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Finds the entry for (kind, name, opt, dataset), if present.
    pub fn find(
        &self,
        kind: SectionKind,
        name: &str,
        opt: &str,
        dataset: Option<u32>,
    ) -> Option<&ImageEntry> {
        self.entries
            .iter()
            .find(|e| e.kind == kind && e.name == name && e.opt == opt && e.dataset == dataset)
    }

    fn payload(&self, e: &ImageEntry) -> &[u8] {
        &self.buf[e.payload_off..e.payload_off + e.payload_len]
    }

    /// Decodes a compile entry (re-parses the stored IR text). `None`
    /// on kind mismatch or malformed payload.
    pub fn compile(&self, e: &ImageEntry) -> Option<Program> {
        if e.kind != SectionKind::Compile {
            return None;
        }
        let ir = std::str::from_utf8(self.payload(e)).ok()?;
        bpfree_ir::parse_program(ir).ok()
    }

    /// Decodes a prediction entry.
    pub fn prediction(&self, e: &ImageEntry) -> Option<PredictionArtifacts> {
        if e.kind != SectionKind::Prediction {
            return None;
        }
        decode_prediction_payload(self.payload(e))
    }

    /// Decodes a run entry.
    pub fn run(&self, e: &ImageEntry) -> Option<RunArtifacts> {
        if e.kind != SectionKind::Run {
            return None;
        }
        decode_run_payload(self.payload(e))
    }

    /// Decodes a trace entry. The index sequence is **borrowed** from
    /// the image buffer (zero-copy) whenever the dictionary fits in 256
    /// entries — which is every suite trace.
    pub fn trace(&self, e: &ImageEntry) -> Option<TraceArtifacts> {
        if e.kind != SectionKind::Trace {
            return None;
        }
        decode_trace_payload(&self.buf, e.payload_off, e.payload_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{sample, Sample};

    fn sample_image(s: &Sample) -> Vec<u8> {
        let mut b = ImageBuilder::new();
        b.add("sample", "O", Some(0), Artifact::Trace(&s.trace, s.run));
        b.add("sample", "O", Some(0), Artifact::Run(&s.profile, s.run));
        let prediction = Artifact::Prediction(&s.classifier, &s.table);
        b.add("sample", "O", None, prediction);
        b.add("sample", "O", None, Artifact::Compile(&s.program));
        b.finish()
    }

    #[test]
    fn roundtrip_every_kind() {
        let s = sample();
        let img = SuiteImage::from_bytes(sample_image(&s)).expect("opens");
        assert_eq!(
            img.fingerprint(),
            BUILD_FINGERPRINT,
            "stamped by this build"
        );
        assert_eq!(img.entries().len(), 4);
        // Directory is sorted by kind regardless of insertion order.
        let kinds: Vec<_> = img.entries().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, SectionKind::ALL.to_vec());

        let e = img.find(SectionKind::Compile, "sample", "O", None).unwrap();
        assert_eq!(img.compile(e).unwrap(), s.program);

        let e = img
            .find(SectionKind::Prediction, "sample", "O", None)
            .unwrap();
        let p = img.prediction(e).unwrap();
        assert!(p.instantiate(&s.program).is_some());

        let e = img.find(SectionKind::Run, "sample", "O", Some(0)).unwrap();
        let got = img.run(e).unwrap();
        assert_eq!(got.profile, s.profile);
        assert_eq!(got.run, s.run);

        let e = img
            .find(SectionKind::Trace, "sample", "O", Some(0))
            .unwrap();
        let got = img.trace(e).unwrap();
        assert_eq!(got.trace, s.trace);
        assert_eq!(got.run, s.run);

        // Another build's stamp survives the round trip, and only the
        // stamp differs.
        let mut b = ImageBuilder::stamped(!BUILD_FINGERPRINT);
        b.add("sample", "O", None, Artifact::Compile(&s.program));
        let other = SuiteImage::from_bytes(b.finish()).expect("opens");
        assert_eq!(other.fingerprint(), !BUILD_FINGERPRINT);
        assert_eq!(other.entries().len(), 1);
    }

    #[test]
    fn traces_are_served_zero_copy() {
        let s = sample();
        let img = SuiteImage::from_bytes(sample_image(&s)).expect("opens");
        let e = img
            .find(SectionKind::Trace, "sample", "O", Some(0))
            .unwrap();
        let got = img.trace(e).unwrap();
        // The byte-wide sequence is a window into the image buffer
        // itself, not a decoded copy.
        let TraceSeq::Narrow(seq8) = got.trace.seq() else {
            panic!("a suite-sized dictionary is stored byte-wide");
        };
        let buf_range = img.buf.as_ptr() as usize..img.buf.as_ptr() as usize + img.buf.len();
        assert!(buf_range.contains(&(seq8.as_ptr() as usize)));
        assert_eq!(got.trace, s.trace);
    }

    #[test]
    fn builds_are_deterministic_under_insertion_order() {
        let s = sample();
        let (compile, run) = (
            Artifact::Compile(&s.program),
            Artifact::Run(&s.profile, s.run),
        );
        let mut b1 = ImageBuilder::new();
        b1.add("a", "O", None, compile);
        b1.add("a", "O", Some(0), run);
        b1.add("a", "O", Some(1), run);
        let mut b2 = ImageBuilder::new();
        b2.add("a", "O", Some(1), run);
        b2.add("a", "O", None, compile);
        b2.add("a", "O", Some(0), run);
        assert_eq!(b1.finish(), b2.finish(), "byte-identical double build");
    }

    #[test]
    fn open_rejects_structural_corruption() {
        let bytes = sample_image(&sample());
        assert!(SuiteImage::from_bytes(Vec::new()).is_err(), "empty");
        assert!(
            SuiteImage::from_bytes(bytes[..71].to_vec()).is_err(),
            "sub-header"
        );
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(SuiteImage::from_bytes(bad).is_err(), "magic");
        let mut bad = bytes.clone();
        bad[12] = 5;
        assert!(SuiteImage::from_bytes(bad).is_err(), "version");
        let mut long = bytes.clone();
        long.push(0);
        assert!(SuiteImage::from_bytes(long).is_err(), "trailing bytes");
        assert!(
            SuiteImage::from_bytes(bytes[..bytes.len() - 1].to_vec()).is_err(),
            "truncation"
        );
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let bytes = sample_image(&sample());
        for len in 0..bytes.len() {
            assert!(
                SuiteImage::from_bytes(bytes[..len].to_vec()).is_err(),
                "truncation to {len} must not open"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic_and_never_lie() {
        let s = sample();
        let bytes = sample_image(&s);
        // A deterministic LCG walk over byte offsets; each flip either
        // fails to open, or opens with the flip confined to padding —
        // in which case every payload still decodes identically.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (x >> 16) as usize % bytes.len();
            let bit = 1u8 << ((x >> 8) % 8);
            let mut flipped = bytes.clone();
            flipped[at] ^= bit;
            if let Ok(img) = SuiteImage::from_bytes(flipped) {
                // Flip landed in inter-section padding: contents must
                // be untouched.
                for e in img.entries() {
                    match e.kind {
                        SectionKind::Compile => assert_eq!(img.compile(e).unwrap(), s.program),
                        SectionKind::Prediction => assert!(img.prediction(e).is_some()),
                        SectionKind::Run => assert!(img.run(e).is_some()),
                        SectionKind::Trace => assert!(img.trace(e).is_some()),
                    }
                }
            }
        }
    }

    #[test]
    fn accessors_reject_kind_mismatch() {
        let img = SuiteImage::from_bytes(sample_image(&sample())).expect("opens");
        let run = img.find(SectionKind::Run, "sample", "O", Some(0)).unwrap();
        assert!(img.trace(run).is_none());
        assert!(img.compile(run).is_none());
        assert!(img.prediction(run).is_none());
        let trace = img
            .find(SectionKind::Trace, "sample", "O", Some(0))
            .unwrap();
        assert!(img.run(trace).is_none());
    }

    /// The streamed file write and the in-memory build produce the same
    /// bytes, the file opens, and the write leaves no temp file behind.
    #[test]
    fn write_and_open_roundtrip() {
        let s = sample();
        let dir = std::env::temp_dir().join(format!("bpfree-img-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("suite.img");
        let build = || {
            let mut b = ImageBuilder::new();
            b.add("sample", "O", None, Artifact::Compile(&s.program));
            b.add("sample", "O", Some(0), Artifact::Trace(&s.trace, s.run));
            b
        };
        let (n, bytes) = build().write(&path).expect("writes");
        let written = std::fs::read(&path).unwrap();
        assert_eq!((n, bytes), (2, written.len() as u64));
        assert_eq!(written, build().finish());
        let img = SuiteImage::open(&path).expect("opens");
        assert_eq!(img.entries().len(), 2);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "only suite.img remains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
