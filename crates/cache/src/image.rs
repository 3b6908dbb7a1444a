//! The suite image: the cache's one on-disk format, a single binary
//! file holding every artifact the engine memoizes, laid out for
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
//! # File layout (cache format v10)
//!
//! Everything is written with the [`bpfree_ir::codec`] byte codec:
//! integers little-endian, a string or a list a `u32` count followed by
//! its elements. The file is:
//!
//! ```text
//! magic b"BPFIMG10" | build fingerprint u64 | entry count u32 | entries… | checksum u64
//! ```
//!
//! The fingerprint is the writing build's [`crate::BUILD_FINGERPRINT`],
//! and the checksum is the FNV-1a 64 hash of every byte before it. An
//! entry is its address and its payload:
//!
//! ```text
//! kind u8 | benchmark name | options fingerprint | dataset u32 | payload byte string
//! ```
//!
//! The kind is a [`SectionKind`] tag and the dataset is `u32::MAX` for
//! the kinds that are not dataset-scoped. A compile payload is the
//! program's binary form ([`Program::to_bytes`]); the prediction, run
//! and trace payloads are encoded in this module with the same codec.
//! When a trace's dictionary fits in a byte, its event sequence is a
//! byte string, one byte per event, served zero-copy.
//!
//! # Writing: deterministic and streamed
//!
//! [`ImageBuilder::write_to`] sorts the entries by (kind, name,
//! fingerprint, dataset), so two builds from the same *borrowed*
//! [`Artifact`]s are **byte-identical** regardless of insertion order.
//! It then encodes and writes one payload at a time, folding every byte
//! into the checksum as it goes, and writes the checksum last: peak
//! memory is the largest payload, not the image.
//!
//! # Integrity
//!
//! [`SuiteImage::open`] checks the magic and the checksum before it
//! reads anything else, then requires the entries to span the file
//! exactly. Any failure — truncation, a bit flip anywhere, another
//! format — yields `Err`: the engine treats the cache as empty and
//! recomputes, so a corrupt image can cost time, never correctness. An
//! image that opens but carries another build's fingerprint
//! ([`SuiteImage::fingerprint`]) is the engine's to refuse. Payload
//! *content* is additionally validated structurally by each typed
//! accessor, which returns `None` (not a panic) on any malformed
//! payload that happens to checksum correctly.
//!
//! [`BranchTrace::from_borrowed_parts`]: bpfree_sim::BranchTrace::from_borrowed_parts

use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use bpfree_core::{BranchClass, BranchClassifier, Direction, HeuristicTable};
use bpfree_ir::codec::{put_bytes, put_list, Field, Reader};
use bpfree_ir::{BranchRef, Program};
use bpfree_sim::{BranchTrace, ByteView, EdgeCounts, EdgeProfile, RunResult, TraceEvent, TraceSeq};

use crate::{PredictionArtifacts, PredictionRow, RunArtifacts, TraceArtifacts, BUILD_FINGERPRINT};

/// The image magic: format family + the two-digit format version.
pub const MAGIC: [u8; 8] = *b"BPFIMG10";

/// What an entry stores — one tag per artifact kind the engine
/// memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SectionKind {
    /// A compiled [`bpfree_ir::Program`], stored in its binary form
    /// ([`Program::to_bytes`]).
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

    fn from_tag(tag: u8) -> Option<SectionKind> {
        SectionKind::ALL.get(usize::from(tag)).copied()
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

/// One decoded entry address of an open image.
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
    /// Payload size in bytes (excluding the entry's address and length
    /// prefix).
    pub fn payload_bytes(&self) -> usize {
        self.payload_len
    }

    /// Reads one entry from `r`, whose bytes end at image offset `end`,
    /// so that the payload's offset is known.
    fn read(r: &mut Reader<'_>, end: usize) -> Option<ImageEntry> {
        let kind = SectionKind::from_tag(u8::get(r)?)?;
        let name = String::get(r)?;
        let opt = String::get(r)?;
        let dataset = u32::get(r)?;
        let payload_len = r.bytes()?.len();
        Some(ImageEntry {
            kind,
            name,
            opt,
            dataset: (dataset != u32::MAX).then_some(dataset),
            payload_off: end - r.len() - payload_len,
            payload_len,
        })
    }
}

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

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

/// A row is its branch, a loop flag, the loop prediction and the seven
/// heuristic cells, each direction one byte.
impl Field for PredictionRow {
    const MIN_BYTES: usize = 17;
    fn put(&self, out: &mut Vec<u8>) {
        self.branch.put(out);
        (self.class == BranchClass::Loop).put(out);
        out.push(direction_byte(self.loop_pred));
        out.extend(self.heuristics.map(direction_byte));
    }
    fn get(r: &mut Reader<'_>) -> Option<PredictionRow> {
        let branch = BranchRef::get(r)?;
        let class = if bool::get(r)? {
            BranchClass::Loop
        } else {
            BranchClass::NonLoop
        };
        let loop_pred = direction_from(u8::get(r)?)?;
        // The Loop ⇔ Some(loop_pred) invariant is structural, not a
        // matter of staleness — reject rows that violate it outright.
        if (class == BranchClass::Loop) != loop_pred.is_some() {
            return None;
        }
        let mut heuristics = [None; 7];
        for h in &mut heuristics {
            *h = direction_from(u8::get(r)?)?;
        }
        // Heuristics only cover non-loop branches; a loop row with
        // heuristic cells is corrupt.
        if class == BranchClass::Loop && heuristics.iter().any(Option::is_some) {
            return None;
        }
        Some(PredictionRow {
            branch,
            class,
            loop_pred,
            heuristics,
        })
    }
}

pub(crate) fn encode_prediction_payload(rows: &[PredictionRow]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + rows.len() * PredictionRow::MIN_BYTES);
    put_list(rows, &mut out);
    out
}

pub(crate) fn decode_prediction_payload(bytes: &[u8]) -> Option<PredictionArtifacts> {
    let mut r = Reader::new(bytes);
    let rows = Vec::get(&mut r)?;
    r.is_empty().then_some(PredictionArtifacts { rows })
}

/// A run payload: the exit value and instruction count, then one
/// (branch, (taken, fall-through)) count per profiled site in strictly
/// increasing branch order.
pub(crate) fn encode_run_payload(profile: &EdgeProfile, run: RunResult) -> Vec<u8> {
    let counts: Vec<(BranchRef, (u64, u64))> = profile
        .iter()
        .map(|(b, c)| (b, (c.taken, c.fallthru)))
        .collect();
    let mut out = Vec::with_capacity(20 + counts.len() * 24);
    (run.exit, run.instructions).put(&mut out);
    counts.put(&mut out);
    out
}

pub(crate) fn decode_run_payload(bytes: &[u8]) -> Option<RunArtifacts> {
    let mut r = Reader::new(bytes);
    let (exit, instructions): (i64, u64) = Field::get(&mut r)?;
    let counts: Vec<(BranchRef, (u64, u64))> = Field::get(&mut r)?;
    // The encoder writes each site once, in order: anything else would
    // not survive a round trip.
    if !r.is_empty() || !counts.windows(2).all(|w| w[0].0 < w[1].0) {
        return None;
    }
    let profile = counts
        .into_iter()
        .map(|(b, (taken, fallthru))| (b, EdgeCounts { taken, fallthru }))
        .collect();
    Some(RunArtifacts {
        profile,
        run: RunResult { exit, instructions },
    })
}

/// A trace payload: the run's exit value and instruction count, the
/// trailing instruction count, the dictionary as (instrs, (branch,
/// taken)) events, then the index sequence — a byte string when the
/// dictionary has at most 256 entries (the borrowed zero-copy
/// representation), else a list of `u32`s.
pub(crate) fn encode_trace_payload(trace: &BranchTrace, run: RunResult) -> Vec<u8> {
    let dict: Vec<(u64, (BranchRef, bool))> = trace
        .dict()
        .iter()
        .map(|e| (e.instrs, (e.branch, e.taken)))
        .collect();
    let width = match trace.seq() {
        TraceSeq::Narrow(_) => 1,
        TraceSeq::Wide(_) => 4,
    };
    let mut out = Vec::with_capacity(32 + dict.len() * 17 + trace.len() * width);
    (run.exit, run.instructions).put(&mut out);
    trace.trailing_instrs().put(&mut out);
    dict.put(&mut out);
    match trace.seq() {
        TraceSeq::Narrow(seq) => put_bytes(seq, &mut out),
        TraceSeq::Wide(seq) => put_list(seq, &mut out),
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
    let mut r = Reader::new(buf.get(off..off.checked_add(len)?)?);
    let (exit, instructions): (i64, u64) = Field::get(&mut r)?;
    let tail = u64::get(&mut r)?;
    let dict: Vec<(u64, (BranchRef, bool))> = Field::get(&mut r)?;
    let dict = dict
        .into_iter()
        .map(|(instrs, (branch, taken))| TraceEvent {
            instrs,
            branch,
            taken,
        })
        .collect::<Vec<_>>();
    let trace = if dict.len() <= 256 {
        let n_events = r.bytes()?.len();
        let view = ByteView::new(Arc::clone(buf), off + len - r.len() - n_events, n_events)?;
        BranchTrace::from_borrowed_parts(dict, view, tail)?
    } else {
        // Wide sequences (dictionary past 256 entries) fall back to
        // owned storage — the one image path that still decodes.
        BranchTrace::from_parts(dict, Vec::get(&mut r)?, tail)?
    };
    r.is_empty().then_some(TraceArtifacts {
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
    /// A compiled program, stored in its binary form
    /// ([`Program::to_bytes`]).
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
            Artifact::Compile(program) => program.to_bytes(),
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
/// sorts the entries first, so two builds over the same artifacts are
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

    /// Adds one artifact under its entry address: the benchmark name,
    /// the compile-options fingerprint, and the dataset index for run
    /// and trace entries.
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

    /// Streams the image into `out`: the header, then each entry with
    /// its payload encoded and written one at a time, then the checksum
    /// of every byte written before it. Returns the entry count and the
    /// image size in bytes.
    pub fn write_to<W: Write>(mut self, out: &mut W) -> io::Result<(usize, u64)> {
        self.entries
            .sort_by_key(|e| (e.artifact.kind(), e.name, e.opt, e.dataset));
        let (mut sum, mut len) = (FNV_BASIS, 0u64);
        let mut emit = |bytes: &[u8]| {
            sum = fnv(sum, bytes);
            len += bytes.len() as u64;
            out.write_all(bytes)
        };
        let mut head = MAGIC.to_vec();
        self.fingerprint.put(&mut head);
        (self.entries.len() as u32).put(&mut head);
        emit(&head)?;
        for e in &self.entries {
            let payload = e.artifact.encode();
            head.clear();
            (e.artifact.kind() as u8).put(&mut head);
            put_bytes(e.name.as_bytes(), &mut head);
            put_bytes(e.opt.as_bytes(), &mut head);
            e.dataset.put(&mut head);
            (payload.len() as u32).put(&mut head);
            emit(&head)?;
            emit(&payload)?;
        }
        out.write_all(&sum.to_le_bytes())?;
        Ok((self.entries.len(), len + 8))
    }

    /// The image bytes, built in memory.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing an image to memory cannot fail");
        out
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
    /// checks described in the module docs. Every failure mode is a
    /// clean `Err`.
    pub fn open(path: &Path) -> Result<SuiteImage, String> {
        let buf = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        SuiteImage::from_bytes(buf)
    }

    /// [`SuiteImage::open`] over an in-memory buffer.
    pub fn from_bytes(buf: Vec<u8>) -> Result<SuiteImage, String> {
        let err = |m: &str| format!("suite image: {m}");
        let Some((body, sum)) = buf.split_last_chunk::<8>() else {
            return Err(err("shorter than its checksum"));
        };
        if !body.starts_with(&MAGIC) {
            return Err(err("bad magic (not a format v10 image)"));
        }
        if fnv(FNV_BASIS, body) != u64::from_le_bytes(*sum) {
            return Err(err("checksum mismatch"));
        }
        let mut r = Reader::new(&body[MAGIC.len()..]);
        let (fingerprint, n) = <(u64, u32)>::get(&mut r).ok_or_else(|| err("truncated header"))?;
        let mut entries = Vec::new();
        for i in 0..n {
            let e = ImageEntry::read(&mut r, body.len())
                .ok_or_else(|| err(&format!("entry {i} is malformed")))?;
            entries.push(e);
        }
        if !r.is_empty() {
            return Err(err("bytes past the last entry"));
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

    /// The decoded entry addresses, in on-disk (sorted) order.
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

    /// Decodes a compile entry ([`Program::from_bytes`]). `None` on
    /// kind mismatch or malformed payload.
    pub fn compile(&self, e: &ImageEntry) -> Option<Program> {
        if e.kind != SectionKind::Compile {
            return None;
        }
        Program::from_bytes(self.payload(e))
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
        // Entries are sorted by kind regardless of insertion order.
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

    /// `body` with the checksum of its bytes appended, as a writer would
    /// stamp it.
    fn stamped(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv(FNV_BASIS, &body);
        body.extend(sum.to_le_bytes());
        body
    }

    #[test]
    fn open_rejects_structural_corruption() {
        let bytes = sample_image(&sample());
        assert!(SuiteImage::from_bytes(Vec::new()).is_err(), "empty");
        assert!(
            SuiteImage::from_bytes(stamped(MAGIC.to_vec())).is_err(),
            "no header"
        );
        let mut older = bytes.clone();
        older[..8].copy_from_slice(b"BPFIMG09");
        assert!(SuiteImage::from_bytes(older).is_err(), "older format");
        let mut long = bytes.clone();
        long.push(0);
        assert!(SuiteImage::from_bytes(long).is_err(), "trailing bytes");
        assert!(
            SuiteImage::from_bytes(bytes[..bytes.len() - 1].to_vec()).is_err(),
            "truncation"
        );
        // Behind a valid checksum, the entries must still span the
        // file: the entry count follows the magic and the fingerprint,
        // and the first entry's kind tag follows the count.
        let body = &bytes[..bytes.len() - 8];
        for n in [3u32, 5] {
            let mut bad = body.to_vec();
            bad[16..20].copy_from_slice(&n.to_le_bytes());
            assert!(SuiteImage::from_bytes(stamped(bad)).is_err(), "{n} entries");
        }
        let mut bad = body.to_vec();
        bad[20] = SectionKind::ALL.len() as u8;
        assert!(
            SuiteImage::from_bytes(stamped(bad)).is_err(),
            "unknown kind"
        );
        assert!(SuiteImage::from_bytes(stamped(body.to_vec())).is_ok());
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

    /// One checksum covers every byte and the image has no padding, so
    /// flipping any one bit anywhere is refused.
    #[test]
    fn every_bit_flip_is_refused() {
        let bytes = sample_image(&sample());
        let mut flipped = bytes.clone();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                assert!(
                    SuiteImage::from_bytes(flipped.clone()).is_err(),
                    "bit {bit} of byte {at}"
                );
                flipped[at] ^= 1 << bit;
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
