//! On-disk cache of per-benchmark suite artifacts.
//!
//! Loading the suite means compiling 23 Cmm programs, running seven
//! heuristics over every non-loop branch, and *simulating* each program
//! on its datasets — by far the most expensive part of every experiment
//! binary. None of it changes between runs unless the benchmark source,
//! the compile options, its datasets, or this crate's code changes, so
//! the results are cached on disk and reloaded in milliseconds.
//!
//! # Entry kinds
//!
//! The cache stores five independent entry kinds, matching the artifact
//! granularity of the demand-driven engine (`bpfree-engine`):
//!
//! * **compile** — the compiled [`Program`], keyed per (benchmark,
//!   source, compile options);
//! * **prediction** — the derived prediction artifacts of that program:
//!   one [`PredictionRow`] per conditional branch in program order,
//!   carrying its class, loop prediction, and all seven heuristic
//!   cells. A warm load rebuilds the [`BranchClassifier`] and
//!   [`HeuristicTable`] from these rows without running a single CFG
//!   analysis or heuristic;
//! * **run** — the [`EdgeProfile`] and [`RunResult`] of one dataset,
//!   keyed per (benchmark, source, options, dataset);
//! * **trace** — the replayable [`BranchTrace`] of one dataset (plus its
//!   [`RunResult`], so a run entry can be reconstructed from a trace
//!   entry by replay alone), same key shape as a run entry;
//! * **ordering** (v5) — one *roster*-level entry: the condensed
//!   [`BenchOrderData`] groups and the full 5040 × n miss-rate matrix
//!   of an [`OrderingStudy`], keyed over every member benchmark's
//!   (name, source, reference dataset) plus the options fingerprint and
//!   the Default-predictor seed. Rate cells persist as the exact bit
//!   patterns (`f64::to_bits` hex), and a warm load revalidates the
//!   stored groups against freshly condensed live data before trusting
//!   the matrix — so a warm `exp all` recomputes zero rate matrices and
//!   still can't serve stale rates.
//!
//! [`BranchClassifier`]: bpfree_core::BranchClassifier
//!
//! # Keying
//!
//! Each entry is keyed by an FNV-1a hash over: the cache format version,
//! the workspace crate version (any code change that ships a new version
//! invalidates everything), the entry kind, the benchmark name, its full
//! source text, **the compile-options fingerprint** (so `-O0` artifacts
//! can never collide with `-O` entries), and — for run/trace entries — a
//! fingerprint of the dataset (name plus the exact bit patterns of all
//! initial global values). A stale entry is therefore *unreachable*, not
//! just detectable.
//!
//! # Format and robustness
//!
//! Entries are single files, `<key>.txt`, under the cache directory
//! (default `target/bpfree-cache`, override with `BPFREE_CACHE_DIR`).
//! Compile, prediction, and run entries are plain text. The program
//! itself is stored as IR text and re-parsed on load — round-trip
//! fidelity is covered by the suite's `roundtrips_every_suite_benchmark`
//! test.
//!
//! Trace entries (v3) are a text header followed by a binary payload:
//! the event dictionary and the index sequence are LEB128
//! varint-encoded with zigzag deltas (dictionary entries delta-code
//! their branch site against the previous entry; the sequence is
//! run-length encoded as `(delta(index), run length)` pairs). Tight
//! loops revisit one event millions of times in a row, so the dominant
//! cost of a warm load — parsing the sequence — collapses to a few
//! bytes per run, and the cache directory shrinks by an order of
//! magnitude versus decimal text. Pre-v3 entries hash to different keys
//! (the format version is part of every key), so they are simply
//! unreachable and recompute cleanly.
//!
//! Any read, parse, or validation failure makes a lookup return `None`
//! and the caller recomputes; a corrupt cache can cost time but never
//! correctness. Writes go to a temp file first and are renamed into
//! place, so a crashed run cannot leave a half-written entry under a
//! valid key.
//!
//! Set `BPFREE_NO_CACHE=1` (or pass `--no-cache` to the experiment
//! binaries) to bypass the cache entirely.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bpfree_core::ordering::{BenchOrderData, Group, GroupKey, OrderingStudy};
use bpfree_core::{BranchClass, Direction};
use bpfree_ir::{BlockId, BranchRef, FuncId, Program};
use bpfree_sim::{BranchTrace, EdgeCounts, EdgeProfile, RunResult, TraceEvent};
use bpfree_suite::Dataset;

/// Bump on any change to the file layout below.
pub(crate) const FORMAT_VERSION: u32 = 6;

pub mod image;
pub mod maint;

/// The cached compile-time artifacts for one (benchmark, options) pair.
#[derive(Debug, Clone)]
pub struct CompileArtifacts {
    pub program: Program,
}

/// One branch's cached prediction artifacts: everything the analysis
/// stack derives per branch site, in one dense row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictionRow {
    /// The branch site.
    pub branch: BranchRef,
    /// Loop or non-loop, per the classifier.
    pub class: BranchClass,
    /// The loop-branch prediction (`Some` iff `class` is `Loop`).
    pub loop_pred: Option<Direction>,
    /// All seven heuristic cells, in `HeuristicKind::ALL` index order.
    pub heuristics: [Option<Direction>; 7],
}

/// The cached prediction artifacts for one (benchmark, options) pair:
/// one row per conditional branch, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionArtifacts {
    pub rows: Vec<PredictionRow>,
}

impl PredictionArtifacts {
    /// Extracts the dense rows from a freshly computed classifier +
    /// heuristic table pair. Loop branches have no heuristic row (the
    /// heuristics only cover non-loop branches), so their cells are
    /// empty.
    pub fn from_computed(
        classifier: &bpfree_core::BranchClassifier,
        table: &bpfree_core::HeuristicTable,
    ) -> PredictionArtifacts {
        let mut trows = table.rows();
        let rows = classifier
            .rows()
            .map(|(branch, class, loop_pred)| {
                let heuristics = if class == BranchClass::NonLoop {
                    let (b2, h) = trows.next().expect("one table row per non-loop branch");
                    debug_assert_eq!(branch, b2);
                    *h
                } else {
                    [None; 7]
                };
                PredictionRow {
                    branch,
                    class,
                    loop_pred,
                    heuristics,
                }
            })
            .collect();
        PredictionArtifacts { rows }
    }

    /// Rebuilds the classifier and heuristic table these rows were
    /// extracted from, validating them against `program`'s actual branch
    /// sites — `None` if the rows belong to a different (or stale)
    /// program, in which case the caller re-analyzes. The rebuilt pair
    /// performs zero CFG analyses and zero heuristic evaluations.
    pub fn instantiate(
        &self,
        program: &Program,
    ) -> Option<(bpfree_core::BranchClassifier, bpfree_core::HeuristicTable)> {
        let class_rows: Vec<_> = self
            .rows
            .iter()
            .map(|r| (r.branch, r.class, r.loop_pred))
            .collect();
        let classifier = bpfree_core::BranchClassifier::from_cached(program, &class_rows)?;
        let table = bpfree_core::HeuristicTable::from_rows(
            self.rows
                .iter()
                .filter(|r| r.class == BranchClass::NonLoop)
                .map(|r| (r.branch, r.heuristics)),
        );
        Some((classifier, table))
    }
}

/// The cached artifacts of one simulated (benchmark, options, dataset)
/// run.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    pub profile: EdgeProfile,
    pub run: RunResult,
}

/// The cached replayable trace of one run. Carries the [`RunResult`]
/// too, so the profile can be rebuilt by replay without re-simulating.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    pub trace: BranchTrace,
    pub run: RunResult,
}

/// The cached ordering-study artifacts of one benchmark roster: the
/// condensed per-benchmark order data and the 5040 × n miss-rate
/// matrix derived from it.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderingArtifacts {
    /// Condensed non-loop branch groups, one per roster member, in
    /// roster order.
    pub benches: Vec<BenchOrderData>,
    /// `rates[o][b]` — stored and restored bit-exactly.
    pub rates: Vec<Vec<f64>>,
}

impl OrderingArtifacts {
    /// Extracts the persistable parts of a freshly computed study.
    pub fn from_study(study: &OrderingStudy) -> OrderingArtifacts {
        OrderingArtifacts {
            benches: study.benches().to_vec(),
            rates: study.rates().to_vec(),
        }
    }

    /// Rebuilds the study, validating the stored condensed groups
    /// against `live` — the same benchmarks condensed from the process's
    /// *current* predictions and profiles. Any divergence (stale groups,
    /// roster mismatch, wrong matrix shape, non-finite cells) returns
    /// `None` and the caller recomputes; on success the returned study
    /// reuses the persisted matrix and performs zero rate evaluations.
    pub fn instantiate(self, live: &[BenchOrderData]) -> Option<OrderingStudy> {
        if self.benches != live {
            return None;
        }
        if self.rates.len() != 5040
            || self
                .rates
                .iter()
                .any(|row| row.len() != live.len() || row.iter().any(|r| !r.is_finite()))
        {
            return None;
        }
        Some(OrderingStudy::from_parts(self.benches, self.rates))
    }
}

/// The cache directory: `BPFREE_CACHE_DIR`, else
/// `$CARGO_TARGET_DIR/bpfree-cache`, else `target/bpfree-cache`.
pub fn default_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("BPFREE_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| "target".into());
    target.join("bpfree-cache")
}

/// Is the cache disabled via `BPFREE_NO_CACHE`?
pub fn disabled_by_env() -> bool {
    std::env::var_os("BPFREE_NO_CACHE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Separator between variable-length fields, so ("ab","c") and
    /// ("a","bc") hash differently.
    fn sep(&mut self) {
        self.write(&[0xff]);
    }
}

fn base_hash(kind: &str, bench_name: &str, source: &str, opt: &str) -> Fnv {
    let mut h = Fnv::new();
    h.write_u64(u64::from(FORMAT_VERSION));
    h.write(env!("CARGO_PKG_VERSION").as_bytes());
    h.sep();
    h.write(kind.as_bytes());
    h.sep();
    h.write(bench_name.as_bytes());
    h.sep();
    h.write(source.as_bytes());
    h.sep();
    h.write(opt.as_bytes());
    h.sep();
    h
}

fn write_dataset(h: &mut Fnv, ds: &Dataset) {
    h.write(ds.name.as_bytes());
    h.sep();
    for (name, values) in ds.values.ints() {
        h.write(name.as_bytes());
        h.sep();
        for &v in values {
            h.write_u64(v as u64);
        }
        h.sep();
    }
    for (name, values) in ds.values.floats() {
        h.write(name.as_bytes());
        h.sep();
        for &v in values {
            h.write_u64(v.to_bits());
        }
        h.sep();
    }
    h.sep();
}

/// The raw 64-bit content hash behind [`compile_key`]. The suite image
/// directory stores these hashes verbatim (see [`image`]); the
/// per-entry cache formats them as 16-hex-digit file names.
pub fn compile_key_hash(bench_name: &str, source: &str, opt: &str) -> u64 {
    base_hash("compile", bench_name, source, opt).0
}

/// The content key for a compile entry: hex digest over format version,
/// crate version, benchmark name, source text, and the compile-options
/// fingerprint (`bpfree_lang::Options::fingerprint`). Artifacts built at
/// different optimisation levels can never collide.
pub fn compile_key(bench_name: &str, source: &str, opt: &str) -> String {
    format!("{:016x}", compile_key_hash(bench_name, source, opt))
}

/// The raw 64-bit content hash behind [`prediction_key`].
pub fn prediction_key_hash(bench_name: &str, source: &str, opt: &str) -> u64 {
    base_hash("prediction", bench_name, source, opt).0
}

/// The content key for a prediction entry. Same inputs as
/// [`compile_key`] (the rows are a pure function of the compiled
/// program), different kind tag, so the two can never collide.
pub fn prediction_key(bench_name: &str, source: &str, opt: &str) -> String {
    format!("{:016x}", prediction_key_hash(bench_name, source, opt))
}

/// The raw 64-bit content hash for a decoded-bytecode image section.
/// Keyed exactly like a compile entry (the bytecode is a pure function
/// of the compiled program) under its own kind tag. The per-entry cache
/// has no decoded kind — bytecode persists only inside suite images,
/// where the deserialized program is additionally validated against the
/// live [`Program`] by `BytecodeProgram::from_bytes`.
pub fn decoded_key_hash(bench_name: &str, source: &str, opt: &str) -> u64 {
    base_hash("decoded", bench_name, source, opt).0
}

/// The raw 64-bit content hash behind [`run_key`].
pub fn run_key_hash(bench_name: &str, source: &str, opt: &str, dataset: &Dataset) -> u64 {
    let mut h = base_hash("run", bench_name, source, opt);
    write_dataset(&mut h, dataset);
    h.0
}

/// The content key for one dataset's run entry.
pub fn run_key(bench_name: &str, source: &str, opt: &str, dataset: &Dataset) -> String {
    format!("{:016x}", run_key_hash(bench_name, source, opt, dataset))
}

/// The raw 64-bit content hash behind [`trace_key`].
pub fn trace_key_hash(bench_name: &str, source: &str, opt: &str, dataset: &Dataset) -> u64 {
    let mut h = base_hash("trace", bench_name, source, opt);
    write_dataset(&mut h, dataset);
    h.0
}

/// The content key for one dataset's trace entry.
pub fn trace_key(bench_name: &str, source: &str, opt: &str, dataset: &Dataset) -> String {
    format!("{:016x}", trace_key_hash(bench_name, source, opt, dataset))
}

/// The raw 64-bit content hash behind [`ordering_key`].
pub fn ordering_key_hash(members: &[(&str, &str, &Dataset)], opt: &str, seed: u64) -> u64 {
    let mut h = base_hash("ordering", "", "", opt);
    h.write_u64(seed);
    h.sep();
    h.write_u64(members.len() as u64);
    for (name, source, dataset) in members {
        h.write(name.as_bytes());
        h.sep();
        h.write(source.as_bytes());
        h.sep();
        write_dataset(&mut h, dataset);
    }
    h.0
}

/// The content key for a roster-level ordering entry: hashes every
/// member's (name, source, reference dataset) in roster order, plus the
/// options fingerprint and the Default-predictor seed. Any change to
/// any member — source edit, dataset regeneration, different roster or
/// order — lands on a different key.
pub fn ordering_key(members: &[(&str, &str, &Dataset)], opt: &str, seed: u64) -> String {
    format!("{:016x}", ordering_key_hash(members, opt, seed))
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.txt"))
}

fn header(out: &mut String, key: &str, kind: &str) {
    let _ = writeln!(out, "bpfree-cache v{FORMAT_VERSION}");
    let _ = writeln!(out, "key {key}");
    let _ = writeln!(out, "kind {kind}");
}

/// Consumes the three header lines; `None` on any mismatch.
fn check_header<'a>(lines: &mut std::str::Lines<'a>, key: &str, kind: &str) -> Option<()> {
    if lines.next()? != format!("bpfree-cache v{FORMAT_VERSION}") {
        return None;
    }
    if lines.next()?.strip_prefix("key ")? != key {
        return None;
    }
    if lines.next()?.strip_prefix("kind ")? != kind {
        return None;
    }
    Some(())
}

fn encode_run_result(out: &mut String, run: RunResult) {
    let _ = writeln!(out, "exit {}", run.exit);
    let _ = writeln!(out, "instructions {}", run.instructions);
}

fn decode_run_result(lines: &mut std::str::Lines<'_>) -> Option<RunResult> {
    let exit: i64 = lines.next()?.strip_prefix("exit ")?.parse().ok()?;
    let instructions: u64 = lines.next()?.strip_prefix("instructions ")?.parse().ok()?;
    Some(RunResult { exit, instructions })
}

fn encode_compile(key: &str, a: &CompileArtifacts) -> String {
    let mut out = String::new();
    header(&mut out, key, "compile");

    let ir = a.program.to_string();
    let _ = writeln!(out, "program {}", ir.lines().count());
    out.push_str(&ir);
    if !ir.ends_with('\n') {
        out.push('\n');
    }
    out
}

fn decode_compile(key: &str, text: &str) -> Option<CompileArtifacts> {
    let mut lines = text.lines();
    check_header(&mut lines, key, "compile")?;

    let n_ir: usize = lines.next()?.strip_prefix("program ")?.parse().ok()?;
    let ir: Vec<&str> = lines.collect();
    if ir.len() != n_ir {
        return None;
    }
    let program = bpfree_ir::parse_program(&ir.join("\n")).ok()?;

    Some(CompileArtifacts { program })
}

fn direction_char(d: Option<Direction>) -> char {
    match d {
        Some(Direction::Taken) => 'T',
        Some(Direction::FallThru) => 'F',
        None => '-',
    }
}

fn direction_of(c: char) -> Option<Option<Direction>> {
    match c {
        'T' => Some(Some(Direction::Taken)),
        'F' => Some(Some(Direction::FallThru)),
        '-' => Some(None),
        _ => None,
    }
}

/// One 9-character cell block per row: class (`L`/`N`), loop prediction
/// (`T`/`F`/`-`), then the seven heuristic cells.
fn encode_prediction(key: &str, a: &PredictionArtifacts) -> String {
    let mut out = String::new();
    header(&mut out, key, "prediction");
    let _ = writeln!(out, "rows {}", a.rows.len());
    for r in &a.rows {
        let _ = write!(out, "{} {} ", r.branch.func.0, r.branch.block.0);
        out.push(match r.class {
            BranchClass::Loop => 'L',
            BranchClass::NonLoop => 'N',
        });
        out.push(direction_char(r.loop_pred));
        for &d in &r.heuristics {
            out.push(direction_char(d));
        }
        out.push('\n');
    }
    out
}

fn decode_prediction(key: &str, text: &str) -> Option<PredictionArtifacts> {
    let mut lines = text.lines();
    check_header(&mut lines, key, "prediction")?;

    let n_rows: usize = lines.next()?.strip_prefix("rows ")?.parse().ok()?;
    let mut rows = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let line = lines.next()?;
        let mut it = line.split_ascii_whitespace();
        let func: u32 = it.next()?.parse().ok()?;
        let block: u32 = it.next()?.parse().ok()?;
        let cells = it.next()?;
        if it.next().is_some() || cells.chars().count() != 9 {
            return None;
        }
        let mut chars = cells.chars();
        let class = match chars.next()? {
            'L' => BranchClass::Loop,
            'N' => BranchClass::NonLoop,
            _ => return None,
        };
        let loop_pred = direction_of(chars.next()?)?;
        // The Loop ⇔ Some(loop_pred) invariant is structural, not a
        // matter of staleness — reject rows that violate it outright.
        if (class == BranchClass::Loop) != loop_pred.is_some() {
            return None;
        }
        let mut heuristics = [None; 7];
        for (i, c) in chars.enumerate() {
            heuristics[i] = direction_of(c)?;
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
    if lines.next().is_some() {
        return None;
    }
    Some(PredictionArtifacts { rows })
}

/// Per bench: one `bench <total_dynamic> <n_groups> <name>` line, then
/// one `<applies> <predicts_taken> <T|F> <taken> <fallthru>` line per
/// condensed group. The matrix follows as one line per order of
/// space-separated 16-hex-digit `f64::to_bits` cells — bit-exact, so a
/// warm study's every downstream number matches the cold one's.
fn encode_ordering(key: &str, a: &OrderingArtifacts) -> String {
    let mut out = String::new();
    header(&mut out, key, "ordering");
    let _ = writeln!(out, "benches {}", a.benches.len());
    for b in &a.benches {
        let _ = writeln!(
            out,
            "bench {} {} {}",
            b.total_dynamic(),
            b.groups().len(),
            b.name
        );
        for g in b.groups() {
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                g.key.applies,
                g.key.predicts_taken,
                if g.key.default_taken { 'T' } else { 'F' },
                g.taken,
                g.fallthru
            );
        }
    }
    let _ = writeln!(out, "rates {} {}", a.rates.len(), a.benches.len());
    for row in &a.rates {
        let mut first = true;
        for r in row {
            if !first {
                out.push(' ');
            }
            first = false;
            let _ = write!(out, "{:016x}", r.to_bits());
        }
        out.push('\n');
    }
    out
}

fn decode_ordering(key: &str, text: &str) -> Option<OrderingArtifacts> {
    let mut lines = text.lines();
    check_header(&mut lines, key, "ordering")?;

    let n_benches: usize = lines.next()?.strip_prefix("benches ")?.parse().ok()?;
    let mut benches = Vec::with_capacity(n_benches);
    for _ in 0..n_benches {
        let mut it = lines.next()?.strip_prefix("bench ")?.splitn(3, ' ');
        let total_dynamic: u64 = it.next()?.parse().ok()?;
        let n_groups: usize = it.next()?.parse().ok()?;
        let name = it.next()?;
        if name.is_empty() {
            return None;
        }
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let mut it = lines.next()?.split_ascii_whitespace();
            let applies: u8 = it.next()?.parse().ok()?;
            let predicts_taken: u8 = it.next()?.parse().ok()?;
            let default_taken = match it.next()? {
                "T" => true,
                "F" => false,
                _ => return None,
            };
            let taken: u64 = it.next()?.parse().ok()?;
            let fallthru: u64 = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            // Seven heuristics: masks live in the low 7 bits, and a
            // prediction bit without its applies bit is structurally
            // impossible — reject outright.
            if applies > 0x7f || predicts_taken & !applies != 0 {
                return None;
            }
            groups.push(Group {
                key: GroupKey {
                    applies,
                    predicts_taken,
                    default_taken,
                },
                taken,
                fallthru,
            });
        }
        benches.push(BenchOrderData::from_parts(
            name.to_string(),
            groups,
            total_dynamic,
        ));
    }

    let (n_rows, n_cols) = {
        let mut it = lines.next()?.strip_prefix("rates ")?.split(' ');
        let rows: usize = it.next()?.parse().ok()?;
        let cols: usize = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        (rows, cols)
    };
    if n_cols != benches.len() {
        return None;
    }
    let mut rates = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let line = lines.next()?;
        let mut row = Vec::with_capacity(n_cols);
        for cell in line.split(' ') {
            if cell.len() != 16 {
                return None;
            }
            let bits = u64::from_str_radix(cell, 16).ok()?;
            row.push(f64::from_bits(bits));
        }
        if row.len() != n_cols {
            return None;
        }
        rates.push(row);
    }
    if lines.next().is_some() {
        return None;
    }
    Some(OrderingArtifacts { benches, rates })
}

fn encode_run(key: &str, a: &RunArtifacts) -> String {
    let mut out = String::new();
    header(&mut out, key, "run");
    encode_run_result(&mut out, a.run);

    let mut counts: Vec<(BranchRef, EdgeCounts)> = a.profile.iter().collect();
    counts.sort_by_key(|(b, _)| *b);
    let _ = writeln!(out, "profile {}", counts.len());
    for (b, c) in counts {
        let _ = writeln!(out, "{} {} {} {}", b.func.0, b.block.0, c.taken, c.fallthru);
    }
    out
}

fn decode_run(key: &str, text: &str) -> Option<RunArtifacts> {
    let mut lines = text.lines();
    check_header(&mut lines, key, "run")?;
    let run = decode_run_result(&mut lines)?;

    let n_profile: usize = lines.next()?.strip_prefix("profile ")?.parse().ok()?;
    let mut counts = Vec::with_capacity(n_profile);
    for _ in 0..n_profile {
        let line = lines.next()?;
        let mut it = line.split_ascii_whitespace();
        let func: u32 = it.next()?.parse().ok()?;
        let block: u32 = it.next()?.parse().ok()?;
        let taken: u64 = it.next()?.parse().ok()?;
        let fallthru: u64 = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        let b = BranchRef {
            func: FuncId(func),
            block: BlockId(block),
        };
        counts.push((b, EdgeCounts { taken, fallthru }));
    }
    if lines.next().is_some() {
        return None;
    }
    Some(RunArtifacts {
        profile: counts.into_iter().collect(),
        run,
    })
}

// ---- varint + zigzag primitives (trace entry payload) ----

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit =
/// continuation; at most 10 bytes).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint at `*pos`, advancing it. `None` on
/// truncation or overflow past 64 bits.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Maps signed deltas to small unsigned values (0, -1, 1, -2, …
/// → 0, 1, 2, 3, …) so varints stay short for near-zero deltas.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The dictionary payload: per entry, varint(instrs), then zigzag
/// deltas of the branch site against the previous entry (consecutive
/// entries cluster in the same function), with the taken bit packed
/// into the low bit of the block delta.
fn encode_dict(dict: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    let (mut prev_func, mut prev_block) = (0i64, 0i64);
    for e in dict {
        let func = i64::from(e.branch.func.0);
        let block = i64::from(e.branch.block.0);
        put_varint(&mut out, e.instrs);
        put_varint(&mut out, zigzag(func - prev_func));
        put_varint(
            &mut out,
            (zigzag(block - prev_block) << 1) | u64::from(e.taken),
        );
        prev_func = func;
        prev_block = block;
    }
    out
}

fn decode_dict(bytes: &[u8], n_entries: usize) -> Option<Vec<TraceEvent>> {
    let mut dict = Vec::with_capacity(n_entries);
    let mut pos = 0usize;
    let (mut prev_func, mut prev_block) = (0i64, 0i64);
    for _ in 0..n_entries {
        let instrs = get_varint(bytes, &mut pos)?;
        let func = prev_func.checked_add(unzigzag(get_varint(bytes, &mut pos)?))?;
        let packed = get_varint(bytes, &mut pos)?;
        let block = prev_block.checked_add(unzigzag(packed >> 1))?;
        let taken = packed & 1 == 1;
        let func32 = u32::try_from(func).ok()?;
        let block32 = u32::try_from(block).ok()?;
        dict.push(TraceEvent {
            instrs,
            branch: BranchRef {
                func: FuncId(func32),
                block: BlockId(block32),
            },
            taken,
        });
        prev_func = func;
        prev_block = block;
    }
    if pos != bytes.len() {
        return None; // trailing garbage
    }
    Some(dict)
}

/// The sequence payload, run-length encoded: per run of equal indices,
/// varint(zigzag(index − previous run's index)) then varint(run
/// length). Tight loops revisit one event millions of times in a row,
/// so each such burst costs a handful of bytes. Streams the indices so
/// both wide and byte-backed sequence storage encode without an
/// intermediate widened copy.
fn encode_seq(indices: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0i64;
    let mut run: Option<(u32, u64)> = None;
    for idx in indices {
        match &mut run {
            Some((i, n)) if *i == idx => *n += 1,
            _ => {
                if let Some((i, n)) = run.take() {
                    put_varint(&mut out, zigzag(i64::from(i) - prev));
                    put_varint(&mut out, n);
                    prev = i64::from(i);
                }
                run = Some((idx, 1));
            }
        }
    }
    if let Some((i, n)) = run {
        put_varint(&mut out, zigzag(i64::from(i) - prev));
        put_varint(&mut out, n);
    }
    out
}

fn decode_seq(bytes: &[u8], n_events: usize, n_dict: usize) -> Option<Vec<u32>> {
    // Materialising the index sequence is the per-entry cache's one
    // unavoidable per-trace decode allocation; the suite image serves
    // the same bytes zero-copy (see `image`). Count it so benchmarks
    // can prove the mounted path never pays it.
    bpfree_sim::note_trace_seq_alloc();
    let mut seq = Vec::with_capacity(n_events);
    let mut pos = 0usize;
    let mut prev = 0i64;
    while seq.len() < n_events {
        let idx = prev.checked_add(unzigzag(get_varint(bytes, &mut pos)?))?;
        let runlen = get_varint(bytes, &mut pos)?;
        let idx32 = u32::try_from(idx).ok()?;
        if (idx32 as usize) >= n_dict || runlen == 0 {
            return None;
        }
        let new_len = seq.len().checked_add(usize::try_from(runlen).ok()?)?;
        if new_len > n_events {
            return None;
        }
        seq.resize(new_len, idx32);
        prev = idx;
    }
    if pos != bytes.len() {
        return None; // trailing garbage
    }
    Some(seq)
}

fn encode_trace(key: &str, a: &TraceArtifacts) -> Vec<u8> {
    let mut head = String::new();
    header(&mut head, key, "trace");
    encode_run_result(&mut head, a.run);
    let _ = writeln!(head, "tail {}", a.trace.trailing_instrs());

    let dict_bytes = encode_dict(a.trace.dict());
    let seq_bytes = encode_seq(a.trace.indices());
    let _ = writeln!(head, "dict {} {}", a.trace.dict().len(), dict_bytes.len());
    let _ = writeln!(head, "seq {} {}", a.trace.len(), seq_bytes.len());

    let mut out = head.into_bytes();
    out.extend_from_slice(&dict_bytes);
    out.extend_from_slice(&seq_bytes);
    out
}

/// Splits one `\n`-terminated header line off the front of `bytes`.
/// `None` if no newline remains or the line is not UTF-8.
fn next_line<'a>(bytes: &mut &'a [u8]) -> Option<&'a str> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[..nl]).ok()?;
    *bytes = &bytes[nl + 1..];
    Some(line)
}

fn decode_trace(key: &str, mut bytes: &[u8]) -> Option<TraceArtifacts> {
    // The text header, parsed line by line off the byte stream.
    if next_line(&mut bytes)? != format!("bpfree-cache v{FORMAT_VERSION}") {
        return None;
    }
    if next_line(&mut bytes)?.strip_prefix("key ")? != key {
        return None;
    }
    if next_line(&mut bytes)?.strip_prefix("kind ")? != "trace" {
        return None;
    }
    let exit: i64 = next_line(&mut bytes)?.strip_prefix("exit ")?.parse().ok()?;
    let instructions: u64 = next_line(&mut bytes)?
        .strip_prefix("instructions ")?
        .parse()
        .ok()?;
    let tail: u64 = next_line(&mut bytes)?.strip_prefix("tail ")?.parse().ok()?;
    let (n_dict, dict_len) = {
        let mut it = next_line(&mut bytes)?.strip_prefix("dict ")?.split(' ');
        let n: usize = it.next()?.parse().ok()?;
        let len: usize = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        (n, len)
    };
    let (n_seq, seq_len) = {
        let mut it = next_line(&mut bytes)?.strip_prefix("seq ")?.split(' ');
        let n: usize = it.next()?.parse().ok()?;
        let len: usize = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        (n, len)
    };

    // The binary payload: exactly dict_len + seq_len bytes, no more.
    if bytes.len() != dict_len.checked_add(seq_len)? {
        return None;
    }
    let dict = decode_dict(&bytes[..dict_len], n_dict)?;
    let seq = decode_seq(&bytes[dict_len..], n_seq, dict.len())?;

    Some(TraceArtifacts {
        trace: BranchTrace::from_parts(dict, seq, tail)?,
        run: RunResult { exit, instructions },
    })
}

fn read_entry(dir: &Path, key: &str) -> Option<String> {
    std::fs::read_to_string(entry_path(dir, key)).ok()
}

fn read_entry_bytes(dir: &Path, key: &str) -> Option<Vec<u8>> {
    std::fs::read(entry_path(dir, key)).ok()
}

/// Writes an entry atomically (temp file + rename). Errors are returned,
/// not panicked, so a read-only cache directory degrades to "no
/// caching".
fn write_entry(dir: &Path, key: &str, data: impl AsRef<[u8]>) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".{key}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, data)?;
    std::fs::rename(&tmp, entry_path(dir, key))
}

/// Loads the compile entry for `key`, or `None` if absent, unreadable,
/// or corrupt. Never panics on bad cache contents.
pub fn lookup_compile(dir: &Path, key: &str) -> Option<CompileArtifacts> {
    decode_compile(key, &read_entry(dir, key)?)
}

/// Stores a compile entry atomically.
pub fn store_compile(dir: &Path, key: &str, a: &CompileArtifacts) -> std::io::Result<()> {
    write_entry(dir, key, encode_compile(key, a))
}

/// Loads the prediction entry for `key`, or `None` if absent,
/// unreadable, or corrupt. The rows are *syntactically* validated here
/// (shape, the Loop ⇔ loop-prediction invariant); matching them against
/// the actual program's branch sites is the caller's job
/// (`BranchClassifier::from_cached` refuses mismatched rows).
pub fn lookup_prediction(dir: &Path, key: &str) -> Option<PredictionArtifacts> {
    decode_prediction(key, &read_entry(dir, key)?)
}

/// Stores a prediction entry atomically.
pub fn store_prediction(dir: &Path, key: &str, a: &PredictionArtifacts) -> std::io::Result<()> {
    write_entry(dir, key, encode_prediction(key, a))
}

/// Loads the run entry for `key` (miss on absence or corruption).
pub fn lookup_run(dir: &Path, key: &str) -> Option<RunArtifacts> {
    decode_run(key, &read_entry(dir, key)?)
}

/// Stores a run entry atomically.
pub fn store_run(dir: &Path, key: &str, a: &RunArtifacts) -> std::io::Result<()> {
    write_entry(dir, key, encode_run(key, a))
}

/// Loads the trace entry for `key` (miss on absence or corruption).
pub fn lookup_trace(dir: &Path, key: &str) -> Option<TraceArtifacts> {
    decode_trace(key, &read_entry_bytes(dir, key)?)
}

/// Stores a trace entry atomically.
pub fn store_trace(dir: &Path, key: &str, a: &TraceArtifacts) -> std::io::Result<()> {
    write_entry(dir, key, encode_trace(key, a))
}

/// Loads the ordering entry for `key` (miss on absence or corruption).
/// The groups and matrix are syntactically validated here; semantic
/// validation against live condensed data is
/// [`OrderingArtifacts::instantiate`]'s job.
pub fn lookup_ordering(dir: &Path, key: &str) -> Option<OrderingArtifacts> {
    decode_ordering(key, &read_entry(dir, key)?)
}

/// Stores an ordering entry atomically.
pub fn store_ordering(dir: &Path, key: &str, a: &OrderingArtifacts) -> std::io::Result<()> {
    write_entry(dir, key, encode_ordering(key, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_sim::TraceRecorder;

    fn sample() -> (CompileArtifacts, RunArtifacts, TraceArtifacts) {
        let program = bpfree_lang::compile(
            "fn main() -> int {
                int x; int i;
                x = -3;
                if (x < 0) { x = 0; }
                for (i = 0; i < 5; i = i + 1) { x = x + i; }
                return x;
            }",
        )
        .unwrap();
        let mut fan = bpfree_sim::Pair(bpfree_sim::EdgeProfiler::new(), TraceRecorder::new());
        let run = bpfree_sim::Simulator::new(&program).run(&mut fan).unwrap();
        let bpfree_sim::Pair(profiler, recorder) = fan;
        let profile = profiler.into_profile();
        let trace = recorder.into_trace();
        (
            CompileArtifacts { program },
            RunArtifacts { profile, run },
            TraceArtifacts { trace, run },
        )
    }

    fn sample_predictions(program: &Program) -> PredictionArtifacts {
        let classifier = bpfree_core::BranchClassifier::analyze(program);
        let table = bpfree_core::HeuristicTable::build(program, &classifier);
        PredictionArtifacts::from_computed(&classifier, &table)
    }

    #[test]
    fn compile_roundtrip() {
        let (a, _, _) = sample();
        let key = "0123456789abcdef";
        let text = encode_compile(key, &a);
        let b = decode_compile(key, &text).expect("decodes");
        assert_eq!(a.program, b.program);
    }

    #[test]
    fn prediction_roundtrip() {
        let (c, _, _) = sample();
        let a = sample_predictions(&c.program);
        assert!(!a.rows.is_empty());
        assert!(a.rows.iter().any(|r| r.class == BranchClass::Loop));
        let key = "0123456789abcdef";
        let text = encode_prediction(key, &a);
        let b = decode_prediction(key, &text).expect("decodes");
        assert_eq!(a, b);
    }

    #[test]
    fn prediction_rejects_structural_violations() {
        let (c, _, _) = sample();
        let a = sample_predictions(&c.program);
        let key = "0123456789abcdef";
        let text = encode_prediction(key, &a);
        // A loop row whose loop-prediction cell is blanked out violates
        // the Loop ⇔ Some invariant and must not decode.
        let loop_line = text
            .lines()
            .find(|l| {
                l.split_ascii_whitespace()
                    .nth(2)
                    .is_some_and(|c| c.starts_with('L'))
            })
            .expect("sample has a loop branch");
        let mut cells: Vec<char> = loop_line.chars().collect();
        let cell_at = loop_line.rfind(' ').unwrap() + 1;
        cells[cell_at + 1] = '-';
        let garbled: String = text.replace(loop_line, &cells.iter().collect::<String>());
        assert!(
            decode_prediction(key, &garbled).is_none(),
            "L row without pred"
        );
        // Truncated row list.
        let short = text.replace(&format!("rows {}", a.rows.len()), "rows 999");
        assert!(
            decode_prediction(key, &short).is_none(),
            "row count mismatch"
        );
        // Extra trailing line.
        let long = format!("{text}0 0 NT-------\n");
        assert!(decode_prediction(key, &long).is_none(), "trailing rows");
    }

    #[test]
    fn run_roundtrip() {
        let (_, a, _) = sample();
        let key = "0123456789abcdef";
        let text = encode_run(key, &a);
        let b = decode_run(key, &text).expect("decodes");
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.run, b.run);
    }

    #[test]
    fn trace_roundtrip_including_rle() {
        let (_, _, a) = sample();
        assert!(!a.trace.is_empty());
        let key = "0123456789abcdef";
        let bytes = encode_trace(key, &a);
        // The 5-iteration loop revisits one dictionary entry in a run,
        // so RLE + varints must beat even one byte per event.
        assert!(
            bytes.len() < 120 + a.trace.len(),
            "varint RLE stays sub-byte-per-event ({} bytes for {} events)",
            bytes.len(),
            a.trace.len()
        );
        let b = decode_trace(key, &bytes).expect("decodes");
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.run, b.run);
    }

    #[test]
    fn varint_and_zigzag_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Truncated and overlong varints are rejected.
        assert_eq!(get_varint(&[0x80], &mut 0), None);
        assert_eq!(get_varint(&[0xff; 11], &mut 0), None);
    }

    #[test]
    fn trace_payload_validation() {
        let (_, _, a) = sample();
        let key = "0123456789abcdef";
        let bytes = encode_trace(key, &a);

        // Truncated payload.
        assert!(decode_trace(key, &bytes[..bytes.len() - 1]).is_none());
        // Extra payload bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_trace(key, &long).is_none());
        // A flipped payload byte either fails to decode or decodes to a
        // *valid* different trace — never panics.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x55;
        let _ = decode_trace(key, &flipped);
        // Out-of-range sequence index: a one-entry dict with an index-1 run.
        let mut head = String::new();
        header(&mut head, key, "trace");
        encode_run_result(
            &mut head,
            RunResult {
                exit: 0,
                instructions: 0,
            },
        );
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // instrs
        put_varint(&mut payload, zigzag(0)); // func delta
        put_varint(&mut payload, zigzag(0) << 1); // block delta, fallthru
        let dict_len = payload.len();
        put_varint(&mut payload, zigzag(1)); // idx 1 — out of range
        put_varint(&mut payload, 1);
        let _ = writeln!(head, "tail 0");
        let _ = writeln!(head, "dict 1 {dict_len}");
        let _ = writeln!(head, "seq 1 {}", payload.len() - dict_len);
        let mut entry = head.into_bytes();
        entry.extend_from_slice(&payload);
        assert!(decode_trace(key, &entry).is_none(), "index out of range");
    }

    #[test]
    fn decode_rejects_wrong_key_kind_and_corruption() {
        let (c, r, t) = sample();
        let text = encode_compile("aaaa", &c);
        assert!(decode_compile("bbbb", &text).is_none(), "key mismatch");
        assert!(
            decode_compile("aaaa", &text[..text.len() / 2]).is_none(),
            "truncation"
        );
        assert!(decode_compile("aaaa", "").is_none());
        assert!(
            decode_compile("aaaa", "bpfree-cache v999\n").is_none(),
            "future version"
        );

        // A run entry never decodes as a compile entry or vice versa.
        let run_text = encode_run("aaaa", &r);
        assert!(decode_compile("aaaa", &run_text).is_none(), "kind mismatch");
        assert!(decode_run("aaaa", &text).is_none(), "kind mismatch");

        let garbled = run_text.replace("instructions", "instructoins");
        assert!(decode_run("aaaa", &garbled).is_none(), "garbled field");

        let trace_bytes = encode_trace("aaaa", &t);
        let tail_at = trace_bytes
            .windows(5)
            .position(|w| w == b"tail ")
            .expect("header has a tail line");
        let mut garbled = trace_bytes.clone();
        garbled[tail_at..tail_at + 4].copy_from_slice(b"tali");
        assert!(decode_trace("aaaa", &garbled).is_none(), "garbled tail");
        assert!(
            decode_trace("aaaa", &trace_bytes[..trace_bytes.len() - 8]).is_none(),
            "truncated trace"
        );
    }

    fn ds(v: i64) -> Dataset {
        let mut g = bpfree_ir::GlobalValues::new();
        g.set_int("n", vec![v]);
        Dataset {
            name: "ref".into(),
            values: g,
        }
    }

    #[test]
    fn keys_track_source_options_and_datasets() {
        let k0 = compile_key("b", "src", "O:inline+simplify");
        assert_eq!(k0, compile_key("b", "src", "O:inline+simplify"));
        assert_ne!(k0, compile_key("b", "src2", "O:inline+simplify"), "source");
        assert_ne!(k0, compile_key("b2", "src", "O:inline+simplify"), "name");

        let p0 = prediction_key("b", "src", "O:inline+simplify");
        assert_ne!(p0, k0, "prediction and compile kinds never collide");
        assert_ne!(p0, prediction_key("b", "src2", "O:inline+simplify"));

        let r0 = run_key("b", "src", "O:inline+simplify", &ds(1));
        assert_eq!(r0, run_key("b", "src", "O:inline+simplify", &ds(1)));
        assert_ne!(
            r0,
            run_key("b", "src", "O:inline+simplify", &ds(2)),
            "dataset"
        );
        assert_ne!(r0, k0, "entry kinds never collide");
        assert_ne!(r0, trace_key("b", "src", "O:inline+simplify", &ds(1)));
    }

    fn sample_ordering() -> OrderingArtifacts {
        let (c, r, _) = sample();
        let classifier = bpfree_core::BranchClassifier::analyze(&c.program);
        let table = bpfree_core::HeuristicTable::build(&c.program, &classifier);
        let data = BenchOrderData::build(
            "sample",
            &table,
            &r.profile,
            &classifier,
            bpfree_core::DEFAULT_SEED,
        );
        let study = OrderingStudy::new(vec![data]);
        OrderingArtifacts::from_study(&study)
    }

    #[test]
    fn ordering_roundtrip_is_bit_exact() {
        let a = sample_ordering();
        assert_eq!(a.rates.len(), 5040);
        assert!(!a.benches[0].groups().is_empty());
        let key = "0123456789abcdef";
        let text = encode_ordering(key, &a);
        let b = decode_ordering(key, &text).expect("decodes");
        assert_eq!(a.benches, b.benches);
        assert_eq!(a.rates.len(), b.rates.len());
        for (ra, rb) in a.rates.iter().zip(&b.rates) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact rates");
            }
        }
        // Instantiation against matching live data succeeds and the
        // rebuilt study carries the persisted matrix.
        let study = b.clone().instantiate(&a.benches).expect("valid live data");
        assert_eq!(study.rates().len(), 5040);
        // Against *diverged* live data it refuses.
        let mut stale = a.benches.clone();
        stale[0] = BenchOrderData::from_parts(
            stale[0].name.clone(),
            stale[0].groups().to_vec(),
            stale[0].total_dynamic() + 1,
        );
        assert!(b.instantiate(&stale).is_none(), "stale groups rejected");
    }

    #[test]
    fn ordering_decode_rejects_corruption() {
        let a = sample_ordering();
        let key = "0123456789abcdef";
        let text = encode_ordering(key, &a);
        assert!(decode_ordering("feedfeedfeedfeed", &text).is_none(), "key");
        // Garbled group line: prediction bit without its applies bit.
        let first_group = text
            .lines()
            .nth(5)
            .expect("first group line after header + benches + bench");
        let garbled = text.replacen(first_group, "0 127 T 1 1", 1);
        assert!(decode_ordering(key, &garbled).is_none(), "pred ⊄ applies");
        // Truncated matrix.
        let cut = text.rfind("\n").unwrap();
        let cut = text[..cut].rfind('\n').unwrap();
        assert!(
            decode_ordering(key, &text[..cut + 1]).is_none(),
            "missing rate row"
        );
        // A non-finite rate cell decodes (it is well-formed hex) but
        // never instantiates.
        let mut rows = a.clone();
        rows.rates[0][0] = f64::NAN;
        let poisoned = encode_ordering(key, &rows);
        let decoded = decode_ordering(key, &poisoned).expect("syntactically fine");
        assert!(
            decoded.instantiate(&a.benches).is_none(),
            "non-finite rate rejected at instantiate"
        );
    }

    #[test]
    fn ordering_keys_track_roster_opt_and_seed() {
        let d1 = ds(1);
        let d2 = ds(2);
        let k0 = ordering_key(&[("a", "src", &d1)], "O", 7);
        assert_eq!(k0, ordering_key(&[("a", "src", &d1)], "O", 7));
        assert_ne!(k0, ordering_key(&[("a", "src2", &d1)], "O", 7), "source");
        assert_ne!(k0, ordering_key(&[("b", "src", &d1)], "O", 7), "name");
        assert_ne!(k0, ordering_key(&[("a", "src", &d2)], "O", 7), "dataset");
        assert_ne!(k0, ordering_key(&[("a", "src", &d1)], "O0", 7), "options");
        assert_ne!(k0, ordering_key(&[("a", "src", &d1)], "O", 8), "seed");
        assert_ne!(
            k0,
            ordering_key(&[("a", "src", &d1), ("b", "src", &d1)], "O", 7),
            "roster size"
        );
        assert_ne!(k0, compile_key("a", "src", "O"), "kinds never collide");
    }

    /// Regression test for the PR 1 cache-key blind spot: artifacts
    /// compiled at `-O0` (e.g. by `opt_ablate`) must never collide with
    /// `-O` entries for the same benchmark.
    #[test]
    fn opt_level_is_part_of_every_key() {
        let o = bpfree_lang::Options::default().fingerprint();
        let o0 = bpfree_lang::Options::o0().fingerprint();
        assert_ne!(o, o0);
        assert_ne!(compile_key("b", "src", o), compile_key("b", "src", o0));
        assert_ne!(
            prediction_key("b", "src", o),
            prediction_key("b", "src", o0)
        );
        assert_ne!(
            run_key("b", "src", o, &ds(1)),
            run_key("b", "src", o0, &ds(1))
        );
        assert_ne!(
            trace_key("b", "src", o, &ds(1)),
            trace_key("b", "src", o0, &ds(1))
        );
    }
}
