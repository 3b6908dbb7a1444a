//! The on-disk artifact cache: one suite image per cache directory.
//!
//! Loading the suite means compiling 23 Cmm programs, running seven
//! heuristics over every non-loop branch, and *simulating* each program
//! on its datasets — by far the most expensive part of every
//! experiment. None of it changes between runs unless the benchmark
//! source, the compile options, its datasets, or the code that computes
//! them changes, so the results persist in one file, `<cache dir>/suite.img`
//! (see [`image`] for the layout), and reload in milliseconds.
//!
//! # Artifact kinds
//!
//! The image stores five independent artifact kinds, matching the
//! granularity of the demand-driven engine (`bpfree-engine`):
//!
//! * **compile** — the compiled `Program`, keyed per (benchmark,
//!   source, compile options);
//! * **prediction** — the derived prediction artifacts of that program:
//!   one [`PredictionRow`] per conditional branch in program order,
//!   carrying its class, loop prediction, and all seven heuristic
//!   cells. A warm load rebuilds the [`BranchClassifier`] and
//!   [`HeuristicTable`] from these rows without running a single CFG
//!   analysis or heuristic;
//! * **run** — the `EdgeProfile` and `RunResult` of one dataset, keyed
//!   per (benchmark, source, options, dataset);
//! * **trace** — the replayable `BranchTrace` of one dataset (plus its
//!   `RunResult`, so a run can be rebuilt from a trace alone), same key
//!   shape as a run;
//! * **ordering** — one *roster*-level entry: the condensed
//!   [`BenchOrderData`] groups and the full 5040 × n miss-rate matrix
//!   of an [`OrderingStudy`], keyed over every member benchmark's
//!   (name, source, reference dataset) plus the options fingerprint and
//!   the Default-predictor seed. Rate cells persist as exact bit
//!   patterns, and a warm load revalidates the stored groups against
//!   freshly condensed live data before trusting the matrix.
//!
//! [`BranchClassifier`]: bpfree_core::BranchClassifier
//! [`HeuristicTable`]: bpfree_core::HeuristicTable
//!
//! # Keying
//!
//! Each entry is keyed by an FNV-1a hash over: the cache format version,
//! **the code fingerprint** (a hash of every file under `src/` of
//! `bpfree-engine` and each crate it depends on, computed by this
//! crate's `build.rs`, so editing the compiler, the analyses, the
//! heuristics or the interpreter makes every entry a miss), the entry
//! kind, the benchmark name, its full source text, **the
//! compile-options fingerprint** (so `-O0` artifacts can never collide
//! with `-O` entries), and — for run/trace entries — a fingerprint of
//! the dataset (name plus the exact bit patterns of all initial global
//! values). The engine recomputes each key from the *live* suite and
//! the running code when it mounts the image, so a stale entry is
//! *unreachable*, not just detectable.
//!
//! # Robustness
//!
//! A missing, truncated, corrupt or older-version image counts as an
//! empty cache: a corrupt cache can cost time but never correctness.
//! The engine rewrites the whole file at the end of a run that computed
//! anything, to a temp file renamed into place, so a crashed run cannot
//! leave a half-written image and concurrent processes simply see the
//! last complete one.
//!
//! Set `BPFREE_NO_CACHE=1` (or pass `--no-cache`) to bypass the cache
//! entirely.

use std::path::{Path, PathBuf};

use bpfree_core::ordering::{BenchOrderData, OrderingStudy};
use bpfree_core::{BranchClass, Direction};
use bpfree_ir::{BranchRef, Program};
use bpfree_sim::{BranchTrace, EdgeProfile, RunResult};
use bpfree_suite::Dataset;

/// Bump on any change to the image layout or a payload encoding.
pub(crate) const FORMAT_VERSION: u32 = 7;

/// A hash of the sources of every crate that computes a cached
/// artifact, exported by `build.rs`. Hashing the sources rather than
/// the executable gives every binary built from one checkout the same
/// keys.
const CODE_FINGERPRINT: &str = env!("BPFREE_CODE_FINGERPRINT");

pub mod image;
pub mod maint;

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

/// The cache image inside cache directory `dir`: `dir/suite.img`.
pub fn image_path(dir: &Path) -> PathBuf {
    dir.join("suite.img")
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

/// [`CODE_FINGERPRINT`], or in this crate's unit tests whatever a test
/// put in its place on the current thread.
fn code_fingerprint() -> &'static str {
    #[cfg(test)]
    if let Some(fp) = tests::FINGERPRINT.with(std::cell::Cell::get) {
        return fp;
    }
    CODE_FINGERPRINT
}

fn base_hash(kind: &str, bench_name: &str, source: &str, opt: &str) -> Fnv {
    let mut h = Fnv::new();
    h.write_u64(u64::from(FORMAT_VERSION));
    h.write(code_fingerprint().as_bytes());
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

/// The content key of a compile entry: a hash over format version,
/// code fingerprint, benchmark name, source text, and the compile-options
/// fingerprint (`bpfree_lang::Options::fingerprint`). Artifacts built at
/// different optimisation levels can never collide.
pub fn compile_key_hash(bench_name: &str, source: &str, opt: &str) -> u64 {
    base_hash("compile", bench_name, source, opt).0
}

/// The content key of a prediction entry. Same inputs as
/// [`compile_key_hash`] (the rows are a pure function of the compiled
/// program), different kind tag, so the two can never collide.
pub fn prediction_key_hash(bench_name: &str, source: &str, opt: &str) -> u64 {
    base_hash("prediction", bench_name, source, opt).0
}

/// The content key of one dataset's run entry.
pub fn run_key_hash(bench_name: &str, source: &str, opt: &str, dataset: &Dataset) -> u64 {
    let mut h = base_hash("run", bench_name, source, opt);
    write_dataset(&mut h, dataset);
    h.0
}

/// The content key of one dataset's trace entry.
pub fn trace_key_hash(bench_name: &str, source: &str, opt: &str, dataset: &Dataset) -> u64 {
    let mut h = base_hash("trace", bench_name, source, opt);
    write_dataset(&mut h, dataset);
    h.0
}

/// The content key of a roster-level ordering entry: hashes every
/// member's (name, source, reference dataset) in roster order, plus the
/// options fingerprint and the Default-predictor seed. Any change to
/// any member — source edit, dataset regeneration, different roster or
/// order — lands on a different key.
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

/// Each artifact kind round-trips through its image payload, and each
/// payload decoder rejects content that is structurally impossible
/// (the file-level layout is tested in [`image`]).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{
        decode_ordering_payload, decode_prediction_payload, decode_run_payload,
        decode_trace_payload, encode_ordering_payload, encode_prediction_payload,
        encode_run_payload, encode_trace_payload, put_i64, put_u32, put_u64,
    };
    use bpfree_core::{BranchClassifier, HeuristicTable};
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// Stands in for [`CODE_FINGERPRINT`] on this thread when set.
        pub(super) static FINGERPRINT: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// A small program's artifacts: one compile-and-run with a loop
    /// branch, a non-loop branch and a trace.
    pub(crate) struct Sample {
        pub(crate) program: Program,
        pub(crate) classifier: BranchClassifier,
        pub(crate) table: HeuristicTable,
        pub(crate) profile: EdgeProfile,
        pub(crate) trace: BranchTrace,
        pub(crate) run: RunResult,
        pub(crate) study: OrderingStudy,
    }

    pub(crate) fn sample() -> Sample {
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
        let mut fan = bpfree_sim::Pair(
            bpfree_sim::EdgeProfiler::new(),
            bpfree_sim::TraceRecorder::new(),
        );
        let run = bpfree_sim::Simulator::new(&program).run(&mut fan).unwrap();
        let bpfree_sim::Pair(profiler, recorder) = fan;
        let profile = profiler.into_profile();
        let classifier = BranchClassifier::analyze(&program);
        let table = HeuristicTable::build(&program, &classifier);
        let data = BenchOrderData::build(
            "sample",
            &table,
            &profile,
            &classifier,
            bpfree_core::DEFAULT_SEED,
        );
        Sample {
            study: OrderingStudy::new(vec![data]),
            trace: recorder.into_trace(),
            program,
            classifier,
            table,
            profile,
            run,
        }
    }

    fn rows(s: &Sample) -> Vec<PredictionRow> {
        PredictionArtifacts::from_computed(&s.classifier, &s.table).rows
    }

    fn decode_trace(bytes: Vec<u8>) -> Option<BranchTrace> {
        let len = bytes.len();
        decode_trace_payload(&Arc::new(bytes), 0, len).map(|t| t.trace)
    }

    #[test]
    fn compile_roundtrip() {
        use crate::image::{Artifact, ImageBuilder, SectionKind, SuiteImage};
        let s = sample();
        let mut b = ImageBuilder::new();
        b.add("sample", "O", None, 1, Artifact::Compile(&s.program));
        let img = SuiteImage::from_bytes(b.finish()).unwrap();
        let e = img.find(SectionKind::Compile, "sample", "O", None).unwrap();
        assert_eq!(img.compile(e).unwrap(), s.program);
    }

    #[test]
    fn prediction_roundtrip() {
        let s = sample();
        let a = PredictionArtifacts { rows: rows(&s) };
        assert!(a.rows.iter().any(|r| r.class == BranchClass::Loop));
        assert!(a.rows.iter().any(|r| r.class == BranchClass::NonLoop));
        let b = decode_prediction_payload(&encode_prediction_payload(&a.rows)).expect("decodes");
        assert_eq!(a, b);
        let (classifier, table) = b.instantiate(&s.program).expect("rows match");
        assert!(classifier.rows().eq(s.classifier.rows()));
        assert!(table.rows().eq(s.table.rows()));
    }

    #[test]
    fn prediction_rejects_structural_violations() {
        let s = sample();
        let rows = rows(&s);
        let at = rows
            .iter()
            .position(|r| r.class == BranchClass::Loop)
            .expect("sample has a loop branch");
        let bytes = encode_prediction_payload(&rows);

        // A loop row missing its loop cell violates Loop ⇔ Some.
        let mut bad = rows.clone();
        bad[at].loop_pred = None;
        let bad = encode_prediction_payload(&bad);
        assert!(decode_prediction_payload(&bad).is_none(), "L row w/o pred");
        // A loop row carrying heuristic cells.
        let mut bad = rows.clone();
        bad[at].heuristics[0] = Some(Direction::Taken);
        let bad = encode_prediction_payload(&bad);
        assert!(decode_prediction_payload(&bad).is_none(), "L row w/ cells");
        // A short row list: the count promises one more row.
        let mut short = bytes.clone();
        short[..4].copy_from_slice(&(rows.len() as u32 + 1).to_le_bytes());
        assert!(decode_prediction_payload(&short).is_none(), "short rows");
        // An over-long one: a trailing row the count does not cover.
        let mut long = bytes.clone();
        long.extend_from_slice(&bytes[4..4 + 17]);
        assert!(decode_prediction_payload(&long).is_none(), "trailing rows");
    }

    #[test]
    fn run_roundtrip() {
        let s = sample();
        let bytes = encode_run_payload(&s.profile, s.run);
        let b = decode_run_payload(&bytes).expect("decodes");
        assert_eq!(b.profile, s.profile);
        assert_eq!(b.run, s.run);
        assert!(decode_run_payload(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn trace_payload_validation() {
        let s = sample();
        let n_dict = s.trace.dict().len();
        let bytes = encode_trace_payload(&s.trace, s.run);
        assert_eq!(decode_trace(bytes.clone()), Some(s.trace.clone()));
        // Truncated payload, and extra payload bytes.
        assert!(decode_trace(bytes[..bytes.len() - 1].to_vec()).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_trace(long).is_none());

        // Narrow (byte-wide, borrowed) sequence: the last index points
        // one past the dictionary.
        let mut narrow = bytes;
        *narrow.last_mut().unwrap() = n_dict as u8;
        assert!(decode_trace(narrow).is_none(), "narrow index out of range");

        // Wide sequence (dictionary past 256 entries): one event whose
        // index is the dictionary length.
        let mut wide = Vec::new();
        put_i64(&mut wide, 0); // exit
        put_u64(&mut wide, 0); // instructions
        put_u64(&mut wide, 0); // trailing instructions
        put_u32(&mut wide, 257);
        wide.extend_from_slice(&[4, 0, 0, 0]);
        put_u64(&mut wide, 1); // events
        for block in 0..257 {
            put_u64(&mut wide, 1);
            put_u32(&mut wide, 0);
            put_u32(&mut wide, block);
            wide.extend_from_slice(&[0; 8]);
        }
        let mut ok = wide.clone();
        put_u32(&mut ok, 256);
        assert!(decode_trace(ok).is_some(), "last valid index");
        put_u32(&mut wide, 257);
        assert!(decode_trace(wide).is_none(), "wide index out of range");
    }

    #[test]
    fn ordering_roundtrip_is_bit_exact() {
        let s = sample();
        let (benches, rates) = (s.study.benches(), s.study.rates());
        assert_eq!(rates.len(), 5040);
        assert!(!benches[0].groups().is_empty());
        let b = decode_ordering_payload(&encode_ordering_payload(benches, rates)).unwrap();
        assert_eq!(b.benches, benches);
        assert!(b
            .rates
            .iter()
            .flatten()
            .map(|r| r.to_bits())
            .eq(rates.iter().flatten().map(|r| r.to_bits())));
        // Instantiation against matching live data succeeds and the
        // rebuilt study carries the persisted matrix.
        let study = b.clone().instantiate(benches).expect("valid live data");
        assert_eq!(study.rates().len(), 5040);
        // Against *diverged* live data it refuses.
        let mut stale = benches.to_vec();
        stale[0] = BenchOrderData::from_parts(
            stale[0].name.clone(),
            stale[0].groups().to_vec(),
            stale[0].total_dynamic() + 1,
        );
        assert!(b.instantiate(&stale).is_none(), "stale groups rejected");
    }

    #[test]
    fn ordering_decode_rejects_corruption() {
        let s = sample();
        let (benches, rates) = (s.study.benches(), s.study.rates());
        // A group whose predicts bits are not a subset of its applies
        // bits.
        let mut bad = benches.to_vec();
        let mut groups = bad[0].groups().to_vec();
        groups[0].key.applies = 0;
        groups[0].key.predicts_taken = 0x7f;
        bad[0] = BenchOrderData::from_parts(bad[0].name.clone(), groups, bad[0].total_dynamic());
        let bad = encode_ordering_payload(&bad, rates);
        assert!(decode_ordering_payload(&bad).is_none(), "pred ⊄ applies");
        // A short rate matrix: the header promises 5040 rows, the last
        // one is missing.
        let bytes = encode_ordering_payload(benches, rates);
        let cut = &bytes[..bytes.len() - 8 * benches.len()];
        assert!(decode_ordering_payload(cut).is_none(), "missing rate row");
        // A consistently encoded 5039-row matrix decodes, but never
        // instantiates.
        let short = encode_ordering_payload(benches, &rates[..5039]);
        let short = decode_ordering_payload(&short).expect("well-formed");
        assert!(short.instantiate(benches).is_none(), "5039 rows");
        // A non-finite rate is well-formed bits but never instantiates.
        let mut poisoned = rates.to_vec();
        poisoned[0][0] = f64::NAN;
        let poisoned = encode_ordering_payload(benches, &poisoned);
        let decoded = decode_ordering_payload(&poisoned).expect("syntactically fine");
        assert!(
            decoded.instantiate(benches).is_none(),
            "non-finite rate rejected at instantiate"
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
        let o = "O:inline+simplify";
        let k0 = compile_key_hash("b", "src", o);
        assert_eq!(k0, compile_key_hash("b", "src", o));
        assert_ne!(k0, compile_key_hash("b", "src2", o), "source");
        assert_ne!(k0, compile_key_hash("b2", "src", o), "name");

        let p0 = prediction_key_hash("b", "src", o);
        assert_ne!(p0, k0, "prediction and compile kinds never collide");
        assert_ne!(p0, prediction_key_hash("b", "src2", o));

        let r0 = run_key_hash("b", "src", o, &ds(1));
        assert_eq!(r0, run_key_hash("b", "src", o, &ds(1)));
        assert_ne!(r0, run_key_hash("b", "src", o, &ds(2)), "dataset");
        assert_ne!(r0, k0, "entry kinds never collide");
        assert_ne!(r0, trace_key_hash("b", "src", o, &ds(1)));
    }

    #[test]
    fn ordering_keys_track_roster_opt_and_seed() {
        let d1 = ds(1);
        let d2 = ds(2);
        let k0 = ordering_key_hash(&[("a", "src", &d1)], "O", 7);
        assert_eq!(k0, ordering_key_hash(&[("a", "src", &d1)], "O", 7));
        assert_ne!(
            k0,
            ordering_key_hash(&[("a", "src2", &d1)], "O", 7),
            "source"
        );
        assert_ne!(k0, ordering_key_hash(&[("b", "src", &d1)], "O", 7), "name");
        assert_ne!(
            k0,
            ordering_key_hash(&[("a", "src", &d2)], "O", 7),
            "dataset"
        );
        assert_ne!(
            k0,
            ordering_key_hash(&[("a", "src", &d1)], "O0", 7),
            "options"
        );
        assert_ne!(k0, ordering_key_hash(&[("a", "src", &d1)], "O", 8), "seed");
        assert_ne!(
            k0,
            ordering_key_hash(&[("a", "src", &d1), ("b", "src", &d1)], "O", 7),
            "roster size"
        );
        assert_ne!(k0, compile_key_hash("a", "src", "O"), "kinds never collide");
    }

    /// Regression test for the PR 1 cache-key blind spot: artifacts
    /// compiled at `-O0` (e.g. by `opt_ablate`) must never collide with
    /// `-O` entries for the same benchmark.
    #[test]
    fn opt_level_is_part_of_every_key() {
        let o = bpfree_lang::Options::default().fingerprint();
        let o0 = bpfree_lang::Options::o0().fingerprint();
        assert_ne!(o, o0);
        assert_ne!(
            compile_key_hash("b", "src", o),
            compile_key_hash("b", "src", o0)
        );
        assert_ne!(
            prediction_key_hash("b", "src", o),
            prediction_key_hash("b", "src", o0)
        );
        assert_ne!(
            run_key_hash("b", "src", o, &ds(1)),
            run_key_hash("b", "src", o0, &ds(1))
        );
        assert_ne!(
            trace_key_hash("b", "src", o, &ds(1)),
            trace_key_hash("b", "src", o0, &ds(1))
        );
        let d = ds(1);
        assert_ne!(
            ordering_key_hash(&[("b", "src", &d)], o, 7),
            ordering_key_hash(&[("b", "src", &d)], o0, 7)
        );
    }

    /// Editing the code that builds the artifacts moves every key, so a
    /// cache filled by older code is all misses.
    #[test]
    fn code_fingerprint_is_part_of_every_key() {
        assert_eq!(CODE_FINGERPRINT.len(), 16, "{CODE_FINGERPRINT}");
        let d = ds(1);
        let keys = || {
            [
                compile_key_hash("b", "src", "O"),
                prediction_key_hash("b", "src", "O"),
                run_key_hash("b", "src", "O", &d),
                trace_key_hash("b", "src", "O", &d),
                ordering_key_hash(&[("b", "src", &d)], "O", 7),
            ]
        };
        let live = keys();
        FINGERPRINT.with(|fp| fp.set(Some("0123456789abcdef")));
        let edited = keys();
        FINGERPRINT.with(|fp| fp.set(None));
        for (kind, (a, b)) in live.iter().zip(&edited).enumerate() {
            assert_ne!(a, b, "key {kind} ignores the code fingerprint");
        }
        assert_eq!(keys(), live, "the live fingerprint is back");
    }
}
