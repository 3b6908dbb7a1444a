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
//! The image stores four independent artifact kinds, matching the
//! granularity of the demand-driven engine (`bpfree-engine`):
//!
//! * **compile** — the compiled `Program` of one (benchmark, compile
//!   options) pair;
//! * **prediction** — the derived prediction artifacts of that program:
//!   one [`PredictionRow`] per conditional branch in program order,
//!   carrying its class, loop prediction, and all seven heuristic
//!   cells. A warm load rebuilds the [`BranchClassifier`] and
//!   [`HeuristicTable`] from these rows without running a single CFG
//!   analysis or heuristic;
//! * **run** — the `EdgeProfile` and `RunResult` of one (benchmark,
//!   options, dataset) triple;
//! * **trace** — the replayable `BranchTrace` of one dataset (plus its
//!   `RunResult`, so a run can be rebuilt from a trace alone).
//!
//! The ordering study's 5040 × n miss-rate matrix is not stored: the
//! engine rebuilds it from the members' prediction and dataset-0 run
//! entries in a few milliseconds.
//!
//! [`BranchClassifier`]: bpfree_core::BranchClassifier
//! [`HeuristicTable`]: bpfree_core::HeuristicTable
//!
//! # Keying
//!
//! An entry is addressed by (kind, benchmark name, compile-options
//! fingerprint, dataset index) alone. Whether the entries are valid is
//! decided once per image: its header carries [`BUILD_FINGERPRINT`], a
//! hash this crate's `build.rs` computes over every file under `src/` of
//! `bpfree-engine` and each crate it depends on, and over the suite's
//! Cmm programs. That covers everything an artifact is built from: the
//! compiler, the analyses, the heuristics, the interpreter, the
//! benchmark sources and the dataset generators. The engine mounts an
//! image only if its stamp is the running build's, so after any edit to
//! those files a stale entry is *unreachable*, not just detectable.
//! One stamp per image is enough because one build writes the whole
//! image, from artifacts it computed or mounted itself.
//!
//! # Robustness
//!
//! A missing, truncated, corrupt or older-format image counts as an
//! empty cache (the magic names the format, and one checksum covers
//! every byte), and an image from another build mounts nothing: a
//! corrupt or stale cache can cost time but never correctness.
//! The engine rewrites the whole file at the end of a run that computed
//! anything, to a temp file renamed into place, so a crashed run cannot
//! leave a half-written image and concurrent processes simply see the
//! last complete one.
//!
//! An engine built with `use_cache` off (the CLI's `--no-cache`) never
//! reads or writes the image.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use bpfree_core::{BranchClass, Direction};
use bpfree_ir::{BranchRef, Program};
use bpfree_sim::{BranchTrace, EdgeProfile, RunResult};

/// The build fingerprint every image this build writes is stamped
/// with, and the only stamp it mounts: a hash of the sources of every
/// crate that computes a cached artifact and of the suite's programs,
/// exported by `build.rs`. Hashing the sources rather than the
/// executable gives every binary built from one checkout the same
/// stamp.
pub const BUILD_FINGERPRINT: u64 = match u64::from_str_radix(env!("BPFREE_CODE_FINGERPRINT"), 16) {
    Ok(fingerprint) => fingerprint,
    Err(_) => panic!("build.rs exports a hexadecimal fingerprint"),
};

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
                    h
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

/// The default cache directory: `$CARGO_TARGET_DIR/bpfree-cache`, else
/// `target/bpfree-cache`, following cargo's own setting. An empty
/// `CARGO_TARGET_DIR` counts as unset, so the cache never lands in the
/// current directory itself.
pub fn default_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .filter(|v| !v.is_empty())
        .map_or_else(|| "target".into(), PathBuf::from)
        .join("bpfree-cache")
}

/// The cache image inside cache directory `dir`: `dir/suite.img`.
pub fn image_path(dir: &Path) -> PathBuf {
    dir.join("suite.img")
}

/// Each artifact kind round-trips through its image payload, and each
/// payload decoder rejects content that is structurally impossible
/// (the file-level layout is tested in [`image`]).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{
        decode_prediction_payload, decode_run_payload, decode_trace_payload,
        encode_prediction_payload, encode_run_payload, encode_trace_payload, SectionKind,
    };
    use bpfree_core::{BranchClassifier, HeuristicTable};
    use bpfree_ir::codec::Field;
    use bpfree_ir::{BlockId, FuncId};
    use bpfree_sim::{EdgeProfiler, Pair, TraceRecorder};
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    /// A small program's artifacts: one compile-and-run with a loop
    /// branch, a non-loop branch and a trace.
    pub(crate) struct Sample {
        pub(crate) program: Program,
        pub(crate) classifier: BranchClassifier,
        pub(crate) table: HeuristicTable,
        pub(crate) profile: EdgeProfile,
        pub(crate) trace: BranchTrace,
        pub(crate) run: RunResult,
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
        let mut fan = Pair(EdgeProfiler::new(), TraceRecorder::new());
        let run = bpfree_sim::Simulator::new(&program).run(&mut fan).unwrap();
        let Pair(profiler, recorder) = fan;
        let profile = profiler.into_profile();
        let classifier = BranchClassifier::analyze(&program);
        let table = HeuristicTable::build(&program, &classifier);
        Sample {
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
        use crate::image::{Artifact, ImageBuilder, SuiteImage};
        let s = sample();
        let mut b = ImageBuilder::new();
        b.add("sample", "O", None, Artifact::Compile(&s.program));
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
        long.extend_from_slice(&bytes[4..4 + PredictionRow::MIN_BYTES]);
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
        // Sites come in strictly increasing order, each once.
        let mut counts: Vec<(BranchRef, (u64, u64))> = s
            .profile
            .iter()
            .map(|(b, c)| (b, (c.taken, c.fallthru)))
            .collect();
        assert!(counts.len() >= 2, "sample profiles two sites");
        counts.sort_unstable_by_key(|&(b, _)| std::cmp::Reverse(b));
        for counts in [counts.clone(), vec![counts[0]; 2]] {
            let mut bytes = Vec::new();
            (s.run.exit, s.run.instructions).put(&mut bytes);
            counts.put(&mut bytes);
            assert!(decode_run_payload(&bytes).is_none(), "{counts:?}");
        }
        // A profile recorded in reverse program order still encodes its
        // sites in order, and decodes to itself.
        let mut reversed = EdgeProfile::new();
        for &(b, (taken, fallthru)) in &counts {
            reversed.record_many(b, true, taken);
            reversed.record_many(b, false, fallthru);
        }
        assert_eq!(reversed, s.profile);
        let bytes = encode_run_payload(&reversed, s.run);
        assert_eq!(
            decode_run_payload(&bytes).expect("decodes").profile,
            reversed
        );
    }

    /// A trace payload whose dictionary has 257 entries, so that its
    /// sequence is stored four bytes per event: one event of dictionary
    /// index `index`.
    fn wide_trace_payload(index: u32) -> Vec<u8> {
        let dict: Vec<(u64, (BranchRef, bool))> = (0..257)
            .map(|block| {
                let branch = BranchRef {
                    func: FuncId(0),
                    block: BlockId(block),
                };
                (1, (branch, false))
            })
            .collect();
        let mut out = Vec::new();
        (0i64, 0u64).put(&mut out); // exit, instructions
        0u64.put(&mut out); // trailing instructions
        dict.put(&mut out);
        vec![index].put(&mut out);
        out
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
        assert!(
            decode_trace(wide_trace_payload(256)).is_some(),
            "last valid index"
        );
        assert!(
            decode_trace(wide_trace_payload(257)).is_none(),
            "wide index out of range"
        );

        // A dictionary whose instruction total overflows `u64`: the
        // first event's instruction count, the first field after the
        // dictionary's count, set to `u64::MAX` while other events
        // count instructions too.
        let first = s.trace.dict()[0].instrs * s.trace.tally().count(0);
        assert!(s.trace.total_instructions() > first);
        let mut huge = encode_trace_payload(&s.trace, s.run);
        let at = 8 + 8 + 8 + 4;
        huge[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_trace(huge).is_none(), "instruction total overflows");
    }

    /// The prediction, run and trace payloads of three suite
    /// benchmarks' dataset-0 artifacts, and the wide trace, each
    /// checked to round-trip.
    fn suite_payloads() -> &'static [(SectionKind, Vec<u8>)] {
        static PAYLOADS: OnceLock<Vec<(SectionKind, Vec<u8>)>> = OnceLock::new();
        PAYLOADS.get_or_init(|| {
            let mut all = Vec::new();
            for name in ["grep", "eqntott", "gcc"] {
                let bench = bpfree_suite::by_name(name).expect("benchmark exists");
                let program = bench.compile().expect("compiles");
                let classifier = BranchClassifier::analyze(&program);
                let table = HeuristicTable::build(&program, &classifier);
                let mut fan = Pair(EdgeProfiler::new(), TraceRecorder::new());
                let run = bench
                    .run_with(&program, &bench.datasets()[0], &mut fan)
                    .expect("runs");
                let Pair(profiler, recorder) = fan;
                let rows = PredictionArtifacts::from_computed(&classifier, &table).rows;
                all.push((SectionKind::Prediction, encode_prediction_payload(&rows)));
                let run_bytes = encode_run_payload(&profiler.into_profile(), run);
                all.push((SectionKind::Run, run_bytes));
                let trace_bytes = encode_trace_payload(&recorder.into_trace(), run);
                all.push((SectionKind::Trace, trace_bytes));
            }
            all.push((SectionKind::Trace, wide_trace_payload(256)));
            for (kind, bytes) in &all {
                assert_eq!(reencode(*kind, bytes).as_ref(), Some(bytes), "{kind:?}");
            }
            all
        })
    }

    /// Decodes `bytes` as a `kind` payload and encodes what decodes
    /// again.
    fn reencode(kind: SectionKind, bytes: &[u8]) -> Option<Vec<u8>> {
        match kind {
            SectionKind::Prediction => {
                decode_prediction_payload(bytes).map(|p| encode_prediction_payload(&p.rows))
            }
            SectionKind::Run => {
                decode_run_payload(bytes).map(|r| encode_run_payload(&r.profile, r.run))
            }
            SectionKind::Trace => decode_trace_payload(&Arc::new(bytes.to_vec()), 0, bytes.len())
                .map(|t| encode_trace_payload(&t.trace, t.run)),
            SectionKind::Compile => unreachable!("compile payloads are `Program::from_bytes`'s"),
        }
    }

    /// One way to damage a payload.
    #[derive(Debug, Clone)]
    enum Damage {
        Truncate,
        FlipBit(u8),
        Overwrite(u8),
        Append(Vec<u8>),
    }

    fn damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            Just(Damage::Truncate),
            (0u8..8).prop_map(Damage::FlipBit),
            any::<u8>().prop_map(Damage::Overwrite),
            proptest::collection::vec(any::<u8>(), 1..9).prop_map(Damage::Append),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// A suite payload, truncated, with one bit flipped, one byte
        /// overwritten or bytes appended, decodes without a panic; what
        /// does decode re-encodes to exactly those bytes.
        #[test]
        fn damaged_payloads_decode_to_none_or_the_same_bytes(
            which in any::<usize>(),
            at in any::<usize>(),
            damage in damage(),
        ) {
            let (kind, pristine) = &suite_payloads()[which % suite_payloads().len()];
            let mut bytes = pristine.clone();
            let i = at % bytes.len();
            match damage {
                Damage::Truncate => bytes.truncate(i),
                Damage::FlipBit(bit) => bytes[i] ^= 1 << bit,
                Damage::Overwrite(v) => bytes[i] = v,
                Damage::Append(tail) => bytes.extend(tail),
            }
            if let Some(again) = reencode(*kind, &bytes) {
                prop_assert_eq!(again, bytes);
            }
        }
    }
}
