//! End-to-end cache behavior against real suite benchmarks, through the
//! suite image: an image restores exactly what was packed, corruption
//! refuses to open (so the engine recomputes), traces rebuild runs by
//! replay, prediction rows rebuild the classifier and heuristic table
//! without re-analysis, and experiment results computed from imaged
//! artifacts are identical to fresh ones.

use bpfree_cache::image::{Artifact, ImageBuilder, SectionKind, SuiteImage};
use bpfree_cache::PredictionArtifacts;
use bpfree_core::ordering::{BenchOrderData, OrderingStudy};
use bpfree_core::{BranchClassifier, HeuristicTable, DEFAULT_SEED};
use bpfree_ir::Program;
use bpfree_lang::Options;
use bpfree_sim::{BranchTrace, EdgeProfile, EdgeProfiler, Pair, RunResult, TraceRecorder};
use bpfree_suite::Benchmark;

struct Fresh {
    bench: Benchmark,
    program: Program,
    classifier: BranchClassifier,
    table: HeuristicTable,
    profile: EdgeProfile,
    trace: BranchTrace,
    run: RunResult,
}

/// Compiles + simulates one suite benchmark (dataset 0) the way the
/// engine does on a full miss: one interpreter pass recording profile
/// and trace together, plus the classifier and heuristic table.
fn fresh(name: &str) -> Fresh {
    let bench = bpfree_suite::by_name(name).expect("benchmark exists");
    let program = bench.compile().expect("compiles");
    let classifier = BranchClassifier::analyze(&program);
    let table = HeuristicTable::build(&program, &classifier);
    let mut fan = Pair(EdgeProfiler::new(), TraceRecorder::new());
    let run = bench
        .run_with(&program, &bench.datasets()[0], &mut fan)
        .expect("runs");
    let Pair(profiler, recorder) = fan;
    Fresh {
        bench,
        program,
        classifier,
        table,
        profile: profiler.into_profile(),
        trace: recorder.into_trace(),
        run,
    }
}

fn opt() -> &'static str {
    Options::default().fingerprint()
}

/// Adds `f`'s compile, prediction and dataset-0 run entries (and its
/// trace with `traced`) to `b`.
fn add_fresh<'a>(b: &mut ImageBuilder<'a>, f: &'a Fresh, traced: bool) {
    let name = f.bench.name;
    b.add(name, opt(), None, Artifact::Compile(&f.program));
    let prediction = Artifact::Prediction(&f.classifier, &f.table);
    b.add(name, opt(), None, prediction);
    b.add(name, opt(), Some(0), Artifact::Run(&f.profile, f.run));
    if traced {
        b.add(name, opt(), Some(0), Artifact::Trace(&f.trace, f.run));
    }
}

fn table_rows(
    t: &HeuristicTable,
) -> Vec<(bpfree_ir::BranchRef, [Option<bpfree_core::Direction>; 7])> {
    let mut rows: Vec<_> = t.rows().map(|(b, r)| (b, *r)).collect();
    rows.sort_by_key(|(b, _)| *b);
    rows
}

/// The artifacts of `name` as a warm engine sees them: the program, the
/// classifier + table rebuilt from the prediction rows (no CFG
/// analysis), and the dataset-0 profile.
fn restore(
    img: &SuiteImage,
    name: &str,
) -> (Program, BranchClassifier, HeuristicTable, EdgeProfile) {
    let find = |kind, dataset| img.find(kind, name, opt(), dataset).expect("entry present");
    let program = img
        .compile(find(SectionKind::Compile, None))
        .expect("decodes");
    let rows = img
        .prediction(find(SectionKind::Prediction, None))
        .expect("decodes");
    let (classifier, table) = rows.instantiate(&program).expect("rows match the program");
    let run = img.run(find(SectionKind::Run, Some(0))).expect("decodes");
    (program, classifier, table, run.profile)
}

#[test]
fn store_then_lookup_restores_everything() {
    let f = fresh("grep");
    let mut b = ImageBuilder::new();
    add_fresh(&mut b, &f, true);
    let img = SuiteImage::from_bytes(b.finish()).expect("opens");
    assert!(
        img.find(SectionKind::Compile, "compress", opt(), None)
            .is_none(),
        "an absent entry is a miss"
    );

    let (program, classifier, table, profile) = restore(&img, "grep");
    assert_eq!(f.program, program);
    assert_eq!(f.profile, profile);
    let e = img
        .find(SectionKind::Prediction, "grep", opt(), None)
        .unwrap();
    assert_eq!(
        img.prediction(e).unwrap(),
        PredictionArtifacts::from_computed(&f.classifier, &f.table)
    );
    let e = img.find(SectionKind::Run, "grep", opt(), Some(0)).unwrap();
    assert_eq!(img.run(e).unwrap().run, f.run);
    let e = img
        .find(SectionKind::Trace, "grep", opt(), Some(0))
        .unwrap();
    let t = img.trace(e).unwrap();
    assert_eq!(f.trace, t.trace);
    assert_eq!(f.run, t.run);

    // The prediction rows fully reconstruct classifier + table.
    assert!(f.classifier.rows().eq(classifier.rows()));
    assert_eq!(table_rows(&f.table), table_rows(&table));
}

/// The warm graphs4_11 path: a run is derivable from a trace entry by
/// replay alone, with a bit-identical profile.
#[test]
fn trace_replay_rebuilds_the_run_entry() {
    let f = fresh("eqntott");
    let mut b = ImageBuilder::new();
    let art = Artifact::Trace(&f.trace, f.run);
    b.add("eqntott", opt(), Some(0), art);
    let img = SuiteImage::from_bytes(b.finish()).expect("opens");

    let e = img
        .find(SectionKind::Trace, "eqntott", opt(), Some(0))
        .unwrap();
    let t2 = img.trace(e).unwrap();
    let mut profiler = EdgeProfiler::new();
    t2.trace.replay(&mut profiler);
    assert_eq!(profiler.into_profile(), f.profile);
    assert_eq!(t2.trace.edge_profile(), f.profile);
    assert_eq!(t2.run, f.run);
    assert_eq!(t2.trace.total_instructions(), f.run.instructions);
}

/// Truncation, a garbled byte in any region and outright garbage all
/// make a real-suite image refuse to open — the engine then treats the
/// cache as empty and recomputes — and a clean rewrite recovers.
#[test]
fn corruption_is_a_miss_not_a_panic() {
    let f = fresh("compress");
    let mut b = ImageBuilder::new();
    add_fresh(&mut b, &f, true);
    let bytes = b.finish();
    assert!(SuiteImage::from_bytes(bytes.clone()).is_ok());

    assert!(SuiteImage::from_bytes(bytes[..bytes.len() / 3].to_vec()).is_err());
    // The first entry's kind tag (right after the 20-byte header), its
    // options string, its program bytes, and the trace payload at the
    // tail.
    for at in [20, 50, 80, bytes.len() - 20] {
        let mut garbled = bytes.clone();
        garbled[at] ^= 0x21;
        assert!(SuiteImage::from_bytes(garbled).is_err(), "byte {at}");
    }
    assert!(SuiteImage::from_bytes(b"not a cache file at all\n".to_vec()).is_err());

    let dir = std::env::temp_dir().join(format!("bpfree-cache-corrupt-{}", std::process::id()));
    let path = bpfree_cache::image_path(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&path, &bytes[..1000]).unwrap();
    assert!(SuiteImage::open(&path).is_err());
    let mut b = ImageBuilder::new();
    add_fresh(&mut b, &f, true);
    b.write(&path).expect("rewrite");
    assert_eq!(
        SuiteImage::open(&path).expect("recovers").entries().len(),
        4
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Prediction rows from one program must be refused against a different
/// program — the engine falls back to re-analysis rather than serving a
/// classifier for the wrong branch sites.
#[test]
fn stale_prediction_rows_are_refused_against_another_program() {
    let grep = fresh("grep");
    let compress = fresh("compress");
    let rows = PredictionArtifacts::from_computed(&grep.classifier, &grep.table);
    assert!(rows.instantiate(&compress.program).is_none());
}

#[test]
fn cached_artifacts_give_identical_experiment_results() {
    let names = ["grep", "compress", "eqntott"];
    let fresh_all: Vec<Fresh> = names.iter().map(|n| fresh(n)).collect();
    let mut b = ImageBuilder::new();
    for f in &fresh_all {
        add_fresh(&mut b, f, false);
    }
    let img = SuiteImage::from_bytes(b.finish()).expect("opens");

    let mut fresh_data = Vec::new();
    let mut imaged_data = Vec::new();
    for f in &fresh_all {
        let name = f.bench.name;
        // The engine's warm path: classifier + table from the rows, no
        // re-analysis.
        let (_, classifier, table, profile) = restore(&img, name);
        fresh_data.push(BenchOrderData::build(
            name,
            &f.table,
            &f.profile,
            &f.classifier,
            DEFAULT_SEED,
        ));
        imaged_data.push(BenchOrderData::build(
            name,
            &table,
            &profile,
            &classifier,
            DEFAULT_SEED,
        ));
    }

    let fresh_study = OrderingStudy::new_serial(fresh_data);
    let imaged_study = OrderingStudy::new_serial(imaged_data);

    // Graph 1 data: bit-identical average rates for all 5040 orders.
    assert_eq!(
        fresh_study.sorted_average_rates(),
        imaged_study.sorted_average_rates()
    );

    // Table 4 data: identical winners, tallies, and rates.
    let f = fresh_study.subset_experiment(2);
    let c = imaged_study.subset_experiment(2);
    assert_eq!(f.len(), c.len());
    for (a, b) in f.iter().zip(&c) {
        assert_eq!(a.order, b.order);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.trial_fraction.to_bits(), b.trial_fraction.to_bits());
        assert_eq!(a.mean_miss_rate.to_bits(), b.mean_miss_rate.to_bits());
    }
}
