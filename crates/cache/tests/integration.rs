//! End-to-end cache behavior against real suite benchmarks: hits
//! restore exactly what was stored, corruption degrades to a miss,
//! traces rebuild runs by replay, prediction entries rebuild the
//! classifier and heuristic table without re-analysis, and experiment
//! results computed from cached artifacts are identical to fresh ones.

use std::path::PathBuf;

use bpfree_cache::{CompileArtifacts, PredictionArtifacts, RunArtifacts, TraceArtifacts};
use bpfree_core::ordering::{BenchOrderData, OrderingStudy};
use bpfree_core::{BranchClassifier, HeuristicTable, DEFAULT_SEED};
use bpfree_lang::Options;
use bpfree_sim::{EdgeProfiler, Pair, TraceRecorder};

/// A unique scratch cache directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("bpfree-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Fresh {
    compile: CompileArtifacts,
    prediction: PredictionArtifacts,
    run: RunArtifacts,
    trace: TraceArtifacts,
    classifier: BranchClassifier,
    table: HeuristicTable,
}

/// Compiles + simulates one suite benchmark (dataset 0) the way the
/// engine does on a full miss: one interpreter pass recording profile
/// and trace together, plus the dense prediction rows the engine
/// persists.
fn fresh(name: &str) -> Fresh {
    let b = bpfree_suite::by_name(name).expect("benchmark exists");
    let program = b.compile().expect("compiles");
    let classifier = BranchClassifier::analyze(&program);
    let table = HeuristicTable::build(&program, &classifier);
    let prediction = PredictionArtifacts::from_computed(&classifier, &table);
    let mut fan = Pair(EdgeProfiler::new(), TraceRecorder::new());
    let run = b
        .run_with(&program, &b.datasets()[0], &mut fan)
        .expect("runs");
    let Pair(profiler, recorder) = fan;
    Fresh {
        compile: CompileArtifacts { program },
        prediction,
        run: RunArtifacts {
            profile: profiler.into_profile(),
            run,
        },
        trace: TraceArtifacts {
            trace: recorder.into_trace(),
            run,
        },
        classifier,
        table,
    }
}

fn opt() -> &'static str {
    Options::default().fingerprint()
}

fn compile_key(name: &str) -> String {
    let b = bpfree_suite::by_name(name).expect("benchmark exists");
    bpfree_cache::compile_key(b.name, b.source, opt())
}

fn prediction_key(name: &str) -> String {
    let b = bpfree_suite::by_name(name).expect("benchmark exists");
    bpfree_cache::prediction_key(b.name, b.source, opt())
}

fn run_key(name: &str) -> String {
    let b = bpfree_suite::by_name(name).expect("benchmark exists");
    bpfree_cache::run_key(b.name, b.source, opt(), &b.datasets()[0])
}

fn trace_key(name: &str) -> String {
    let b = bpfree_suite::by_name(name).expect("benchmark exists");
    bpfree_cache::trace_key(b.name, b.source, opt(), &b.datasets()[0])
}

fn table_rows(
    t: &HeuristicTable,
) -> Vec<(bpfree_ir::BranchRef, [Option<bpfree_core::Direction>; 7])> {
    let mut rows: Vec<_> = t.rows().map(|(b, r)| (b, *r)).collect();
    rows.sort_by_key(|(b, _)| *b);
    rows
}

/// Rebuilds the classifier + heuristic table from cached prediction
/// rows, the way the engine's warm path does (no CFG analysis).
fn rebuild(
    program: &bpfree_ir::Program,
    p: &PredictionArtifacts,
) -> (BranchClassifier, HeuristicTable) {
    p.instantiate(program).expect("rows match the program")
}

#[test]
fn store_then_lookup_restores_everything() {
    let dir = ScratchDir::new("roundtrip");
    let f = fresh("grep");

    assert!(
        bpfree_cache::lookup_compile(&dir.0, &compile_key("grep")).is_none(),
        "empty dir is a miss"
    );
    bpfree_cache::store_compile(&dir.0, &compile_key("grep"), &f.compile).expect("store");
    bpfree_cache::store_prediction(&dir.0, &prediction_key("grep"), &f.prediction).expect("store");
    bpfree_cache::store_run(&dir.0, &run_key("grep"), &f.run).expect("store");
    bpfree_cache::store_trace(&dir.0, &trace_key("grep"), &f.trace).expect("store");

    let c2 = bpfree_cache::lookup_compile(&dir.0, &compile_key("grep")).expect("hit");
    let p2 = bpfree_cache::lookup_prediction(&dir.0, &prediction_key("grep")).expect("hit");
    let r2 = bpfree_cache::lookup_run(&dir.0, &run_key("grep")).expect("hit");
    let t2 = bpfree_cache::lookup_trace(&dir.0, &trace_key("grep")).expect("hit");

    assert_eq!(f.compile.program, c2.program);
    assert_eq!(f.prediction, p2);
    assert_eq!(f.run.profile, r2.profile);
    assert_eq!(f.run.run, r2.run);
    assert_eq!(f.trace.trace, t2.trace);
    assert_eq!(f.trace.run, t2.run);

    // The prediction rows fully reconstruct classifier + table.
    let (classifier, table) = rebuild(&c2.program, &p2);
    assert!(f.classifier.rows().eq(classifier.rows()));
    assert_eq!(table_rows(&f.table), table_rows(&table));
}

/// The warm graphs4_11 path: a run entry is derivable from a trace
/// entry by replay alone, with a bit-identical profile.
#[test]
fn trace_replay_rebuilds_the_run_entry() {
    let dir = ScratchDir::new("replay");
    let f = fresh("eqntott");
    bpfree_cache::store_trace(&dir.0, &trace_key("eqntott"), &f.trace).expect("store");

    let t2 = bpfree_cache::lookup_trace(&dir.0, &trace_key("eqntott")).expect("hit");
    let mut profiler = EdgeProfiler::new();
    t2.trace.replay(&mut profiler);
    assert_eq!(profiler.into_profile(), f.run.profile);
    assert_eq!(t2.run, f.run.run);
    assert_eq!(t2.trace.total_instructions(), f.run.run.instructions);
}

#[test]
fn corruption_is_a_miss_not_a_panic() {
    let dir = ScratchDir::new("corrupt");
    let f = fresh("compress");
    let ck = compile_key("compress");
    let pk = prediction_key("compress");
    let rk = run_key("compress");
    let tk = trace_key("compress");
    bpfree_cache::store_compile(&dir.0, &ck, &f.compile).expect("store");
    bpfree_cache::store_prediction(&dir.0, &pk, &f.prediction).expect("store");
    bpfree_cache::store_run(&dir.0, &rk, &f.run).expect("store");
    bpfree_cache::store_trace(&dir.0, &tk, &f.trace).expect("store");

    // Truncation, bit flips in the middle, and outright garbage must
    // all fall back to recompute (lookup -> None), never panic. Trace
    // entries are partly binary (v3), so everything works on bytes.
    for (key, garble) in [
        (&ck, &b"program"[..]),
        (&pk, &b"rows"[..]),
        (&rk, &b"profile"[..]),
        (&tk, &b"dict"[..]),
    ] {
        let path = dir.0.join(format!("{key}.txt"));
        let bytes = std::fs::read(&path).unwrap();

        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(
            bpfree_cache::lookup_compile(&dir.0, key).is_none()
                && bpfree_cache::lookup_prediction(&dir.0, key).is_none()
                && bpfree_cache::lookup_run(&dir.0, key).is_none()
                && bpfree_cache::lookup_trace(&dir.0, key).is_none(),
            "truncated {key}"
        );

        let at = bytes
            .windows(garble.len())
            .position(|w| w == garble)
            .expect("section header present");
        let mut garbled = bytes.clone();
        garbled[at..at + garble.len()].fill(b'!');
        std::fs::write(&path, garbled).unwrap();
        assert!(
            bpfree_cache::lookup_compile(&dir.0, key).is_none()
                && bpfree_cache::lookup_prediction(&dir.0, key).is_none()
                && bpfree_cache::lookup_run(&dir.0, key).is_none()
                && bpfree_cache::lookup_trace(&dir.0, key).is_none(),
            "garbled section header in {key}"
        );

        std::fs::write(&path, "not a cache file at all\n").unwrap();
        assert!(
            bpfree_cache::lookup_compile(&dir.0, key).is_none()
                && bpfree_cache::lookup_prediction(&dir.0, key).is_none()
                && bpfree_cache::lookup_run(&dir.0, key).is_none()
                && bpfree_cache::lookup_trace(&dir.0, key).is_none(),
            "garbage {key}"
        );
    }

    // And a valid re-store recovers.
    bpfree_cache::store_compile(&dir.0, &ck, &f.compile).expect("re-store");
    assert!(bpfree_cache::lookup_compile(&dir.0, &ck).is_some());
}

#[test]
fn keys_differ_across_benchmarks_kinds_and_opt_levels() {
    assert_ne!(compile_key("grep"), compile_key("compress"));
    assert_eq!(compile_key("grep"), compile_key("grep"), "stable");
    assert_ne!(run_key("grep"), trace_key("grep"), "kind tag");
    assert_ne!(compile_key("grep"), run_key("grep"));
    assert_ne!(compile_key("grep"), prediction_key("grep"), "kind tag");

    // Regression: PR 1's single-key scheme ignored compile options, so
    // an -O0 build (opt_ablate) could poison the -O cache. Every kind
    // now keys on the options fingerprint.
    let b = bpfree_suite::by_name("grep").unwrap();
    let o0 = Options::o0().fingerprint();
    assert_ne!(
        bpfree_cache::compile_key(b.name, b.source, o0),
        compile_key("grep")
    );
    assert_ne!(
        bpfree_cache::prediction_key(b.name, b.source, o0),
        prediction_key("grep")
    );
    assert_ne!(
        bpfree_cache::run_key(b.name, b.source, o0, &b.datasets()[0]),
        run_key("grep")
    );
}

/// Prediction rows from one program must be refused against a different
/// program — the engine falls back to re-analysis rather than serving a
/// classifier for the wrong branch sites.
#[test]
fn stale_prediction_rows_are_refused_against_another_program() {
    let grep = fresh("grep");
    let compress = fresh("compress");
    assert!(grep
        .prediction
        .instantiate(&compress.compile.program)
        .is_none());
}

#[test]
fn cached_artifacts_give_identical_experiment_results() {
    let dir = ScratchDir::new("experiment");
    let names = ["grep", "compress", "eqntott"];

    let mut fresh_data = Vec::new();
    let mut cached_data = Vec::new();
    for name in names {
        let f = fresh(name);
        bpfree_cache::store_compile(&dir.0, &compile_key(name), &f.compile).expect("store");
        bpfree_cache::store_prediction(&dir.0, &prediction_key(name), &f.prediction)
            .expect("store");
        bpfree_cache::store_run(&dir.0, &run_key(name), &f.run).expect("store");
        let hit_c = bpfree_cache::lookup_compile(&dir.0, &compile_key(name)).expect("hit");
        let hit_p = bpfree_cache::lookup_prediction(&dir.0, &prediction_key(name)).expect("hit");
        let hit_r = bpfree_cache::lookup_run(&dir.0, &run_key(name)).expect("hit");
        // The engine's warm path: classifier + table from the rows, no
        // re-analysis.
        let (hit_classifier, hit_table) = rebuild(&hit_c.program, &hit_p);

        fresh_data.push(BenchOrderData::build(
            name,
            &f.table,
            &f.run.profile,
            &f.classifier,
            DEFAULT_SEED,
        ));
        cached_data.push(BenchOrderData::build(
            name,
            &hit_table,
            &hit_r.profile,
            &hit_classifier,
            DEFAULT_SEED,
        ));
    }

    let fresh_study = OrderingStudy::new(fresh_data);
    let cached_study = OrderingStudy::new(cached_data);

    // Graph 1 data: bit-identical average rates for all 5040 orders.
    assert_eq!(
        fresh_study.sorted_average_rates(),
        cached_study.sorted_average_rates()
    );

    // Table 4 data: identical winners, tallies, and rates.
    let f = fresh_study.subset_experiment(2);
    let c = cached_study.subset_experiment(2);
    assert_eq!(f.len(), c.len());
    for (a, b) in f.iter().zip(&c) {
        assert_eq!(a.order, b.order);
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.trial_fraction.to_bits(), b.trial_fraction.to_bits());
        assert_eq!(a.mean_miss_rate.to_bits(), b.mean_miss_rate.to_bits());
    }
}
