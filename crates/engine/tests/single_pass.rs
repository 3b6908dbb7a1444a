//! Integration tests for the engine's headline guarantees:
//!
//! 1. **Single-pass**: a cold engine simulates each (benchmark, dataset)
//!    exactly once even when both a run bundle and a branch trace are
//!    requested, and a warm engine (same cache directory, new process
//!    stand-in, after the cold one persisted its image) simulates zero
//!    times.
//! 2. **Fan-out fidelity**: fanning N observers out of one interpreter
//!    pass is bit-identical to N independent passes — at `--jobs 1` and
//!    `--jobs 8` alike.

use std::path::PathBuf;
use std::sync::Arc;

use bpfree_engine::{Engine, EngineConfig};
use bpfree_lang::Options;
use bpfree_sim::{EdgeProfiler, Pair, TraceRecorder};
use bpfree_suite::Benchmark;

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bpfree-engine-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached_engine(dir: &std::path::Path) -> Engine {
    Engine::new(EngineConfig {
        use_cache: true,
        cache_dir: dir.to_path_buf(),
        verbose: false,
        ..EngineConfig::no_cache()
    })
}

fn benches(names: &[&str]) -> Vec<Benchmark> {
    names
        .iter()
        .map(|n| bpfree_suite::by_name(n).expect("suite benchmark"))
        .collect()
}

#[test]
fn cold_engine_simulates_once_per_dataset_warm_engine_zero() {
    let dir = temp_cache("cold-warm");
    let suite = benches(&["eqntott", "qpt"]);
    let refs: Vec<&Benchmark> = suite.iter().collect();
    let opt = Options::default();

    // Cold: every benchmark is traced AND has its run bundle queried,
    // yet costs exactly one interpreter pass.
    let cold = cached_engine(&dir);
    cold.prefetch(&refs, opt, &["eqntott", "qpt"]);
    let cold_runs: Vec<_> = suite.iter().map(|b| cold.run(b, opt, 0)).collect();
    let cold_traces: Vec<_> = suite.iter().map(|b| cold.trace(b, opt, 0)).collect();
    assert_eq!(
        cold.simulations(),
        suite.len() as u64,
        "one pass per (benchmark, dataset) on a cold cache"
    );
    cold.persist().expect("cache image written");

    // Warm: a fresh engine over the same directory mounts everything
    // from the image without a single interpreter pass.
    let warm = cached_engine(&dir);
    warm.prefetch(&refs, opt, &["eqntott", "qpt"]);
    for (i, b) in suite.iter().enumerate() {
        let bundle = warm.run(b, opt, 0);
        assert_eq!(bundle.result, cold_runs[i].result, "{}", b.name);
        assert_eq!(*bundle.profile, *cold_runs[i].profile, "{}", b.name);
        assert_eq!(*warm.trace(b, opt, 0), *cold_traces[i], "{}", b.name);
    }
    assert_eq!(warm.simulations(), 0, "warm engine never simulates");
    assert_eq!(warm.decodes(), 0, "so it never decodes either");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_run_entry_alone_also_avoids_simulation() {
    let dir = temp_cache("run-only");
    let b = bpfree_suite::by_name("grep").unwrap();
    let opt = Options::default();

    let cold = cached_engine(&dir);
    let cold_bundle = cold.run(&b, opt, 0);
    assert_eq!(cold.simulations(), 1);
    cold.persist().expect("cache image written");

    let warm = cached_engine(&dir);
    let warm_bundle = warm.run(&b, opt, 0);
    assert_eq!(warm.simulations(), 0);
    assert_eq!(warm_bundle.result, cold_bundle.result);
    assert_eq!(*warm_bundle.profile, *cold_bundle.profile);

    let _ = std::fs::remove_dir_all(&dir);
}

/// One `Pair` pass over (profiler, tracer) produces artifacts
/// bit-identical to two independent interpreter passes, whether the
/// benchmarks run one at a time or on 8 workers.
#[test]
fn multiplexed_pass_is_bit_identical_to_independent_passes_at_any_jobs() {
    let suite = benches(&["eqntott", "qpt", "grep", "compress"]);
    let opt = Options::default();

    for n_jobs in [1usize, 8] {
        let outcomes = bpfree_par::par_map_jobs(n_jobs, &suite, |bench| {
            // Each worker uses its own no-cache engine so nothing is
            // shared; the engine's trace query IS the multiplexed pass.
            let engine = Engine::new(EngineConfig::no_cache());
            let trace = engine.trace(bench, opt, 0);
            let bundle = engine.run(bench, opt, 0);
            assert_eq!(engine.simulations(), 1, "{}: multiplexed", bench.name);

            // Reference: two fully independent passes, one observer each.
            let program = engine.program(bench, opt);
            let dataset = &engine.datasets(bench)[0];
            let mut profiler = EdgeProfiler::new();
            let r1 = bench.run_with(&program, dataset, &mut profiler).unwrap();
            let mut recorder = TraceRecorder::new();
            let r2 = bench.run_with(&program, dataset, &mut recorder).unwrap();
            (
                trace,
                bundle,
                Arc::new(profiler.into_profile()),
                recorder.into_trace(),
                r1,
                r2,
            )
        });
        for (bench, (trace, bundle, profile, ref_trace, r1, r2)) in
            suite.iter().zip(outcomes.iter())
        {
            assert_eq!(r1, r2, "{}: independent passes agree", bench.name);
            assert_eq!(
                bundle.result, *r1,
                "{} jobs={n_jobs}: run result",
                bench.name
            );
            assert_eq!(
                *bundle.profile, **profile,
                "{} jobs={n_jobs}: edge profile",
                bench.name
            );
            assert_eq!(**trace, *ref_trace, "{} jobs={n_jobs}: trace", bench.name);
            assert_eq!(
                trace.total_instructions(),
                r1.instructions,
                "{} jobs={n_jobs}: instruction totals",
                bench.name
            );
        }
    }
}

/// The fan-out itself, exercised directly: nested pairs feed every
/// observer the same event stream one pass produces.
#[test]
fn pair_feeds_every_observer_the_full_stream() {
    let b = bpfree_suite::by_name("eqntott").unwrap();
    let engine = Engine::new(EngineConfig::no_cache());
    let program = engine.program(&b, Options::default());
    let dataset = &engine.datasets(&b)[0];

    let mut fan = Pair(
        EdgeProfiler::new(),
        Pair(EdgeProfiler::new(), TraceRecorder::new()),
    );
    let result = b.run_with(&program, dataset, &mut fan).unwrap();
    let Pair(p1, Pair(p2, rec)) = fan;

    let (prof1, prof2) = (p1.into_profile(), p2.into_profile());
    assert_eq!(prof1, prof2, "sibling observers see identical streams");
    let mut replayed = EdgeProfiler::new();
    rec.into_trace().replay(&mut replayed);
    assert_eq!(replayed.into_profile(), prof1);
    assert!(result.instructions > 0);
}
