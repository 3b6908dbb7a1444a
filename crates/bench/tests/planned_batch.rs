//! The batch runner against a reference loop: same bytes, same
//! interpreter-pass count, at a job count that makes the task graph run
//! in parallel. Runs in its own process so `set_jobs` cannot leak into
//! other test binaries.

use std::collections::BTreeSet;

use bpfree_bench::registry::{self, Experiment};
use bpfree_bench::sink::{Sink, VecSink};
use bpfree_engine::{Engine, EngineConfig};
use bpfree_lang::Options;

/// A cheap-but-representative subset: the traced IPBC experiment (the
/// one with real dependency edges) plus static tables and a profile
/// consumer, so the graph has trace-dependent and trace-free nodes.
const SUBSET: [&str; 4] = ["table1", "table2", "graphs4_11", "table7"];

fn subset() -> Vec<&'static dyn Experiment> {
    SUBSET
        .iter()
        .map(|n| registry::by_name(n).unwrap_or_else(|| panic!("unknown experiment {n}")))
        .collect()
}

/// The reference: trace the union of the experiments' traced
/// benchmarks, then run each experiment in order into one sink.
fn reference_loop(exps: &[&'static dyn Experiment], engine: &Engine) -> Vec<u8> {
    let traced: BTreeSet<&str> = exps.iter().flat_map(|e| e.traced()).copied().collect();
    for name in traced {
        let bench = bpfree_suite::by_name(name).expect("traced benchmark is in the suite");
        engine.trace(&bench, Options::default(), 0);
    }
    let mut sink = VecSink::new();
    for &exp in exps {
        sink.begin(exp).expect("begin");
        exp.run(engine, &mut sink).expect("experiment succeeds");
        sink.end(exp).expect("end");
    }
    sink.take()
}

#[test]
fn batch_runner_matches_reference_loop_bytes_and_passes() {
    bpfree_par::set_jobs(4);
    let exps = subset();

    let reference_engine = Engine::new(EngineConfig::no_cache());
    let reference = reference_loop(&exps, &reference_engine);

    let engine = Engine::new(EngineConfig::no_cache());
    let mut sink = VecSink::new();
    registry::run_experiments(&exps, &engine, &mut sink, false).expect("batch succeeds");

    assert_eq!(
        String::from_utf8_lossy(&sink.take()),
        String::from_utf8_lossy(&reference),
        "batch output diverged from the reference loop"
    );
    assert_eq!(
        engine.simulations(),
        reference_engine.simulations(),
        "batch changed the interpreter-pass count"
    );
}
