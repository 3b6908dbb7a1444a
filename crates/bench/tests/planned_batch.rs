//! The batch runner against a reference loop: same bytes, same
//! interpreter-pass count, at a job count that makes warm-up and
//! rendering run in parallel. Runs in its own process so `set_jobs`
//! cannot leak into other test binaries.

use std::collections::BTreeSet;

use bpfree_bench::registry::{self, Experiment};
use bpfree_bench::sink::VecSink;
use bpfree_engine::{Engine, EngineConfig};
use bpfree_lang::Options;

/// A cheap-but-representative subset: the traced IPBC experiment plus
/// static tables and a profile consumer, so the warm-up has traced and
/// untraced passes.
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
        exp.run(engine, &mut sink).expect("experiment succeeds");
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
    let reports = registry::run_experiments(&exps, &engine, false).expect("batch succeeds");
    let batch: Vec<u8> = reports.into_iter().flat_map(|r| r.bytes).collect();

    assert_eq!(
        String::from_utf8_lossy(&batch),
        String::from_utf8_lossy(&reference),
        "batch output diverged from the reference loop"
    );
    assert_eq!(
        engine.simulations(),
        reference_engine.simulations(),
        "batch changed the interpreter-pass count"
    );
}
