//! The experiment registry: every paper table and figure as a named,
//! runnable value.
//!
//! Each experiment is an [`Experiment`] implementation that writes
//! through a [`Sink`]; [`run_experiments`] executes
//! any subset in ONE process against a shared [`Engine`], so every
//! `(benchmark, Options, dataset)` triple is compiled/simulated/traced
//! at most once for all tables and graphs combined. `bpfree exp run`
//! and `bpfree exp all` are its command-line front end.

use std::collections::BTreeSet;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

use bpfree_engine::Engine;
use bpfree_lang::Options;
use bpfree_par::timings::timed;

use crate::experiments;
use crate::sink::{Sink, VecSink};

/// One registered experiment — a table or figure of the paper (or one
/// of our extension studies), reproducible on demand.
///
/// Implementations hold no state; everything they need comes from the
/// [`Engine`] they are handed, and everything they produce goes through
/// the [`Sink`]. The bytes written to [`Sink::out`] are the experiment's
/// contract: they must not depend on `--jobs`, the cache, a mounted
/// image or the interpreter tier. Progress and diagnostics go to
/// stderr, never the sink.
pub trait Experiment: Sync {
    /// The registry name (what `bpfree exp run` takes).
    fn name(&self) -> &'static str;

    /// One-line summary for `bpfree exp list`.
    fn description(&self) -> &'static str;

    /// The paper table/figure this reproduces.
    fn paper_ref(&self) -> &'static str;

    /// Benchmarks whose replayable branch trace this experiment
    /// records. The runner traces these before any experiment runs,
    /// so an earlier plain profile of the same benchmark never forces a
    /// second interpreter pass for the trace.
    fn traced(&self) -> &'static [&'static str] {
        &[]
    }

    /// Regenerates the experiment, writing its report to `sink`.
    fn run(&self, engine: &Engine, sink: &mut dyn Sink) -> io::Result<()>;
}

/// Every registered experiment, in the paper's presentation order
/// (tables, then graphs, then the extension studies).
pub fn all() -> &'static [&'static dyn Experiment] {
    experiments::REGISTRY
}

/// Looks up an experiment by its registry name.
pub fn by_name(name: &str) -> Option<&'static dyn Experiment> {
    all().iter().copied().find(|e| e.name() == name)
}

/// The registered name closest to `name` (case-insensitive Levenshtein
/// distance ≤ 3) — what `bpfree exp run` suggests on a typo.
pub fn suggest(name: &str) -> Option<&'static str> {
    all()
        .iter()
        .map(|e| (edit_distance(name, e.name()), e.name()))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 3)
        .map(|(_, n)| n)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_ascii_lowercase().chars().collect();
    let b: Vec<char> = b.to_ascii_lowercase().chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Runs `exps` against one shared engine as one [`bpfree_par::Plan`]
/// on the shared pool, bracketing each report with
/// [`Sink::begin`]/[`Sink::end`]. With `progress`, a one-line banner per
/// experiment goes to stderr (stdout stays pure experiment output).
///
/// Each benchmark some experiment traces ([`Experiment::traced`])
/// contributes its warm-up chain (datasets → compile → decode → trace,
/// via [`Engine::plan_warmup`]); each experiment becomes a node
/// depending on **every** trace node, buffering its report into a
/// [`VecSink`]. Tracing shares its single interpreter pass with the
/// edge profile, so the blanket dependency keeps every
/// `(benchmark, dataset)` at one pass for the whole batch: an
/// experiment that merely *runs* a traced benchmark would otherwise
/// race the trace node and pay a duplicate interpreter pass. Warm-up
/// chains still overlap each other, and so do the experiments once the
/// traces are in. At `--jobs 1` the plan runs its nodes serially in
/// insertion order: all traces first, then each experiment in turn.
///
/// Determinism: the plan orders *scheduling only*. Every experiment's
/// bytes are buffered, then emitted through `sink` in the order of
/// `exps` after the graph drains, so the output is byte-identical at
/// any `--jobs`. The measured per-experiment wall-clock is forwarded
/// with [`Sink::note_millis`] (the begin/end bracket happens long after
/// the work).
pub fn run_experiments(
    exps: &[&'static dyn Experiment],
    engine: &Engine,
    sink: &mut dyn Sink,
    progress: bool,
) -> io::Result<()> {
    let traced: BTreeSet<&'static str> = exps.iter().flat_map(|e| e.traced()).copied().collect();
    let benches: Vec<bpfree_suite::Benchmark> = traced
        .iter()
        .map(|n| bpfree_suite::by_name(n).unwrap_or_else(|| panic!("unknown benchmark {n}")))
        .collect();
    type Slot = Mutex<Option<(io::Result<Vec<u8>>, u64)>>;
    let slots: Vec<Slot> = exps.iter().map(|_| Mutex::new(None)).collect();
    let mut plan = bpfree_par::Plan::new();
    let trace_nodes: Vec<bpfree_par::NodeId> = benches
        .iter()
        .map(|b| engine.plan_warmup(&mut plan, b, Options::default(), true))
        .collect();
    for (exp, slot) in exps.iter().zip(&slots) {
        let exp = *exp;
        plan.add(&trace_nodes, move || {
            if progress {
                eprintln!("[bpfree] running {} ({})", exp.name(), exp.paper_ref());
            }
            let start = Instant::now();
            let result = timed(
                "experiment",
                || exp.name().to_string(),
                || {
                    let mut buf = VecSink::new();
                    exp.run(engine, &mut buf).map(|()| buf.take())
                },
            );
            let millis = start.elapsed().as_millis() as u64;
            *slot.lock().expect("experiment slot poisoned") = Some((result, millis));
        });
    }
    plan.run();
    for (exp, slot) in exps.iter().zip(&slots) {
        let (result, millis) = slot
            .lock()
            .expect("experiment slot poisoned")
            .take()
            .expect("every experiment node ran");
        sink.begin(*exp)?;
        sink.out().write_all(&result?)?;
        sink.note_millis(millis);
        sink.end(*exp)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let names: Vec<&str> = all().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 19, "one experiment per paper table or figure");
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are unique");
        for n in ["table1", "table7", "graph1", "graphs4_11", "summary_json"] {
            assert!(by_name(n).is_some(), "{n} registered");
        }
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn suggestions_catch_typos() {
        assert_eq!(suggest("tabel1"), Some("table1"));
        assert_eq!(suggest("graph_13"), Some("graph13"));
        assert_eq!(suggest("sumary-json"), Some("summary_json"));
        assert_eq!(suggest("zzzzzzzzzzzz"), None);
    }

    #[test]
    fn metadata_is_filled_in() {
        for e in all() {
            assert!(!e.description().is_empty(), "{}", e.name());
            assert!(!e.paper_ref().is_empty(), "{}", e.name());
        }
    }
}
