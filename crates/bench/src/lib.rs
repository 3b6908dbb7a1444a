//! Shared harness for the paper-reproduction experiments.
//!
//! Every experiment lives in the [`registry`]: a named
//! [`registry::Experiment`] value that queries artifacts from a shared
//! [`bpfree_engine::Engine`] and writes its report to a
//! [`std::io::Write`]r. `bpfree exp run NAME...` and `bpfree exp all`
//! are the one entry point: they run any subset in one process, so each
//! `(benchmark, Options, dataset)` triple is compiled/simulated/traced
//! at most once for all tables and graphs combined.
//!
//! The heavy lifting stays in [`bpfree_engine`]: experiments query
//! typed artifacts (compiled programs, heuristic tables, edge profiles,
//! branch traces) that the engine computes at most once per process and
//! persists through the on-disk cache. This crate bundles the
//! per-benchmark artifacts the experiments iterate over ([`BenchData`])
//! plus small formatting helpers so they print rows shaped like the
//! paper's.
//!
//! Each experiment declares what it reads ([`registry::Experiment::needs`]
//! and [`registry::Experiment::traced`]); the batch runner has the
//! engine compute the union in one parallel map before any experiment
//! renders, and a warm run computes nothing at all. The caller builds
//! the engine, which fixes the cache, and sets the worker count with
//! [`bpfree_par::set_jobs`]; the `bpfree` CLI does both from the flags
//! each command takes.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod registry;
pub mod sink;

use std::sync::Arc;

use bpfree_core::{
    BranchClassifier, CombinedPredictor, HeuristicKind, HeuristicTable, DEFAULT_SEED,
};
use bpfree_engine::Engine;
use bpfree_ir::Program;
use bpfree_lang::Options;
use bpfree_sim::{BranchTrace, EdgeProfile, RunResult};
use bpfree_suite::{Benchmark, Dataset};

/// Everything the experiments need about one benchmark, precomputed on
/// the reference dataset (index 0). The `Arc` fields deref-coerce, so
/// call sites pass `&d.program` etc. exactly as before the engine
/// refactor.
pub struct BenchData {
    pub bench: Benchmark,
    pub program: Arc<Program>,
    pub classifier: Arc<BranchClassifier>,
    pub table: Arc<HeuristicTable>,
    pub profile: Arc<EdgeProfile>,
    pub run: RunResult,
}

impl BenchData {
    /// Loads one benchmark through `engine`: compile, analyze, build
    /// the heuristic table, and profile the reference dataset — each at
    /// most once per process, and not at all when the engine's cache
    /// image holds a current entry.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark fails to compile or run — suite bugs are
    /// fatal for experiments.
    pub fn load(engine: &Engine, bench: Benchmark) -> BenchData {
        let opt = Options::default();
        let compiled = engine.compiled(&bench, opt);
        let run = engine.run(&bench, opt, 0);
        BenchData {
            bench,
            program: compiled.program,
            classifier: compiled.classifier,
            table: compiled.table,
            profile: run.profile,
            run: run.result,
        }
    }

    /// The paper's combined predictor (paper heuristic order, default
    /// seed), built from the engine's heuristic table rather than a
    /// fresh one.
    pub fn combined_predictor(&self) -> CombinedPredictor {
        CombinedPredictor::from_table(
            &self.program,
            &self.classifier,
            &self.table,
            &HeuristicKind::paper_order(),
            DEFAULT_SEED,
        )
    }

    /// The replayable branch trace of the reference dataset. Recording
    /// shares the single interpreter pass that produced [`Self::profile`]
    /// (or replays from the cache), so trace consumers cost no extra
    /// simulation.
    pub fn trace(&self, engine: &Engine) -> Arc<BranchTrace> {
        engine.trace(&self.bench, Options::default(), 0)
    }

    /// Profiles an alternate dataset of this benchmark (memoized and
    /// cached like every engine artifact).
    ///
    /// # Panics
    ///
    /// Panics on an invalid index or a runtime failure.
    pub fn profile_dataset(&self, engine: &Engine, index: usize) -> (Arc<EdgeProfile>, RunResult) {
        let bundle = engine
            .try_run(&self.bench, Options::default(), index)
            .unwrap_or_else(|e| panic!("{} dataset {index}: {e}", self.bench.name));
        (bundle.profile, bundle.result)
    }

    /// The benchmark's datasets.
    pub fn datasets(&self, engine: &Engine) -> Arc<Vec<Dataset>> {
        engine.datasets(&self.bench)
    }
}

/// Loads the whole suite (23 benchmarks) on the reference datasets, in
/// the registry's order. Under [`registry::run_experiments`] every
/// artifact is already computed; called on its own, it computes them
/// one benchmark at a time.
pub fn load_suite_on(engine: &Engine) -> Vec<BenchData> {
    bpfree_suite::all()
        .into_iter()
        .map(|b| BenchData::load(engine, b))
        .collect()
}

/// The ordering-study roster: the whole suite minus matrix300 (the
/// paper excludes it from Graph 1 and the subset studies), in registry
/// order. Every experiment that consumes
/// [`bpfree_engine::Engine::ordering_study`] passes this same roster,
/// so they all share one memoized (and one cached) rate matrix.
pub fn ordering_roster() -> Vec<Benchmark> {
    bpfree_suite::all()
        .into_iter()
        .filter(|b| b.name != "matrix300")
        .collect()
}

/// Formats a fraction as a whole percentage, paper style.
pub fn pct(x: f64) -> String {
    format!("{:.0}", 100.0 * x)
}

/// Formats the paper's `C/D` pair from two rates.
pub fn c_over_d(c: f64, d: f64) -> String {
    format!("{}/{}", pct(c), pct(d))
}

/// Mean and (population) standard deviation of a slice.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_cd_format_like_the_paper() {
        assert_eq!(pct(0.26), "26");
        assert_eq!(c_over_d(0.26, 0.10), "26/10");
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
