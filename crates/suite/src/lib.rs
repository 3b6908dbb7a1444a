//! The benchmark suite: 23 Cmm programs mirroring the roster of the
//! paper's Table 1.
//!
//! The paper measured SPEC89 programs plus assorted C utilities on a
//! DECstation. Those binaries are unavailable, so each benchmark here is
//! a Cmm program *of the same control-flow character*: the
//! pointer-chasing interpreters and compilers (`xlisp`, `gcc`, `lcc`,
//! `congress`, `qpt`), the text scanners (`grep`, `awk`, `rn`), the
//! bit-twiddling minimisers (`espresso`, `eqntott`, `compress`), the
//! searchers (`poly`, `addalg`), and the Fortran floating-point codes
//! (`tomcatv`, `matrix300`, `spice2g6`, `doduc`, `fpppp`, `dnasa7`,
//! `sgefat`, `dcg`, `costScale`, `ghostview` being the X previewer on
//! the C side). What matters for reproducing the paper is the *dynamic
//! branch behaviour* each workload induces — mostly-non-null pointers,
//! rarely-taken error paths, convergence loops, max-finding sweeps — and
//! each program is written to exercise exactly those idioms.
//!
//! Every benchmark ships at least two datasets (seeded, deterministic)
//! so the paper's Section 7 cross-dataset experiment can run.
//!
//! # Example
//!
//! ```
//! let b = bpfree_suite::by_name("tomcatv").unwrap();
//! let program = b.compile().unwrap();
//! let (profile, result) = b.profile(&program, 0).unwrap();
//! assert!(profile.total_branches() > 0);
//! assert!(result.instructions > 0);
//! ```

#![forbid(unsafe_code)]

mod datasets;
mod registry;

pub use registry::{all, by_name, Benchmark, Lang};

use bpfree_ir::{GlobalValues, Program};
use bpfree_lang::CompileError;
use bpfree_sim::{
    BytecodeProgram, EdgeProfile, EdgeProfiler, RunResult, SimConfig, SimError, Simulator,
};

/// One input set for a benchmark (the paper ran several per program).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short label, e.g. `"ref"` or `"alt1"`.
    pub name: String,
    /// The global values to poke before running.
    pub values: GlobalValues,
}

/// Errors from compiling or running a benchmark.
#[derive(Debug)]
pub enum SuiteError {
    Compile(CompileError),
    Run(SimError),
    NoSuchDataset {
        benchmark: &'static str,
        index: usize,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Compile(e) => write!(f, "compile error: {e}"),
            SuiteError::Run(e) => write!(f, "runtime error: {e}"),
            SuiteError::NoSuchDataset { benchmark, index } => {
                write!(f, "benchmark `{benchmark}` has no dataset {index}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<CompileError> for SuiteError {
    fn from(e: CompileError) -> SuiteError {
        SuiteError::Compile(e)
    }
}

impl From<SimError> for SuiteError {
    fn from(e: SimError) -> SuiteError {
        SuiteError::Run(e)
    }
}

impl Benchmark {
    /// Compiles the benchmark's Cmm source.
    ///
    /// # Errors
    ///
    /// Returns the compiler diagnostic on malformed source (a bug in the
    /// suite).
    pub fn compile(&self) -> Result<Program, SuiteError> {
        Ok(bpfree_lang::compile(self.source)?)
    }

    /// The benchmark's datasets (at least two, deterministic).
    pub fn datasets(&self) -> Vec<Dataset> {
        (self.make_datasets)()
    }

    /// Runs dataset `index` under an edge profiler.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range dataset index or a runtime error.
    pub fn profile(
        &self,
        program: &Program,
        index: usize,
    ) -> Result<(EdgeProfile, RunResult), SuiteError> {
        let datasets = self.datasets();
        let dataset = datasets.get(index).ok_or(SuiteError::NoSuchDataset {
            benchmark: self.name,
            index,
        })?;
        let mut profiler = EdgeProfiler::new();
        let result = self.run_with(program, dataset, &mut profiler)?;
        Ok((profiler.into_profile(), result))
    }

    /// Runs a dataset under an arbitrary observer (IPBC analysis uses
    /// this).
    ///
    /// # Errors
    ///
    /// Fails on a runtime error (fuel, memory, bad address).
    pub fn run_with<O: bpfree_sim::ExecObserver>(
        &self,
        program: &Program,
        dataset: &Dataset,
        observer: &mut O,
    ) -> Result<RunResult, SuiteError> {
        self.run_with_config(program, dataset, SimConfig::default(), observer)
    }

    /// [`Benchmark::run_with`] with explicit simulator limits / tier —
    /// the differential tests run every benchmark under both
    /// [`bpfree_sim::InterpTier`]s through this.
    ///
    /// # Errors
    ///
    /// Fails on a runtime error (fuel, memory, bad address).
    pub fn run_with_config<O: bpfree_sim::ExecObserver>(
        &self,
        program: &Program,
        dataset: &Dataset,
        config: SimConfig,
        observer: &mut O,
    ) -> Result<RunResult, SuiteError> {
        let mut sim = Simulator::with_config(program, config);
        sim.set_globals(&dataset.values)?;
        Ok(sim.run(observer)?)
    }

    /// [`Benchmark::run_with`] reusing a pre-compiled [`BytecodeProgram`]
    /// of the same `program`, so callers running many datasets (the
    /// artifact engine) pay the decode cost once.
    ///
    /// # Errors
    ///
    /// Fails on a runtime error (fuel, memory, bad address).
    pub fn run_decoded<O: bpfree_sim::ExecObserver>(
        &self,
        program: &Program,
        decoded: &BytecodeProgram,
        dataset: &Dataset,
        observer: &mut O,
    ) -> Result<RunResult, SuiteError> {
        let mut sim = Simulator::with_decoded(program, decoded);
        sim.set_globals(&dataset.values)?;
        Ok(sim.run(observer)?)
    }
}
