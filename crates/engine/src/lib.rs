//! The demand-driven experiment engine.
//!
//! Every experiment binary in this workspace consumes the same handful
//! of derived artifacts — compiled programs, branch classifications,
//! heuristic tables, edge profiles, run results, branch traces. PR 1
//! computed them eagerly per *benchmark*; this crate turns them into a
//! typed artifact graph that experiments query on demand:
//!
//! * [`Engine::program`] — the compiled [`Program`] of a
//!   `(benchmark, Options)` pair;
//! * [`Engine::predictions`] — the derived prediction artifacts of that
//!   program: branch classifier + heuristic table, a first-class
//!   artifact cached independently of the program so warm runs restore
//!   both from dense rows without a single CFG analysis or heuristic
//!   evaluation ([`Engine::analyses`] counts real analysis passes the
//!   way [`Engine::simulations`] counts interpreter passes);
//! * [`Engine::compiled`] — the two assembled into one [`Compiled`]
//!   bundle;
//! * [`Engine::run`] — edge profile + [`RunResult`] for a
//!   `(benchmark, Options, dataset)` triple;
//! * [`Engine::trace`] — a replayable [`BranchTrace`] of the same
//!   triple, for analyses (IPBC) that need the event stream *after*
//!   training on the run's own profile;
//! * [`Engine::ordering_study`] — the 5040-order miss-rate matrix of a
//!   whole benchmark roster, condensed per benchmark into
//!   [`BenchOrderData`] groups (see [`Engine::order_data`]) and
//!   persisted as a roster-level `ordering` cache entry, so a warm
//!   process restores the matrix without evaluating a single ordering
//!   ([`Engine::orderings`] counts real matrix builds the way
//!   [`Engine::analyses`] counts analysis passes).
//!
//! Each artifact is computed **at most once per process** (a
//! `Mutex<HashMap<Key, Arc<OnceLock<V>>>>` memo: the map lock is held
//! only to fetch the slot, so concurrent queries for different keys
//! compute in parallel while duplicate queries block on the same slot),
//! and persisted in one file, the [`bpfree_cache`] image, so later
//! processes skip the work entirely: [`Engine::new`] mounts it and
//! [`Engine::persist`] writes it back. Warm and `--image` runs share
//! one path, and the compute functions behind the memos never touch
//! the disk.
//!
//! # One interpreter pass per (benchmark, dataset)
//!
//! Simulation dominates everything else, so the engine never runs the
//! interpreter twice over the same input. When a trace is requested it
//! fans an [`EdgeProfiler`] and a [`TraceRecorder`] out of a *single*
//! pass ([`bpfree_sim::Pair`]) and fills the run memo as a side
//! effect; a cached trace entry rebuilds the run bundle by replay
//! without simulating at all. [`Engine::simulations`] counts actual
//! interpreter passes, so experiments (and tests) can prove the
//! single-pass property: a cold `graphs4_11` performs exactly one
//! simulation per (benchmark, dataset), and a warm one performs zero.
//!
//! # Example
//!
//! ```
//! use bpfree_engine::{Engine, EngineConfig};
//! use bpfree_lang::Options;
//!
//! let engine = Engine::new(EngineConfig::no_cache());
//! let bench = bpfree_suite::by_name("grep").unwrap();
//! let compiled = engine.compiled(&bench, Options::default());
//! let bundle = engine.run(&bench, Options::default(), 0);
//! assert!(bundle.profile.total_branches() > 0);
//! // A second query is a memo hit: still exactly one simulation and
//! // one analysis pass.
//! let again = engine.run(&bench, Options::default(), 0);
//! assert_eq!(again.result, bundle.result);
//! assert_eq!(engine.simulations(), 1);
//! assert_eq!(engine.analyses(), 1);
//! assert!(compiled.table.rows().count() > 0);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bpfree_cache::image::{Artifact, ImageBuilder, ImageEntry, SectionKind, SuiteImage};
use bpfree_core::ordering::{BenchOrderData, OrderingStudy};
use bpfree_core::{BranchClassifier, HeuristicTable, DEFAULT_SEED};
use bpfree_ir::{BranchRef, Program};
use bpfree_lang::Options;
use bpfree_par::timings::timed;
use bpfree_sim::{
    BranchTrace, BytecodeProgram, EdgeProfile, EdgeProfiler, InterpTier, Pair, RunResult,
    SimConfig, TraceRecorder,
};
use bpfree_suite::{Benchmark, Dataset, SuiteError};

/// Engine configuration. [`Default`] honours the `BPFREE_NO_CACHE` and
/// `BPFREE_CACHE_DIR` environment variables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Start from the cache image and let [`Engine::persist`] write it
    /// back.
    pub use_cache: bool,
    /// Where the cache lives: the image is `cache_dir/suite.img`.
    pub cache_dir: PathBuf,
    /// Print cache hit/miss lines to stderr (never stdout — experiment
    /// output stays byte-identical either way).
    pub verbose: bool,
    /// Which interpreter tier simulations run under. Every `bpfree`
    /// command uses the default, [`InterpTier::Bytecode`];
    /// [`InterpTier::Tree`] is the differential-testing reference, and
    /// both give the same artifacts.
    pub tier: InterpTier,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            use_cache: !bpfree_cache::disabled_by_env(),
            cache_dir: bpfree_cache::default_dir(),
            verbose: true,
            tier: InterpTier::default(),
        }
    }
}

impl EngineConfig {
    /// In-memory memoization only: no disk reads or writes, no stderr
    /// chatter. What tests and examples usually want.
    pub fn no_cache() -> EngineConfig {
        EngineConfig {
            use_cache: false,
            cache_dir: bpfree_cache::default_dir(),
            verbose: false,
            tier: InterpTier::default(),
        }
    }
}

/// The compile-time artifacts of one `(benchmark, Options)` pair.
/// Cheap to clone (all `Arc`s). Assembled from two independently
/// memoized (and independently cached) artifacts: the program, and the
/// [`Predicted`] pair derived from it.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub program: Arc<Program>,
    pub classifier: Arc<BranchClassifier>,
    pub table: Arc<HeuristicTable>,
}

/// The prediction artifacts of one `(benchmark, Options)` pair: the
/// branch classifier and the heuristic table. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Predicted {
    pub classifier: Arc<BranchClassifier>,
    pub table: Arc<HeuristicTable>,
}

/// The artifacts of one simulated `(benchmark, Options, dataset)`
/// triple. Cheap to clone.
#[derive(Debug, Clone)]
pub struct RunBundle {
    pub profile: Arc<EdgeProfile>,
    pub result: RunResult,
}

type CompileKey = (&'static str, Options);
type RunKey = (&'static str, Options, usize);

/// A compute-once memo: the map lock is held only long enough to fetch
/// the slot, so distinct keys compute concurrently while duplicate
/// requests block on the slot's `OnceLock`.
struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Memo<K, V> {
        Memo {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn slot(&self, key: K) -> Arc<OnceLock<V>> {
        self.slots
            .lock()
            .expect("memo lock poisoned")
            .entry(key)
            .or_default()
            .clone()
    }

    fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        self.slot(key).get_or_init(init).clone()
    }

    /// Fills the slot if nothing beat us to it (used when one
    /// computation produces a sibling artifact as a by-product).
    fn offer(&self, key: K, value: V) {
        let _ = self.slot(key).set(value);
    }

    /// The value already in the slot, without computing anything.
    fn peek(&self, key: &K) -> Option<V> {
        self.slots
            .lock()
            .expect("memo lock poisoned")
            .get(key)
            .and_then(|slot| slot.get().cloned())
    }

    /// A snapshot of every filled slot — what [`Engine::export_image`]
    /// packs.
    fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        self.slots
            .lock()
            .expect("memo lock poisoned")
            .iter()
            .filter_map(|(k, slot)| slot.get().map(|v| (k.clone(), v.clone())))
            .collect()
    }
}

/// The artifact graph. See the crate docs; usually accessed through
/// [`install`]/[`global`].
pub struct Engine {
    config: EngineConfig,
    programs: Memo<CompileKey, Arc<Program>>,
    predictions: Memo<CompileKey, Predicted>,
    decoded: Memo<CompileKey, Arc<BytecodeProgram>>,
    runs: Memo<RunKey, RunBundle>,
    traces: Memo<RunKey, Arc<BranchTrace>>,
    datasets: Memo<&'static str, Arc<Vec<Dataset>>>,
    order_data: Memo<CompileKey, Arc<BenchOrderData>>,
    ordering_studies: Memo<(String, Options), Arc<OrderingStudy>>,
    simulations: AtomicU64,
    analyses: AtomicU64,
    orderings: AtomicU64,
    compiles: AtomicU64,
    decodes: AtomicU64,
    trace_records: AtomicU64,
}

impl Engine {
    /// A fresh engine. With [`EngineConfig::use_cache`] it starts from
    /// the cache image, `<cache_dir>/suite.img`: every entry that
    /// revalidates against the live suite is mounted into the memos
    /// (see [`Engine::mount_image`]), exactly as `--image` would. A
    /// missing, truncated, corrupt or older-version image counts as an
    /// empty cache, with one verbose note. [`Engine::persist`] writes
    /// the file back.
    pub fn new(config: EngineConfig) -> Engine {
        let engine = Engine {
            config,
            programs: Memo::new(),
            predictions: Memo::new(),
            decoded: Memo::new(),
            runs: Memo::new(),
            traces: Memo::new(),
            datasets: Memo::new(),
            order_data: Memo::new(),
            ordering_studies: Memo::new(),
            simulations: AtomicU64::new(0),
            analyses: AtomicU64::new(0),
            orderings: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            decodes: AtomicU64::new(0),
            trace_records: AtomicU64::new(0),
        };
        if engine.config.use_cache {
            let path = bpfree_cache::image_path(&engine.config.cache_dir);
            match engine.mount_image(&path) {
                Ok(report) => engine.note(
                    "mount",
                    format_args!(
                        "cache {}: {} entries ({} skipped)",
                        path.display(),
                        report.mounted,
                        report.skipped
                    ),
                ),
                Err(e) => engine.note("empty", format_args!("cache {}: {e}", path.display())),
            }
        }
        engine
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// How many interpreter passes this engine has actually executed —
    /// the currency every other artifact is bought with. Memo and cache
    /// hits don't count; the [`Pair`] fan-out means one pass can serve
    /// profile, run result, and trace together.
    pub fn simulations(&self) -> u64 {
        self.simulations.load(Ordering::Relaxed)
    }

    /// How many classifier + heuristic-table computations this engine
    /// has actually executed. Memo and cache hits don't count: a warm
    /// run that restores every prediction artifact from disk reports
    /// zero, which is exactly what the CI parity job asserts.
    pub fn analyses(&self) -> u64 {
        self.analyses.load(Ordering::Relaxed)
    }

    /// How many 5040-order rate matrices this engine has actually
    /// computed. Memo and cache hits don't count: a warm run that
    /// restores the roster's `ordering` entry from disk reports zero,
    /// which is exactly what the CI parity job asserts.
    pub fn orderings(&self) -> u64 {
        self.orderings.load(Ordering::Relaxed)
    }

    /// How many source-to-IR compilations this engine has actually
    /// executed. Memo, cache, and image hits don't count.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// How many bytecode-decode passes this engine has actually
    /// executed. A program is decoded on its first simulation and the
    /// result lives only in this process, so a run served from the
    /// image decodes nothing.
    pub fn decodes(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// How many branch traces this engine has actually *recorded* (via
    /// an instrumented interpreter pass). Memo, cache, and image hits
    /// don't count.
    pub fn trace_records(&self) -> u64 {
        self.trace_records.load(Ordering::Relaxed)
    }

    /// The benchmark's datasets, generated once per process.
    pub fn datasets(&self, bench: &Benchmark) -> Arc<Vec<Dataset>> {
        self.datasets.get_or_init(bench.name, || {
            timed(
                "datasets",
                || bench.name.to_string(),
                || Arc::new(bench.datasets()),
            )
        })
    }

    /// The compiled program, branch classifier, and heuristic table for
    /// `bench` under `opt` — [`Engine::program`] and
    /// [`Engine::predictions`] assembled into one bundle.
    ///
    /// # Panics
    ///
    /// If the benchmark source fails to compile (a suite bug).
    pub fn compiled(&self, bench: &Benchmark, opt: Options) -> Compiled {
        let program = self.program(bench, opt);
        let Predicted { classifier, table } = self.predictions(bench, opt);
        Compiled {
            program,
            classifier,
            table,
        }
    }

    /// The compiled program for `bench` under `opt`.
    ///
    /// # Panics
    ///
    /// If the benchmark source fails to compile (a suite bug).
    pub fn program(&self, bench: &Benchmark, opt: Options) -> Arc<Program> {
        self.programs.get_or_init((bench.name, opt), || {
            timed(
                "compile",
                || format!("{} [{}]", bench.name, opt.fingerprint()),
                || self.build_program(bench, opt),
            )
        })
    }

    /// The prediction artifacts of `bench` under `opt`: branch
    /// classifier + heuristic table, derived from [`Engine::program`]
    /// and memoized (and disk-cached) as their own first-class
    /// artifact. A cache hit restores both from dense per-branch rows
    /// and performs zero CFG analyses ([`Engine::analyses`] stays
    /// flat).
    pub fn predictions(&self, bench: &Benchmark, opt: Options) -> Predicted {
        self.predictions.get_or_init((bench.name, opt), || {
            timed(
                "analyze",
                || format!("{} [{}]", bench.name, opt.fingerprint()),
                || self.build_predictions(bench, opt),
            )
        })
    }

    /// Shorthand for [`Engine::predictions`]`.classifier`.
    pub fn classifier(&self, bench: &Benchmark, opt: Options) -> Arc<BranchClassifier> {
        self.predictions(bench, opt).classifier
    }

    /// Shorthand for [`Engine::predictions`]`.table`.
    pub fn table(&self, bench: &Benchmark, opt: Options) -> Arc<HeuristicTable> {
        self.predictions(bench, opt).table
    }

    /// The flat-bytecode lowering of `bench` under `opt`, decoded once
    /// per process and never persisted. Decoding is pure (no execution
    /// state), so one [`BytecodeProgram`] serves every dataset's run and
    /// trace of the `(benchmark, Options)` pair.
    pub fn decoded(&self, bench: &Benchmark, opt: Options) -> Arc<BytecodeProgram> {
        self.decoded.get_or_init((bench.name, opt), || {
            timed(
                "decode",
                || format!("{} [{}]", bench.name, opt.fingerprint()),
                || {
                    self.decodes.fetch_add(1, Ordering::Relaxed);
                    Arc::new(BytecodeProgram::compile(&self.program(bench, opt)))
                },
            )
        })
    }

    /// The edge profile and run result of dataset `index`.
    ///
    /// # Errors
    ///
    /// [`SuiteError::NoSuchDataset`] on an out-of-range index.
    ///
    /// # Panics
    ///
    /// If the simulation itself fails (a suite bug).
    pub fn try_run(
        &self,
        bench: &Benchmark,
        opt: Options,
        index: usize,
    ) -> Result<RunBundle, SuiteError> {
        let datasets = self.datasets(bench);
        let dataset = datasets.get(index).ok_or(SuiteError::NoSuchDataset {
            benchmark: bench.name,
            index,
        })?;
        Ok(self.runs.get_or_init((bench.name, opt, index), || {
            timed(
                "run",
                || format!("{}/{}", bench.name, dataset.name),
                || self.compute_run(bench, opt, index, dataset),
            )
        }))
    }

    /// [`Engine::try_run`], panicking on a bad dataset index.
    pub fn run(&self, bench: &Benchmark, opt: Options, index: usize) -> RunBundle {
        self.try_run(bench, opt, index)
            .unwrap_or_else(|e| panic!("engine run {}[{index}]: {e}", bench.name))
    }

    /// The replayable branch trace of dataset `index`. Recording shares
    /// a single interpreter pass with the edge profile, and fills the
    /// run memo as a by-product — request the trace *before* (or
    /// instead of) [`Engine::run`] and the run bundle costs nothing
    /// extra.
    ///
    /// # Errors
    ///
    /// [`SuiteError::NoSuchDataset`] on an out-of-range index.
    pub fn try_trace(
        &self,
        bench: &Benchmark,
        opt: Options,
        index: usize,
    ) -> Result<Arc<BranchTrace>, SuiteError> {
        let datasets = self.datasets(bench);
        let dataset = datasets.get(index).ok_or(SuiteError::NoSuchDataset {
            benchmark: bench.name,
            index,
        })?;
        Ok(self.traces.get_or_init((bench.name, opt, index), || {
            timed(
                "trace",
                || format!("{}/{}", bench.name, dataset.name),
                || self.compute_trace(bench, opt, index, dataset),
            )
        }))
    }

    /// [`Engine::try_trace`], panicking on a bad dataset index.
    pub fn trace(&self, bench: &Benchmark, opt: Options, index: usize) -> Arc<BranchTrace> {
        self.try_trace(bench, opt, index)
            .unwrap_or_else(|e| panic!("engine trace {}[{index}]: {e}", bench.name))
    }

    /// The condensed ordering rows of `bench` under `opt`: its non-loop
    /// branches grouped by (applies, predicts-taken, default) signature
    /// against dataset 0's edge profile — the per-benchmark input every
    /// ordering study consumes. Memoized per `(benchmark, Options)`;
    /// the underlying prediction and run artifacts come from their own
    /// (cached) queries, so a warm condense performs no analysis or
    /// interpreter pass.
    pub fn order_data(&self, bench: &Benchmark, opt: Options) -> Arc<BenchOrderData> {
        self.order_data.get_or_init((bench.name, opt), || {
            let Predicted { classifier, table } = self.predictions(bench, opt);
            let run = self.run(bench, opt, 0);
            Arc::new(BenchOrderData::build(
                bench.name,
                &table,
                &run.profile,
                &classifier,
                DEFAULT_SEED,
            ))
        })
    }

    /// The [`OrderingStudy`] of a whole roster: condensed
    /// [`BenchOrderData`] per benchmark plus the 5040 × n miss-rate
    /// matrix. Memoized per (roster, Options) and persisted as a
    /// roster-level `ordering` cache entry keyed by every member's
    /// (name, source, reference dataset), the options fingerprint, and
    /// the Default-predictor seed. A cache hit revalidates the stored
    /// groups against the live condensed data and restores the matrix
    /// bit-for-bit without evaluating a single ordering; any mismatch
    /// falls through to a clean recompute ([`Engine::orderings`] counts
    /// the real matrix builds).
    pub fn ordering_study(&self, benches: &[&Benchmark], opt: Options) -> Arc<OrderingStudy> {
        let roster: Vec<&str> = benches.iter().map(|b| b.name).collect();
        // Warm every member's prediction + run artifacts in one
        // dependency-aware plan BEFORE taking the memo slot: the memo
        // init must stay wait-free. A parallel wait inside it would
        // let the pool's help-while-waiting scope steal a queued task
        // (e.g. another experiment) that re-enters this same slot on
        // the same thread — a permanent self-deadlock. Prefetch is
        // idempotent, so re-entrant callers racing here only repeat
        // cheap memo hits.
        self.prefetch(benches, opt, &[]);
        self.ordering_studies
            .get_or_init((roster.join(","), opt), || {
                timed(
                    "ordering",
                    || format!("{} benches [{}]", benches.len(), opt.fingerprint()),
                    || self.build_ordering(benches, opt),
                )
            })
    }

    /// Warms the memos for a whole roster: compile artifacts plus
    /// dataset 0's run bundle for every benchmark, and a branch trace
    /// too for those named in `traced` (still one interpreter pass each
    /// — the trace request comes first and the run bundle falls out of
    /// it).
    ///
    /// The work runs as a dependency-aware [`bpfree_par::Plan`] on the
    /// shared pool: per benchmark, a dataset-generation node and a
    /// compile node feed a simulate node. Independent benchmarks'
    /// compiles and simulations overlap freely instead of running
    /// level-by-level, and a long simulation no longer blocks another
    /// benchmark's compile from starting.
    pub fn prefetch(&self, benches: &[&Benchmark], opt: Options, traced: &[&str]) {
        let mut plan = bpfree_par::Plan::new();
        for &bench in benches {
            self.plan_warmup(&mut plan, bench, opt, traced.contains(&bench.name));
        }
        plan.run();
    }

    /// Adds this benchmark's warm-up chain (datasets ∥ compile →
    /// analyze → simulate dataset 0) to `plan`, returning the final
    /// simulate node so batch callers can hang dependents off it. The
    /// simulate node waits for the analysis, guaranteeing every
    /// `Compiled` artifact is warm when the plan drains; the simulation
    /// itself decodes the program on first use. The nodes only touch
    /// memos, so a plan node that races a direct query for the same
    /// artifact still computes it exactly once.
    pub fn plan_warmup<'e>(
        &'e self,
        plan: &mut bpfree_par::Plan<'e>,
        bench: &'e Benchmark,
        opt: Options,
        traced: bool,
    ) -> bpfree_par::NodeId {
        let datasets = plan.add(&[], move || {
            let _ = self.datasets(bench);
        });
        let compiled = plan.add(&[], move || {
            let _ = self.program(bench, opt);
        });
        let analyzed = plan.add(&[compiled], move || {
            let _ = self.predictions(bench, opt);
        });
        plan.add(&[datasets, analyzed], move || {
            if traced {
                let _ = self.trace(bench, opt, 0);
            }
            let _ = self.run(bench, opt, 0);
        })
    }

    /// One interpreter pass under the configured [`InterpTier`] —
    /// every simulation the engine performs funnels through here. The
    /// bytecode tier decodes the program on its first pass, through the
    /// [`Engine::decoded`] memo.
    fn simulate<O: bpfree_sim::ExecObserver>(
        &self,
        bench: &Benchmark,
        opt: Options,
        program: &Program,
        dataset: &Dataset,
        observer: &mut O,
    ) -> Result<RunResult, SuiteError> {
        self.simulations.fetch_add(1, Ordering::Relaxed);
        match self.config.tier {
            InterpTier::Bytecode => {
                let decoded = self.decoded(bench, opt);
                bench.run_decoded(program, &decoded, dataset, observer)
            }
            InterpTier::Tree => bench.run_with_config(
                program,
                dataset,
                SimConfig {
                    tier: InterpTier::Tree,
                    ..SimConfig::default()
                },
                observer,
            ),
        }
    }

    fn note(&self, outcome: &str, what: std::fmt::Arguments<'_>) {
        if self.config.use_cache && self.config.verbose {
            eprintln!("[bpfree-engine] {outcome} {what}");
        }
    }

    fn build_program(&self, bench: &Benchmark, opt: Options) -> Arc<Program> {
        let fp = opt.fingerprint();
        self.note("miss", format_args!("compile {} [{fp}]", bench.name));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let program = bpfree_lang::compile_with(bench.source, opt)
            .unwrap_or_else(|e| panic!("benchmark `{}` fails to compile: {e}", bench.name));
        Arc::new(program)
    }

    fn build_predictions(&self, bench: &Benchmark, opt: Options) -> Predicted {
        let fp = opt.fingerprint();
        let program = self.program(bench, opt);
        self.note("miss", format_args!("analyze {} [{fp}]", bench.name));
        self.analyses.fetch_add(1, Ordering::Relaxed);
        let classifier = BranchClassifier::analyze(&program);
        let table = HeuristicTable::build(&program, &classifier);
        Predicted {
            classifier: Arc::new(classifier),
            table: Arc::new(table),
        }
    }

    /// Runs inside the `ordering_studies` memo slot, so every step is
    /// strictly serial ([`OrderingStudy::new_serial`], no nested
    /// scopes): see [`Engine::ordering_study`] for why waiting here
    /// could deadlock the pool. The roster was prefetched by the
    /// caller, so the condense below is all memo hits.
    fn build_ordering(&self, benches: &[&Benchmark], opt: Options) -> Arc<OrderingStudy> {
        let fp = opt.fingerprint();
        let live: Vec<BenchOrderData> = benches
            .iter()
            .map(|&b| (*self.order_data(b, opt)).clone())
            .collect();
        self.note(
            "miss",
            format_args!("ordering {} benches [{fp}]", benches.len()),
        );
        self.orderings.fetch_add(1, Ordering::Relaxed);
        Arc::new(OrderingStudy::new_serial(live))
    }

    fn compute_run(
        &self,
        bench: &Benchmark,
        opt: Options,
        index: usize,
        dataset: &Dataset,
    ) -> RunBundle {
        let program = self.program(bench, opt);
        self.note("miss", format_args!("run {}/{}", bench.name, dataset.name));
        let mut profiler = EdgeProfiler::new();
        let result = self
            .simulate(bench, opt, &program, dataset, &mut profiler)
            .unwrap_or_else(|e| panic!("benchmark `{}`[{index}] fails to run: {e}", bench.name));
        RunBundle {
            profile: Arc::new(profiler.into_profile()),
            result,
        }
    }

    fn compute_trace(
        &self,
        bench: &Benchmark,
        opt: Options,
        index: usize,
        dataset: &Dataset,
    ) -> Arc<BranchTrace> {
        let program = self.program(bench, opt);
        self.note(
            "miss",
            format_args!("trace {}/{}", bench.name, dataset.name),
        );
        // One pass, two observers: profile and trace from the same
        // execution.
        self.trace_records.fetch_add(1, Ordering::Relaxed);
        let mut pair = Pair(EdgeProfiler::new(), TraceRecorder::new());
        let result = self
            .simulate(bench, opt, &program, dataset, &mut pair)
            .unwrap_or_else(|e| panic!("benchmark `{}`[{index}] fails to run: {e}", bench.name));
        let Pair(profiler, recorder) = pair;
        self.runs.offer(
            (bench.name, opt, index),
            RunBundle {
                profile: Arc::new(profiler.into_profile()),
                result,
            },
        );
        Arc::new(recorder.into_trace())
    }

    /// Mounts a suite image (see [`bpfree_cache::image`]): one buffered
    /// read, then every entry whose content key revalidates against the
    /// *live* suite (current sources, options, regenerated datasets) is
    /// offered straight into the memos. After mounting a complete
    /// image, every counter on this engine stays at zero through a full
    /// experiment sweep — no compiles, no analyses, no simulations, no
    /// trace recordings, no matrix builds, and so no decodes — and traces
    /// borrow their index sequences from the image buffer (zero decode
    /// allocations). [`Engine::new`] mounts the cache image this way;
    /// `--image` mounts another one.
    ///
    /// Entries that fail revalidation are skipped, not errors: the
    /// engine recomputes them on demand exactly as if they were absent.
    /// A structurally corrupt image (bad magic, checksum, truncation)
    /// is a clean `Err` and mounts nothing.
    ///
    /// Dataset generation during the mount is uncounted (datasets are
    /// process-local inputs, not cached artifacts).
    pub fn mount_image(&self, path: &std::path::Path) -> Result<MountReport, String> {
        let img = SuiteImage::open(path)?;
        let mut report = MountReport {
            mounted: 0,
            skipped: 0,
            bytes: img.total_bytes() as u64,
        };
        // Which (bench, opt) pairs had prediction / reference-run
        // entries mounted: ordering studies validate against live
        // condensed data, so they only mount on top of fully mounted
        // members (otherwise the validation itself would recompute).
        let mut preds = HashSet::new();
        let mut runs0 = HashSet::new();
        for e in img.entries() {
            if self.mount_entry(&img, e, &mut preds, &mut runs0).is_some() {
                report.mounted += 1;
            } else {
                report.skipped += 1;
                if self.config.verbose {
                    eprintln!(
                        "[bpfree-engine] skip image entry {} {} [{}]",
                        e.kind.name(),
                        e.name,
                        e.opt
                    );
                }
            }
        }
        Ok(report)
    }

    /// Mounts one image entry — the one key-and-revalidate routine every
    /// persisted artifact passes through before it is served; `None`
    /// means "skip and recompute on demand", never an error. The
    /// directory is sorted by kind in dependency order (compile →
    /// prediction → run → trace → ordering), so dependents can peek at
    /// what earlier entries mounted.
    fn mount_entry(
        &self,
        img: &SuiteImage,
        e: &ImageEntry,
        preds: &mut HashSet<(&'static str, Options)>,
        runs0: &mut HashSet<(&'static str, Options)>,
    ) -> Option<()> {
        let opt = options_from_fingerprint(&e.opt)?;

        if e.kind == SectionKind::Ordering {
            let art = img.ordering(e)?;
            let roster = art
                .benches
                .iter()
                .map(|bd| {
                    let bench = bpfree_suite::by_name(&bd.name)?;
                    let slot = (bench.name, opt);
                    (preds.contains(&slot) && runs0.contains(&slot)).then_some(bench)
                })
                .collect::<Option<Vec<_>>>()?;
            if self.ordering_key(&roster, opt) != Some(e.key) {
                return None;
            }
            // Validate the stored groups against live condensed data —
            // all memo hits thanks to the member checks above.
            let live: Vec<BenchOrderData> = roster
                .iter()
                .map(|b| (*self.order_data(b, opt)).clone())
                .collect();
            let study = art.instantiate(&live)?;
            let names: Vec<&str> = roster.iter().map(|b| b.name).collect();
            self.ordering_studies
                .offer((names.join(","), opt), Arc::new(study));
            return Some(());
        }

        let bench = bpfree_suite::by_name(&e.name)?;
        let dataset = e.dataset.map(|d| d as usize);
        if self.entry_key(e.kind, &bench, opt, dataset) != Some(e.key) {
            return None;
        }
        let slot = (bench.name, opt);
        if e.kind == SectionKind::Compile {
            self.programs.offer(slot, Arc::new(img.compile(e)?));
            return Some(());
        }
        // Every other kind is checked against the program it belongs to.
        let program = self.programs.peek(&slot)?;
        match e.kind {
            SectionKind::Prediction => {
                let (classifier, table) = img.prediction(e)?.instantiate(&program)?;
                self.predictions.offer(
                    slot,
                    Predicted {
                        classifier: Arc::new(classifier),
                        table: Arc::new(table),
                    },
                );
                preds.insert(slot);
            }
            SectionKind::Run => {
                let hit = img.run(e)?;
                if !names_live_branches(&program, hit.profile.iter().map(|(b, _)| b)) {
                    return None;
                }
                let bundle = RunBundle {
                    profile: Arc::new(hit.profile),
                    result: hit.run,
                };
                self.runs.offer((bench.name, opt, dataset?), bundle);
                if dataset == Some(0) {
                    runs0.insert(slot);
                }
            }
            SectionKind::Trace => {
                let hit = img.trace(e)?;
                if !names_live_branches(&program, hit.trace.dict().iter().map(|ev| ev.branch)) {
                    return None;
                }
                let trace = Arc::new(hit.trace);
                // A trace subsumes a run: rebuild the bundle from the
                // O(dict) tally. No-op if the run entry itself already
                // mounted (kind order guarantees it came first).
                let bundle = RunBundle {
                    profile: Arc::new(trace.edge_profile()),
                    result: hit.run,
                };
                self.runs.offer((bench.name, opt, dataset?), bundle);
                self.traces.offer((bench.name, opt, dataset?), trace);
                if dataset == Some(0) {
                    runs0.insert(slot);
                }
            }
            SectionKind::Compile | SectionKind::Ordering => unreachable!("handled above"),
        }
        Some(())
    }

    /// The content key of one benchmark's artifact of `kind` — what
    /// [`Engine::export_image`] stores and [`Engine::mount_entry`]
    /// recomputes from the live suite. `None` for an ordering (see
    /// [`Engine::ordering_key`]) or a run/trace whose dataset does not
    /// exist.
    fn entry_key(
        &self,
        kind: SectionKind,
        bench: &Benchmark,
        opt: Options,
        dataset: Option<usize>,
    ) -> Option<u64> {
        let (name, source, fp) = (bench.name, bench.source, opt.fingerprint());
        Some(match kind {
            SectionKind::Compile => bpfree_cache::compile_key_hash(name, source, fp),
            SectionKind::Prediction => bpfree_cache::prediction_key_hash(name, source, fp),
            SectionKind::Run | SectionKind::Trace => {
                let datasets = self.datasets(bench);
                let ds = datasets.get(dataset?)?;
                if kind == SectionKind::Run {
                    bpfree_cache::run_key_hash(name, source, fp, ds)
                } else {
                    bpfree_cache::trace_key_hash(name, source, fp, ds)
                }
            }
            SectionKind::Ordering => return None,
        })
    }

    /// The content key of `roster`'s ordering study under `opt`.
    fn ordering_key(&self, roster: &[Benchmark], opt: Options) -> Option<u64> {
        let datasets: Vec<Arc<Vec<Dataset>>> = roster.iter().map(|b| self.datasets(b)).collect();
        let members = roster
            .iter()
            .zip(&datasets)
            .map(|(b, ds)| Some((b.name, b.source, ds.first()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(bpfree_cache::ordering_key_hash(
            &members,
            opt.fingerprint(),
            DEFAULT_SEED,
        ))
    }

    /// Streams every filled memo into a suite image at `path` (temp
    /// file + atomic rename; see [`bpfree_cache::image::ImageBuilder`]):
    /// payloads are encoded one at a time straight from the memoized
    /// artifacts, so the export never holds a second copy of them. The
    /// export is deterministic: two exports of the same engine state
    /// are byte-identical. Returns the entry count and the image size in
    /// bytes.
    pub fn export_image(&self, path: &std::path::Path) -> std::io::Result<(usize, u64)> {
        let bench = |name: &str| bpfree_suite::by_name(name);
        let programs = self.programs.entries();
        let predictions = self.predictions.entries();
        let runs = self.runs.entries();
        let traces = self.traces.entries();
        let studies = self.ordering_studies.entries();

        let mut b = ImageBuilder::new();
        let mut add = |kind, name: &'static str, opt: Options, idx: Option<usize>, art| {
            if let Some(key) = bench(name).and_then(|bn| self.entry_key(kind, &bn, opt, idx)) {
                b.add(name, opt.fingerprint(), idx.map(|i| i as u32), key, art);
            }
        };
        for ((name, opt), program) in &programs {
            let art = Artifact::Compile(program);
            add(SectionKind::Compile, name, *opt, None, art);
        }
        for ((name, opt), p) in &predictions {
            let art = Artifact::Prediction(&p.classifier, &p.table);
            add(SectionKind::Prediction, name, *opt, None, art);
        }
        for ((name, opt, idx), bundle) in &runs {
            let art = Artifact::Run(&bundle.profile, bundle.result);
            add(SectionKind::Run, name, *opt, Some(*idx), art);
        }
        for ((name, opt, idx), trace) in &traces {
            // The run result rides along with every trace entry; the
            // run memo always holds it (trace computation fills it as a
            // by-product).
            if let Some(bundle) = self.runs.peek(&(*name, *opt, *idx)) {
                let art = Artifact::Trace(trace, bundle.result);
                add(SectionKind::Trace, name, *opt, Some(*idx), art);
            }
        }
        for ((roster, opt), study) in &studies {
            let members = roster.split(',').map(bench).collect::<Option<Vec<_>>>();
            if let Some(key) = members.and_then(|m| self.ordering_key(&m, *opt)) {
                b.add("", opt.fingerprint(), None, key, Artifact::Ordering(study));
            }
        }
        b.write(path)
    }

    /// Rewrites the cache image, `<cache_dir>/suite.img`, from this
    /// engine's memos — only with [`EngineConfig::use_cache`] set and
    /// only if one of the five counters of persisted work is non-zero,
    /// so a run served entirely from the image leaves it untouched (a
    /// decode alone persists nothing). Each write replaces the whole
    /// file with revalidated artifacts (nothing stale piles up; between
    /// concurrent processes the last writer wins). Returns the export's
    /// `(entries, bytes)`, or `None` if nothing was written.
    pub fn persist(&self) -> std::io::Result<Option<(usize, u64)>> {
        let work = self.compiles()
            + self.analyses()
            + self.simulations()
            + self.trace_records()
            + self.orderings();
        if !self.config.use_cache || work == 0 {
            return Ok(None);
        }
        self.export_image(&bpfree_cache::image_path(&self.config.cache_dir))
            .map(Some)
    }
}

/// What [`Engine::mount_image`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MountReport {
    /// Entries offered into the memos.
    pub mounted: usize,
    /// Entries that failed live revalidation and will recompute on
    /// demand.
    pub skipped: usize,
    /// Image size — the warm start's entire read volume.
    pub bytes: u64,
}

/// Does every site in `sites` name a conditional branch of `program`?
///
/// Cache keys cover the benchmark source, but a stored profile row or
/// trace dictionary event is only as good as the bytes on disk. One
/// that names another `(func, block)` would index past the dense
/// per-site tables downstream, or quietly move counts off a real
/// branch, so every cached run and trace is checked here before it is
/// served, and one that fails is a miss: recomputed and stored again.
fn names_live_branches(program: &Program, mut sites: impl Iterator<Item = BranchRef>) -> bool {
    sites.all(|site| {
        program
            .funcs()
            .get(site.func.index())
            .and_then(|f| f.blocks().get(site.block.index()))
            .is_some_and(|block| block.term.is_branch())
    })
}

/// Resolves a compile-options fingerprint (as stored in cache keys and
/// image directories) back to the [`Options`] it names. The fingerprint
/// space is tiny and closed, so this is a total inverse of
/// [`Options::fingerprint`].
pub fn options_from_fingerprint(fp: &str) -> Option<Options> {
    [
        Options::default(),
        Options {
            inline: true,
            simplify: false,
        },
        Options::no_inline(),
        Options::o0(),
    ]
    .into_iter()
    .find(|o| o.fingerprint() == fp)
}

static GLOBAL: OnceLock<Engine> = OnceLock::new();

/// Installs the process-wide engine, first writer wins: if one is
/// already installed, `config` is ignored and the existing engine is
/// returned (mirroring how the experiment binaries apply CLI flags).
pub fn install(config: EngineConfig) -> &'static Engine {
    GLOBAL.get_or_init(|| Engine::new(config))
}

/// The process-wide engine, installing one with [`EngineConfig::default`]
/// on first use.
pub fn global() -> &'static Engine {
    GLOBAL.get_or_init(|| Engine::new(EngineConfig::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::no_cache())
    }

    #[test]
    fn memoizes_compiles_and_runs() {
        let e = engine();
        let b = bpfree_suite::by_name("grep").unwrap();
        let opt = Options::default();
        let c1 = e.compiled(&b, opt);
        let c2 = e.compiled(&b, opt);
        assert!(Arc::ptr_eq(&c1.program, &c2.program), "same memo slot");
        assert!(Arc::ptr_eq(&c1.classifier, &c2.classifier));
        assert!(Arc::ptr_eq(&c1.table, &c2.table));
        assert_eq!(e.analyses(), 1, "one analysis pass per (bench, opt)");
        let r1 = e.run(&b, opt, 0);
        let r2 = e.run(&b, opt, 0);
        assert!(Arc::ptr_eq(&r1.profile, &r2.profile));
        assert_eq!(e.simulations(), 1);
    }

    #[test]
    fn program_alone_does_not_trigger_analysis() {
        let e = engine();
        let b = bpfree_suite::by_name("grep").unwrap();
        let opt = Options::default();
        let _ = e.program(&b, opt);
        assert_eq!(e.analyses(), 0, "analysis is demand-driven");
        let p = e.predictions(&b, opt);
        assert_eq!(e.analyses(), 1);
        assert!(p.table.rows().count() > 0);
    }

    fn cached_config(dir: &std::path::Path) -> EngineConfig {
        EngineConfig {
            use_cache: true,
            cache_dir: dir.to_path_buf(),
            verbose: false,
            tier: InterpTier::default(),
        }
    }

    /// The warm-path property: a second engine over the same cache
    /// directory restores every prediction artifact from the persisted
    /// image — zero analysis passes, zero interpreter passes — and the
    /// restored artifacts are identical to the cold ones.
    #[test]
    fn warm_cache_restores_predictions_without_reanalysis() {
        let dir =
            std::env::temp_dir().join(format!("bpfree-engine-warm-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = cached_config(&dir);
        let b = bpfree_suite::by_name("eqntott").unwrap();
        let opt = Options::default();

        let cold = Engine::new(config.clone());
        let c1 = cold.compiled(&b, opt);
        let r1 = cold.run(&b, opt, 0);
        assert_eq!(cold.analyses(), 1);
        assert_eq!(cold.simulations(), 1);
        assert!(cold.persist().unwrap().is_some(), "cold work is written");

        let warm = Engine::new(config.clone());
        let c2 = warm.compiled(&b, opt);
        let r2 = warm.run(&b, opt, 0);
        assert_eq!(warm.analyses(), 0, "warm run recomputes no predictions");
        assert_eq!(warm.simulations(), 0, "warm run re-simulates nothing");
        assert_eq!(*c1.program, *c2.program);
        assert!(c1.classifier.rows().eq(c2.classifier.rows()));
        assert!(c1.table.rows().eq(c2.table.rows()));
        assert_eq!(r1.result, r2.result);
        assert_eq!(*r1.profile, *r2.profile);
        assert!(warm.persist().unwrap().is_none(), "no work, no write");

        // An image that lacks only the prediction entry — persisted by
        // an engine that compiled and ran but never analyzed — forces
        // exactly one re-analysis; the program and run still hit.
        std::fs::remove_dir_all(&dir).unwrap();
        let no_analysis = Engine::new(config.clone());
        let _ = no_analysis.run(&b, opt, 0);
        assert_eq!(no_analysis.analyses(), 0);
        no_analysis.persist().unwrap();
        let half = Engine::new(config);
        let c3 = half.compiled(&b, opt);
        let _ = half.run(&b, opt, 0);
        assert_eq!(half.analyses(), 1, "missing entry falls back to compute");
        assert_eq!(half.simulations(), 0, "the run entry still hits");
        assert!(c1.classifier.rows().eq(c3.classifier.rows()));
        assert!(c1.table.rows().eq(c3.table.rows()));

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ordering warm-path property: a second engine over the same
    /// cache directory restores the roster's 5040-order rate matrix
    /// bit-for-bit from the image's `ordering` entry — zero matrix
    /// builds — and an image without that entry forces exactly one.
    #[test]
    fn warm_cache_restores_ordering_matrix_without_rebuild() {
        let dir = std::env::temp_dir().join(format!(
            "bpfree-engine-ordering-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = cached_config(&dir);
        let opt = Options::default();
        let roster = [
            bpfree_suite::by_name("grep").unwrap(),
            bpfree_suite::by_name("eqntott").unwrap(),
        ];
        let refs: Vec<&Benchmark> = roster.iter().collect();

        let cold = Engine::new(config.clone());
        let s1 = cold.ordering_study(&refs, opt);
        assert_eq!(cold.orderings(), 1, "cold run computes the matrix once");
        // A second query in the same process is a memo hit.
        let s1b = cold.ordering_study(&refs, opt);
        assert!(Arc::ptr_eq(&s1, &s1b));
        assert_eq!(cold.orderings(), 1);
        cold.persist().unwrap();

        let warm = Engine::new(config.clone());
        let s2 = warm.ordering_study(&refs, opt);
        assert_eq!(warm.orderings(), 0, "warm run rebuilds no matrix");
        assert_eq!(s2.benches(), s1.benches());
        for (a, b) in s1.rates().iter().zip(s2.rates()) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact restored rates");
            }
        }

        // An image that lacks only the ordering entry — persisted by an
        // engine that warmed every member but never built the matrix —
        // forces exactly one rebuild; the member artifacts still hit.
        std::fs::remove_dir_all(&dir).unwrap();
        let members_only = Engine::new(config.clone());
        members_only.prefetch(&refs, opt, &[]);
        assert_eq!(members_only.orderings(), 0);
        members_only.persist().unwrap();
        let half = Engine::new(config);
        let s3 = half.ordering_study(&refs, opt);
        assert_eq!(half.orderings(), 1, "missing entry falls back to compute");
        assert_eq!(half.analyses(), 0, "member predictions still hit");
        assert_eq!(half.simulations(), 0, "member runs still hit");
        assert_eq!(s3.benches(), s1.benches());

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The image's end-to-end property: exporting a fully worked engine
    /// to a suite image and mounting it into a fresh engine serves
    /// *every* artifact — programs, predictions, runs, traces, the
    /// ordering matrix — with every work counter at exactly zero
    /// (decodes included: nothing simulates, so nothing decodes),
    /// traces borrowed from the image buffer, and two exports
    /// byte-identical (deterministic layout).
    #[test]
    fn mounted_image_serves_every_artifact_with_zero_misses() {
        let dir =
            std::env::temp_dir().join(format!("bpfree-engine-image-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opt = Options::default();
        let roster = [
            bpfree_suite::by_name("grep").unwrap(),
            bpfree_suite::by_name("eqntott").unwrap(),
        ];
        let refs: Vec<&Benchmark> = roster.iter().collect();

        let cold = Engine::new(EngineConfig::no_cache());
        for b in &refs {
            let _ = cold.compiled(b, opt);
            let _ = cold.trace(b, opt, 0);
        }
        let s1 = cold.ordering_study(&refs, opt);

        let img = dir.join("suite.img");
        let (n, bytes) = cold.export_image(&img).unwrap();
        assert!(n >= 7, "compiles, predictions, runs, traces, ordering");
        assert_eq!(bytes, std::fs::metadata(&img).unwrap().len());
        // Determinism: a second export of the same state is
        // byte-identical.
        let img2 = dir.join("suite2.img");
        cold.export_image(&img2).unwrap();
        assert_eq!(
            std::fs::read(&img).unwrap(),
            std::fs::read(&img2).unwrap(),
            "double export is byte-identical"
        );

        let warm = Engine::new(EngineConfig::no_cache());
        let report = warm.mount_image(&img).unwrap();
        assert_eq!(
            report.mounted, n,
            "every entry revalidates against the live suite"
        );
        assert_eq!(report.skipped, 0);
        assert_eq!(report.bytes, bytes);

        for b in &refs {
            let c = warm.compiled(b, opt);
            let cold_c = cold.compiled(b, opt);
            assert_eq!(*c.program, *cold_c.program);
            assert!(c.classifier.rows().eq(cold_c.classifier.rows()));
            assert!(c.table.rows().eq(cold_c.table.rows()));
            let t = warm.trace(b, opt, 0);
            assert_eq!(*t, *cold.trace(b, opt, 0));
            assert!(
                t.seq_u8().is_some(),
                "mounted trace borrows its sequence from the image buffer"
            );
            let r = warm.run(b, opt, 0);
            let cold_r = cold.run(b, opt, 0);
            assert_eq!(r.result, cold_r.result);
            assert_eq!(*r.profile, *cold_r.profile);
        }
        let s2 = warm.ordering_study(&refs, opt);
        assert_eq!(s2.benches(), s1.benches());
        for (a, b) in s1.rates().iter().zip(s2.rates()) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact mounted rates");
            }
        }

        // The whole point: a mounted engine recomputes *nothing*.
        assert_eq!(warm.compiles(), 0, "zero compiles when mounted");
        assert_eq!(warm.decodes(), 0, "zero bytecode decodes when mounted");
        assert_eq!(warm.analyses(), 0, "zero analyses when mounted");
        assert_eq!(warm.simulations(), 0, "zero simulations when mounted");
        assert_eq!(
            warm.trace_records(),
            0,
            "zero trace recordings when mounted"
        );
        assert_eq!(warm.orderings(), 0, "zero matrix builds when mounted");

        // And the cold engine counted each kind of real work.
        assert!(cold.compiles() > 0);
        assert!(cold.decodes() > 0);
        assert!(cold.trace_records() > 0);

        // Corrupting the image is a clean refusal, not a broken mount.
        let mut garbled = std::fs::read(&img).unwrap();
        let mid = garbled.len() / 2;
        garbled[mid] ^= 0x40;
        let bad = dir.join("bad.img");
        std::fs::write(&bad, &garbled).unwrap();
        let fresh = Engine::new(EngineConfig::no_cache());
        assert!(fresh.mount_image(&bad).is_err());
        let c = fresh.compiled(&roster[0], opt);
        assert_eq!(*c.program, *cold.compiled(&roster[0], opt).program);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opt_levels_are_distinct_artifacts() {
        let e = engine();
        let b = bpfree_suite::by_name("grep").unwrap();
        let o = e.compiled(&b, Options::default());
        let o0 = e.compiled(&b, Options::o0());
        assert!(!Arc::ptr_eq(&o.program, &o0.program));
        // -O0 skips inlining, so more functions survive.
        assert!(o0.program.funcs().len() >= o.program.funcs().len());
    }

    #[test]
    fn trace_fills_the_run_memo_in_one_pass() {
        let e = engine();
        let b = bpfree_suite::by_name("eqntott").unwrap();
        let opt = Options::default();
        let trace = e.trace(&b, opt, 0);
        assert_eq!(e.simulations(), 1);
        let bundle = e.run(&b, opt, 0);
        assert_eq!(e.simulations(), 1, "run bundle fell out of the trace pass");
        assert_eq!(trace.total_instructions(), bundle.result.instructions);
        // Replaying the trace into a fresh profiler reproduces the
        // profile bit-for-bit, and the O(dict) tally tier agrees.
        let mut profiler = EdgeProfiler::new();
        trace.replay(&mut profiler);
        assert_eq!(profiler.into_profile(), *bundle.profile);
        assert_eq!(trace.edge_profile(), *bundle.profile);
    }

    #[test]
    fn decoded_bytecode_is_memoized_per_options() {
        let e = engine();
        let b = bpfree_suite::by_name("grep").unwrap();
        let d1 = e.decoded(&b, Options::default());
        let d2 = e.decoded(&b, Options::default());
        assert!(Arc::ptr_eq(&d1, &d2), "same memo slot");
        assert!(d1.ops_len() > 0);
        let d0 = e.decoded(&b, Options::o0());
        assert!(!Arc::ptr_eq(&d1, &d0), "per-Options artifacts");
    }

    #[test]
    fn tiers_produce_identical_run_bundles() {
        let bytecode = engine();
        let tree = Engine::new(EngineConfig {
            tier: InterpTier::Tree,
            ..EngineConfig::no_cache()
        });
        let b = bpfree_suite::by_name("eqntott").unwrap();
        let opt = Options::default();
        let rb = bytecode.run(&b, opt, 0);
        let rt = tree.run(&b, opt, 0);
        assert_eq!(rb.result, rt.result);
        assert_eq!(*rb.profile, *rt.profile);
        let tb = bytecode.trace(&b, opt, 1);
        let tt = tree.trace(&b, opt, 1);
        assert_eq!(*tb, *tt);
    }

    #[test]
    fn bad_dataset_index_is_an_error_not_a_panic() {
        let e = engine();
        let b = bpfree_suite::by_name("grep").unwrap();
        match e.try_run(&b, Options::default(), 999) {
            Err(SuiteError::NoSuchDataset { benchmark, index }) => {
                assert_eq!(benchmark, "grep");
                assert_eq!(index, 999);
            }
            other => panic!("expected NoSuchDataset, got {other:?}"),
        }
        assert!(e.try_trace(&b, Options::default(), 999).is_err());
        assert_eq!(e.simulations(), 0);
    }
}
