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
//!   [`BenchOrderData`] groups (see [`Engine::order_data`]). It is
//!   built once per process, in a few milliseconds, from the members'
//!   predictions and dataset-0 runs, and never persisted
//!   ([`Engine::orderings`] counts the builds).
//!
//! Each artifact is computed **at most once per process** (a
//! `Mutex<HashMap<Key, Arc<OnceLock<V>>>>` memo: the map lock is held
//! only to fetch the slot, so concurrent queries for different keys
//! compute in parallel while duplicate queries block on the same slot),
//! and persisted in one file, the [`bpfree_cache`] image, so later
//! processes skip the work entirely: [`Engine::new`] mounts it and
//! [`Engine::persist`] writes it back. Warm and `--image` runs share
//! one path, and the compute functions behind the memos never touch
//! the disk. Where the cache lives, and whether it is used at all, is
//! the caller's [`EngineConfig`]; the engine reads no environment
//! variable.
//!
//! The work counters ([`Engine::compiles`], [`Engine::analyses`],
//! [`Engine::decodes`], [`Engine::simulations`],
//! [`Engine::trace_records`], [`Engine::orderings`]) are the memos'
//! fill counts: a slot filled by its computation counts once, and a
//! slot filled by a mount or as a by-product does not count at all.
//!
//! Queries compute on demand, on the calling thread. A caller that
//! knows what it will read declares it up front as [`Need`]s, and
//! [`Engine::warm`] computes them all in one parallel map; the batch
//! of experiments does this before any of them renders.
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

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bpfree_cache::image::{Artifact, ImageBuilder, ImageEntry, SectionKind, SuiteImage};
use bpfree_core::ordering::{BenchOrderData, OrderingStudy};
use bpfree_core::{BranchClassifier, HeuristicTable, DEFAULT_SEED};
use bpfree_ir::{BranchRef, Program};
use bpfree_lang::Options;
use bpfree_sim::{
    BranchTrace, BytecodeProgram, EdgeProfile, EdgeProfiler, InterpTier, Pair, RunResult,
    SimConfig, TraceRecorder,
};
use bpfree_suite::{Benchmark, Dataset, SuiteError};

/// Engine configuration. [`Default`] is the cache on, in
/// [`bpfree_cache::default_dir`], with verbose notes.
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
            use_cache: true,
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

/// Artifacts a caller is about to read, declared up front so
/// [`Engine::warm`] can compute them in one parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Need {
    /// `bench` compiled and analyzed under `opt`, and run on its first
    /// `datasets` datasets (on all of them if it has fewer). With
    /// `traced`, the pass over dataset 0 also records its branch trace.
    Runs {
        bench: &'static str,
        opt: Options,
        datasets: usize,
        traced: bool,
    },
    /// The [`Engine::ordering_study`] of `roster` under `opt`, which
    /// reads each member's predictions and dataset-0 run.
    Ordering {
        roster: Vec<&'static str>,
        opt: Options,
    },
}

type CompileKey = (&'static str, Options);
type RunKey = (&'static str, Options, usize);

/// A compute-once memo: the map lock is held only long enough to fetch
/// the slot, so distinct keys compute concurrently while duplicate
/// requests block on the slot's `OnceLock`.
///
/// An init may run parallel work: a parallel call only waits for its
/// own scoped threads, which never run anything else, so another
/// thread's wait on the slot always ends. An init that asks for its own
/// key again would wait on itself forever inside the `OnceLock`, so the
/// fill path panics instead, naming the key.
///
/// The memo counts the slots its inits fill ([`Memo::fills`]); a slot
/// filled by [`Memo::offer`] (a mount, or a by-product) is no work and
/// does not count. The engine's work counters are these counts.
struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    fills: AtomicU64,
}

thread_local! {
    /// The memo slots (by address) this thread is filling right now.
    static FILLING: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Marks a slot as being filled by the current thread until dropped.
struct Filling(usize);

impl Drop for Filling {
    fn drop(&mut self) {
        FILLING.with_borrow_mut(|filling| filling.retain(|&slot| slot != self.0));
    }
}

impl<K: Eq + Hash + Clone + Debug, V: Clone> Memo<K, V> {
    fn new() -> Memo<K, V> {
        Memo {
            slots: Mutex::new(HashMap::new()),
            fills: AtomicU64::new(0),
        }
    }

    fn slot(&self, key: &K) -> Arc<OnceLock<V>> {
        let mut slots = self.slots.lock().expect("memo lock poisoned");
        if let Some(slot) = slots.get(key) {
            return slot.clone();
        }
        slots.entry(key.clone()).or_default().clone()
    }

    fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> V {
        let slot = self.slot(&key);
        if let Some(value) = slot.get() {
            return value.clone();
        }
        let id = Arc::as_ptr(&slot) as usize;
        let reentered = FILLING.with_borrow(|filling| filling.contains(&id));
        assert!(
            !reentered,
            "memo slot {key:?} re-entered by the thread filling it"
        );
        FILLING.with_borrow_mut(|filling| filling.push(id));
        let _filling = Filling(id);
        slot.get_or_init(|| {
            let value = init();
            self.fills.fetch_add(1, Ordering::Relaxed);
            value
        })
        .clone()
    }

    /// How many slots an init has filled.
    fn fills(&self) -> u64 {
        self.fills.load(Ordering::Relaxed)
    }

    /// Fills the slot if nothing beat us to it (used when one
    /// computation produces a sibling artifact as a by-product).
    fn offer(&self, key: K, value: V) {
        let _ = self.slot(&key).set(value);
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
    fn entries(&self) -> Vec<(K, V)> {
        self.slots
            .lock()
            .expect("memo lock poisoned")
            .iter()
            .filter_map(|(k, slot)| slot.get().map(|v| (k.clone(), v.clone())))
            .collect()
    }
}

/// The artifact graph. See the crate docs.
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
}

impl Engine {
    /// A fresh engine. With [`EngineConfig::use_cache`] it starts from
    /// the cache image, `<cache_dir>/suite.img`: if this build wrote
    /// it, every entry that passes its checks is mounted into the memos
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
    /// profile, run result, and trace together. Each computed run or
    /// trace is exactly one pass (a trace pass offers its run, which
    /// counts as no work).
    pub fn simulations(&self) -> u64 {
        self.runs.fills() + self.traces.fills()
    }

    /// How many classifier + heuristic-table computations this engine
    /// has actually executed. Memo and cache hits don't count: a warm
    /// run that restores every prediction artifact from disk reports
    /// zero, which is exactly what the CI parity job asserts.
    pub fn analyses(&self) -> u64 {
        self.predictions.fills()
    }

    /// How many 5040-order rate matrices this engine has built. The
    /// matrix is not cached on disk, so every process that reads a
    /// roster's study builds it once; memo hits don't count.
    pub fn orderings(&self) -> u64 {
        self.ordering_studies.fills()
    }

    /// How many source-to-IR compilations this engine has actually
    /// executed. Memo, cache, and image hits don't count.
    pub fn compiles(&self) -> u64 {
        self.programs.fills()
    }

    /// How many bytecode-decode passes this engine has actually
    /// executed. A program is decoded on its first simulation and the
    /// result lives only in this process, so a run served from the
    /// image decodes nothing.
    pub fn decodes(&self) -> u64 {
        self.decoded.fills()
    }

    /// How many branch traces this engine has actually *recorded* (via
    /// an instrumented interpreter pass). Memo, cache, and image hits
    /// don't count.
    pub fn trace_records(&self) -> u64 {
        self.traces.fills()
    }

    /// The benchmark's datasets, generated once per process.
    pub fn datasets(&self, bench: &Benchmark) -> Arc<Vec<Dataset>> {
        self.datasets
            .get_or_init(bench.name, || Arc::new(bench.datasets()))
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
        self.programs
            .get_or_init((bench.name, opt), || self.build_program(bench, opt))
    }

    /// The prediction artifacts of `bench` under `opt`: branch
    /// classifier + heuristic table, derived from [`Engine::program`]
    /// and memoized (and disk-cached) as their own first-class
    /// artifact. A cache hit restores both from dense per-branch rows
    /// and performs zero CFG analyses ([`Engine::analyses`] stays
    /// flat).
    pub fn predictions(&self, bench: &Benchmark, opt: Options) -> Predicted {
        self.predictions
            .get_or_init((bench.name, opt), || self.build_predictions(bench, opt))
    }

    /// The flat-bytecode lowering of `bench` under `opt`, decoded once
    /// per process and never persisted. Decoding is pure (no execution
    /// state), so one [`BytecodeProgram`] serves every dataset's run and
    /// trace of the `(benchmark, Options)` pair.
    pub fn decoded(&self, bench: &Benchmark, opt: Options) -> Arc<BytecodeProgram> {
        self.decoded.get_or_init((bench.name, opt), || {
            Arc::new(BytecodeProgram::compile(&self.program(bench, opt)))
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
            self.compute_run(bench, opt, index, dataset)
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
            self.compute_trace(bench, opt, index, dataset)
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
    /// matrix. Memoized per (roster, Options) for the life of the
    /// process and never persisted: the matrix is a few milliseconds of
    /// work over the members' predictions and dataset-0 runs, which are
    /// cached ([`Engine::orderings`] counts the builds). A build runs
    /// serially on the calling thread; [`Engine::warm`] with a
    /// [`Need::Ordering`] profiles the members in parallel first.
    pub fn ordering_study(&self, benches: &[&Benchmark], opt: Options) -> Arc<OrderingStudy> {
        let roster: Vec<&str> = benches.iter().map(|b| b.name).collect();
        self.ordering_studies
            .get_or_init((roster.join(","), opt), || {
                self.build_ordering(benches, opt)
            })
    }

    /// Computes every artifact in `needs` before returning: from then
    /// on, querying those artifacts computes nothing.
    ///
    /// Needs of one `(benchmark, Options)` pair merge, so each
    /// `(benchmark, Options, dataset)` costs at most one interpreter
    /// pass, and a trace falls out of the same pass as its run bundle.
    /// The passes run as one [`bpfree_par::par_map_jobs`] over a flat
    /// task list in the order of `needs`, which is the order they run in
    /// at `--jobs 1`: per pair an analyze task, then one task per
    /// dataset. The memo slots are the only dependency edges: whichever
    /// task of a pair first asks for the program compiles it, and the
    /// others wait on that slot. The ordering studies are built after
    /// the map, from memo hits.
    ///
    /// # Panics
    ///
    /// On a benchmark name the suite does not have.
    pub fn warm(&self, needs: &[Need]) {
        // One entry per (benchmark, Options): leading datasets, traced.
        let mut pairs: Vec<(Benchmark, Options, usize, bool)> = Vec::new();
        let mut want = |name: &str, opt: Options, datasets: usize, traced: bool| {
            let i = match pairs.iter().position(|p| p.0.name == name && p.1 == opt) {
                Some(i) => i,
                None => {
                    let bench = bpfree_suite::by_name(name)
                        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
                    pairs.push((bench, opt, 0, false));
                    pairs.len() - 1
                }
            };
            pairs[i].2 = pairs[i].2.max(datasets);
            pairs[i].3 |= traced;
            i
        };
        // Each study as its members' indices into `pairs`.
        let mut studies: Vec<(Vec<usize>, Options)> = Vec::new();
        for need in needs {
            match need {
                Need::Runs {
                    bench,
                    opt,
                    datasets,
                    traced,
                } => {
                    want(bench, *opt, *datasets, *traced);
                }
                Need::Ordering { roster, opt } => {
                    let study = (
                        roster.iter().map(|b| want(b, *opt, 1, false)).collect(),
                        *opt,
                    );
                    if !studies.contains(&study) {
                        studies.push(study);
                    }
                }
            }
        }

        // A task is a pair's analysis (`None`) or one dataset's pass.
        let mut tasks: Vec<(&Benchmark, Options, Option<usize>, bool)> = Vec::new();
        for (bench, opt, datasets, traced) in &pairs {
            tasks.push((bench, *opt, None, false));
            // The dataset count fixes the pass tasks, so the datasets are
            // generated here, serially (about 4 ms for the whole suite).
            for index in 0..(*datasets).min(self.datasets(bench).len()) {
                tasks.push((bench, *opt, Some(index), *traced && index == 0));
            }
        }
        bpfree_par::par_map_jobs(bpfree_par::jobs(), &tasks, |&(bench, opt, pass, traced)| {
            match pass {
                None => {
                    let _ = self.predictions(bench, opt);
                }
                Some(index) => {
                    if traced {
                        let _ = self.trace(bench, opt, index);
                    }
                    let _ = self.run(bench, opt, index);
                }
            }
        });
        for (members, opt) in &studies {
            let roster: Vec<&Benchmark> = members.iter().map(|&i| &pairs[i].0).collect();
            let _ = self.ordering_study(&roster, *opt);
        }
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
        let program = bpfree_lang::compile_with(bench.source, opt)
            .unwrap_or_else(|e| panic!("benchmark `{}` fails to compile: {e}", bench.name));
        Arc::new(program)
    }

    fn build_predictions(&self, bench: &Benchmark, opt: Options) -> Predicted {
        let fp = opt.fingerprint();
        let program = self.program(bench, opt);
        self.note("miss", format_args!("analyze {} [{fp}]", bench.name));
        let classifier = BranchClassifier::analyze(&program);
        let table = HeuristicTable::build(&program, &classifier);
        Predicted {
            classifier: Arc::new(classifier),
            table: Arc::new(table),
        }
    }

    /// Runs inside the `ordering_studies` memo slot. The matrix build
    /// ([`OrderingStudy::new_serial`]) is a few milliseconds of serial
    /// work, and after [`Engine::warm`] the condense below is all memo
    /// hits; a cold caller just computes the members' runs here, one at
    /// a time.
    fn build_ordering(&self, benches: &[&Benchmark], opt: Options) -> Arc<OrderingStudy> {
        let live: Vec<BenchOrderData> = benches
            .iter()
            .map(|&b| (*self.order_data(b, opt)).clone())
            .collect();
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
    /// read, then, if the image is stamped with this build's
    /// [`bpfree_cache::BUILD_FINGERPRINT`], every entry that passes its
    /// checks is offered straight into the memos. After mounting a
    /// complete image, a full experiment sweep compiles, analyzes,
    /// simulates, records and decodes nothing; it only rebuilds the
    /// ordering matrix ([`Engine::orderings`]). Traces borrow their
    /// index sequences from the image buffer (zero decode
    /// allocations). [`Engine::new`] mounts the cache image this way;
    /// `--image` mounts another one.
    ///
    /// An image from another build mounts nothing: every entry counts
    /// as skipped, and the engine computes on demand as if the image
    /// were absent. Entries that fail their own checks are skipped the
    /// same way. Neither is an error. A structurally corrupt image (bad
    /// magic, checksum, truncation) is a clean `Err` and mounts
    /// nothing.
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
        if img.fingerprint() != bpfree_cache::BUILD_FINGERPRINT {
            report.skipped = img.entries().len();
            if self.config.verbose {
                eprintln!(
                    "[bpfree-engine] skip image {}: stale build (written by {:016x}, this is {:016x})",
                    path.display(),
                    img.fingerprint(),
                    bpfree_cache::BUILD_FINGERPRINT
                );
            }
            return Ok(report);
        }
        for e in img.entries() {
            if self.mount_entry(&img, e).is_some() {
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

    /// Mounts one entry of an image this build wrote — the one check
    /// routine every persisted artifact passes through before it is
    /// served; `None` means "skip and compute on demand", never an
    /// error. The entries are sorted by kind in dependency order
    /// (compile → prediction → run → trace), so every other kind is
    /// checked against the program its benchmark's compile entry
    /// mounted.
    fn mount_entry(&self, img: &SuiteImage, e: &ImageEntry) -> Option<()> {
        let opt = options_from_fingerprint(&e.opt)?;
        let bench = bpfree_suite::by_name(&e.name)?;
        let slot = (bench.name, opt);
        if e.kind == SectionKind::Compile {
            self.programs.offer(slot, Arc::new(img.compile(e)?));
            return Some(());
        }
        let program = self.programs.peek(&slot)?;
        if e.kind == SectionKind::Prediction {
            let (classifier, table) = img.prediction(e)?.instantiate(&program)?;
            self.predictions.offer(
                slot,
                Predicted {
                    classifier: Arc::new(classifier),
                    table: Arc::new(table),
                },
            );
            return Some(());
        }
        // Runs and traces name one of the benchmark's datasets.
        let index = e.dataset? as usize;
        if index >= self.datasets(&bench).len() {
            return None;
        }
        let key = (bench.name, opt, index);
        if e.kind == SectionKind::Run {
            let hit = img.run(e)?;
            if !names_live_branches(&program, hit.profile.iter().map(|(b, _)| b)) {
                return None;
            }
            let bundle = RunBundle {
                profile: Arc::new(hit.profile),
                result: hit.run,
            };
            self.runs.offer(key, bundle);
            return Some(());
        }
        let hit = img.trace(e)?;
        if !names_live_branches(&program, hit.trace.dict().iter().map(|ev| ev.branch)) {
            return None;
        }
        let trace = Arc::new(hit.trace);
        // A trace subsumes a run: rebuild the bundle from the O(dict)
        // tally. No-op if the run entry itself already mounted (kind
        // order guarantees it came first).
        let bundle = RunBundle {
            profile: Arc::new(trace.edge_profile()),
            result: hit.run,
        };
        self.runs.offer(key, bundle);
        self.traces.offer(key, trace);
        Some(())
    }

    /// Streams every filled memo into a suite image at `path`, stamped
    /// with this build's fingerprint (temp file + atomic rename; see
    /// [`bpfree_cache::image::ImageBuilder`]): payloads are encoded one
    /// at a time straight from the memoized artifacts, so the export
    /// never holds a second copy of them. The export is deterministic:
    /// two exports of the same engine state are byte-identical. Returns
    /// the entry count and the image size in bytes.
    pub fn export_image(&self, path: &std::path::Path) -> std::io::Result<(usize, u64)> {
        let programs = self.programs.entries();
        let predictions = self.predictions.entries();
        let runs = self.runs.entries();
        let traces = self.traces.entries();

        let mut b = ImageBuilder::new();
        for ((name, opt), program) in &programs {
            b.add(name, opt.fingerprint(), None, Artifact::Compile(program));
        }
        for ((name, opt), p) in &predictions {
            let art = Artifact::Prediction(&p.classifier, &p.table);
            b.add(name, opt.fingerprint(), None, art);
        }
        for ((name, opt, idx), bundle) in &runs {
            let art = Artifact::Run(&bundle.profile, bundle.result);
            b.add(name, opt.fingerprint(), Some(*idx as u32), art);
        }
        for ((name, opt, idx), trace) in &traces {
            // The run result rides along with every trace entry; the
            // run memo always holds it (trace computation fills it as a
            // by-product).
            if let Some(bundle) = self.runs.peek(&(*name, *opt, *idx)) {
                let art = Artifact::Trace(trace, bundle.result);
                b.add(name, opt.fingerprint(), Some(*idx as u32), art);
            }
        }
        b.write(path)
    }

    /// Rewrites the cache image, `<cache_dir>/suite.img`, from this
    /// engine's memos — only with [`EngineConfig::use_cache`] set and
    /// only if one of the four counters of persisted work is non-zero,
    /// so a run served entirely from the image leaves it untouched (a
    /// decode or a matrix build alone persists nothing). Each write
    /// replaces the whole file with this build's artifacts (nothing
    /// stale piles up; between concurrent processes the last writer
    /// wins). Returns the export's `(entries, bytes)`, or `None` if
    /// nothing was written.
    pub fn persist(&self) -> std::io::Result<Option<(usize, u64)>> {
        let work = self.compiles() + self.analyses() + self.simulations() + self.trace_records();
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
    /// Entries not mounted — all of them if another build wrote the
    /// image, else those that failed their checks. They compute on
    /// demand.
    pub skipped: usize,
    /// Image size — the warm start's entire read volume.
    pub bytes: u64,
}

/// Does every site in `sites` name a conditional branch of `program`?
///
/// The image's stamp covers the benchmark source, but a stored profile
/// row or trace dictionary event is only as good as the bytes on disk. One
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

/// Resolves a compile-options fingerprint (as stored in image
/// directories) back to the [`Options`] it names. The fingerprint
/// space is tiny and closed, so this is a total inverse of
/// [`Options::fingerprint`].
fn options_from_fingerprint(fp: &str) -> Option<Options> {
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

    /// The matrix is not cached, so a second engine over the same cache
    /// directory builds it once more, from mounted predictions and runs
    /// alone, bit-identical to the cold engine's, and writes nothing
    /// back.
    #[test]
    fn warm_engine_rebuilds_the_ordering_matrix_bit_identically() {
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
        let image = std::fs::read(bpfree_cache::image_path(&dir)).unwrap();

        let warm = Engine::new(config);
        let s2 = warm.ordering_study(&refs, opt);
        assert_eq!(warm.orderings(), 1, "the matrix is rebuilt, not mounted");
        assert_eq!(warm.analyses(), 0, "member predictions hit");
        assert_eq!(warm.simulations(), 0, "member runs hit");
        assert_eq!(s2.benches(), s1.benches());
        assert!(s1.rates().iter().flatten().map(|r| r.to_bits()).eq(s2
            .rates()
            .iter()
            .flatten()
            .map(|r| r.to_bits())));
        assert!(warm.persist().unwrap().is_none(), "a rebuild is no work");
        assert_eq!(
            std::fs::read(bpfree_cache::image_path(&dir)).unwrap(),
            image
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An image stamped by another build mounts nothing, whatever its
    /// entries hold: the engine recomputes every artifact, and a cached
    /// engine writes the image back under this build's stamp.
    #[test]
    fn an_image_from_another_build_mounts_nothing() {
        let dir =
            std::env::temp_dir().join(format!("bpfree-engine-stale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = bpfree_suite::by_name("grep").unwrap();
        let opt = Options::default();
        let fp = opt.fingerprint();
        let cold = engine();
        let c = cold.compiled(&b, opt);
        let r = cold.run(&b, opt, 0);

        let mut stale = ImageBuilder::stamped(!bpfree_cache::BUILD_FINGERPRINT);
        stale.add(b.name, fp, None, Artifact::Compile(&c.program));
        stale.add(
            b.name,
            fp,
            None,
            Artifact::Prediction(&c.classifier, &c.table),
        );
        stale.add(b.name, fp, Some(0), Artifact::Run(&r.profile, r.result));
        let path = bpfree_cache::image_path(&dir);
        stale.write(&path).unwrap();

        let fresh = engine();
        let report = fresh.mount_image(&path).unwrap();
        assert_eq!((report.mounted, report.skipped), (0, 3));
        let c2 = fresh.compiled(&b, opt);
        let r2 = fresh.run(&b, opt, 0);
        assert_eq!(fresh.compiles(), 1, "the program recompiles");
        assert_eq!(fresh.analyses(), 1, "the predictions recompute");
        assert_eq!(fresh.simulations(), 1, "the run recomputes");
        assert_eq!(*c2.program, *c.program);
        assert_eq!(*r2.profile, *r.profile);

        // As the cache image: nothing mounts, and the recomputed
        // artifacts go back under this build's stamp.
        let cached = Engine::new(cached_config(&dir));
        let _ = cached.run(&b, opt, 0);
        assert_eq!(cached.simulations(), 1);
        cached.persist().unwrap();
        let img = SuiteImage::open(&path).unwrap();
        assert_eq!(img.fingerprint(), bpfree_cache::BUILD_FINGERPRINT);
        let report = engine().mount_image(&path).unwrap();
        assert_eq!((report.mounted, report.skipped), (2, 0), "compile + run");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One benchmark stored at two compile options is two sets of
    /// entries, and each is served to its own memo slot: an `-O0`
    /// artifact (`opt_ablate` reads them) never stands in for the `-O`
    /// one.
    #[test]
    fn opt_levels_mount_into_their_own_slots() {
        let dir =
            std::env::temp_dir().join(format!("bpfree-engine-opts-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = bpfree_suite::by_name("grep").unwrap();
        let opts = [Options::default(), Options::o0()];
        let cold = engine();
        for opt in opts {
            let _ = cold.compiled(&b, opt);
            let _ = cold.run(&b, opt, 0);
        }
        let path = dir.join("suite.img");
        let (n, _) = cold.export_image(&path).unwrap();
        assert_eq!(n, 6, "a compile, prediction and run entry per options");

        let warm = engine();
        let report = warm.mount_image(&path).unwrap();
        assert_eq!((report.mounted, report.skipped), (6, 0));
        for opt in opts {
            let (c, cold_c) = (warm.compiled(&b, opt), cold.compiled(&b, opt));
            assert_eq!(*c.program, *cold_c.program, "{opt:?}");
            assert!(c.classifier.rows().eq(cold_c.classifier.rows()));
            assert!(c.table.rows().eq(cold_c.table.rows()));
            let (r, cold_r) = (warm.run(&b, opt, 0), cold.run(&b, opt, 0));
            assert_eq!(*r.profile, *cold_r.profile, "{opt:?}");
            assert_eq!(r.result, cold_r.result);
        }
        let (o, o0) = (warm.program(&b, opts[0]), warm.program(&b, opts[1]));
        assert_ne!(*o, *o0, "the two programs differ");
        assert_eq!(warm.compiles() + warm.analyses() + warm.simulations(), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The image's end-to-end property: exporting a fully worked engine
    /// to a suite image and mounting it into a fresh engine serves
    /// *every* cached artifact — programs, predictions, runs, traces —
    /// with every work counter at exactly zero (decodes included:
    /// nothing simulates, so nothing decodes) but the one matrix build,
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
        assert_eq!(n, 8, "a compile, prediction, run and trace per member");
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
        assert_eq!(report.mounted, n, "every entry passes its checks");
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
                matches!(t.seq(), bpfree_sim::TraceSeq::Narrow(_)),
                "mounted trace serves its sequence byte-wide"
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
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact rebuilt rates");
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
        assert_eq!(warm.orderings(), 1, "the matrix is rebuilt, not mounted");

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

    /// A thread that asks for a slot it is still filling panics and names
    /// the key instead of waiting on itself forever.
    #[test]
    fn memo_reentry_panics_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        let filler = std::thread::spawn(move || {
            let memo: Memo<&'static str, u32> = Memo::new();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                memo.get_or_init("grep", || memo.get_or_init("grep", || 1))
            }));
            let message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            tx.send(message).unwrap();
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("re-entering a memo slot hung instead of panicking")
            .expect("re-entering a memo slot panics");
        assert!(message.contains("\"grep\""), "{message}");
        filler.join().expect("the panic was caught on the thread");

        // A slot filled by another thread, or one this thread has
        // finished filling, is no re-entry.
        let memo: Memo<&'static str, u32> = Memo::new();
        assert_eq!(memo.get_or_init("a", || memo.get_or_init("b", || 2) + 1), 3);
        assert_eq!(memo.get_or_init("a", || unreachable!()), 3);
    }

    /// Sixteen readers in a parallel map query one slot whose init itself
    /// runs a parallel map — an ordering study wanted by several
    /// experiments at once, say. The init waits until a second reader
    /// has reached the slot (when the map has a second thread), so that
    /// reader blocks on the slot while the init waits for its own
    /// threads. Every reader must get the one value and the init must
    /// run once, at any job count.
    #[test]
    fn parallel_readers_share_a_slot_whose_init_runs_parallel_work() {
        for jobs in [2, 8] {
            let (tx, rx) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                let memo: Memo<&'static str, u64> = Memo::new();
                let inits = AtomicU64::new(0);
                let arrived = AtomicU64::new(0);
                let readers: Vec<usize> = (0..16).collect();
                let concurrent = bpfree_par::clamp_workers(jobs) > 1;
                let values = bpfree_par::par_map_jobs(jobs, &readers, |_| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    memo.get_or_init("study", || {
                        inits.fetch_add(1, Ordering::SeqCst);
                        while concurrent && arrived.load(Ordering::SeqCst) < 2 {
                            std::thread::yield_now();
                        }
                        let parts: Vec<u64> = (1..=32).collect();
                        bpfree_par::par_map_jobs(jobs, &parts, |&x| x * x)
                            .iter()
                            .sum()
                    })
                });
                tx.send((values, inits.load(Ordering::SeqCst))).unwrap();
            });
            let (values, inits) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("jobs {jobs}: the readers hung"));
            assert_eq!(values, vec![11_440; 16], "jobs {jobs}");
            assert_eq!(inits, 1, "jobs {jobs}: the init ran once");
            runner.join().expect("no reader panicked");
        }
    }
}
