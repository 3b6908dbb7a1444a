//! # bpfree — "Branch Prediction for Free", reproduced
//!
//! A from-scratch Rust reproduction of Thomas Ball and James R. Larus,
//! *Branch Prediction for Free*, PLDI 1993. The paper shows that simple,
//! static, **program-based** heuristics predict conditional branch
//! directions nearly as well as profile-based prediction — with no
//! compile–profile–recompile cycle.
//!
//! This facade crate re-exports the whole system:
//!
//! * [`ir`] — a MIPS-flavoured low-level IR (the paper analysed MIPS
//!   executables);
//! * [`cfg`](mod@cfg) — control-flow graphs, dominators, postdominators, natural
//!   loops;
//! * [`lang`] — the Cmm language and compiler used to author the benchmark
//!   suite;
//! * [`sim`] — an IR interpreter with edge profiling and instruction
//!   tracing (the QPT substitute);
//! * [`suite`] — 23 benchmark programs mirroring the paper's Table 1;
//! * [`core`] — the paper's contribution: branch classification, the seven
//!   non-loop heuristics, heuristic combination, evaluation, ordering
//!   experiments, and IPBC trace analysis;
//! * [`bench`](mod@bench) — the experiment registry: every paper table
//!   and figure as a named [`bench::registry::Experiment`], runnable
//!   individually or as one single-process batch (`bpfree exp all`) over
//!   the shared memoizing [`engine`], which persists its artifacts in the
//!   [`cache`] image.
//!
//! # Quickstart
//!
//! ```
//! use bpfree::lang::compile;
//! use bpfree::sim::{EdgeProfiler, Simulator};
//! use bpfree::core::{BranchClassifier, CombinedPredictor, HeuristicKind, evaluate};
//!
//! let program = compile(
//!     r#"
//!     fn main() -> int {
//!         int i; int sum;
//!         i = 0; sum = 0;
//!         while (i < 100) {
//!             if (i - 50 > 0) { sum = sum + i; }
//!             i = i + 1;
//!         }
//!         return sum;
//!     }
//!     "#,
//! )?;
//!
//! // Run once to collect the edge profile (what QPT produced).
//! let mut profiler = EdgeProfiler::new();
//! Simulator::new(&program).run(&mut profiler)?;
//! let profile = profiler.into_profile();
//!
//! // Predict every branch statically, then score against the profile.
//! let classifier = BranchClassifier::analyze(&program);
//! let predictor = CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order());
//! let report = evaluate(&predictor.predictions(), &profile, &classifier);
//! assert!(report.all.miss_rate() < 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use bpfree_bench as bench;
pub use bpfree_cache as cache;
pub use bpfree_cfg as cfg;
pub use bpfree_core as core;
pub use bpfree_engine as engine;
pub use bpfree_ir as ir;
pub use bpfree_lang as lang;
pub use bpfree_sim as sim;
pub use bpfree_suite as suite;
