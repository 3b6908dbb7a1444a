//! Program-based static branch prediction, after Ball & Larus,
//! *Branch Prediction for Free* (PLDI 1993).
//!
//! The pipeline, mirroring the paper's sections:
//!
//! 1. [`BranchClassifier`] splits conditional branches into **loop
//!    branches** (an outgoing edge is a natural-loop backedge or exit
//!    edge) and **non-loop branches**, and predicts loop branches with
//!    the loop predictor (Section 3);
//! 2. the seven non-loop [`heuristics`] — Opcode, Loop, Call, Return,
//!    Guard, Store, Pointer (Section 4);
//! 3. [`CombinedPredictor`] applies the heuristics in a priority order,
//!    with a deterministic pseudo-random **Default** for uncovered
//!    branches (Section 5);
//! 4. [`evaluate`] scores any [`Predictions`] against an edge profile,
//!    reporting miss rates in the paper's `C/D` (predictor/perfect)
//!    notation;
//! 5. [`ordering`] reruns the paper's 7! ordering study and the
//!    C(22,11) subset-stability experiment;
//! 6. [`ipbc`] measures instructions per break in control from streamed
//!    traces (Section 6), and [`model`] evaluates the closed-form
//!    sequence-length model of Graph 12.
//!
//! Every per-branch result — classes and loop predictions, heuristic
//! cells, [`Predictions`] and their attribution, branch probabilities
//! and estimated frequencies — is a [`bpfree_ir::BranchMap`], so it is
//! built and iterated in program order.
//!
//! # Example
//!
//! ```
//! use bpfree_core::{
//!     evaluate, BranchClassifier, CombinedPredictor, HeuristicKind,
//! };
//! use bpfree_sim::{EdgeProfiler, Simulator};
//!
//! let program = bpfree_lang::compile(
//!     "fn main() -> int {
//!         int i; int s;
//!         for (i = 0; i < 1000; i = i + 1) {
//!             if (i % 10 == 0) { s = s + 1; }
//!         }
//!         return s;
//!     }",
//! ).unwrap();
//!
//! let mut profiler = EdgeProfiler::new();
//! Simulator::new(&program).run(&mut profiler).unwrap();
//! let profile = profiler.into_profile();
//!
//! let classifier = BranchClassifier::analyze(&program);
//! let predictor =
//!     CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order());
//! let report = evaluate(predictor.as_predictions(), &profile, &classifier);
//! assert!(report.all.miss_rate() < 0.5);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod classify;
mod eval;
pub mod freq;
pub mod heuristics;
pub mod ipbc;
pub mod model;
pub mod ordering;
mod predictors;

pub use classify::{BranchClass, BranchClassifier};
pub use eval::{
    evaluate, evaluate_coverage, evaluate_with_attribution, AttributedReport, ClassStats,
    CoverageStats, Report, SourceBreakdown,
};
pub use heuristics::ext::ExtKind;
pub use heuristics::{HeuristicKind, HeuristicTable};
pub use predictors::{
    btfnt_predictions, fallthru_predictions, loop_rand_predictions, perfect_predictions,
    random_predictions, taken_predictions, Attribution, CombinedPredictor, Direction, Predictions,
    DEFAULT_SEED,
};
