//! An interpreter for the bpfree IR, playing the role the authors' QPT
//! tool played in the paper: it executes programs while streaming
//! execution events to observers, from which edge profiles (per-branch
//! taken/fall-through counts) and instruction-granularity traces are
//! derived.
//!
//! The paper instrumented MIPS executables; we interpret IR directly. The
//! observable events are identical: dynamic instruction counts and, for
//! every conditional branch execution, which way it went. A streaming
//! [`ExecObserver`] API replaces materialised trace files so that
//! hundred-million-instruction runs need no storage.
//!
//! Two interpreter tiers execute the same IR (see [`InterpTier`]): the
//! default pre-decoded flat-bytecode tier ([`BytecodeProgram`] compiled
//! once, executed over an explicit frame stack), and the original
//! tree-walking reference. Their observable behaviour — results,
//! errors, and the full observer event stream — is identical by
//! construction and enforced by differential tests.
//!
//! # Example
//!
//! ```
//! use bpfree_sim::{EdgeProfiler, Simulator};
//!
//! let program = bpfree_lang::compile(
//!     "fn main() -> int {
//!         int i; int s;
//!         for (i = 0; i < 10; i = i + 1) { s = s + i; }
//!         return s;
//!     }",
//! ).unwrap();
//! let mut profiler = EdgeProfiler::new();
//! let result = Simulator::new(&program).run(&mut profiler).unwrap();
//! assert_eq!(result.exit, 45);
//! let profile = profiler.into_profile();
//! assert!(profile.total_branches() > 0);
//! ```

#![deny(missing_docs)]
// The executor's hot loop is the crate's only `unsafe` (see its module
// docs and DESIGN §7); nothing else may add any.
#![deny(unsafe_code)]

mod bytes;
mod decode;
mod error;
#[allow(unsafe_code)]
mod exec;
mod interp;
mod observer;
mod profile;
mod replay;
mod trace;

pub use bytes::ByteView;
pub use decode::BytecodeProgram;
pub use error::SimError;
pub use interp::{InterpTier, RunResult, SimConfig, Simulator};
pub use observer::{BranchSite, CountingObserver, ExecObserver, NullObserver, Pair};
pub use profile::{EdgeCounts, EdgeProfile, EdgeProfiler};
pub use replay::TraceKernel;
pub use trace::{BranchTrace, TraceEvent, TraceRecorder, TraceSeq, TraceTally};
