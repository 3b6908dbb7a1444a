//! Replaying a recorded trace.
//!
//! [`BranchTrace::replay`] is the reference: it streams every recorded
//! event through an [`ExecObserver`], as if the program ran again. An
//! analysis that can score a whole trace faster than per-event dispatch
//! implements [`TraceKernel`] instead, and must end in exactly the state
//! the reference replay leaves it in (`bpfree-core`'s IPBC analyzer is
//! the one kernel; `crates/core/tests/ipbc_props.rs` pins it to this
//! replay).
//!
//! # Fidelity
//!
//! Replay coalesces the straight-line instruction counts between two
//! branch events into a single [`ExecObserver::on_instrs`] call. Any
//! observer that accumulates counts (every observer in this workspace)
//! sees bit-identical totals at every branch event; only the block-level
//! granularity of `on_instrs` calls differs from the live run.

use crate::observer::ExecObserver;
use crate::trace::BranchTrace;

/// An analysis with its own pass over a whole trace.
pub trait TraceKernel {
    /// Scores every event of `trace` in order, then its trailing
    /// instructions, leaving the same state [`BranchTrace::replay`]
    /// would.
    fn replay_trace(&mut self, trace: &BranchTrace);
}

impl BranchTrace {
    /// Streams the recorded execution into `observer`. Any number of
    /// observers can replay the same trace, so one interpreter pass
    /// serves every post-hoc analysis.
    pub fn replay<O: ExecObserver + ?Sized>(&self, observer: &mut O) {
        for event in self.events() {
            if event.instrs > 0 {
                observer.on_instrs(event.instrs);
            }
            observer.on_branch(event.branch, event.taken);
        }
        if self.trailing_instrs() > 0 {
            observer.on_instrs(self.trailing_instrs());
        }
    }

    /// Runs `kernel` over this trace: `kernel.replay_trace(self)`, on
    /// the calling thread.
    ///
    /// The name outlives the parallel segmented replay it once named,
    /// because the repository benchmark (`benchmark/src/expall.rs`)
    /// times this call; it goes with the next change to the benchmark.
    pub fn replay_segmented<K: TraceKernel + ?Sized>(&self, kernel: &mut K) {
        kernel.replay_trace(self);
    }
}

#[cfg(test)]
mod tests {
    use crate::observer::CountingObserver;
    use crate::trace::TraceRecorder;
    use crate::ExecObserver;

    #[test]
    fn empty_trace_still_delivers_trailing_instrs() {
        let mut rec = TraceRecorder::new();
        rec.on_instrs(42);
        let trace = rec.into_trace();
        let mut counter = CountingObserver::default();
        trace.replay(&mut counter);
        assert_eq!(counter.instructions, 42);
        assert_eq!(counter.branches, 0);
    }
}
