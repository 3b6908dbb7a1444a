//! Segmented parallel trace replay.
//!
//! [`BranchTrace::replay`](crate::BranchTrace::replay) streams events
//! serially through one [`ExecObserver`]; this module adds the parallel
//! tier. The event sequence is split into contiguous index ranges (one
//! per worker), each range is replayed independently into a
//! [`TraceSegment`], and the per-segment states are merged back — in
//! range order — into the parent observer. Observers that can express
//! their state as "independently computable per segment + ordered
//! merge" implement [`SegmentedObserver`]; for all of them the result
//! is *bit-identical* to serial replay at any segment count, because
//! every quantity involved is an integer sum or an ordered stitch of
//! integer run-lengths (no floating-point reassociation happens before
//! the final reporting step).
//!
//! Order-dependent state (e.g. the length of a correct-prediction run
//! in IPBC analysis) is handled by the merge contract: a segment keeps
//! the run that was *open when it started* separate from its local
//! histogram, and `merge` joins the parent's open tail with each
//! segment's open prefix in order. See `DESIGN.md` §8 for the proof
//! sketch.

use std::ops::Range;

use crate::observer::{CountingObserver, ExecObserver};
use crate::profile::EdgeProfiler;
use crate::trace::BranchTrace;

/// Per-worker replay state for one contiguous slice of a trace.
///
/// A segment starts blank (via [`SegmentedObserver::segment`]), replays
/// exactly the events of its index range — never the trailing
/// instruction count, which the parent delivers after the merge — and
/// is then consumed by [`SegmentedObserver::merge`].
pub trait TraceSegment: Send {
    /// Replays the trace's index sequence over `range` into this
    /// segment's state.
    ///
    /// Implementations are free to bypass the generic
    /// [`ExecObserver`] dispatch and scan the dictionary-compressed
    /// representation directly (see `IpbcAnalyzer`'s fused kernel).
    fn replay(&mut self, trace: &BranchTrace, range: Range<usize>);
}

/// An observer whose state can be computed segment-wise and merged.
///
/// The contract: for any partition of the event sequence into
/// contiguous ranges, `prepare` + (`segment` → [`TraceSegment::replay`]
/// per range, in any thread order) + `merge` with the parts in *range
/// order* must leave the observer in exactly the state serial replay of
/// the same events would have produced.
pub trait SegmentedObserver: ExecObserver {
    /// The per-worker state type.
    type Segment: TraceSegment;

    /// One-time hook before segments are spawned — e.g. to precompute
    /// shared per-dictionary lookup tables for the trace at hand.
    fn prepare(&mut self, trace: &BranchTrace) {
        let _ = trace;
    }

    /// Creates a blank segment (called once per range, before replay).
    fn segment(&self) -> Self::Segment;

    /// Folds per-segment states back in. `parts` is ordered by range —
    /// `parts[0]` replayed the earliest events — which is what lets
    /// order-dependent state (open run-lengths) stitch correctly.
    fn merge(&mut self, parts: Vec<Self::Segment>);
}

impl BranchTrace {
    /// Replays this trace through `observer` split into
    /// [`bpfree_par::jobs`] segments replayed in parallel — the parallel
    /// tier. Equivalent to (and bit-identical with)
    /// [`BranchTrace::replay`] for any conforming [`SegmentedObserver`],
    /// at any job count.
    pub fn replay_segmented<O: SegmentedObserver + Sync>(&self, observer: &mut O) {
        self.replay_segmented_jobs(bpfree_par::jobs(), observer);
    }

    /// [`BranchTrace::replay_segmented`] with an explicit worker count
    /// (also the segment count). `n_jobs` of 0 or 1 still goes through
    /// the segment/merge path — useful for equivalence tests — but runs
    /// on the calling thread.
    ///
    /// The *segmentation* always follows `n_jobs` (so the merge
    /// structure, and hence the exact arithmetic, is a function of the
    /// requested job count alone); the segments run through
    /// [`bpfree_par::par_map_jobs`], whose thread count is capped by
    /// [`bpfree_par::clamp_workers`]. More threads than the machine has
    /// cores would only add scheduling cost, and the merge contract
    /// makes the result identical either way.
    pub fn replay_segmented_jobs<O: SegmentedObserver + Sync>(
        &self,
        n_jobs: usize,
        observer: &mut O,
    ) {
        observer.prepare(self);
        let n_jobs = n_jobs.max(1);
        let ranges = bpfree_par::split_ranges(self.len() as u64, n_jobs);
        let shared: &O = observer;
        let parts = bpfree_par::par_map_jobs(n_jobs, &ranges, |range| {
            let mut segment = shared.segment();
            segment.replay(self, range.start as usize..range.end as usize);
            segment
        });
        observer.merge(parts);
        if self.trailing_instrs() > 0 {
            observer.on_instrs(self.trailing_instrs());
        }
    }
}

impl TraceSegment for EdgeProfiler {
    fn replay(&mut self, trace: &BranchTrace, range: Range<usize>) {
        trace.replay_events(range, self);
    }
}

impl SegmentedObserver for EdgeProfiler {
    type Segment = EdgeProfiler;

    fn segment(&self) -> EdgeProfiler {
        EdgeProfiler::new()
    }

    fn merge(&mut self, parts: Vec<EdgeProfiler>) {
        for part in parts {
            self.absorb(part);
        }
    }
}

impl TraceSegment for CountingObserver {
    fn replay(&mut self, trace: &BranchTrace, range: Range<usize>) {
        trace.replay_events(range, self);
    }
}

impl SegmentedObserver for CountingObserver {
    type Segment = CountingObserver;

    fn segment(&self) -> CountingObserver {
        CountingObserver::default()
    }

    fn merge(&mut self, parts: Vec<CountingObserver>) {
        for part in parts {
            self.instructions += part.instructions;
            self.branches += part.branches;
            self.taken += part.taken;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRecorder;
    use bpfree_ir::{BlockId, BranchRef, FuncId};

    fn b(block: u32) -> BranchRef {
        BranchRef {
            func: FuncId(0),
            block: BlockId(block),
        }
    }

    fn sample_trace() -> BranchTrace {
        let mut rec = TraceRecorder::new();
        for i in 0u64..257 {
            rec.on_instrs(1 + i % 4);
            rec.on_branch(b((i % 5) as u32), i % 3 != 0);
        }
        rec.on_instrs(9);
        rec.into_trace()
    }

    #[test]
    fn segmented_counting_matches_serial_at_any_job_count() {
        let trace = sample_trace();
        let mut serial = CountingObserver::default();
        trace.replay(&mut serial);
        for jobs in [0, 1, 2, 3, 7, 64, 1000] {
            let mut seg = CountingObserver::default();
            trace.replay_segmented_jobs(jobs, &mut seg);
            assert_eq!(seg, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn segmented_profile_matches_serial_at_any_job_count() {
        let trace = sample_trace();
        let mut serial = EdgeProfiler::new();
        trace.replay(&mut serial);
        for jobs in [1, 2, 5, 300] {
            let mut seg = EdgeProfiler::new();
            trace.replay_segmented_jobs(jobs, &mut seg);
            assert_eq!(seg.profile(), serial.profile(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_trace_still_delivers_trailing_instrs() {
        let mut rec = TraceRecorder::new();
        rec.on_instrs(42);
        let trace = rec.into_trace();
        let mut seg = CountingObserver::default();
        trace.replay_segmented_jobs(8, &mut seg);
        assert_eq!(seg.instructions, 42);
        assert_eq!(seg.branches, 0);
    }
}
