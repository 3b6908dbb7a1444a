//! Differential properties of the trace evaluation tiers: over random
//! dictionary-compressed traces, segmented replay must leave observers
//! in exactly the state serial replay produces — at any segment count,
//! including 1 and more segments than events — and the O(dict) tally
//! tier must agree with an O(events) replay on every quantity it
//! derives (instruction totals, occurrence counts, edge profiles).

use bpfree_ir::{BlockId, BranchRef, FuncId};
use bpfree_sim::{BranchTrace, CountingObserver, EdgeProfiler, ExecObserver, TraceEvent};
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (0u64..50, 0u32..3, 0u32..8, any::<bool>()).prop_map(|(instrs, func, block, taken)| {
        TraceEvent {
            instrs,
            branch: BranchRef {
                func: FuncId(func),
                block: BlockId(block),
            },
            taken,
        }
    })
}

/// A random trace: a dictionary of 1–12 events, a sequence of up to 400
/// indices into it, and a trailing instruction count.
fn arb_trace() -> impl Strategy<Value = BranchTrace> {
    proptest::collection::vec(arb_event(), 1..12).prop_flat_map(|dict| {
        let n = dict.len() as u32;
        (
            Just(dict),
            proptest::collection::vec(0..n, 0..400),
            0u64..20,
        )
            .prop_map(|(dict, seq, tail)| {
                BranchTrace::from_parts(dict, seq, tail).expect("indices in range")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Segmented replay ≡ serial replay for the counting observer, at
    /// segment counts from 1 to far beyond the event count.
    #[test]
    fn segmented_counting_equals_serial(trace in arb_trace(), jobs in 1usize..12) {
        let mut serial = CountingObserver::default();
        trace.replay(&mut serial);
        for jobs in [1, 2, 3, 7, jobs, trace.len(), trace.len() + 5] {
            let mut seg = CountingObserver::default();
            trace.replay_segmented_jobs(jobs, &mut seg);
            prop_assert_eq!(seg, serial, "jobs={}", jobs);
        }
    }

    /// Segmented replay ≡ serial replay for the edge profiler.
    #[test]
    fn segmented_profile_equals_serial(trace in arb_trace(), jobs in 1usize..12) {
        let mut serial = EdgeProfiler::new();
        trace.replay(&mut serial);
        for jobs in [1, jobs, trace.len() + 1] {
            let mut seg = EdgeProfiler::new();
            trace.replay_segmented_jobs(jobs, &mut seg);
            prop_assert_eq!(seg.profile(), serial.profile(), "jobs={}", jobs);
        }
    }

    /// The O(dict) tally agrees with an O(events) replay: occurrence
    /// counts sum to the sequence length, the instruction total matches
    /// a counting replay, and the derived edge profile is bit-identical
    /// to a replayed one.
    #[test]
    fn tally_equals_replay(trace in arb_trace()) {
        let tally = trace.tally();
        prop_assert_eq!(
            tally.counts().iter().sum::<u64>() as usize,
            trace.len()
        );

        let mut counter = CountingObserver::default();
        trace.replay(&mut counter);
        prop_assert_eq!(tally.instructions(), counter.instructions);
        prop_assert_eq!(trace.total_instructions(), counter.instructions);

        let mut profiler = EdgeProfiler::new();
        trace.replay(&mut profiler);
        prop_assert_eq!(trace.edge_profile(), profiler.profile());
    }

    /// Per-entry occurrence counts match a hand count of the sequence.
    #[test]
    fn tally_counts_match_sequence(trace in arb_trace()) {
        for (idx, &count) in trace.tally().counts().iter().enumerate() {
            let expected = trace.indices().filter(|&i| i as usize == idx).count();
            prop_assert_eq!(count as usize, expected);
        }
    }
}

/// Not property-based but adjacent: an observer that records the exact
/// event order proves segments replay their ranges in range order after
/// the merge (the merge contract feeds parts back in order).
#[test]
fn replay_events_covers_exact_range() {
    #[derive(Default)]
    struct Log(Vec<(u64, bool)>);
    impl ExecObserver for Log {
        fn on_instrs(&mut self, count: u64) {
            self.0.push((count, false));
        }
        fn on_branch(&mut self, _branch: BranchRef, taken: bool) {
            self.0.push((0, taken));
        }
    }

    let dict = vec![
        TraceEvent {
            instrs: 3,
            branch: BranchRef {
                func: FuncId(0),
                block: BlockId(0),
            },
            taken: true,
        },
        TraceEvent {
            instrs: 0,
            branch: BranchRef {
                func: FuncId(0),
                block: BlockId(1),
            },
            taken: false,
        },
    ];
    let trace = BranchTrace::from_parts(dict, vec![0, 1, 0, 1, 0], 2).unwrap();

    let mut whole = Log::default();
    trace.replay(&mut whole);
    let mut stitched = Log::default();
    trace.replay_events(0..2, &mut stitched);
    trace.replay_events(2..2, &mut stitched); // empty range is a no-op
    trace.replay_events(2..5, &mut stitched);
    stitched.on_instrs(trace.trailing_instrs());
    assert_eq!(whole.0, stitched.0);
}
