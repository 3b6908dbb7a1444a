//! Differential properties of the O(dict) tally: over random
//! dictionary-compressed traces it must agree with an O(events) replay
//! on every quantity it derives (instruction totals, occurrence counts,
//! edge profiles).

use bpfree_ir::{BlockId, BranchRef, FuncId};
use bpfree_sim::{BranchTrace, CountingObserver, EdgeProfiler, TraceEvent};
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
