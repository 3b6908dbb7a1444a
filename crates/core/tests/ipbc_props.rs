//! The fused IPBC kernel against the reference replay: for random
//! predictor assignments and random traces over a real compiled
//! program, [`TraceKernel::replay_trace`] on an `IpbcAnalyzer` must
//! produce *exactly* the distributions that streaming the same trace
//! through the analyzer's `ExecObserver` ([`BranchTrace::replay`])
//! produces — every bucket, every counter — whether the trace stores
//! its sequence one byte per event, four bytes per event, or borrows
//! the bytes from a shared buffer the way a mounted suite image does.

use std::sync::Arc;

use bpfree_core::ipbc::IpbcAnalyzer;
use bpfree_core::{Direction, Predictions};
use bpfree_ir::{BranchRef, Program, Terminator};
use bpfree_sim::{
    BranchTrace, ByteView, ExecObserver, TraceEvent, TraceKernel, TraceRecorder, TraceSeq,
};
use proptest::prelude::*;

/// A fixed program with a healthy number of branch sites; the traces
/// are synthesised over its sites, so one compile serves every case.
fn program() -> &'static Program {
    use std::sync::OnceLock;
    static P: OnceLock<Program> = OnceLock::new();
    P.get_or_init(|| {
        bpfree_lang::compile(
            "fn helper(int n) -> int {
                int s; int i;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
                    if (s > 100) { s = 0; }
                }
                return s;
            }
            fn main() -> int {
                int a; int b;
                a = helper(10);
                if (a < 0) { b = 1; }
                while (b < 5) { b = b + 1; }
                return a + b;
            }",
        )
        .unwrap()
    })
}

/// Every conditional branch site of the program.
fn branch_sites(p: &Program) -> Vec<BranchRef> {
    let mut sites = Vec::new();
    for fid in p.func_ids() {
        let func = p.func(fid);
        for bid in func.block_ids() {
            if let Terminator::Branch { .. } = func.block(bid).term {
                sites.push(BranchRef {
                    func: fid,
                    block: bid,
                });
            }
        }
    }
    sites
}

/// A random (possibly partial) prediction set: one choice per site,
/// 0 = unpredicted, 1 = taken, 2 = fall-through.
fn arb_predictions(n_sites: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, n_sites..=n_sites)
}

fn to_predictions(sites: &[BranchRef], choices: &[u8]) -> Predictions {
    let mut p = Predictions::new();
    for (&site, &c) in sites.iter().zip(choices) {
        match c {
            1 => p.set(site, Direction::Taken),
            2 => p.set(site, Direction::FallThru),
            _ => {}
        }
    }
    p
}

/// The parts of a random trace over the program's real branch sites:
/// a dictionary of `dict_len` entries (instruction counts mostly short,
/// sometimes thousands, so runs reach the last histogram bucket), up to
/// 400 indices into it, and a trailing instruction count.
fn arb_parts(
    dict_len: std::ops::Range<usize>,
) -> impl Strategy<Value = (Vec<TraceEvent>, Vec<u32>, u64)> {
    let n_sites = branch_sites(program()).len();
    let instrs = prop_oneof![4 => 0u64..30, 1 => 0u64..4000];
    let entry = (instrs, 0..n_sites, any::<bool>());
    proptest::collection::vec(entry, dict_len).prop_flat_map(|raw| {
        let sites = branch_sites(program());
        let dict: Vec<TraceEvent> = raw
            .iter()
            .map(|&(instrs, site, taken)| TraceEvent {
                instrs,
                branch: sites[site],
                taken,
            })
            .collect();
        let n = dict.len() as u32;
        (
            Just(dict),
            proptest::collection::vec(0..n, 0..400),
            0u64..15,
        )
    })
}

fn arb_trace(dict_len: std::ops::Range<usize>) -> impl Strategy<Value = BranchTrace> {
    arb_parts(dict_len).prop_map(|(dict, seq, tail)| {
        BranchTrace::from_parts(dict, seq, tail).expect("indices in range")
    })
}

/// Three predictors from random per-site choices.
fn arb_predictors() -> impl Strategy<Value = Vec<Predictions>> {
    let sites = branch_sites(program());
    proptest::collection::vec(arb_predictions(sites.len()), 3..=3)
        .prop_map(move |choices| choices.iter().map(|c| to_predictions(&sites, c)).collect())
}

/// The kernel and the reference replay agree on `trace` after one pass,
/// and after two passes (the second starts with every predictor's run
/// still open).
fn check_kernel(trace: &BranchTrace, predictors: &[Predictions]) {
    let analyzer = || {
        let mut a = IpbcAnalyzer::new(program());
        for (i, p) in predictors.iter().enumerate() {
            a.add_predictor(format!("p{i}"), p);
        }
        a
    };
    for passes in 1..=2 {
        let (mut reference, mut fused) = (analyzer(), analyzer());
        for _ in 0..passes {
            trace.replay(&mut reference);
            fused.replay_trace(trace);
        }
        assert_eq!(fused.finish(), reference.finish(), "passes={passes}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dictionaries of at most 256 entries: the byte-wide store.
    #[test]
    fn kernel_matches_replay_on_narrow_traces(
        trace in arb_trace(1..12),
        predictors in arb_predictors(),
    ) {
        prop_assert!(matches!(trace.seq(), TraceSeq::Narrow(_)));
        check_kernel(&trace, &predictors);
    }

    /// Dictionaries past 256 entries: the word-wide store.
    #[test]
    fn kernel_matches_replay_on_wide_traces(
        trace in arb_trace(257..320),
        predictors in arb_predictors(),
    ) {
        prop_assert!(matches!(trace.seq(), TraceSeq::Wide(_)));
        check_kernel(&trace, &predictors);
    }

    /// Byte-wide indices borrowed from inside a larger buffer, as a
    /// mounted image serves them; the trace equals its owned twin.
    #[test]
    fn kernel_matches_replay_on_borrowed_traces(
        (dict, seq, tail) in arb_parts(1..12),
        offset in 0usize..16,
        predictors in arb_predictors(),
    ) {
        let mut buf = vec![0xFF; offset];
        buf.extend(seq.iter().map(|&i| i as u8));
        buf.extend_from_slice(&[0xFF; 5]);
        let view = ByteView::new(Arc::new(buf), offset, seq.len()).expect("in bounds");
        let borrowed = BranchTrace::from_borrowed_parts(dict.clone(), view, tail)
            .expect("indices in range");
        let owned = BranchTrace::from_parts(dict, seq, tail).expect("indices in range");
        prop_assert_eq!(&borrowed, &owned);
        check_kernel(&borrowed, &predictors);
    }

    /// A recorded trace is stored byte-wide exactly when its dictionary
    /// has at most 256 entries, and the kernel scores it either way.
    #[test]
    fn recorded_traces_are_byte_wide_exactly_up_to_256_entries(
        distinct in 250usize..262,
        repeats in proptest::collection::vec(any::<usize>(), 0..300),
        predictors in arb_predictors(),
    ) {
        let sites = branch_sites(program());
        // `distinct` different events: instruction counts tell them apart.
        let events: Vec<TraceEvent> = (0..distinct)
            .map(|i| TraceEvent {
                instrs: i as u64,
                branch: sites[i % sites.len()],
                taken: i % 3 == 0,
            })
            .collect();
        let mut rec = TraceRecorder::new();
        let order = events.iter().chain(repeats.iter().map(|&i| &events[i % distinct]));
        for e in order {
            rec.on_instrs(e.instrs);
            rec.on_branch(e.branch, e.taken);
        }
        rec.on_instrs(4);
        let trace = rec.into_trace();
        prop_assert_eq!(trace.dict().len(), distinct);
        prop_assert_eq!(matches!(trace.seq(), TraceSeq::Narrow(_)), distinct <= 256);
        check_kernel(&trace, &predictors);
    }
}
