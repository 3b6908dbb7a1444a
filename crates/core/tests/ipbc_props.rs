//! Differential properties of segmented IPBC analysis: for random
//! predictor assignments and random traces over a real compiled
//! program, segmented replay of an `IpbcAnalyzer` (the fused kernel
//! plus run-stitching merge) must produce *exactly* the distributions
//! serial replay produces — every bucket, every counter — at any
//! segment count.

use bpfree_core::ipbc::IpbcAnalyzer;
use bpfree_core::{Direction, Predictions};
use bpfree_ir::{BranchRef, Program, Terminator};
use bpfree_sim::{BranchTrace, TraceEvent};
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

/// A random (possibly partial) prediction set: 0 = unpredicted,
/// 1 = taken, 2 = fall-through, zipped against the program's sites
/// (over-provisioned so the exact site count doesn't matter).
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

/// A random trace whose events reference the program's real branch
/// sites (instruction counts up to 30, sequences up to 300 events).
fn arb_trace() -> impl Strategy<Value = BranchTrace> {
    let sites = branch_sites(program());
    let n_sites = sites.len() as u32;
    proptest::collection::vec((0u64..30, 0..n_sites, any::<bool>()), 1..10).prop_flat_map(
        move |raw| {
            let sites = branch_sites(program());
            let dict: Vec<TraceEvent> = raw
                .iter()
                .map(|&(instrs, site, taken)| TraceEvent {
                    instrs,
                    branch: sites[site as usize],
                    taken,
                })
                .collect();
            let n = dict.len() as u32;
            (
                Just(dict),
                proptest::collection::vec(0..n, 0..300),
                0u64..15,
            )
                .prop_map(|(dict, seq, tail)| {
                    BranchTrace::from_parts(dict, seq, tail).expect("indices in range")
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Segmented IPBC analysis ≡ serial, for three random predictors
    /// scored simultaneously, at segment counts spanning 1 to beyond
    /// the event count. `SequenceDist` derives `PartialEq`, so this
    /// compares every bucket of every histogram.
    #[test]
    fn segmented_ipbc_equals_serial(
        trace in arb_trace(),
        c1 in arb_predictions(16),
        c2 in arb_predictions(16),
        c3 in arb_predictions(16),
        jobs in 1usize..10,
    ) {
        let p = program();
        let sites = branch_sites(p);
        let preds = [
            to_predictions(&sites, &c1),
            to_predictions(&sites, &c2),
            to_predictions(&sites, &c3),
        ];

        let mut serial = IpbcAnalyzer::new(p);
        for (i, pr) in preds.iter().enumerate() {
            serial.add_predictor(format!("p{i}"), pr);
        }
        trace.replay(&mut serial);
        let serial_dists = serial.finish();

        for jobs in [1, 2, jobs, trace.len(), trace.len() + 3] {
            let mut seg = IpbcAnalyzer::new(p);
            for (i, pr) in preds.iter().enumerate() {
                seg.add_predictor(format!("p{i}"), pr);
            }
            trace.replay_segmented_jobs(jobs, &mut seg);
            let seg_dists = seg.finish();
            prop_assert_eq!(&seg_dists, &serial_dists, "jobs={}", jobs);
        }
    }

}
