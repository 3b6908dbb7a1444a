//! The block-frequency solver ([`estimate_block_frequencies`]) pinned
//! bit for bit to the plain Jacobi loop it replaced, on every function
//! of every suite program, at the three confidence settings the
//! `freq_estimate` experiment uses.

use bpfree_core::freq::{estimate_block_frequencies, BranchProbabilities, Confidence};
use bpfree_core::{BranchClassifier, CombinedPredictor, HeuristicKind};
use bpfree_ir::{BranchRef, FuncId, Program, Terminator};

/// The definition: per-block incoming lists, a fresh `next` vector
/// every round, each block summing its incoming products in block-scan
/// order.
fn naive_block_frequencies(
    program: &Program,
    func: FuncId,
    probs: &BranchProbabilities,
) -> Vec<f64> {
    let f = program.func(func);
    let n = f.blocks().len();
    let mut incoming: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for bid in f.block_ids() {
        match &f.block(bid).term {
            Terminator::Jump(t) => incoming[t.index()].push((bid.index(), 1.0)),
            Terminator::Branch {
                taken, fallthru, ..
            } => {
                let p = probs.taken(BranchRef { func, block: bid });
                incoming[taken.index()].push((bid.index(), p));
                incoming[fallthru.index()].push((bid.index(), 1.0 - p));
            }
            Terminator::Ret { .. } => {}
        }
    }
    let mut freqs = vec![0.0f64; n];
    freqs[0] = 1.0;
    for _ in 0..20_000 {
        let mut next = vec![0.0f64; n];
        next[0] = 1.0;
        for b in 0..n {
            for &(p, prob) in &incoming[b] {
                next[b] += freqs[p] * prob;
            }
        }
        let delta: f64 = next.iter().zip(&freqs).map(|(a, b)| (a - b).abs()).sum();
        freqs = next;
        if delta < 1e-9 {
            break;
        }
    }
    freqs
}

#[test]
fn solver_matches_the_plain_jacobi_loop_on_every_suite_function() {
    let suite: Vec<_> = bpfree_suite::all()
        .into_iter()
        .map(|bench| {
            let program = bench.compile().expect("suite programs compile");
            let classifier = BranchClassifier::analyze(&program);
            let predictor =
                CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order());
            let (profile, _) = bench.profile(&program, 0).expect("dataset 0 runs");
            (bench, program, classifier, predictor, profile)
        })
        .collect();
    let calibrated =
        Confidence::calibrate(suite.iter().map(|(_, _, c, cp, profile)| (cp, profile, c)));
    let flat = Confidence {
        loop_branch: 0.5,
        heuristic: 0.5,
        default: 0.5,
    };
    let mut functions = 0;
    for confidence in [Confidence::default(), calibrated, flat] {
        for (bench, program, _, predictor, _) in &suite {
            let probs = BranchProbabilities::from_predictor(program, predictor, confidence);
            for func in program.func_ids() {
                let got: Vec<u64> = estimate_block_frequencies(program, func, &probs)
                    .as_slice()
                    .iter()
                    .map(|f| f.to_bits())
                    .collect();
                let want: Vec<u64> = naive_block_frequencies(program, func, &probs)
                    .iter()
                    .map(|f| f.to_bits())
                    .collect();
                assert_eq!(
                    got, want,
                    "{} function {func:?} at {confidence:?}",
                    bench.name
                );
                functions += 1;
            }
        }
    }
    assert!(functions > 3 * 23, "only {functions} functions solved");
}
