//! Property tests pinning the classifier and heuristic table, both
//! per-branch tables in program order (`bpfree_ir::BranchMap`), to a
//! hash-keyed oracle on randomly generated programs and on every
//! compiled suite program.
//!
//! The oracle re-derives every classification and every heuristic cell
//! through the public analysis API into plain `HashMap`s and asserts
//! the tables agree branch-for-branch, through both their program-order
//! iteration and their point lookups, so a misordered, missing or
//! misassigned row cannot survive.

use std::collections::HashMap;

use bpfree_cfg::FunctionAnalysis;
use bpfree_core::heuristics::BranchContext;
use bpfree_core::{BranchClass, BranchClassifier, Direction, HeuristicKind, HeuristicTable};
use bpfree_ir::{BlockId, BranchRef, Cond, Function, FunctionBuilder, Program, Terminator};
use proptest::prelude::*;

/// Builds a function with `n` blocks and pseudo-random terminators
/// derived from `seed` — the same generator shape the CFG property
/// tests use, so loop structure varies freely (nested loops, multiple
/// exits, irreducible regions, unreachable blocks).
fn random_function(name: &str, n: usize, seed: &[u8]) -> Function {
    let mut b = FunctionBuilder::new(name);
    let r = b.new_reg();
    let blocks: Vec<BlockId> = (0..n)
        .map(|i| if i == 0 { b.entry() } else { b.new_block() })
        .collect();
    for (i, &blk) in blocks.iter().enumerate() {
        let s0 = seed[(i * 3) % seed.len()] as usize;
        let s1 = seed[(i * 3 + 1) % seed.len()] as usize;
        let s2 = seed[(i * 3 + 2) % seed.len()] as usize;
        match s0 % 4 {
            0 => b.set_term(
                blk,
                Terminator::Ret {
                    val: None,
                    fval: None,
                },
            ),
            1 => b.set_term(blk, Terminator::Jump(blocks[s1 % n])),
            _ => {
                let taken = blocks[s1 % n];
                let mut fall = blocks[s2 % n];
                if taken == fall {
                    fall = blocks[(s2 + 1) % n];
                }
                if taken == fall {
                    b.set_term(blk, Terminator::Jump(taken));
                } else {
                    b.set_term(
                        blk,
                        Terminator::Branch {
                            cond: Cond::Gtz(r),
                            taken,
                            fallthru: fall,
                        },
                    );
                }
            }
        }
    }
    b.finish().expect("all blocks terminated")
}

fn random_program(funcs: usize, n: usize, seed: &[u8]) -> Program {
    let fs = (0..funcs)
        .map(|f| {
            let name = format!("f{f}");
            // Rotate the seed per function so functions differ.
            let mut s = seed.to_vec();
            let by = f % s.len().max(1);
            s.rotate_left(by);
            random_function(&name, n, &s)
        })
        .collect();
    Program::new(fs, 0).expect("random functions validate")
}

/// The oracle: per-branch classification re-derived through the public
/// loop-analysis queries into hash-keyed tables, mirroring the paper's
/// Section 3 taxonomy exactly as `classify_branch` implements it.
fn oracle_classify(
    program: &Program,
) -> (
    HashMap<BranchRef, BranchClass>,
    HashMap<BranchRef, Option<Direction>>,
) {
    let mut class = HashMap::new();
    let mut loop_pred = HashMap::new();
    for (fid, func) in program.funcs().iter().enumerate() {
        let a = FunctionAnalysis::new(func);
        for (bid, block) in func.blocks().iter().enumerate() {
            let Terminator::Branch {
                taken, fallthru, ..
            } = block.term
            else {
                continue;
            };
            let block = BlockId(bid as u32);
            let b = BranchRef {
                func: bpfree_ir::FuncId(fid as u32),
                block,
            };
            let taken_back = a.loops.is_backedge(block, taken);
            let fall_back = a.loops.is_backedge(block, fallthru);
            let taken_exit = a.loops.is_exit_edge(block, taken);
            let fall_exit = a.loops.is_exit_edge(block, fallthru);
            if !taken_back && !fall_back && !taken_exit && !fall_exit {
                class.insert(b, BranchClass::NonLoop);
                loop_pred.insert(b, None);
                continue;
            }
            let deeper_taken = a.loops.depth(taken) >= a.loops.depth(fallthru);
            let pred = if taken_back && fall_back {
                if deeper_taken {
                    Direction::Taken
                } else {
                    Direction::FallThru
                }
            } else if taken_back {
                Direction::Taken
            } else if fall_back || (taken_exit && !fall_exit) {
                Direction::FallThru
            } else if fall_exit && !taken_exit {
                Direction::Taken
            } else {
                // Both edges are exit edges: stay in the deeper loop.
                if deeper_taken {
                    Direction::Taken
                } else {
                    Direction::FallThru
                }
            };
            class.insert(b, BranchClass::Loop);
            loop_pred.insert(b, Some(pred));
        }
    }
    (class, loop_pred)
}

/// The oracle's heuristic matrix: every cell computed by a direct
/// `HeuristicKind::predict` call, keyed by hash.
fn oracle_table(
    program: &Program,
    class: &HashMap<BranchRef, BranchClass>,
) -> HashMap<BranchRef, [Option<Direction>; 7]> {
    let mut out = HashMap::new();
    for (fid, func) in program.funcs().iter().enumerate() {
        let a = FunctionAnalysis::new(func);
        for b in program.branches() {
            if b.func.index() != fid || class[&b] != BranchClass::NonLoop {
                continue;
            }
            let ctx = BranchContext::new(program, &a, b);
            let mut row = [None; 7];
            for kind in HeuristicKind::ALL {
                row[kind.index()] = kind.predict(&ctx);
            }
            out.insert(b, row);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Classification agrees with the hash-keyed oracle on every branch,
    /// and its iteration order is exactly program order.
    #[test]
    fn dense_classification_matches_hash_oracle(
        funcs in 1usize..4,
        n in 1usize..20,
        seed in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let p = random_program(funcs, n, &seed);
        let c = BranchClassifier::analyze(&p);
        let (oracle_class, oracle_pred) = oracle_classify(&p);

        prop_assert_eq!(c.rows().count(), oracle_class.len());
        for (b, class, pred) in c.rows() {
            prop_assert_eq!(class, oracle_class[&b], "class of {}", b);
            prop_assert_eq!(pred, oracle_pred[&b], "loop prediction of {}", b);
        }
        let order: Vec<BranchRef> = c.branches().map(|(b, _)| b).collect();
        prop_assert_eq!(order, p.branches(), "iteration is program order");

        // Point lookups find every branch's row.
        for b in p.branches() {
            prop_assert_eq!(c.class(b), oracle_class[&b], "class lookup of {}", b);
            prop_assert_eq!(c.loop_prediction(b), oracle_pred[&b], "loop prediction lookup of {}", b);
        }
    }

    /// The heuristic table agrees cell-for-cell with direct
    /// heuristic evaluation keyed by hash.
    #[test]
    fn dense_heuristic_table_matches_hash_oracle(
        funcs in 1usize..3,
        n in 1usize..16,
        seed in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let p = random_program(funcs, n, &seed);
        let c = BranchClassifier::analyze(&p);
        let t = HeuristicTable::build(&p, &c);
        let (oracle_class, _) = oracle_classify(&p);
        let oracle = oracle_table(&p, &oracle_class);

        prop_assert_eq!(t.rows().count(), oracle.len());
        for (b, row) in t.rows() {
            prop_assert_eq!(row, oracle[&b], "heuristic row of {}", b);
            for kind in HeuristicKind::ALL {
                prop_assert_eq!(t.prediction(b, kind), oracle[&b][kind.index()]);
            }
        }
    }

    /// Classification survives a cache round trip through the
    /// row encoding (the engine's warm path) on arbitrary programs.
    #[test]
    fn cached_rows_reproduce_classification(
        funcs in 1usize..3,
        n in 1usize..16,
        seed in proptest::collection::vec(any::<u8>(), 8..64),
    ) {
        let p = random_program(funcs, n, &seed);
        let c = BranchClassifier::analyze(&p);
        let rows: Vec<_> = c.rows().collect();
        let rebuilt = BranchClassifier::from_cached(&p, &rows).expect("rows match");
        for b in p.branches() {
            prop_assert_eq!(rebuilt.class(b), c.class(b));
            prop_assert_eq!(rebuilt.loop_prediction(b), c.loop_prediction(b));
        }
    }
}

/// The classifier and heuristic table agree with the hash-keyed
/// oracle on every branch of all 23 compiled suite programs.
#[test]
fn dense_analysis_matches_hash_oracle_on_the_suite() {
    let suite = bpfree_suite::all();
    assert_eq!(suite.len(), 23);
    let (mut loops, mut nonloops) = (0, 0);
    for bench in suite {
        let p = bench.compile().expect("suite programs compile");
        let c = BranchClassifier::analyze(&p);
        let t = HeuristicTable::build(&p, &c);
        let (oracle_class, oracle_pred) = oracle_classify(&p);
        let oracle = oracle_table(&p, &oracle_class);

        assert_eq!(c.rows().count(), oracle_class.len(), "{}", bench.name);
        for (b, class, pred) in c.rows() {
            assert_eq!(class, oracle_class[&b], "{}: class of {b}", bench.name);
            assert_eq!(
                pred, oracle_pred[&b],
                "{}: loop prediction of {b}",
                bench.name
            );
        }
        assert_eq!(t.rows().count(), oracle.len(), "{}", bench.name);
        for (b, row) in t.rows() {
            assert_eq!(row, oracle[&b], "{}: heuristic row of {b}", bench.name);
        }
        nonloops += oracle.len();
        loops += oracle_class.len() - oracle.len();
    }
    assert!(
        loops > 0 && nonloops > 0,
        "{loops} loop, {nonloops} non-loop"
    );
}
