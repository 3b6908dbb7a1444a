//! **Guard heuristic.** From the paper: *"Register r is an operand of the
//! branch instruction, register r is used in the successor block before
//! it is defined, and the successor block does not postdominate the
//! branch. If the heuristic applies, predict the successor with the
//! property."* Most guards catch exceptional conditions; the common case
//! lets the guarded value flow to its use — e.g. a null-pointer test
//! guarding a dereference is usually not null.
//!
//! The paper notes the heuristic "analyzes both integer and floating
//! point branches": for a branch on the FP condition flag, the operands
//! are the registers of the compare that set the flag. This is what makes
//! guard *mispredict* tomcatv's max-update branches (`if (a > max) max =
//! a` uses `a` in the update), the paper's marquee failure case.

use bpfree_ir::{BlockId, FReg, Instr, Reg, Terminator};

use super::BranchContext;
use crate::predictors::Direction;

pub(super) fn predict(ctx: &BranchContext<'_>) -> Option<Direction> {
    let operands: Vec<Reg> = ctx.cond.uses().collect();
    let foperands = if ctx.cond.uses_fflag() {
        last_fcmp_operands(ctx)
    } else {
        Vec::new()
    };
    if operands.is_empty() && foperands.is_empty() {
        return None;
    }
    ctx.select(
        |s| {
            !ctx.postdominates_branch(s)
                && (operands.iter().any(|&r| used_before_defined(ctx, s, r))
                    || foperands.iter().any(|&r| fused_before_defined(ctx, s, r)))
        },
        true,
    )
}

/// The operands of the compare that set the FP flag this branch reads.
fn last_fcmp_operands(ctx: &BranchContext<'_>) -> Vec<FReg> {
    ctx.func
        .block(ctx.block)
        .instrs
        .iter()
        .rev()
        .find_map(|i| match i {
            Instr::CmpF { fs, ft, .. } => Some(vec![*fs, *ft]),
            _ => None,
        })
        .unwrap_or_default()
}

/// Is `r` read in block `s` before any instruction redefines it? The
/// block's terminator counts as a use site.
fn used_before_defined(ctx: &BranchContext<'_>, s: BlockId, r: Reg) -> bool {
    let block = ctx.func.block(s);
    for instr in &block.instrs {
        if instr.uses().any(|u| u == r) {
            return true;
        }
        if instr.def() == Some(r) {
            return false;
        }
    }
    match &block.term {
        Terminator::Branch { cond, .. } => cond.uses().any(|u| u == r),
        Terminator::Ret { val, .. } => *val == Some(r),
        Terminator::Jump(_) => false,
    }
}

/// Float-register analogue of [`used_before_defined`].
fn fused_before_defined(ctx: &BranchContext<'_>, s: BlockId, r: FReg) -> bool {
    let block = ctx.func.block(s);
    for instr in &block.instrs {
        if instr.fuses().any(|u| u == r) {
            return true;
        }
        if instr.fdef() == Some(r) {
            return false;
        }
    }
    matches!(&block.term, Terminator::Ret { fval: Some(fr), .. } if *fr == r)
}

#[cfg(test)]
mod tests {
    use crate::heuristics::testutil::{predictions_for, single_prediction};
    use crate::heuristics::HeuristicKind;
    use crate::predictors::Direction;

    const K: HeuristicKind = HeuristicKind::Guard;

    #[test]
    fn null_guard_predicts_the_dereference_side() {
        let d = single_prediction(
            "fn f(ptr p) -> int {
                int v;
                if (p != null) { v = p[0]; }
                return v;
            }
            fn main() -> int { ptr q; q = alloc(1); return f(q); }",
            K,
        );
        // The then block dereferences p (uses the branch operand). It is
        // the fall-through side; predict WITH the property.
        assert_eq!(d, Some(Direction::FallThru));
    }

    #[test]
    fn value_used_on_both_sides_not_covered() {
        let d = single_prediction(
            "fn f(int x) -> int {
                int v;
                if (x == 7) { v = x + 1; } else { v = x - 1; }
                return v;
            }
            fn main() -> int { return f(7); }",
            K,
        );
        assert_eq!(d, None);
    }

    #[test]
    fn redefinition_before_use_is_not_a_use() {
        let preds = predictions_for(
            "fn f(int x) -> int {
                int v;
                if (x == 9) { x = 0; v = x; } else { v = 5; }
                return v;
            }
            fn main() -> int { return f(2); }",
            K,
        );
        // In the then arm, x is redefined (Move x <- 0) before any read
        // of x; the else arm never touches x. Not covered.
        assert_eq!(preds, vec![None]);
    }

    #[test]
    fn float_max_guard_predicts_the_update_side() {
        // The tomcatv pattern: `if (r > max) { max = r; }` — the update
        // block reads r (a compare operand), so guard predicts the
        // update. On max-finding sweeps this is the RARE side: the
        // paper's famous guard misprediction.
        let preds = predictions_for(
            "global float a[8];
            global int touched;
            fn main() -> int {
                int i;
                float maxv; float r;
                maxv = -1000000.0;
                for (i = 0; i < 8; i = i + 1) {
                    r = a[i];
                    if (r > maxv) { maxv = r; touched = touched + 1; }
                }
                return touched;
            }",
            K,
        );
        // The max test's update block is the fall-through (branch-over):
        // guard predicts FallThru. (The loop guard is not covered.)
        assert!(preds.contains(&Some(Direction::FallThru)), "{preds:?}");
    }

    #[test]
    fn float_branch_without_use_not_covered() {
        let d = single_prediction(
            "fn f(float x) -> int {
                int v;
                if (x > 0.5) { v = 1; }
                return v;
            }
            fn main() -> int { return f(0.7); }",
            K,
        );
        assert_eq!(d, None);
    }
}
