//! Generalised heuristics — the paper's Section 4.4 future work.
//!
//! *"All of the heuristics discussed above are very local in nature …
//! Some of the heuristics could clearly be generalized to consider more
//! basic blocks. For example, the guard heuristic could look farther
//! away from the branch to see if the branch value is reused by an
//! instruction whose execution is controlled by the branch. Other
//! heuristics could be similarly generalized. It remains to be seen how
//! such generalizations affect the coverage and performance of the
//! heuristics."*
//!
//! This module implements those generalisations with a configurable
//! block-depth bound and the same selection-property scheme, so the
//! `extensions` experiment binary can answer the paper's open question
//! on our suite.

use std::collections::VecDeque;

use bpfree_ir::{BlockId, FReg, Instr, Reg, Terminator};

use super::{contains_call, contains_store, is_return_block, BranchContext};
use crate::predictors::Direction;

/// The generalised (multi-block) heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtKind {
    /// Guard, following the guarded value through blocks *dominated by*
    /// the successor until redefinition.
    GuardDeep,
    /// Call, scanning blocks dominated by the successor.
    CallDeep,
    /// Return, scanning blocks dominated by the successor.
    ReturnDeep,
    /// Store, scanning blocks dominated by the successor.
    StoreDeep,
}

impl ExtKind {
    /// All generalised heuristics.
    pub const ALL: [ExtKind; 4] = [
        ExtKind::GuardDeep,
        ExtKind::CallDeep,
        ExtKind::ReturnDeep,
        ExtKind::StoreDeep,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ExtKind::GuardDeep => "Guard+",
            ExtKind::CallDeep => "Call+",
            ExtKind::ReturnDeep => "Return+",
            ExtKind::StoreDeep => "Store+",
        }
    }

    /// Evaluates the generalised heuristic, exploring at most `depth`
    /// blocks past each successor.
    pub fn predict(self, ctx: &BranchContext<'_>, depth: usize) -> Option<Direction> {
        match self {
            ExtKind::GuardDeep => guard_deep(ctx, depth),
            ExtKind::CallDeep => {
                region_property(ctx, depth, |c, b| contains_call(c.func, b), false)
            }
            ExtKind::ReturnDeep => {
                region_property(ctx, depth, |c, b| is_return_block(c.func, b), false)
            }
            ExtKind::StoreDeep => {
                region_property(ctx, depth, |c, b| contains_store(c.func, b), false)
            }
        }
    }
}

/// Blocks reachable from `s` through blocks dominated by `s`, including
/// `s`, capped at `limit` blocks — the region whose execution the branch
/// edge controls.
fn dominated_region(ctx: &BranchContext<'_>, s: BlockId, limit: usize) -> Vec<BlockId> {
    let mut out = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(s);
    while let Some(b) = queue.pop_front() {
        if out.contains(&b) {
            continue;
        }
        out.push(b);
        if out.len() >= limit {
            break;
        }
        for &succ in ctx.analysis.cfg.successors(b) {
            if ctx.analysis.doms.dominates(s, succ) && !out.contains(&succ) {
                queue.push_back(succ);
            }
        }
    }
    out
}

/// Generic multi-block selection property: does any block in the
/// dominated region of a successor satisfy `prop`? The successor must
/// not postdominate the branch; exactly-one-side selection applies, and
/// `predict_with` chooses which side to predict.
fn region_property(
    ctx: &BranchContext<'_>,
    depth: usize,
    prop: impl Fn(&BranchContext<'_>, BlockId) -> bool,
    predict_with: bool,
) -> Option<Direction> {
    ctx.select(
        |s| {
            !ctx.postdominates_branch(s)
                && dominated_region(ctx, s, depth)
                    .into_iter()
                    .any(|b| prop(ctx, b))
        },
        predict_with,
    )
}

/// The generalised guard: the branch operand is used before redefinition
/// somewhere in the successor's dominated region, following paths only
/// while the register stays live (not redefined).
fn guard_deep(ctx: &BranchContext<'_>, depth: usize) -> Option<Direction> {
    let operands: Vec<Reg> = ctx.cond.uses().collect();
    let foperands: Vec<FReg> = if ctx.cond.uses_fflag() {
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
    } else {
        Vec::new()
    };
    if operands.is_empty() && foperands.is_empty() {
        return None;
    }
    ctx.select(
        |s| {
            !ctx.postdominates_branch(s)
                && (operands.iter().any(|&r| used_in_region(ctx, s, r, depth))
                    || foperands.iter().any(|&r| fused_in_region(ctx, s, r, depth)))
        },
        true,
    )
}

/// Word-register liveness walk: search the dominated region from `s`,
/// stopping along any path where `r` is redefined before a use.
fn used_in_region(ctx: &BranchContext<'_>, s: BlockId, r: Reg, limit: usize) -> bool {
    let mut visited = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(s);
    while let Some(b) = queue.pop_front() {
        if visited.contains(&b) || visited.len() >= limit {
            continue;
        }
        visited.push(b);
        let block = ctx.func.block(b);
        let mut defined = false;
        for instr in &block.instrs {
            if instr.uses().any(|u| u == r) {
                return true;
            }
            if instr.def() == Some(r) {
                defined = true;
                break;
            }
        }
        if defined {
            continue;
        }
        match &block.term {
            Terminator::Branch { cond, .. } if cond.uses().any(|u| u == r) => return true,
            Terminator::Ret { val: Some(v), .. } if *v == r => return true,
            _ => {}
        }
        for &succ in ctx.analysis.cfg.successors(b) {
            if ctx.analysis.doms.dominates(s, succ) {
                queue.push_back(succ);
            }
        }
    }
    false
}

/// Float-register analogue of [`used_in_region`].
fn fused_in_region(ctx: &BranchContext<'_>, s: BlockId, r: FReg, limit: usize) -> bool {
    let mut visited = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(s);
    while let Some(b) = queue.pop_front() {
        if visited.contains(&b) || visited.len() >= limit {
            continue;
        }
        visited.push(b);
        let block = ctx.func.block(b);
        let mut defined = false;
        for instr in &block.instrs {
            if instr.fuses().any(|u| u == r) {
                return true;
            }
            if instr.fdef() == Some(r) {
                defined = true;
                break;
            }
        }
        if defined {
            continue;
        }
        if matches!(&block.term, Terminator::Ret { fval: Some(v), .. } if *v == r) {
            return true;
        }
        for &succ in ctx.analysis.cfg.successors(b) {
            if ctx.analysis.doms.dominates(s, succ) {
                queue.push_back(succ);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{BranchClass, BranchClassifier};
    use crate::heuristics::{BranchContext, HeuristicKind};
    use bpfree_ir::BranchRef;

    fn ext_predictions(src: &str, kind: ExtKind, depth: usize) -> Vec<Option<Direction>> {
        let p = bpfree_lang::compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let c = BranchClassifier::analyze(&p);
        let mut branches: Vec<BranchRef> = p
            .branches()
            .into_iter()
            .filter(|b| c.class(*b) == BranchClass::NonLoop)
            .collect();
        branches.sort();
        branches
            .into_iter()
            .map(|b| {
                let ctx = BranchContext::new(&p, c.analysis(&p, b.func), b);
                kind.predict(&ctx, depth)
            })
            .collect()
    }

    fn base_predictions(src: &str, kind: HeuristicKind) -> Vec<Option<Direction>> {
        let p = bpfree_lang::compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let c = BranchClassifier::analyze(&p);
        let t = crate::heuristics::HeuristicTable::build(&p, &c);
        let mut branches: Vec<BranchRef> = t.branches().collect();
        branches.sort();
        branches
            .into_iter()
            .map(|b| t.prediction(b, kind))
            .collect()
    }

    /// A guard whose use sits one block deeper than the successor: the
    /// base heuristic misses it, the deep one finds it.
    const DEEP_GUARD: &str = "global int sink;
    fn f(ptr p, int flag) -> int {
        int v;
        if (p != null) {
            if (flag > 1000000) { sink = 1; }
            v = p[0];
        }
        return v;
    }
    fn main() -> int { ptr a; a = alloc(1); return f(a, 1); }";

    #[test]
    fn deep_guard_extends_coverage() {
        let base = base_predictions(DEEP_GUARD, HeuristicKind::Guard);
        let deep = ext_predictions(DEEP_GUARD, ExtKind::GuardDeep, 8);
        let base_covered = base.iter().filter(|p| p.is_some()).count();
        let deep_covered = deep.iter().filter(|p| p.is_some()).count();
        assert!(
            deep_covered > base_covered,
            "base {base_covered} vs deep {deep_covered}: {base:?} {deep:?}"
        );
    }

    #[test]
    fn depth_one_matches_base_call_on_direct_patterns() {
        // With depth 1, the region is just the successor block — Call+
        // sees exactly what the base Call heuristic sees for direct
        // call-in-successor patterns.
        let src = "fn big(int x) -> int {
            int i; int s;
            for (i = 0; i < x; i = i + 1) { s = s + i * 31 - (s >> 3); }
            while (s > 77) { s = s - 13; }
            return s;
        }
        fn main() -> int {
            int x; int e;
            x = 3;
            if (x == 99) { e = big(x); }
            return e;
        }";
        let deep = ext_predictions(src, ExtKind::CallDeep, 1);
        assert!(deep.contains(&Some(Direction::Taken)), "{deep:?}");
    }

    #[test]
    fn deep_call_sees_calls_behind_branches() {
        // The call is two blocks into the then-region, behind another
        // branch: the base heuristic cannot see it.
        let src = "fn big(int x) -> int {
            int i; int s;
            for (i = 0; i < x; i = i + 1) { s = s + i * 7 - (s >> 2); }
            while (s > 55) { s = s - 17; }
            return s;
        }
        fn main() -> int {
            int x; int e;
            x = 1;
            if (x == 12345) {
                e = e + 1;
                if (e < 100) { e = big(x); }
                e = e + 2;
            }
            return e;
        }";
        let base = base_predictions(src, HeuristicKind::Call);
        let deep = ext_predictions(src, ExtKind::CallDeep, 8);
        let base_covered = base.iter().filter(|p| p.is_some()).count();
        let deep_covered = deep.iter().filter(|p| p.is_some()).count();
        assert!(deep_covered >= base_covered);
        assert!(deep.contains(&Some(Direction::Taken)), "{deep:?}");
    }

    #[test]
    fn redefinition_stops_the_deep_guard_walk() {
        let src = "global int sink;
        fn f(int x) -> int {
            int v;
            if (x == 777) {
                x = 0;
                if (sink > 1000) { sink = 0; }
                v = x + 1;
            } else {
                v = 5;
            }
            return v;
        }
        fn main() -> int { return f(3); }";
        let deep = ext_predictions(src, ExtKind::GuardDeep, 8);
        // x is redefined at the top of the then-region before any use, so
        // the guard property must not fire on the x test; the nested
        // sink test is a different branch.
        let p = bpfree_lang::compile(src).unwrap();
        let _ = p;
        assert!(
            !deep.is_empty() && deep[0].is_none()
                || deep.iter().filter(|d| d.is_some()).count() <= 1,
            "{deep:?}"
        );
    }
}
