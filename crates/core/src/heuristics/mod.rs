//! The paper's seven non-loop branch heuristics (Section 4).
//!
//! Each heuristic examines only the basic block containing the branch and
//! its two successor blocks (at most two steps away), plus the natural
//! loop, domination, and postdomination analyses. A heuristic either
//! *applies* to a branch and yields a predicted direction, or does not
//! apply. The Loop/Call/Return/Guard/Store heuristics follow the paper's
//! selection-property scheme: *"If neither successor to the block
//! containing the conditional branch has the selection property or both
//! have the property, no prediction is made. If exactly one successor has
//! the property, the predictor chooses either the successor with the
//! property, or the successor without the property, depending on the
//! heuristic."*

mod call;
pub mod ext;
mod guard;
mod loop_heur;
mod opcode;
mod pointer;
mod ret;
mod store;

use bpfree_cfg::FunctionAnalysis;
use bpfree_ir::{BlockId, BranchMap, BranchRef, Cond, Function, Program, Terminator};

use crate::classify::{BranchClass, BranchClassifier};
use crate::predictors::Direction;

/// The seven program-based heuristics, named as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HeuristicKind {
    /// Branch-opcode heuristic: sign tests against zero and FP equality.
    Opcode,
    /// Non-loop branch choosing between executing and avoiding a loop.
    Loop,
    /// Successor containing a call is avoided.
    Call,
    /// Successor containing a return is avoided.
    Return,
    /// A branch on a value guarding a use of that value takes the guard.
    Guard,
    /// Successor containing a store is avoided.
    Store,
    /// Pointer null tests and pointer equality tests evaluate false.
    Pointer,
}

impl HeuristicKind {
    /// All seven heuristics, in the paper's Table 3 column order.
    pub const ALL: [HeuristicKind; 7] = [
        HeuristicKind::Opcode,
        HeuristicKind::Loop,
        HeuristicKind::Call,
        HeuristicKind::Return,
        HeuristicKind::Guard,
        HeuristicKind::Store,
        HeuristicKind::Pointer,
    ];

    /// The priority order the paper uses for its final results (Tables 5
    /// and 6): Pointer, Call, Opcode, Return, Store, Loop, Guard.
    pub fn paper_order() -> [HeuristicKind; 7] {
        [
            HeuristicKind::Pointer,
            HeuristicKind::Call,
            HeuristicKind::Opcode,
            HeuristicKind::Return,
            HeuristicKind::Store,
            HeuristicKind::Loop,
            HeuristicKind::Guard,
        ]
    }

    /// Dense index in `0..7` (for tables keyed by heuristic).
    pub fn index(self) -> usize {
        match self {
            HeuristicKind::Opcode => 0,
            HeuristicKind::Loop => 1,
            HeuristicKind::Call => 2,
            HeuristicKind::Return => 3,
            HeuristicKind::Guard => 4,
            HeuristicKind::Store => 5,
            HeuristicKind::Pointer => 6,
        }
    }

    /// The paper's short column label.
    pub fn label(self) -> &'static str {
        match self {
            HeuristicKind::Opcode => "Opcode",
            HeuristicKind::Loop => "Loop",
            HeuristicKind::Call => "Call",
            HeuristicKind::Return => "Return",
            HeuristicKind::Guard => "Guard",
            HeuristicKind::Store => "Store",
            HeuristicKind::Pointer => "Point",
        }
    }

    /// Evaluates this heuristic on one branch.
    pub fn predict(self, ctx: &BranchContext<'_>) -> Option<Direction> {
        match self {
            HeuristicKind::Opcode => opcode::predict(ctx),
            HeuristicKind::Loop => loop_heur::predict(ctx),
            HeuristicKind::Call => call::predict(ctx),
            HeuristicKind::Return => ret::predict(ctx),
            HeuristicKind::Guard => guard::predict(ctx),
            HeuristicKind::Store => store::predict(ctx),
            HeuristicKind::Pointer => pointer::predict(ctx),
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything a heuristic may inspect about one branch site.
#[derive(Debug, Clone, Copy)]
pub struct BranchContext<'a> {
    /// The whole program (for inter-procedural lookups).
    pub program: &'a Program,
    /// The function containing the branch.
    pub func: &'a Function,
    /// The function's control-flow analyses.
    pub analysis: &'a FunctionAnalysis,
    /// The block ending in the branch.
    pub block: BlockId,
    /// The branch condition.
    pub cond: &'a Cond,
    /// The taken successor.
    pub taken: BlockId,
    /// The fall-through successor.
    pub fallthru: BlockId,
}

impl<'a> BranchContext<'a> {
    /// Builds the context for a branch site.
    ///
    /// # Panics
    ///
    /// Panics if `branch.block` does not end in a conditional branch.
    pub fn new(
        program: &'a Program,
        analysis: &'a FunctionAnalysis,
        branch: BranchRef,
    ) -> BranchContext<'a> {
        let func = program.func(branch.func);
        let Terminator::Branch {
            cond,
            taken,
            fallthru,
        } = &func.block(branch.block).term
        else {
            panic!("{branch} is not a conditional branch site")
        };
        BranchContext {
            program,
            func,
            analysis,
            block: branch.block,
            cond,
            taken: *taken,
            fallthru: *fallthru,
        }
    }

    /// Does `s` postdominate the branch block?
    pub fn postdominates_branch(&self, s: BlockId) -> bool {
        self.analysis.pdoms.postdominates(s, self.block)
    }

    /// The paper's selection-property rule: if exactly one successor has
    /// `property`, predict the successor **with** it (`predict_with =
    /// true`) or **without** it; otherwise no prediction.
    pub fn select(
        &self,
        property: impl Fn(BlockId) -> bool,
        predict_with: bool,
    ) -> Option<Direction> {
        let tp = property(self.taken);
        let fp = property(self.fallthru);
        if tp == fp {
            return None;
        }
        let with = if tp {
            Direction::Taken
        } else {
            Direction::FallThru
        };
        Some(if predict_with { with } else { with.flip() })
    }
}

/// The per-branch applicability table: every heuristic's prediction (or
/// non-applicability) for every **non-loop** branch of a program — one
/// `[Option<Direction>; 7]` row per branch, in program order.
///
/// Building the table once lets the ordering experiments evaluate all
/// 5040 priority orders without re-running the heuristics.
///
/// # Example
///
/// ```
/// use bpfree_core::{BranchClassifier, HeuristicKind, HeuristicTable};
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int x;
///         x = -3;
///         if (x < 0) { x = 0; }
///         return x;
///     }",
/// ).unwrap();
/// let c = BranchClassifier::analyze(&p);
/// let t = HeuristicTable::build(&p, &c);
/// let site = p.branches()[0];
/// // `if (x < 0)` is a sign test: the opcode heuristic applies.
/// assert!(t.prediction(site, HeuristicKind::Opcode).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct HeuristicTable {
    /// Row per non-loop branch; columns indexed by
    /// [`HeuristicKind::index`].
    rows: BranchMap<[Option<Direction>; 7]>,
}

impl HeuristicTable {
    /// Runs all seven heuristics on every non-loop branch, in program
    /// order.
    pub fn build(program: &Program, classifier: &BranchClassifier) -> HeuristicTable {
        let mut rows = BranchMap::new();
        for b in program.branches() {
            if classifier.class(b) != BranchClass::NonLoop {
                continue;
            }
            let ctx = BranchContext::new(program, classifier.analysis(program, b.func), b);
            let mut row = [None; 7];
            for kind in HeuristicKind::ALL {
                row[kind.index()] = kind.predict(&ctx);
            }
            rows.set(b, row);
        }
        HeuristicTable { rows }
    }

    /// Reassembles a table from previously extracted rows (the inverse
    /// of [`HeuristicTable::rows`]) — used by the on-disk artifact cache
    /// to restore a table without re-running the heuristics. Rows may
    /// come in any order.
    pub fn from_rows(
        rows: impl IntoIterator<Item = (BranchRef, [Option<Direction>; 7])>,
    ) -> HeuristicTable {
        HeuristicTable {
            rows: rows.into_iter().collect(),
        }
    }

    /// Iterator over every `(branch, row)` pair, in program order.
    pub fn rows(&self) -> impl Iterator<Item = (BranchRef, [Option<Direction>; 7])> + '_ {
        self.rows.iter()
    }

    /// The prediction of `kind` for `branch` (`None` if the heuristic
    /// does not apply, or if `branch` is not a non-loop branch).
    pub fn prediction(&self, branch: BranchRef, kind: HeuristicKind) -> Option<Direction> {
        self.row(branch).and_then(|row| row[kind.index()])
    }

    /// The full row for a branch, indexed by [`HeuristicKind::index`].
    pub fn row(&self, branch: BranchRef) -> Option<[Option<Direction>; 7]> {
        self.rows.get(branch)
    }

    /// Iterator over the non-loop branches in the table, in program
    /// order.
    pub fn branches(&self) -> impl Iterator<Item = BranchRef> + '_ {
        self.rows.iter().map(|(b, _)| b)
    }

    /// Number of non-loop branch sites.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the program has no non-loop branches.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Does the block contain a call instruction?
pub(crate) fn contains_call(func: &Function, b: BlockId) -> bool {
    func.block(b).instrs.iter().any(|i| i.is_call())
}

/// Does the block contain a store instruction?
pub(crate) fn contains_store(func: &Function, b: BlockId) -> bool {
    func.block(b).instrs.iter().any(|i| i.is_store())
}

/// Does the block end in a return?
pub(crate) fn is_return_block(func: &Function, b: BlockId) -> bool {
    func.block(b).term.is_ret()
}

/// If the block ends in an unconditional jump, its target.
pub(crate) fn jump_target(func: &Function, b: BlockId) -> Option<BlockId> {
    match func.block(b).term {
        Terminator::Jump(t) => Some(t),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::classify::BranchClassifier;

    /// Compiles a source and returns the heuristic predictions for every
    /// non-loop branch in `main`, in block order.
    pub fn predictions_for(src: &str, kind: HeuristicKind) -> Vec<Option<Direction>> {
        let p = bpfree_lang::compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let c = BranchClassifier::analyze(&p);
        let t = HeuristicTable::build(&p, &c);
        t.branches().map(|b| t.prediction(b, kind)).collect()
    }

    /// Like `predictions_for` but for a single non-loop branch (panics
    /// unless exactly one exists).
    pub fn single_prediction(src: &str, kind: HeuristicKind) -> Option<Direction> {
        let v = predictions_for(src, kind);
        assert_eq!(
            v.len(),
            1,
            "expected exactly one non-loop branch, got {}",
            v.len()
        );
        v[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_distinct_indices() {
        let mut seen = [false; 7];
        for k in HeuristicKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn paper_order_is_a_permutation_of_all() {
        let mut order = HeuristicKind::paper_order().to_vec();
        order.sort();
        let mut all = HeuristicKind::ALL.to_vec();
        all.sort();
        assert_eq!(order, all);
    }

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(HeuristicKind::Pointer.label(), "Point");
        assert_eq!(HeuristicKind::Opcode.to_string(), "Opcode");
    }
}
