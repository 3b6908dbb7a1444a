use std::sync::OnceLock;

use bpfree_cfg::FunctionAnalysis;
use bpfree_ir::{BlockId, BranchId, BranchRef, BranchTable, FuncId, Program, Terminator};

use crate::predictors::Direction;

/// The paper's branch taxonomy (Section 3).
///
/// * a branch is a **loop branch** if either of its outgoing edges is a
///   loop exit edge or a loop backedge;
/// * a branch is a **non-loop branch** if neither outgoing edge is an
///   exit edge or a backedge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// A branch with a backedge or loop-exit outgoing edge.
    Loop,
    /// Any other conditional branch.
    NonLoop,
}

/// Whole-program branch classification on dense [`BranchId`] storage.
///
/// Classifies every branch site and computes the loop predictor's
/// choice for each loop branch: *"if either of the outgoing edges is a
/// backedge, it is predicted. Otherwise, the non-exit edge is
/// predicted"* — loops iterate many times and exit once. Results live
/// in `Vec`s indexed by [`BranchId`] (the program-order branch
/// enumeration), so queries are index lookups and iteration is
/// deterministic.
///
/// Per-function control-flow analyses are computed lazily: a classifier
/// rebuilt from cached classification rows (see
/// [`BranchClassifier::from_cached`]) performs no CFG analysis at all
/// until [`BranchClassifier::analysis`] is asked for one.
///
/// # Example
///
/// ```
/// use bpfree_core::{BranchClass, BranchClassifier};
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int i;
///         while (i < 10) { i = i + 1; }
///         return i;
///     }",
/// ).unwrap();
/// let c = BranchClassifier::analyze(&p);
/// let branches = p.branches();
/// // Rotation yields one non-loop guard and one loop latch.
/// let loops = branches.iter().filter(|b| c.class(**b) == BranchClass::Loop).count();
/// assert_eq!(loops, 1);
/// assert_eq!(branches.len() - loops, 1);
/// ```
#[derive(Debug)]
pub struct BranchClassifier {
    /// Lazily-filled per-function analyses, index = [`FuncId`].
    analyses: Vec<OnceLock<FunctionAnalysis>>,
    /// The program's `BranchRef ⇄ BranchId` side table.
    branches: BranchTable,
    /// Branch class, indexed by [`BranchId`].
    class: Vec<BranchClass>,
    /// Loop predictor choice (`None` for non-loop), indexed by
    /// [`BranchId`].
    loop_pred: Vec<Option<Direction>>,
}

fn analysis_of<'a>(
    slots: &'a [OnceLock<FunctionAnalysis>],
    program: &Program,
    func: FuncId,
) -> &'a FunctionAnalysis {
    slots[func.index()].get_or_init(|| FunctionAnalysis::new(program.func(func)))
}

impl BranchClassifier {
    /// Analyzes `program` and classifies every branch, in program order.
    pub fn analyze(program: &Program) -> BranchClassifier {
        let branches = BranchTable::build(program);
        let analyses: Vec<OnceLock<FunctionAnalysis>> = (0..program.funcs().len())
            .map(|_| OnceLock::new())
            .collect();
        let mut class = Vec::with_capacity(branches.len());
        let mut loop_pred = Vec::with_capacity(branches.len());
        for &b in branches.refs() {
            let Terminator::Branch {
                taken, fallthru, ..
            } = program.func(b.func).block(b.block).term
            else {
                unreachable!("branch table holds only branch sites")
            };
            let a = analysis_of(&analyses, program, b.func);
            let (c, p) = classify_branch(a, b.block, taken, fallthru);
            class.push(c);
            loop_pred.push(p);
        }
        BranchClassifier {
            analyses,
            branches,
            class,
            loop_pred,
        }
    }

    /// Rebuilds a classifier from cached classification rows without
    /// re-running any control-flow analysis. Returns `None` if the rows
    /// don't exactly match `program`'s branch enumeration (a stale or
    /// corrupt cache entry).
    pub fn from_cached(
        program: &Program,
        rows: &[(BranchRef, BranchClass, Option<Direction>)],
    ) -> Option<BranchClassifier> {
        let branches = BranchTable::build(program);
        if rows.len() != branches.len() {
            return None;
        }
        let mut class = Vec::with_capacity(rows.len());
        let mut loop_pred = Vec::with_capacity(rows.len());
        for (&expect, &(got, c, p)) in branches.refs().iter().zip(rows) {
            if got != expect {
                return None;
            }
            // Loop predictions exist exactly for loop branches.
            if (c == BranchClass::Loop) != p.is_some() {
                return None;
            }
            class.push(c);
            loop_pred.push(p);
        }
        Some(BranchClassifier {
            analyses: (0..program.funcs().len())
                .map(|_| OnceLock::new())
                .collect(),
            branches,
            class,
            loop_pred,
        })
    }

    /// The dense id of `branch`.
    ///
    /// # Panics
    ///
    /// Panics if `branch` does not name a conditional branch of the
    /// analyzed program.
    fn id(&self, branch: BranchRef) -> BranchId {
        self.branches
            .id_of(branch)
            .unwrap_or_else(|| panic!("{branch} is not a branch site of this program"))
    }

    /// The class of a branch site.
    ///
    /// # Panics
    ///
    /// Panics if `branch` does not name a conditional branch of the
    /// analyzed program.
    pub fn class(&self, branch: BranchRef) -> BranchClass {
        self.class_by_id(self.id(branch))
    }

    /// The class of a branch site, by dense id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn class_by_id(&self, id: BranchId) -> BranchClass {
        self.class[id.index()]
    }

    /// The loop predictor's choice, for loop branches (`None` for
    /// non-loop branches).
    ///
    /// # Panics
    ///
    /// Panics if `branch` does not name a conditional branch of the
    /// analyzed program.
    pub fn loop_prediction(&self, branch: BranchRef) -> Option<Direction> {
        self.loop_pred[self.id(branch).index()]
    }

    /// The program's `BranchRef ⇄ BranchId` side table.
    pub fn branch_table(&self) -> &BranchTable {
        &self.branches
    }

    /// The control-flow analysis for one function, computed on first
    /// use (`program` must be the program this classifier was built
    /// for).
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn analysis(&self, program: &Program, func: FuncId) -> &FunctionAnalysis {
        analysis_of(&self.analyses, program, func)
    }

    /// Iterator over all classified branch sites, in program order.
    pub fn branches(&self) -> impl Iterator<Item = (BranchRef, BranchClass)> + '_ {
        self.branches
            .refs()
            .iter()
            .zip(&self.class)
            .map(|(&b, &c)| (b, c))
    }

    /// Iterator over the full classification rows in program order —
    /// what the cache persists.
    pub fn rows(&self) -> impl Iterator<Item = (BranchRef, BranchClass, Option<Direction>)> + '_ {
        self.branches
            .refs()
            .iter()
            .zip(self.class.iter().zip(&self.loop_pred))
            .map(|(&b, (&c, &p))| (b, c, p))
    }

    /// Is the taken edge of `branch` a backedge? (Diagnostics and the
    /// BTFNT comparison use this.)
    pub fn taken_is_backedge(&self, branch: BranchRef, program: &Program) -> bool {
        let Terminator::Branch { taken, .. } = program.func(branch.func).block(branch.block).term
        else {
            return false;
        };
        self.analysis(program, branch.func)
            .loops
            .is_backedge(branch.block, taken)
    }
}

/// Classifies one branch from its function's loop analysis, returning
/// the class and the loop predictor's choice (`None` for non-loop).
pub(crate) fn classify_branch(
    a: &FunctionAnalysis,
    block: BlockId,
    taken: BlockId,
    fallthru: BlockId,
) -> (BranchClass, Option<Direction>) {
    let taken_back = a.loops.is_backedge(block, taken);
    let fall_back = a.loops.is_backedge(block, fallthru);
    let taken_exit = a.loops.is_exit_edge(block, taken);
    let fall_exit = a.loops.is_exit_edge(block, fallthru);

    if !taken_back && !fall_back && !taken_exit && !fall_exit {
        return (BranchClass::NonLoop, None);
    }

    // Loop branch. Predict a backedge if one exists; otherwise the
    // non-exit edge; if both edges exit (distinct loops), prefer the edge
    // into the deeper loop — the paper's footnote 1 tie-break, adapted.
    let prediction = if taken_back && fall_back {
        // Never occurred in the paper's benchmarks; prefer the edge whose
        // target sits in the innermost (deepest) loop.
        if a.loops.depth(taken) >= a.loops.depth(fallthru) {
            Direction::Taken
        } else {
            Direction::FallThru
        }
    } else if taken_back {
        Direction::Taken
    } else if fall_back || (taken_exit && !fall_exit) {
        // Either the fall-through IS the backedge, or the taken edge
        // leaves the loop: stay in the loop via the fall-through.
        Direction::FallThru
    } else if fall_exit && !taken_exit {
        Direction::Taken
    } else {
        // Both edges are exit edges: stay in the deeper loop.
        if a.loops.depth(taken) >= a.loops.depth(fallthru) {
            Direction::Taken
        } else {
            Direction::FallThru
        }
    };
    (BranchClass::Loop, Some(prediction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_lang::compile;

    fn classify(src: &str) -> (bpfree_ir::Program, BranchClassifier) {
        let p = compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let c = BranchClassifier::analyze(&p);
        (p, c)
    }

    #[test]
    fn rotated_while_has_loop_latch_and_nonloop_guard() {
        let (p, c) = classify(
            "fn main() -> int {
                int i;
                while (i < 10) { i = i + 1; }
                return i;
            }",
        );
        let branches = p.branches();
        assert_eq!(branches.len(), 2);
        let classes: Vec<BranchClass> = branches.iter().map(|b| c.class(*b)).collect();
        assert!(classes.contains(&BranchClass::Loop));
        assert!(classes.contains(&BranchClass::NonLoop));
    }

    #[test]
    fn latch_predicts_backedge() {
        let (p, c) = classify(
            "fn main() -> int {
                int i;
                do { i = i + 1; } while (i < 10);
                return i;
            }",
        );
        let branches = p.branches();
        assert_eq!(branches.len(), 1);
        let br = branches[0];
        assert_eq!(c.class(br), BranchClass::Loop);
        // Latch branches back on true: the backedge is the taken edge.
        assert_eq!(c.loop_prediction(br), Some(Direction::Taken));
        assert!(c.taken_is_backedge(br, &p));
    }

    #[test]
    fn break_branch_is_a_loop_branch_predicting_non_exit() {
        let (p, c) = classify(
            "fn main() -> int {
                int i;
                do {
                    i = i + 1;
                    if (i == 1000000) { break; }
                } while (i < 10);
                return i;
            }",
        );
        // The `if (...) break` branch has an exit edge: it is a loop
        // branch and the loop predictor chooses the stay-in-loop side.
        let mut found_break = false;
        for br in p.branches() {
            if c.class(br) == BranchClass::Loop && !c.taken_is_backedge(br, &p) {
                // This is the break test: taken leaves the loop
                // (branch-over polarity put `break` on... check direction).
                found_break = true;
                assert!(c.loop_prediction(br).is_some());
            }
        }
        assert!(found_break);
    }

    #[test]
    fn plain_if_is_nonloop() {
        let (p, c) = classify(
            "fn main() -> int {
                int x;
                x = 5;
                if (x > 3) { x = 0; }
                return x;
            }",
        );
        let branches = p.branches();
        assert_eq!(branches.len(), 1);
        assert_eq!(c.class(branches[0]), BranchClass::NonLoop);
        assert_eq!(c.loop_prediction(branches[0]), None);
    }

    #[test]
    fn if_inside_loop_is_nonloop() {
        let (p, c) = classify(
            "fn main() -> int {
                int i; int s;
                for (i = 0; i < 10; i = i + 1) {
                    if (i % 2 == 0) { s = s + 1; }
                }
                return s;
            }",
        );
        let nonloop = p
            .branches()
            .iter()
            .filter(|b| c.class(**b) == BranchClass::NonLoop)
            .count();
        // The guard and the mod test are non-loop; the latch is a loop
        // branch.
        assert_eq!(nonloop, 2);
    }

    #[test]
    fn nested_loop_inner_latch_predicts_iteration() {
        let (p, c) = classify(
            "fn main() -> int {
                int i; int j; int s;
                for (i = 0; i < 4; i = i + 1) {
                    for (j = 0; j < 4; j = j + 1) { s = s + 1; }
                }
                return s;
            }",
        );
        let loop_branches: Vec<_> = p
            .branches()
            .into_iter()
            .filter(|b| c.class(*b) == BranchClass::Loop)
            .collect();
        assert_eq!(loop_branches.len(), 2);
        for br in loop_branches {
            assert_eq!(c.loop_prediction(br), Some(Direction::Taken));
        }
    }

    #[test]
    fn branches_iterate_in_program_order() {
        let (p, c) = classify(
            "fn helper(int x) -> int {
                if (x > 0) { return 1; }
                return 0;
            }
            fn main() -> int {
                int i; int s;
                for (i = 0; i < 4; i = i + 1) { s = s + helper(i); }
                return s;
            }",
        );
        let order: Vec<BranchRef> = c.branches().map(|(b, _)| b).collect();
        assert_eq!(order, p.branches(), "dense iteration is program order");
    }

    #[test]
    fn cached_rows_round_trip_without_reanalysis() {
        let (p, c) = classify(
            "fn main() -> int {
                int i; int s;
                for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { s = s + 1; } }
                return s;
            }",
        );
        let rows: Vec<_> = c.rows().collect();
        let rebuilt = BranchClassifier::from_cached(&p, &rows).expect("rows match");
        for b in p.branches() {
            assert_eq!(rebuilt.class(b), c.class(b));
            assert_eq!(rebuilt.loop_prediction(b), c.loop_prediction(b));
        }
        // Mismatched rows are rejected, not mis-assigned.
        let mut bad = rows.clone();
        bad.swap_remove(0);
        assert!(BranchClassifier::from_cached(&p, &bad).is_none());
        let mut flipped = rows.clone();
        flipped[0].1 = match flipped[0].1 {
            BranchClass::Loop => BranchClass::NonLoop,
            BranchClass::NonLoop => BranchClass::Loop,
        };
        assert!(BranchClassifier::from_cached(&p, &flipped).is_none());
    }
}
