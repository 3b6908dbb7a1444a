use std::hash::{Hash, Hasher};

use bpfree_ir::{BranchMap, BranchRef, Program, Terminator};
use bpfree_sim::EdgeProfile;

use crate::classify::{BranchClass, BranchClassifier};
use crate::heuristics::{HeuristicKind, HeuristicTable};

/// Fixed seed for the deterministic random Default predictor, so every
/// table in the reproduction shares the same random choices (the paper's
/// Table 5/6 note that the Default makes "the same prediction as in
/// Table 2").
pub const DEFAULT_SEED: u64 = 0x9E3779B97F4A7C15;

/// A static prediction: which outgoing edge of a branch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The branch's taken edge executes.
    Taken,
    /// The branch's fall-through edge executes.
    FallThru,
}

impl Direction {
    /// The other direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Taken => Direction::FallThru,
            Direction::FallThru => Direction::Taken,
        }
    }

    /// Did a branch that went `taken` match this prediction?
    pub fn matches(self, taken: bool) -> bool {
        (self == Direction::Taken) == taken
    }
}

/// A static prediction for every branch site of a program, in program
/// order.
///
/// The builders below all emit branches in program order, which makes
/// construction a pure append; `get` is a binary search and `iter` is
/// deterministic (program order).
///
/// # Example
///
/// ```
/// use bpfree_core::{Direction, Predictions};
/// use bpfree_ir::{BranchRef, FuncId, BlockId};
/// let mut p = Predictions::new();
/// let b = BranchRef { func: FuncId(0), block: BlockId(3) };
/// p.set(b, Direction::Taken);
/// assert_eq!(p.get(b), Some(Direction::Taken));
/// ```
pub type Predictions = BranchMap<Direction>;

/// Deterministic pseudo-random direction for a branch site: a hash of the
/// site and a seed. Stable across runs, tables, and predictor
/// constructions.
pub fn random_direction(branch: BranchRef, seed: u64) -> Direction {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    branch.func.0.hash(&mut h);
    branch.block.0.hash(&mut h);
    // splitmix-style finalisation on top of SipHash output.
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    if x & 1 == 0 {
        Direction::Taken
    } else {
        Direction::FallThru
    }
}

/// Always predict the target (taken) successor — the `Tgt` baseline of
/// Table 2.
pub fn taken_predictions(program: &Program) -> Predictions {
    program
        .branches()
        .into_iter()
        .map(|b| (b, Direction::Taken))
        .collect()
}

/// Always predict the fall-through successor.
pub fn fallthru_predictions(program: &Program) -> Predictions {
    program
        .branches()
        .into_iter()
        .map(|b| (b, Direction::FallThru))
        .collect()
}

/// Random prediction per branch — the `Rnd` baseline of Table 2.
pub fn random_predictions(program: &Program, seed: u64) -> Predictions {
    program
        .branches()
        .into_iter()
        .map(|b| (b, random_direction(b, seed)))
        .collect()
}

/// The perfect static predictor: the majority direction from an edge
/// profile (Section 2). Unexecuted branches predict taken (their choice
/// never matters dynamically).
pub fn perfect_predictions(program: &Program, profile: &EdgeProfile) -> Predictions {
    program
        .branches()
        .into_iter()
        .map(|b| {
            let c = profile.counts(b);
            let dir = if c.taken_majority() {
                Direction::Taken
            } else {
                Direction::FallThru
            };
            (b, dir)
        })
        .collect()
}

/// "Backward taken, forward not taken": the hardware-style strawman the
/// paper contrasts with natural-loop analysis. A branch whose taken
/// target lies at a lower block index (earlier in layout) predicts taken;
/// otherwise fall-through.
pub fn btfnt_predictions(program: &Program) -> Predictions {
    program
        .branches()
        .into_iter()
        .map(|b| {
            let Terminator::Branch { taken, .. } = program.func(b.func).block(b.block).term else {
                unreachable!("branches() yields only branch sites")
            };
            let dir = if taken.index() <= b.block.index() {
                Direction::Taken
            } else {
                Direction::FallThru
            };
            (b, dir)
        })
        .collect()
}

/// Loop prediction on loop branches plus random prediction on non-loop
/// branches — the paper's `Loop+Rand` comparison predictor.
pub fn loop_rand_predictions(
    program: &Program,
    classifier: &BranchClassifier,
    seed: u64,
) -> Predictions {
    program
        .branches()
        .into_iter()
        .map(|b| {
            let dir = classifier
                .loop_prediction(b)
                .unwrap_or_else(|| random_direction(b, seed));
            (b, dir)
        })
        .collect()
}

/// Why the combined predictor chose a direction for a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attribution {
    /// Loop branch, predicted by the loop predictor.
    LoopBranch,
    /// Non-loop branch predicted by this heuristic (first applicable in
    /// the priority order).
    Heuristic(HeuristicKind),
    /// Non-loop branch no heuristic covered: random Default.
    Default,
}

/// The paper's complete predictor (Section 5): loop prediction for loop
/// branches; for non-loop branches, the first applicable heuristic in a
/// priority order; random Default otherwise.
///
/// Both the prediction set and the attribution table are built in
/// program order.
///
/// # Example
///
/// ```
/// use bpfree_core::{BranchClassifier, CombinedPredictor, HeuristicKind};
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int i; int s;
///         for (i = 0; i < 100; i = i + 1) { if (i > 90) { s = s + 1; } }
///         return s;
///     }",
/// ).unwrap();
/// let c = BranchClassifier::analyze(&p);
/// let cp = CombinedPredictor::new(&p, &c, HeuristicKind::paper_order());
/// assert_eq!(cp.predictions().len(), p.branches().len());
/// ```
#[derive(Debug)]
pub struct CombinedPredictor {
    predictions: Predictions,
    attribution: BranchMap<Attribution>,
}

impl CombinedPredictor {
    /// Builds the predictor with the given heuristic priority order and
    /// the default random seed, building the heuristic table first.
    pub fn new(
        program: &Program,
        classifier: &BranchClassifier,
        order: impl IntoIterator<Item = HeuristicKind>,
    ) -> CombinedPredictor {
        let order: Vec<HeuristicKind> = order.into_iter().collect();
        let table = HeuristicTable::build(program, classifier);
        CombinedPredictor::from_table(program, classifier, &table, &order, DEFAULT_SEED)
    }

    /// Builds the predictor from a precomputed heuristic table (the
    /// engine's cached one, or one table shared by many orders) and an
    /// explicit Default seed.
    pub fn from_table(
        program: &Program,
        classifier: &BranchClassifier,
        table: &HeuristicTable,
        order: &[HeuristicKind],
        seed: u64,
    ) -> CombinedPredictor {
        let mut predictions = Predictions::new();
        let mut attribution = BranchMap::new();
        for b in program.branches() {
            match classifier.class(b) {
                BranchClass::Loop => {
                    let dir = classifier
                        .loop_prediction(b)
                        .expect("loop branches always have a loop prediction");
                    predictions.set(b, dir);
                    attribution.set(b, Attribution::LoopBranch);
                }
                BranchClass::NonLoop => {
                    let mut chosen = None;
                    for &kind in order {
                        if let Some(dir) = table.prediction(b, kind) {
                            chosen = Some((dir, Attribution::Heuristic(kind)));
                            break;
                        }
                    }
                    let (dir, attr) =
                        chosen.unwrap_or_else(|| (random_direction(b, seed), Attribution::Default));
                    predictions.set(b, dir);
                    attribution.set(b, attr);
                }
            }
        }
        CombinedPredictor {
            predictions,
            attribution,
        }
    }

    /// The complete prediction set (every branch site covered).
    pub fn predictions(&self) -> Predictions {
        self.predictions.clone()
    }

    /// Which rule predicted `branch`.
    ///
    /// # Panics
    ///
    /// Panics if `branch` is not a branch site of the analyzed program.
    pub fn attribution(&self, branch: BranchRef) -> Attribution {
        self.attribution
            .get(branch)
            .unwrap_or_else(|| panic!("{branch} is not a branch site of this program"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_ir::{BlockId, FuncId};

    fn br(f: u32, b: u32) -> BranchRef {
        BranchRef {
            func: FuncId(f),
            block: BlockId(b),
        }
    }

    #[test]
    fn random_direction_is_deterministic() {
        let a = random_direction(br(1, 2), DEFAULT_SEED);
        let b = random_direction(br(1, 2), DEFAULT_SEED);
        assert_eq!(a, b);
    }

    #[test]
    fn random_direction_varies_with_seed_and_site() {
        // Over many sites, both directions must appear, and a different
        // seed must change at least one choice.
        let dirs: Vec<Direction> = (0..64)
            .map(|i| random_direction(br(0, i), DEFAULT_SEED))
            .collect();
        assert!(dirs.contains(&Direction::Taken));
        assert!(dirs.contains(&Direction::FallThru));
        let other: Vec<Direction> = (0..64).map(|i| random_direction(br(0, i), 12345)).collect();
        assert_ne!(dirs, other);
    }

    #[test]
    fn random_direction_is_roughly_balanced() {
        let taken = (0..10_000)
            .filter(|&i| random_direction(br(i / 256, i % 256), DEFAULT_SEED) == Direction::Taken)
            .count();
        assert!((4_000..6_000).contains(&taken), "taken = {taken}");
    }

    #[test]
    fn direction_flip_and_match() {
        assert_eq!(Direction::Taken.flip(), Direction::FallThru);
        assert!(Direction::Taken.matches(true));
        assert!(!Direction::Taken.matches(false));
        assert!(Direction::FallThru.matches(false));
    }

    #[test]
    fn predictions_overwrite_and_sort() {
        let mut p = Predictions::new();
        // Out-of-order sets still produce sorted iteration and correct
        // lookups; repeated sets overwrite.
        p.set(br(1, 5), Direction::Taken);
        p.set(br(0, 2), Direction::FallThru);
        p.set(br(1, 5), Direction::FallThru);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(br(1, 5)), Some(Direction::FallThru));
        let order: Vec<BranchRef> = p.iter().map(|(b, _)| b).collect();
        assert_eq!(order, vec![br(0, 2), br(1, 5)]);
        // FromIterator has the same last-wins semantics.
        let q: Predictions = [
            (br(1, 5), Direction::Taken),
            (br(0, 2), Direction::FallThru),
            (br(1, 5), Direction::FallThru),
        ]
        .into_iter()
        .collect();
        assert_eq!(p, q);
    }

    #[test]
    fn naive_predictors_cover_every_branch() {
        let p = bpfree_lang::compile(
            "fn main() -> int {
                int i; int s;
                for (i = 0; i < 3; i = i + 1) { if (i == 1) { s = s + 1; } }
                return s;
            }",
        )
        .unwrap();
        let n = p.branches().len();
        assert_eq!(taken_predictions(&p).len(), n);
        assert_eq!(fallthru_predictions(&p).len(), n);
        assert_eq!(random_predictions(&p, DEFAULT_SEED).len(), n);
        assert_eq!(btfnt_predictions(&p).len(), n);
    }

    #[test]
    fn perfect_predictions_follow_majority() {
        use bpfree_sim::EdgeProfile;
        let p = bpfree_lang::compile(
            "fn main() -> int {
                int i;
                do { i = i + 1; } while (i < 5);
                return i;
            }",
        )
        .unwrap();
        let site = p.branches()[0];
        let mut prof = EdgeProfile::new();
        for _ in 0..10 {
            prof.record(site, true);
        }
        prof.record(site, false);
        let pred = perfect_predictions(&p, &prof);
        assert_eq!(pred.get(site), Some(Direction::Taken));
    }

    #[test]
    fn btfnt_predicts_backward_taken() {
        // do-while: latch branches back to an earlier block -> taken.
        let p = bpfree_lang::compile(
            "fn main() -> int {
                int i;
                do { i = i + 1; } while (i < 5);
                return i;
            }",
        )
        .unwrap();
        let site = p.branches()[0];
        assert_eq!(btfnt_predictions(&p).get(site), Some(Direction::Taken));
    }

    #[test]
    fn combined_covers_all_branches_and_attributes_loop_latch() {
        let src = "fn main() -> int {
            int i; int s;
            for (i = 0; i < 100; i = i + 1) { if (i % 7 == 0) { s = s + 1; } }
            return s;
        }";
        let p = bpfree_lang::compile(src).unwrap();
        let c = BranchClassifier::analyze(&p);
        let cp = CombinedPredictor::new(&p, &c, HeuristicKind::paper_order());
        let preds = cp.predictions();
        assert_eq!(preds.len(), p.branches().len());
        let loop_attrs = p
            .branches()
            .iter()
            .filter(|b| cp.attribution(**b) == Attribution::LoopBranch)
            .count();
        assert_eq!(loop_attrs, 1);
    }
}
