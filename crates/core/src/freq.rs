//! Program-based execution-frequency estimation.
//!
//! The paper's related work cites Wall's study of *estimated profiles*
//! (predicting how often program components execute, rather than which
//! way branches go) — Wall reported poor results for his estimator. The
//! natural follow-on (later developed by Wu & Larus, MICRO 1994) is to
//! turn the Ball–Larus predictions into branch *probabilities* and
//! propagate them through the CFG to get relative block frequencies.
//! This module implements that pipeline so the reproduction can answer
//! how far the heuristics go as a profile estimator.
//!
//! Per function: every branch gets a taken-probability from its
//! [`Attribution`] (loop branches iterate with high probability;
//! heuristic-predicted branches follow the prediction with the combined
//! heuristic's empirical hit rate; Default branches are 50/50). Block
//! frequencies then solve the flow equations `freq(entry) = 1`,
//! `freq(b) = Σ freq(p)·prob(p→b)` by damped iteration — convergent
//! because every cycle's probability product is below one.

use bpfree_ir::{BlockId, BranchMap, BranchRef, FuncId, Program, Terminator};

use crate::classify::BranchClassifier;
use crate::predictors::{Attribution, CombinedPredictor, Direction};

/// Taken-edge probabilities per branch site.
#[derive(Debug, Clone, Default)]
pub struct BranchProbabilities {
    taken: BranchMap<f64>,
}

/// Confidence assigned to each prediction source when converting
/// predictions to probabilities.
#[derive(Debug, Clone, Copy)]
pub struct Confidence {
    /// Probability a loop branch follows the loop predictor's edge
    /// (the paper's loop predictor missed ~12%).
    pub loop_branch: f64,
    /// Probability a heuristic-predicted branch follows the prediction
    /// (the paper's combined heuristic missed ~26% of non-loop branches).
    pub heuristic: f64,
    /// Probability for Default-predicted branches.
    pub default: f64,
}

impl Default for Confidence {
    fn default() -> Confidence {
        Confidence {
            loop_branch: 0.88,
            heuristic: 0.74,
            default: 0.5,
        }
    }
}

impl Confidence {
    /// Calibrates confidences empirically from profiled runs: the
    /// observed hit rate of the loop predictor on loop branches and of
    /// the heuristics on the branches they predicted. Pass the
    /// `(predictor, profile, classifier)` triples of a training suite.
    ///
    /// This is how Wu & Larus later derived their branch probabilities:
    /// measure each heuristic's accuracy once, on any corpus, and reuse
    /// the numbers forever after.
    pub fn calibrate<'a>(
        runs: impl IntoIterator<
            Item = (
                &'a CombinedPredictor,
                &'a bpfree_sim::EdgeProfile,
                &'a BranchClassifier,
            ),
        >,
    ) -> Confidence {
        let mut loop_hits = 0u64;
        let mut loop_total = 0u64;
        let mut heur_hits = 0u64;
        let mut heur_total = 0u64;
        for (predictor, profile, classifier) in runs {
            let predictions = predictor.predictions();
            for (branch, _) in classifier.branches() {
                let counts = profile.counts(branch);
                if counts.total() == 0 {
                    continue;
                }
                let Some(dir) = predictions.get(branch) else {
                    continue;
                };
                let hits = match dir {
                    Direction::Taken => counts.taken,
                    Direction::FallThru => counts.fallthru,
                };
                match predictor.attribution(branch) {
                    Attribution::LoopBranch => {
                        loop_hits += hits;
                        loop_total += counts.total();
                    }
                    Attribution::Heuristic(_) => {
                        heur_hits += hits;
                        heur_total += counts.total();
                    }
                    Attribution::Default => {}
                }
            }
        }
        let ratio = |h: u64, t: u64, fallback: f64| {
            if t == 0 {
                fallback
            } else {
                // Clamp away from 0/1 so loop frequencies stay finite.
                (h as f64 / t as f64).clamp(0.05, 0.98)
            }
        };
        Confidence {
            loop_branch: ratio(loop_hits, loop_total, 0.88),
            heuristic: ratio(heur_hits, heur_total, 0.74),
            default: 0.5,
        }
    }
}

impl BranchProbabilities {
    /// Converts a combined predictor's choices into probabilities.
    pub fn from_predictor(
        program: &Program,
        predictor: &CombinedPredictor,
        confidence: Confidence,
    ) -> BranchProbabilities {
        let predictions = predictor.predictions();
        let mut taken = BranchMap::new();
        for b in program.branches() {
            let conf = match predictor.attribution(b) {
                Attribution::LoopBranch => confidence.loop_branch,
                Attribution::Heuristic(_) => confidence.heuristic,
                Attribution::Default => confidence.default,
            };
            let p_taken = match predictions.get(b) {
                Some(Direction::Taken) => conf,
                Some(Direction::FallThru) => 1.0 - conf,
                None => 0.5,
            };
            taken.set(b, p_taken);
        }
        BranchProbabilities { taken }
    }

    /// The probability that `branch` takes its taken edge (0.5 if
    /// unknown).
    pub fn taken(&self, branch: BranchRef) -> f64 {
        self.taken.get(branch).unwrap_or(0.5)
    }

    /// Overrides one branch's probability (for what-if analyses).
    ///
    /// # Panics
    ///
    /// Panics if `p_taken` is outside `[0, 1]`.
    pub fn set(&mut self, branch: BranchRef, p_taken: f64) {
        assert!(
            (0.0..=1.0).contains(&p_taken),
            "probability {p_taken} out of range"
        );
        self.taken.set(branch, p_taken);
    }
}

/// Estimated relative block frequencies for one function (entry = 1.0).
#[derive(Debug, Clone)]
pub struct BlockFrequencies {
    freqs: Vec<f64>,
}

impl BlockFrequencies {
    /// The estimated frequency of `b` relative to one function entry.
    pub fn get(&self, b: BlockId) -> f64 {
        self.freqs[b.index()]
    }

    /// All frequencies, indexed by block.
    pub fn as_slice(&self) -> &[f64] {
        &self.freqs
    }
}

/// Solves the flow equations for one function by damped Jacobi
/// iteration. Backedge contributions are capped so pathological
/// probability assignments still converge.
///
/// The incoming edges are built once, as one list sorted by target
/// block with a stable sort, so every block sums its incoming products
/// in block-scan order; each round fills one of two reused buffers
/// from the other.
pub fn estimate_block_frequencies(
    program: &Program,
    func: FuncId,
    probs: &BranchProbabilities,
) -> BlockFrequencies {
    let f = program.func(func);
    let n = f.blocks().len();
    // Incoming edges: (block, pred, probability of the pred->block edge).
    let mut incoming: Vec<(usize, usize, f64)> = Vec::new();
    for bid in f.block_ids() {
        match &f.block(bid).term {
            Terminator::Jump(t) => incoming.push((t.index(), bid.index(), 1.0)),
            Terminator::Branch {
                taken, fallthru, ..
            } => {
                let p = probs.taken(BranchRef { func, block: bid });
                incoming.push((taken.index(), bid.index(), p));
                incoming.push((fallthru.index(), bid.index(), 1.0 - p));
            }
            Terminator::Ret { .. } => {}
        }
    }
    incoming.sort_by_key(|&(b, _, _)| b);
    // Block b's edges are incoming[start[b]..start[b + 1]].
    let start: Vec<usize> = (0..=n)
        .map(|b| incoming.partition_point(|&(to, _, _)| to < b))
        .collect();
    let mut freqs = vec![0.0f64; n];
    freqs[0] = 1.0;
    let mut next = vec![0.0f64; n];
    // Iterate; loops amplify frequencies geometrically and the products
    // are < 1, so this converges. Each Jacobi round moves flow one edge,
    // so deep loop nests need rounds proportional to the expected path
    // length; 20k rounds with an early exit bounds the cost.
    for _ in 0..20_000 {
        for (b, slot) in next.iter_mut().enumerate() {
            let mut freq = if b == 0 { 1.0 } else { 0.0 };
            for &(_, p, prob) in &incoming[start[b]..start[b + 1]] {
                freq += freqs[p] * prob;
            }
            *slot = freq;
        }
        let delta: f64 = next.iter().zip(&freqs).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut freqs, &mut next);
        if delta < 1e-9 {
            break;
        }
    }
    BlockFrequencies { freqs }
}

/// Spearman rank correlation between two paired samples — the metric for
/// "does the estimator order hot blocks like the real profile does".
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// use bpfree_core::freq::spearman;
/// let r = spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]);
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "paired samples must match");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    // Pearson correlation of the ranks (handles ties via average ranks).
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (ma, mb) = (mean(&ra), mean(&rb));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = ra[i] - ma;
        let db = rb[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite values"));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Estimated frequencies for every branch block of a program, for
/// comparison against a profile.
pub fn estimate_branch_block_frequencies(
    program: &Program,
    predictor: &CombinedPredictor,
    confidence: Confidence,
) -> BranchMap<f64> {
    let probs = BranchProbabilities::from_predictor(program, predictor, confidence);
    let mut out = BranchMap::new();
    for fid in program.func_ids() {
        let freqs = estimate_block_frequencies(program, fid, &probs);
        for bid in program.func(fid).block_ids() {
            if program.func(fid).block(bid).term.is_branch() {
                let branch = BranchRef {
                    func: fid,
                    block: bid,
                };
                out.set(branch, freqs.get(bid));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::BranchClassifier;
    use crate::heuristics::HeuristicKind;

    fn setup(src: &str) -> (bpfree_ir::Program, BranchClassifier, CombinedPredictor) {
        let p = bpfree_lang::compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let c = BranchClassifier::analyze(&p);
        let cp = CombinedPredictor::new(&p, &c, HeuristicKind::paper_order());
        (p, c, cp)
    }

    #[test]
    fn straight_line_blocks_have_unit_frequency() {
        let (p, _, cp) = setup("fn main() -> int { int x; x = 3; return x; }");
        let probs = BranchProbabilities::from_predictor(&p, &cp, Confidence::default());
        let f = estimate_block_frequencies(&p, p.entry(), &probs);
        assert!((f.get(BlockId(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn branch_splits_frequency() {
        let (p, _, cp) = setup(
            "fn main() -> int {
                int x; int y;
                x = 5;
                if (x == 3) { y = 1; } else { y = 2; }
                return y;
            }",
        );
        let probs = BranchProbabilities::from_predictor(&p, &cp, Confidence::default());
        let f = estimate_block_frequencies(&p, p.entry(), &probs);
        let func = p.func(p.entry());
        // The two arms' frequencies sum to the entry frequency, and the
        // join is back to ~1.
        let branch = func
            .block_ids()
            .find(|b| func.block(*b).term.is_branch())
            .expect("has a branch");
        if let Terminator::Branch {
            taken, fallthru, ..
        } = func.block(branch).term
        {
            let sum = f.get(taken) + f.get(fallthru);
            assert!((sum - f.get(branch)).abs() < 1e-6, "sum {sum}");
        }
    }

    #[test]
    fn loop_bodies_amplify_frequency() {
        let (p, _, cp) = setup(
            "fn main() -> int {
                int i; int s;
                for (i = 0; i < 100; i = i + 1) { s = s + i; }
                return s;
            }",
        );
        let probs = BranchProbabilities::from_predictor(&p, &cp, Confidence::default());
        let f = estimate_block_frequencies(&p, p.entry(), &probs);
        let func = p.func(p.entry());
        // Some block (the loop body) should have frequency well above 1:
        // with p_back = 0.88 the geometric sum is ~1/(1-0.88) ≈ 8.3.
        let max = func.block_ids().map(|b| f.get(b)).fold(0.0f64, f64::max);
        assert!(max > 4.0, "max frequency {max}");
        assert!(max < 20.0, "diverged: {max}");
    }

    #[test]
    fn estimates_rank_hot_blocks_like_the_profile() {
        use bpfree_sim::{EdgeProfiler, Simulator};
        let src = "global int acc;
        fn main() -> int {
            int i; int j;
            for (i = 0; i < 40; i = i + 1) {
                for (j = 0; j < 40; j = j + 1) {
                    if ((i + j) % 7 == 0) { acc = acc + 1; }
                }
            }
            return acc;
        }";
        let (p, _, cp) = setup(src);
        let mut prof = EdgeProfiler::new();
        Simulator::new(&p).run(&mut prof).unwrap();
        let profile = prof.into_profile();

        let est = estimate_branch_block_frequencies(&p, &cp, Confidence::default());
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for (b, freq) in est.iter() {
            let counts = profile.counts(b);
            if counts.total() > 0 {
                pairs.push((freq, counts.total() as f64));
            }
        }
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let rho = spearman(&a, &b);
        assert!(rho > 0.7, "rank correlation {rho}");
    }

    #[test]
    fn calibration_learns_hit_rates() {
        use bpfree_sim::{EdgeProfiler, Simulator};
        let src = "global int acc;
        fn main() -> int {
            int i;
            for (i = 0; i < 200; i = i + 1) {
                if (i % 10 == 0) { acc = acc + 1; }
            }
            return acc;
        }";
        let (p, c, cp) = setup(src);
        let mut prof = EdgeProfiler::new();
        Simulator::new(&p).run(&mut prof).unwrap();
        let profile = prof.into_profile();
        let conf = Confidence::calibrate([(&cp, &profile, &c)]);
        // The latch iterates 199/200: loop confidence learned high.
        assert!(conf.loop_branch > 0.9, "loop {}", conf.loop_branch);
        assert!((0.05..=0.98).contains(&conf.heuristic));
        assert_eq!(conf.default, 0.5);
    }

    #[test]
    fn spearman_basics() {
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probability_panics() {
        let mut p = BranchProbabilities::default();
        p.set(
            BranchRef {
                func: bpfree_ir::FuncId(0),
                block: BlockId(0),
            },
            1.5,
        );
    }
}
