use bpfree_sim::EdgeProfile;

use crate::classify::{BranchClass, BranchClassifier};
use crate::heuristics::HeuristicKind;
use crate::predictors::{Attribution, CombinedPredictor, Direction, Predictions};

/// Dynamic miss statistics for one class of branches, in the paper's
/// `C/D` notation: the predictor's miss rate over the perfect static
/// predictor's miss rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Dynamic executions of branches in this class.
    pub dynamic: u64,
    /// Executions the evaluated predictor got wrong.
    pub misses: u64,
    /// Executions the perfect static predictor gets wrong (the minority
    /// direction counts).
    pub perfect_misses: u64,
}

impl ClassStats {
    /// The predictor's miss rate (0 when the class never executed).
    pub fn miss_rate(&self) -> f64 {
        if self.dynamic == 0 {
            0.0
        } else {
            self.misses as f64 / self.dynamic as f64
        }
    }

    /// The perfect static predictor's miss rate.
    pub fn perfect_rate(&self) -> f64 {
        if self.dynamic == 0 {
            0.0
        } else {
            self.perfect_misses as f64 / self.dynamic as f64
        }
    }

    /// Formats the paper's `C/D` percentage pair, e.g. `"26/10"`.
    pub fn c_over_d(&self) -> String {
        format!(
            "{:.0}/{:.0}",
            100.0 * self.miss_rate(),
            100.0 * self.perfect_rate()
        )
    }

    fn add(&mut self, other: ClassStats) {
        self.dynamic += other.dynamic;
        self.misses += other.misses;
        self.perfect_misses += other.perfect_misses;
    }
}

/// Evaluation of a predictor against one execution's edge profile,
/// broken down by the loop/non-loop taxonomy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Loop branches only.
    pub loop_branches: ClassStats,
    /// Non-loop branches only.
    pub nonloop: ClassStats,
    /// All conditional branches.
    pub all: ClassStats,
}

impl Report {
    /// Fraction of dynamic branches that are non-loop (the paper's
    /// `%All` column of Table 2).
    pub fn nonloop_fraction(&self) -> f64 {
        if self.all.dynamic == 0 {
            0.0
        } else {
            self.nonloop.dynamic as f64 / self.all.dynamic as f64
        }
    }
}

/// Scores `predictions` against `profile`.
///
/// Branches with no prediction count every execution as a miss (the
/// paper's predictors always cover every branch, so this only matters for
/// partial prediction sets such as a single heuristic in isolation — use
/// [`evaluate_coverage`] for those).
///
/// Iteration is over the classifier's branches in program order, so
/// accumulation order is deterministic.
///
/// # Example
///
/// ```
/// use bpfree_core::{evaluate, perfect_predictions, BranchClassifier};
/// use bpfree_sim::{EdgeProfiler, Simulator};
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int i; int s;
///         for (i = 0; i < 50; i = i + 1) { if (i % 5 == 0) { s = s + 1; } }
///         return s;
///     }",
/// ).unwrap();
/// let mut prof = EdgeProfiler::new();
/// Simulator::new(&p).run(&mut prof).unwrap();
/// let profile = prof.into_profile();
/// let c = BranchClassifier::analyze(&p);
/// let r = evaluate(&perfect_predictions(&p, &profile), &profile, &c);
/// assert_eq!(r.all.misses, r.all.perfect_misses);
/// ```
pub fn evaluate(
    predictions: &Predictions,
    profile: &EdgeProfile,
    classifier: &BranchClassifier,
) -> Report {
    let mut report = Report::default();
    for (branch, class) in classifier.branches() {
        let counts = profile.counts(branch);
        if counts.total() == 0 {
            continue;
        }
        let misses = match predictions.get(branch) {
            Some(Direction::Taken) => counts.fallthru,
            Some(Direction::FallThru) => counts.taken,
            None => counts.total(),
        };
        let stats = ClassStats {
            dynamic: counts.total(),
            misses,
            perfect_misses: counts.minority(),
        };
        match class {
            BranchClass::Loop => report.loop_branches.add(stats),
            BranchClass::NonLoop => report.nonloop.add(stats),
        }
        report.all.add(stats);
    }
    report
}

/// Coverage-aware statistics for a *partial* predictor (one heuristic in
/// isolation): how many dynamic non-loop branches it applies to, and its
/// miss rate on that covered subset — the bold number plus `C/D` pair of
/// the paper's Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Dynamic executions of covered branches.
    pub covered: u64,
    /// Total dynamic non-loop branch executions (covered or not).
    pub total_nonloop: u64,
    /// Misses on the covered subset.
    pub misses: u64,
    /// Perfect-predictor misses on the covered subset.
    pub perfect_misses: u64,
}

impl CoverageStats {
    /// Fraction of dynamic non-loop branches covered.
    pub fn coverage(&self) -> f64 {
        if self.total_nonloop == 0 {
            0.0
        } else {
            self.covered as f64 / self.total_nonloop as f64
        }
    }

    /// Miss rate on the covered subset.
    pub fn miss_rate(&self) -> f64 {
        if self.covered == 0 {
            0.0
        } else {
            self.misses as f64 / self.covered as f64
        }
    }

    /// Perfect miss rate on the covered subset.
    pub fn perfect_rate(&self) -> f64 {
        if self.covered == 0 {
            0.0
        } else {
            self.perfect_misses as f64 / self.covered as f64
        }
    }
}

/// Scores a partial prediction set over the **non-loop** branches only,
/// reporting coverage and miss rates on the covered subset.
pub fn evaluate_coverage(
    predictions: &Predictions,
    profile: &EdgeProfile,
    classifier: &BranchClassifier,
) -> CoverageStats {
    let mut stats = CoverageStats::default();
    for (branch, class) in classifier.branches() {
        if class != BranchClass::NonLoop {
            continue;
        }
        let counts = profile.counts(branch);
        stats.total_nonloop += counts.total();
        let Some(dir) = predictions.get(branch) else {
            continue;
        };
        stats.covered += counts.total();
        stats.misses += match dir {
            Direction::Taken => counts.fallthru,
            Direction::FallThru => counts.taken,
        };
        stats.perfect_misses += counts.minority();
    }
    stats
}

/// Per-attribution-source coverage statistics: one slot per heuristic,
/// in [`HeuristicKind::index`] order, then `Default`. Slots are looked
/// up and listed by source label.
#[derive(Debug, Clone, Default)]
pub struct SourceBreakdown {
    /// Stats per slot.
    stats: [CoverageStats; DEFAULT_SLOT + 1],
}

/// Slot of the `Default` source (after the seven heuristics).
const DEFAULT_SLOT: usize = 7;

impl SourceBreakdown {
    fn slot(attr: Attribution) -> usize {
        match attr {
            Attribution::Heuristic(kind) => kind.index(),
            Attribution::Default => DEFAULT_SLOT,
            Attribution::LoopBranch => unreachable!("non-loop branch attributed to loop"),
        }
    }

    /// The slot labels, in slot order ([`HeuristicKind::ALL`] is in
    /// index order).
    fn labels() -> impl Iterator<Item = &'static str> {
        HeuristicKind::ALL
            .into_iter()
            .map(HeuristicKind::label)
            .chain(["Default"])
    }

    /// The stats for a source label (`None` for unknown labels).
    pub fn get(&self, label: &str) -> Option<&CoverageStats> {
        Self::labels()
            .position(|l| l == label)
            .map(|slot| &self.stats[slot])
    }

    /// Iterator over `(label, stats)` pairs in slot order (heuristics by
    /// dense index, then `Default`).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &CoverageStats)> + '_ {
        Self::labels().zip(&self.stats)
    }
}

/// A [`Report`] plus per-attribution breakdown (which heuristic predicted
/// what, with what accuracy) — the raw material of the paper's Table 5.
#[derive(Debug, Clone, Default)]
pub struct AttributedReport {
    /// The overall evaluation.
    pub report: Report,
    /// Coverage stats per attribution source over non-loop branches.
    pub by_source: SourceBreakdown,
    /// The heuristics-only aggregate (every source except `Default`):
    /// the paper's Table 6 "Heuristics" columns — how much of the
    /// non-loop branch stream the heuristics themselves cover, and how
    /// well they predict that covered subset.
    pub heuristics: CoverageStats,
}

/// Evaluates a combined predictor and attributes every non-loop miss to
/// the heuristic (or Default) that made the prediction.
pub fn evaluate_with_attribution(
    predictor: &CombinedPredictor,
    profile: &EdgeProfile,
    classifier: &BranchClassifier,
) -> AttributedReport {
    let predictions = predictor.predictions();
    let report = evaluate(&predictions, profile, classifier);
    let mut by_source = SourceBreakdown::default();
    let mut total_nonloop = 0u64;
    for (branch, class) in classifier.branches() {
        if class != BranchClass::NonLoop {
            continue;
        }
        let counts = profile.counts(branch);
        total_nonloop += counts.total();
        let entry = &mut by_source.stats[SourceBreakdown::slot(predictor.attribution(branch))];
        entry.covered += counts.total();
        entry.misses += match predictions.get(branch) {
            Some(Direction::Taken) => counts.fallthru,
            Some(Direction::FallThru) => counts.taken,
            None => counts.total(),
        };
        entry.perfect_misses += counts.minority();
    }
    let mut heuristics = CoverageStats {
        total_nonloop,
        ..CoverageStats::default()
    };
    for (slot, stats) in by_source.stats.iter_mut().enumerate() {
        stats.total_nonloop = total_nonloop;
        if slot != DEFAULT_SLOT {
            heuristics.covered += stats.covered;
            heuristics.misses += stats.misses;
            heuristics.perfect_misses += stats.perfect_misses;
        }
    }
    AttributedReport {
        report,
        by_source,
        heuristics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictors::{loop_rand_predictions, taken_predictions, DEFAULT_SEED};
    use bpfree_sim::{EdgeProfiler, Simulator};

    fn setup(src: &str) -> (bpfree_ir::Program, EdgeProfile, BranchClassifier) {
        let p = bpfree_lang::compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let mut prof = EdgeProfiler::new();
        Simulator::new(&p).run(&mut prof).unwrap();
        let profile = prof.into_profile();
        let c = BranchClassifier::analyze(&p);
        (p, profile, c)
    }

    const LOOPY: &str = "fn main() -> int {
        int i; int s;
        for (i = 0; i < 100; i = i + 1) {
            if (i % 10 == 0) { s = s + 1; }
        }
        return s;
    }";

    #[test]
    fn perfect_predictor_matches_perfect_misses() {
        let (p, profile, c) = setup(LOOPY);
        let perfect = crate::predictors::perfect_predictions(&p, &profile);
        let r = evaluate(&perfect, &profile, &c);
        assert_eq!(r.all.misses, r.all.perfect_misses);
        assert!(r.all.miss_rate() <= 0.5);
    }

    #[test]
    fn loop_predictor_beats_always_taken_on_loops() {
        let (p, profile, c) = setup(LOOPY);
        let lr = loop_rand_predictions(&p, &c, DEFAULT_SEED);
        let tk = taken_predictions(&p);
        let r_lr = evaluate(&lr, &profile, &c);
        let r_tk = evaluate(&tk, &profile, &c);
        // The loop latch iterates 99 times and exits once: loop
        // prediction misses once per loop execution.
        assert_eq!(r_lr.loop_branches.misses, 1);
        assert!(r_lr.loop_branches.misses <= r_tk.loop_branches.misses);
    }

    #[test]
    fn class_split_sums_to_all() {
        let (p, profile, c) = setup(LOOPY);
        let tk = taken_predictions(&p);
        let r = evaluate(&tk, &profile, &c);
        assert_eq!(r.all.dynamic, r.loop_branches.dynamic + r.nonloop.dynamic);
        assert_eq!(r.all.misses, r.loop_branches.misses + r.nonloop.misses);
        assert!(r.nonloop_fraction() > 0.0 && r.nonloop_fraction() < 1.0);
    }

    #[test]
    fn unpredicted_branches_all_miss() {
        let (_p, profile, c) = setup(LOOPY);
        let empty = Predictions::new();
        let r = evaluate(&empty, &profile, &c);
        assert_eq!(r.all.misses, r.all.dynamic);
    }

    #[test]
    fn coverage_stats_for_partial_predictor() {
        let (p, profile, c) = setup(LOOPY);
        // Predict only the mod-test branch (a non-loop branch).
        let nonloop_branch = p
            .branches()
            .into_iter()
            .find(|b| c.class(*b) == BranchClass::NonLoop && profile.counts(*b).total() == 100)
            .expect("the mod test runs 100 times");
        let mut partial = Predictions::new();
        partial.set(nonloop_branch, Direction::Taken);
        let cov = evaluate_coverage(&partial, &profile, &c);
        assert_eq!(cov.covered, 100);
        // Non-loop dynamic = guard (1) + mod test (100).
        assert_eq!(cov.total_nonloop, 101);
        // `if (i % 10 == 0)` is true 10 of 100 times; branch-over makes
        // "true" the fall-through, so Taken hits 90 and misses 10.
        assert_eq!(cov.misses, 10);
        assert_eq!(cov.perfect_misses, 10);
        assert!((cov.coverage() - 100.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn heuristics_aggregate_excludes_default_and_shares_the_total() {
        let (p, profile, c) = setup(LOOPY);
        let cp = crate::predictors::CombinedPredictor::new(
            &p,
            &c,
            crate::heuristics::HeuristicKind::paper_order(),
        );
        let att = evaluate_with_attribution(&cp, &profile, &c);

        let mut covered = 0u64;
        let mut misses = 0u64;
        let mut perfect = 0u64;
        let mut total_nl = 0u64;
        for (name, s) in att.by_source.iter() {
            total_nl = total_nl.max(s.total_nonloop);
            if name != "Default" {
                covered += s.covered;
                misses += s.misses;
                perfect += s.perfect_misses;
            }
        }
        assert_eq!(att.heuristics.covered, covered);
        assert_eq!(att.heuristics.misses, misses);
        assert_eq!(att.heuristics.perfect_misses, perfect);
        assert_eq!(att.heuristics.total_nonloop, total_nl);
        // Heuristics + Default together cover every non-loop execution.
        let default_covered = att.by_source.get("Default").map_or(0, |s| s.covered);
        assert_eq!(covered + default_covered, att.heuristics.total_nonloop);
        assert!(att.heuristics.covered > 0, "LOOPY has a mod-test branch");
    }

    #[test]
    fn by_source_iterates_in_dense_slot_order() {
        let (p, profile, c) = setup(LOOPY);
        let cp = crate::predictors::CombinedPredictor::new(
            &p,
            &c,
            crate::heuristics::HeuristicKind::paper_order(),
        );
        let att = evaluate_with_attribution(&cp, &profile, &c);
        let labels: Vec<&str> = att.by_source.iter().map(|(l, _)| l).collect();
        let mut expect: Vec<(usize, &str)> = HeuristicKind::ALL
            .into_iter()
            .map(|k| (k.index(), k.label()))
            .collect();
        expect.sort();
        let mut expect: Vec<&str> = expect.into_iter().map(|(_, l)| l).collect();
        expect.push("Default");
        assert_eq!(labels, expect);
        assert!(att.by_source.get("NoSuchSource").is_none());
    }

    #[test]
    fn c_over_d_format() {
        let s = ClassStats {
            dynamic: 100,
            misses: 26,
            perfect_misses: 10,
        };
        assert_eq!(s.c_over_d(), "26/10");
        assert_eq!(ClassStats::default().c_over_d(), "0/0");
    }
}
