use bpfree_ir::{BlockId, BranchMap, BranchRef, FuncId};

use crate::observer::ExecObserver;

/// Dynamic taken/fall-through counts for one branch site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeCounts {
    /// Executions that took the branch.
    pub taken: u64,
    /// Executions that fell through.
    pub fallthru: u64,
}

impl EdgeCounts {
    /// Total executions of the branch.
    pub fn total(self) -> u64 {
        self.taken + self.fallthru
    }

    /// Executions of the *more* frequent side — what a perfect static
    /// predictor gets right.
    pub fn majority(self) -> u64 {
        self.taken.max(self.fallthru)
    }

    /// Executions of the *less* frequent side — what a perfect static
    /// predictor misses.
    pub fn minority(self) -> u64 {
        self.taken.min(self.fallthru)
    }

    /// Did the taken side win (ties predict taken)?
    pub fn taken_majority(self) -> bool {
        self.taken >= self.fallthru
    }
}

/// An edge profile: per-branch dynamic counts, exactly what QPT's edge
/// profiling produced for the paper. Iteration is program order.
///
/// # Example
///
/// ```
/// use bpfree_sim::{EdgeProfiler, Simulator};
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int i;
///         for (i = 0; i < 5; i = i + 1) { }
///         return i;
///     }",
/// ).unwrap();
/// let mut prof = EdgeProfiler::new();
/// Simulator::new(&p).run(&mut prof).unwrap();
/// let profile = prof.into_profile();
/// // The rotated loop executes its bottom test 5 times.
/// assert_eq!(profile.total_branches(), 6); // 1 guard + 5 latch tests
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeProfile {
    counts: BranchMap<EdgeCounts>,
}

impl EdgeProfile {
    /// Creates an empty profile.
    pub fn new() -> EdgeProfile {
        EdgeProfile::default()
    }

    /// The counts for `branch` (zero if never executed).
    pub fn counts(&self, branch: BranchRef) -> EdgeCounts {
        self.counts.get(branch).unwrap_or_default()
    }

    /// Iterator over executed branches and their counts, in program
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchRef, EdgeCounts)> + '_ {
        self.counts.iter()
    }

    /// Number of distinct branch sites that executed at least once.
    pub fn n_sites(&self) -> usize {
        self.counts.len()
    }

    /// Total dynamic conditional branch count.
    pub fn total_branches(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c.total()).sum()
    }

    /// Records one execution (exposed for building profiles in tests).
    pub fn record(&mut self, branch: BranchRef, taken: bool) {
        self.record_many(branch, taken, 1);
    }

    /// Records `n` executions of `branch` in one step — the bulk
    /// counterpart of [`EdgeProfile::record`] used by the O(dict)
    /// tally tier, where each dictionary entry stands for many events.
    pub fn record_many(&mut self, branch: BranchRef, taken: bool, n: u64) {
        let mut c = self.counts(branch);
        if taken {
            c.taken += n;
        } else {
            c.fallthru += n;
        }
        self.counts.set(branch, c);
    }
}

impl FromIterator<(BranchRef, EdgeCounts)> for EdgeProfile {
    fn from_iter<I: IntoIterator<Item = (BranchRef, EdgeCounts)>>(iter: I) -> EdgeProfile {
        EdgeProfile {
            counts: iter.into_iter().collect(),
        }
    }
}

/// A table indexed `[func][block]`, grown on demand.
///
/// Branch-event observers keep their per-site state here instead of in
/// a hash map: a live event costs two bounds-checked loads, and a slot
/// that never saw an event stays at its default. Shared with the trace
/// recorder's per-site dictionary lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteTable<T> {
    funcs: Vec<Vec<T>>,
}

impl<T: Default + Clone> SiteTable<T> {
    /// The slot of `branch`, created (with every slot below it) if new.
    #[inline]
    pub(crate) fn slot(&mut self, branch: BranchRef) -> &mut T {
        let (f, b) = (branch.func.index(), branch.block.index());
        if f >= self.funcs.len() || b >= self.funcs[f].len() {
            self.grow(f, b);
        }
        &mut self.funcs[f][b]
    }

    #[cold]
    fn grow(&mut self, f: usize, b: usize) {
        if f >= self.funcs.len() {
            self.funcs.resize_with(f + 1, Vec::new);
        }
        let blocks = &mut self.funcs[f];
        if b >= blocks.len() {
            blocks.resize(b + 1, T::default());
        }
    }

    /// Every slot ever created, in `(func, block)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BranchRef, &T)> + '_ {
        self.funcs.iter().enumerate().flat_map(|(f, blocks)| {
            blocks.iter().enumerate().map(move |(b, slot)| {
                let branch = BranchRef {
                    func: FuncId(f as u32),
                    block: BlockId(b as u32),
                };
                (branch, slot)
            })
        })
    }
}

/// An [`ExecObserver`] that accumulates an [`EdgeProfile`].
///
/// Counts live in a dense per-site table and are turned into the
/// (sparse) profile once, when it is asked for.
#[derive(Debug, Clone, Default)]
pub struct EdgeProfiler {
    counts: SiteTable<EdgeCounts>,
}

impl EdgeProfiler {
    /// Creates an empty profiler.
    pub fn new() -> EdgeProfiler {
        EdgeProfiler::default()
    }

    /// Consumes the profiler, yielding the accumulated profile.
    pub fn into_profile(self) -> EdgeProfile {
        self.profile()
    }

    /// The profile accumulated so far: every site that executed at
    /// least once. Slots the table grew past without running stay out.
    pub fn profile(&self) -> EdgeProfile {
        self.counts
            .iter()
            .filter(|(_, c)| c.total() > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }
}

impl ExecObserver for EdgeProfiler {
    #[inline]
    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        let e = self.counts.slot(branch);
        if taken {
            e.taken += 1;
        } else {
            e.fallthru += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn br(b: u32) -> BranchRef {
        BranchRef {
            func: FuncId(0),
            block: BlockId(b),
        }
    }

    #[test]
    fn record_and_query() {
        let mut p = EdgeProfile::new();
        p.record(br(0), true);
        p.record(br(0), true);
        p.record(br(0), false);
        let c = p.counts(br(0));
        assert_eq!(
            c,
            EdgeCounts {
                taken: 2,
                fallthru: 1
            }
        );
        assert_eq!(c.total(), 3);
        assert_eq!(c.majority(), 2);
        assert_eq!(c.minority(), 1);
        assert!(c.taken_majority());
        assert_eq!(p.counts(br(9)), EdgeCounts::default());
    }

    #[test]
    fn ties_predict_taken() {
        let c = EdgeCounts {
            taken: 5,
            fallthru: 5,
        };
        assert!(c.taken_majority());
    }
}
