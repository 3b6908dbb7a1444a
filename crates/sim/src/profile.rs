use bpfree_ir::{BranchMap, BranchRef};

use crate::observer::{BranchSite, ExecObserver};

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

/// An [`ExecObserver`] that accumulates an [`EdgeProfile`].
///
/// Counts live in one table indexed by the event's [`BranchSite::slot`],
/// so an event costs one bounds check and one add. The table grows on a
/// cold path, so the profiler needs no program and counts a replayed
/// trace the same way. It is turned into the (sparse) profile once,
/// when that is asked for.
///
/// Slots number branches within one event stream (see [`BranchSite`]),
/// so one profiler must see one stream: a live run, or one replay.
/// Debug builds panic on an event whose slot already counted another
/// branch.
#[derive(Debug, Clone, Default)]
pub struct EdgeProfiler {
    slots: Vec<SlotCounts>,
}

/// One slot of an [`EdgeProfiler`]: the branch it numbers, and its
/// `[fallthru, taken]` counts.
#[derive(Debug, Clone, Copy)]
struct SlotCounts {
    branch: BranchRef,
    counts: [u64; 2],
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
    /// least once, in slot order, which is program order. Slots the
    /// table grew past without running stay out.
    pub fn profile(&self) -> EdgeProfile {
        self.slots
            .iter()
            .filter(|s| s.counts != [0, 0])
            .map(|s| {
                let [fallthru, taken] = s.counts;
                (s.branch, EdgeCounts { taken, fallthru })
            })
            .collect()
    }
}

/// The entry of a slot-indexed table for `slot`. A slot past the end
/// grows the table on a cold path, filling the new entries with `fill`;
/// a branch observer's fill names the event's own branch, which a
/// slot's first event writes anyway.
#[inline]
pub(crate) fn slot_entry<T: Clone>(table: &mut Vec<T>, slot: u32, fill: T) -> &mut T {
    let slot = slot as usize;
    if slot >= table.len() {
        grow(table, slot, fill);
    }
    &mut table[slot]
}

#[cold]
fn grow<T: Clone>(table: &mut Vec<T>, slot: usize, fill: T) {
    table.resize(slot + 1, fill);
}

impl ExecObserver for EdgeProfiler {
    #[inline]
    fn on_branch(&mut self, site: &BranchSite, taken: bool) {
        let fill = SlotCounts {
            branch: site.branch,
            counts: [0, 0],
        };
        let s = slot_entry(&mut self.slots, site.slot, fill);
        debug_assert!(
            s.counts == [0, 0] || s.branch == site.branch,
            "slot {} names both {} and {}: one EdgeProfiler saw two event streams",
            site.slot,
            s.branch,
            site.branch
        );
        s.branch = site.branch;
        s.counts[taken as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpfree_ir::{BlockId, FuncId};

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
