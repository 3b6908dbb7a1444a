//! [`BranchMap`]: one value per conditional branch, in program order.

use crate::function::BranchRef;

/// A value per conditional branch site, kept sorted by [`BranchRef`] —
/// program order, the order [`Program::branches`] yields
/// (function-major, block-minor).
///
/// Every per-branch fact the analysis stack derives lives in one of
/// these: the classifier's class and loop prediction, the heuristic
/// cells, a predictor's directions and their attribution, branch
/// probabilities and frequencies, and edge-profile counts. Builders
/// visit branches in program order, so [`BranchMap::set`] appends in
/// O(1); an out-of-order `set` inserts in sorted position and a repeated
/// one overwrites. [`BranchMap::get`] is a binary search and
/// [`BranchMap::iter`] yields program order.
///
/// [`Program::branches`]: crate::Program::branches
///
/// # Example
///
/// ```
/// use bpfree_ir::{BlockId, BranchMap, BranchRef, FuncId};
/// let br = |f, b| BranchRef { func: FuncId(f), block: BlockId(b) };
/// let mut m = BranchMap::new();
/// m.set(br(1, 4), 'b');
/// m.set(br(0, 2), 'a');
/// m.set(br(1, 4), 'c');
/// assert_eq!(m.get(br(1, 4)), Some('c'));
/// assert_eq!(m.get(br(0, 3)), None);
/// assert_eq!(m.iter().collect::<Vec<_>>(), [(br(0, 2), 'a'), (br(1, 4), 'c')]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchMap<T> {
    /// Strictly increasing by branch.
    entries: Vec<(BranchRef, T)>,
}

impl<T> Default for BranchMap<T> {
    fn default() -> BranchMap<T> {
        BranchMap {
            entries: Vec::new(),
        }
    }
}

impl<T: Copy> BranchMap<T> {
    /// An empty map.
    pub fn new() -> BranchMap<T> {
        BranchMap::default()
    }

    /// Sets the value of `branch`: an append when `branch` follows every
    /// branch already set, else a sorted insert or an overwrite.
    pub fn set(&mut self, branch: BranchRef, value: T) {
        match self.entries.last() {
            Some(&(last, _)) if last >= branch => match self.search(branch) {
                Ok(i) => self.entries[i].1 = value,
                Err(i) => self.entries.insert(i, (branch, value)),
            },
            _ => self.entries.push((branch, value)),
        }
    }

    /// The value of `branch`, if set.
    pub fn get(&self, branch: BranchRef) -> Option<T> {
        self.search(branch).ok().map(|i| self.entries[i].1)
    }

    /// Number of branches with a value.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no branch has a value.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every `(branch, value)` pair, in program order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchRef, T)> + '_ {
        self.entries.iter().copied()
    }

    fn search(&self, branch: BranchRef) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&branch, |&(b, _)| b)
    }
}

impl<T: Copy> FromIterator<(BranchRef, T)> for BranchMap<T> {
    /// Collects pairs in any order; a repeated branch keeps its last
    /// value, as repeated [`BranchMap::set`] calls would.
    fn from_iter<I: IntoIterator<Item = (BranchRef, T)>>(iter: I) -> BranchMap<T> {
        let mut entries: Vec<(BranchRef, T)> = iter.into_iter().collect();
        // A stable sort keeps a repeated branch's values in arrival
        // order, so the last of each run is the one to keep.
        entries.sort_by_key(|&(b, _)| b);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        BranchMap { entries }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::{BlockId, FuncId};

    fn br(f: u32, b: u32) -> BranchRef {
        BranchRef {
            func: FuncId(f),
            block: BlockId(b),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `set` sequences over a small key space, with repeats and
        /// out-of-order keys, and `FromIterator` over the same pairs,
        /// agree with a `BTreeMap` on every hit and miss and on the
        /// length, and iterate strictly increasing.
        #[test]
        fn matches_a_btreemap_oracle(
            sets in proptest::collection::vec((0u32..3, 0u32..6, any::<u8>()), 0..40),
        ) {
            let mut set = BranchMap::new();
            let mut oracle = BTreeMap::new();
            for &(f, b, v) in &sets {
                set.set(br(f, b), v);
                oracle.insert(br(f, b), v);
            }
            let collected: BranchMap<u8> = sets.iter().map(|&(f, b, v)| (br(f, b), v)).collect();
            for map in [&set, &collected] {
                prop_assert_eq!(map.len(), oracle.len());
                // One function and one block past the key space: misses.
                for f in 0..4 {
                    for b in 0..7 {
                        prop_assert_eq!(map.get(br(f, b)), oracle.get(&br(f, b)).copied());
                    }
                }
                let keys: Vec<BranchRef> = map.iter().map(|(b, _)| b).collect();
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "{:?}", keys);
                prop_assert!(map.iter().eq(oracle.iter().map(|(&b, &v)| (b, v))));
            }
        }
    }
}
