//! Replayable branch traces.
//!
//! The observer API streams execution events so that long runs need no
//! storage, but some artifacts (the IPBC sequence distributions) depend
//! on predictions that are not known until *after* a run — the perfect
//! predictor trains on the run's own edge profile. [`TraceRecorder`]
//! captures the branch-event stream of one execution compactly enough to
//! keep (and cache), and [`BranchTrace::replay`] feeds it back to any
//! [`ExecObserver`] without re-running the interpreter.
//!
//! # Representation
//!
//! Executions revisit the same few branch sites millions of times, so
//! the trace is dictionary-compressed: the distinct `(instrs, branch,
//! taken)` events are interned once and the execution is a sequence of
//! dictionary indices. The sequence is stored one byte per event
//! whenever the dictionary has at most 256 entries, as every suite
//! trace's does, and four bytes per event otherwise. The suite's largest
//! traced benchmark (~1.7M branch events) fits in under two megabytes.

use bpfree_ir::BranchRef;

use crate::bytes::ByteView;
use crate::observer::{BranchSite, ExecObserver};
use crate::profile::{slot_entry, EdgeProfile};

/// One branch execution: the straight-line instructions since the
/// previous branch event (this branch's block included), the branch
/// site, and the direction it went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Instructions executed since the previous branch event, including
    /// the block this branch terminates.
    pub instrs: u64,
    /// The branch site.
    pub branch: BranchRef,
    /// Did it go taken?
    pub taken: bool,
}

/// Per-dictionary-entry occurrence counts of one trace, computed in a
/// single O(seq) integer pass at trace construction.
///
/// A quantity that ignores event *order* — an edge profile, a dynamic
/// instruction count — depends only on how often each distinct
/// `(instrs, branch, taken)` event occurred, so folding over the
/// dictionary with these counts ([`BranchTrace::edge_profile`])
/// replaces an O(events) replay (millions of observer calls) with
/// O(dict) ≈ hundreds of integer operations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceTally {
    counts: Vec<u64>,
    instructions: u64,
}

impl TraceTally {
    fn build(dict: &[TraceEvent], seq: &[u32], trailing_instrs: u64) -> Option<TraceTally> {
        let mut counts = vec![0u64; dict.len()];
        for &i in seq {
            counts[i as usize] += 1;
        }
        TraceTally::from_counts(dict, counts, trailing_instrs)
    }

    /// `None` when the instruction total does not fit in `u64`, which
    /// no recorded run reaches.
    fn from_counts(
        dict: &[TraceEvent],
        counts: Vec<u64>,
        trailing_instrs: u64,
    ) -> Option<TraceTally> {
        let instructions = dict
            .iter()
            .zip(&counts)
            .try_fold(trailing_instrs, |sum, (e, &c)| {
                sum.checked_add(e.instrs.checked_mul(c)?)
            })?;
        Some(TraceTally {
            counts,
            instructions,
        })
    }

    /// Occurrences of each dictionary entry, indexed like the dict.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Occurrences of dictionary entry `idx`.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Total dynamic instructions (trailing straight-line run included).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

/// The dictionary indices of a trace, in the width they are stored in.
#[derive(Debug, Clone, Copy)]
pub enum TraceSeq<'a> {
    /// One byte per event: the dictionary has at most 256 entries.
    Narrow(&'a [u8]),
    /// Four bytes per event: the dictionary has more than 256 entries.
    Wide(&'a [u32]),
}

/// The one sequence store. Its width is a function of the dictionary
/// size, so equal traces always store their sequences alike.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SeqStore {
    /// Byte-wide indices, used whenever the dictionary has at most 256
    /// entries: owned by a recorded or rebuilt trace, or borrowed from
    /// a shared buffer (the mounted suite image).
    Narrow(ByteView),
    /// Word-wide indices, only for dictionaries past 256 entries.
    Wide(Vec<u32>),
}

impl Default for SeqStore {
    fn default() -> SeqStore {
        SeqStore::Narrow(ByteView::from_vec(Vec::new()))
    }
}

/// A dictionary-compressed branch-event trace of one execution.
///
/// Equality is over the logical trace (dictionary, index sequence,
/// trailing run), whether the sequence is owned or borrowed; the tally
/// is a function of those.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchTrace {
    dict: Vec<TraceEvent>,
    seq: SeqStore,
    trailing_instrs: u64,
    tally: TraceTally,
}

impl BranchTrace {
    /// Assembles a trace whose sequence indices are known to be in
    /// range, computing the tally and narrowing the sequence to one
    /// byte per event when the dictionary allows it. `None` when the
    /// instruction total overflows `u64`.
    fn assemble(dict: Vec<TraceEvent>, seq: Vec<u32>, trailing_instrs: u64) -> Option<BranchTrace> {
        let tally = TraceTally::build(&dict, &seq, trailing_instrs)?;
        let seq = if dict.len() <= 256 {
            SeqStore::Narrow(ByteView::from_vec(seq.iter().map(|&i| i as u8).collect()))
        } else {
            SeqStore::Wide(seq)
        };
        Some(BranchTrace {
            dict,
            seq,
            trailing_instrs,
            tally,
        })
    }

    /// Rebuilds a trace from its serialized parts, or `None` if any
    /// sequence index is out of range or the instruction total
    /// overflows `u64` (corrupt input).
    pub fn from_parts(dict: Vec<TraceEvent>, seq: Vec<u32>, trailing_instrs: u64) -> Option<Self> {
        let n = dict.len() as u32;
        if seq.iter().any(|&i| i >= n) {
            return None;
        }
        BranchTrace::assemble(dict, seq, trailing_instrs)
    }

    /// Rebuilds a trace whose sequence *borrows* byte-wide indices from
    /// a shared buffer (the mounted suite image) — no sequence
    /// allocation, no decode. Returns `None` when the dictionary has
    /// more than 256 entries (byte indices could not address it), any
    /// index is out of range or the instruction total overflows `u64`
    /// (corrupt input). The single validation pass also computes the
    /// tally, so construction does exactly one read of the borrowed
    /// bytes and allocates only the O(dict) counts.
    pub fn from_borrowed_parts(
        dict: Vec<TraceEvent>,
        seq: ByteView,
        trailing_instrs: u64,
    ) -> Option<Self> {
        if dict.len() > 256 {
            return None;
        }
        let n = dict.len();
        let mut counts = vec![0u64; n];
        for &b in seq.as_slice() {
            let i = b as usize;
            if i >= n {
                return None;
            }
            counts[i] += 1;
        }
        let tally = TraceTally::from_counts(&dict, counts, trailing_instrs)?;
        Some(BranchTrace {
            dict,
            seq: SeqStore::Narrow(seq),
            trailing_instrs,
            tally,
        })
    }

    /// The interned distinct events.
    pub fn dict(&self) -> &[TraceEvent] {
        &self.dict
    }

    /// The execution as dictionary indices in their stored width:
    /// [`TraceSeq::Narrow`] exactly when the dictionary has at most 256
    /// entries. Suite traces intern at most about a hundred distinct
    /// events, so kernels that stream them read one byte per event.
    pub fn seq(&self) -> TraceSeq<'_> {
        match &self.seq {
            SeqStore::Narrow(v) => TraceSeq::Narrow(v.as_slice()),
            SeqStore::Wide(s) => TraceSeq::Wide(s),
        }
    }

    /// The execution as dictionary indices, in order.
    pub fn indices(&self) -> impl Iterator<Item = u32> + '_ {
        match self.seq() {
            TraceSeq::Narrow(s) => IdxIter::Narrow(s.iter()),
            TraceSeq::Wide(s) => IdxIter::Wide(s.iter()),
        }
    }

    /// Straight-line instructions after the last branch event.
    pub fn trailing_instrs(&self) -> u64 {
        self.trailing_instrs
    }

    /// Number of branch events.
    pub fn len(&self) -> usize {
        match self.seq() {
            TraceSeq::Narrow(s) => s.len(),
            TraceSeq::Wide(s) => s.len(),
        }
    }

    /// Did the execution run no conditional branch?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-dict-entry occurrence counts (see [`TraceTally`]).
    /// Precomputed at construction, so this is free.
    pub fn tally(&self) -> &TraceTally {
        &self.tally
    }

    /// Total dynamic instructions in the trace. O(1): derived from the
    /// precomputed tally instead of re-summing the event sequence.
    pub fn total_instructions(&self) -> u64 {
        self.tally.instructions
    }

    /// The edge profile of the recorded execution, computed from the
    /// tally in O(dict) — bit-identical to replaying the trace into an
    /// [`crate::EdgeProfiler`], at a millionth of the event dispatch.
    pub fn edge_profile(&self) -> EdgeProfile {
        let mut profile = EdgeProfile::new();
        for (event, &count) in self.dict.iter().zip(self.tally.counts()) {
            if count > 0 {
                profile.record_many(event.branch, event.taken, count);
            }
        }
        profile
    }

    /// The events in execution order.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.indices().map(|i| self.dict[i as usize])
    }
}

/// Width-erasing iterator behind [`BranchTrace::indices`].
enum IdxIter<'a> {
    Narrow(std::slice::Iter<'a, u8>),
    Wide(std::slice::Iter<'a, u32>),
}

impl Iterator for IdxIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            IdxIter::Narrow(it) => it.next().map(|&b| u32::from(b)),
            IdxIter::Wide(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IdxIter::Narrow(it) => it.size_hint(),
            IdxIter::Wide(it) => it.size_hint(),
        }
    }
}

/// Records the branch-event stream of one execution into a
/// [`BranchTrace`].
///
/// Interning needs no hashing: each branch keeps the few events seen
/// there in a list indexed by its [`BranchSite::slot`], and an event is
/// looked up by scanning its slot's list. A new event takes the next
/// dictionary index, so the dictionary is in first-occurrence order.
/// Like [`EdgeProfiler`](crate::EdgeProfiler), a recorder must see one
/// event stream, and debug builds panic on a slot that names two
/// branches.
///
/// # Example
///
/// ```
/// use bpfree_sim::{CountingObserver, Simulator, TraceRecorder};
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int i; int s;
///         for (i = 0; i < 10; i = i + 1) { s = s + i; }
///         return s;
///     }",
/// ).unwrap();
/// let mut rec = TraceRecorder::new();
/// let live = Simulator::new(&p).run(&mut rec).unwrap();
/// let trace = rec.into_trace();
/// // Replay drives observers exactly like the live run did.
/// let mut counter = CountingObserver::default();
/// trace.replay(&mut counter);
/// assert_eq!(counter.instructions, live.instructions);
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    dict: Vec<TraceEvent>,
    /// Per slot: the branch it numbers and its interned events, in
    /// first-use order.
    variants: Vec<(BranchRef, Vec<Variant>)>,
    seq: Vec<u32>,
    pending_instrs: u64,
}

/// One interned event of a branch site: the part of its
/// [`TraceEvent`] that varies within the site, and its dictionary index.
#[derive(Debug, Clone, Copy)]
struct Variant {
    instrs: u64,
    index: u32,
    taken: bool,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Finalises the recording.
    pub fn into_trace(self) -> BranchTrace {
        BranchTrace::assemble(self.dict, self.seq, self.pending_instrs)
            .expect("a run's instruction count fits in u64")
    }
}

impl ExecObserver for TraceRecorder {
    fn on_instrs(&mut self, count: u64) {
        self.pending_instrs += count;
    }

    #[inline]
    fn on_branch(&mut self, site: &BranchSite, taken: bool) {
        let instrs = std::mem::take(&mut self.pending_instrs);
        let branch = site.branch;
        let (named, variants) = slot_entry(&mut self.variants, site.slot, (branch, Vec::new()));
        debug_assert!(
            variants.is_empty() || *named == branch,
            "slot {} names both {named} and {branch}: one TraceRecorder saw two event streams",
            site.slot
        );
        *named = branch;
        let idx = match variants
            .iter()
            .find(|v| v.instrs == instrs && v.taken == taken)
        {
            Some(v) => v.index,
            None => {
                let index = self.dict.len() as u32;
                variants.push(Variant {
                    instrs,
                    index,
                    taken,
                });
                self.dict.push(TraceEvent {
                    instrs,
                    branch,
                    taken,
                });
                index
            }
        };
        self.seq.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CountingObserver;
    use crate::profile::EdgeProfiler;
    use bpfree_ir::{BlockId, FuncId};

    fn b(n: u32) -> BranchRef {
        BranchRef {
            func: FuncId(0),
            block: BlockId(n),
        }
    }

    /// Block `n` of function 0, numbered slot `n`.
    fn site(n: u32) -> BranchSite {
        BranchSite {
            branch: b(n),
            slot: n,
        }
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let mut rec = TraceRecorder::new();
        rec.on_instrs(3);
        rec.on_instrs(2);
        rec.on_branch(&site(1), true);
        rec.on_instrs(4);
        rec.on_branch(&site(1), true); // same event interns once
        rec.on_instrs(4);
        rec.on_branch(&site(2), false);
        rec.on_instrs(1);
        let trace = rec.into_trace();

        assert_eq!(trace.len(), 3);
        assert_eq!(trace.trailing_instrs(), 1);
        assert_eq!(trace.total_instructions(), 14);
        // (5, b1, T), (4, b1, T), (4, b2, F): three distinct events.
        assert_eq!(trace.dict().len(), 3);

        let mut counter = CountingObserver::default();
        let mut profiler = EdgeProfiler::new();
        trace.replay(&mut counter);
        trace.replay(&mut profiler);
        assert_eq!(counter.instructions, 14);
        assert_eq!(counter.branches, 3);
        assert_eq!(counter.taken, 2);
        let profile = profiler.into_profile();
        assert_eq!(profile.counts(b(1)).taken, 2);
        assert_eq!(profile.counts(b(2)).fallthru, 1);
    }

    #[test]
    fn interning_dedupes_repeated_loop_events() {
        let mut rec = TraceRecorder::new();
        for _ in 0..1000 {
            rec.on_instrs(5);
            rec.on_branch(&site(3), true);
        }
        let trace = rec.into_trace();
        assert_eq!(trace.len(), 1000);
        assert_eq!(trace.dict().len(), 1, "one distinct event");
    }

    #[test]
    fn tally_counts_every_dict_entry() {
        let mut rec = TraceRecorder::new();
        for i in 0..100 {
            rec.on_instrs(5);
            rec.on_branch(&site(3), i % 10 != 9);
        }
        rec.on_instrs(7);
        let trace = rec.into_trace();
        assert_eq!(trace.dict().len(), 2);
        let tally = trace.tally();
        assert_eq!(tally.counts().iter().sum::<u64>(), 100);
        assert_eq!(tally.instructions(), 507);
        assert_eq!(trace.total_instructions(), 507);
    }

    #[test]
    fn edge_profile_matches_replay() {
        let mut rec = TraceRecorder::new();
        for i in 0..50 {
            rec.on_instrs(2);
            rec.on_branch(&site(1), i % 3 == 0);
            rec.on_instrs(1);
            rec.on_branch(&site(2), i % 7 == 0);
        }
        let trace = rec.into_trace();
        let mut profiler = EdgeProfiler::new();
        trace.replay(&mut profiler);
        assert_eq!(trace.edge_profile(), profiler.into_profile());
    }

    #[test]
    fn from_parts_rejects_bad_indices() {
        let e = TraceEvent {
            instrs: 1,
            branch: b(0),
            taken: true,
        };
        assert!(BranchTrace::from_parts(vec![e], vec![0, 0], 0).is_some());
        assert!(BranchTrace::from_parts(vec![e], vec![1], 0).is_none());
    }

    #[test]
    fn borrowed_parts_match_wide_trace() {
        let mut rec = TraceRecorder::new();
        for i in 0..100 {
            rec.on_instrs(5);
            rec.on_branch(&site(3), i % 10 != 9);
            rec.on_instrs(2);
            rec.on_branch(&site(4), i % 3 == 0);
        }
        rec.on_instrs(7);
        let owned = rec.into_trace();
        let TraceSeq::Narrow(bytes) = owned.seq() else {
            panic!("a 4-entry dictionary is stored byte-wide");
        };
        // Serve the bytes from inside a larger buffer, as the image does.
        let mut buf = vec![0xAA; 3];
        buf.extend_from_slice(bytes);
        let view = ByteView::new(std::sync::Arc::new(buf), 3, bytes.len()).unwrap();
        let borrowed =
            BranchTrace::from_borrowed_parts(owned.dict().to_vec(), view, owned.trailing_instrs())
                .unwrap();

        assert_eq!(borrowed, owned);
        assert_eq!(borrowed.tally(), owned.tally());
        assert_eq!(borrowed.total_instructions(), owned.total_instructions());
        assert_eq!(borrowed.edge_profile(), owned.edge_profile());
        assert!(borrowed.indices().eq(owned.indices()));

        let mut a = CountingObserver::default();
        let mut b_ = CountingObserver::default();
        borrowed.replay(&mut a);
        owned.replay(&mut b_);
        assert_eq!(a, b_);
    }

    #[test]
    fn storage_is_byte_wide_exactly_up_to_256_entries() {
        let dict = |n: u64| -> Vec<TraceEvent> {
            (0..n)
                .map(|i| TraceEvent {
                    instrs: i,
                    branch: b(0),
                    taken: true,
                })
                .collect()
        };
        let narrow = BranchTrace::from_parts(dict(256), vec![255, 0], 0).unwrap();
        assert!(matches!(narrow.seq(), TraceSeq::Narrow(&[255, 0])));
        let wide = BranchTrace::from_parts(dict(257), vec![255, 0], 0).unwrap();
        assert!(matches!(wide.seq(), TraceSeq::Wide(&[255, 0])));
        assert!(narrow.indices().eq(wide.indices()));
        assert!(matches!(
            BranchTrace::default().seq(),
            TraceSeq::Narrow(&[])
        ));
    }

    #[test]
    fn borrowed_parts_reject_bad_input() {
        let e = TraceEvent {
            instrs: 1,
            branch: b(0),
            taken: true,
        };
        // Out-of-range byte index.
        assert!(
            BranchTrace::from_borrowed_parts(vec![e], ByteView::from_vec(vec![0, 1]), 0).is_none()
        );
        // Oversized dictionary cannot be addressed byte-wide.
        let big: Vec<TraceEvent> = (0..257)
            .map(|i| TraceEvent {
                instrs: i,
                branch: b(0),
                taken: true,
            })
            .collect();
        assert!(BranchTrace::from_borrowed_parts(big, ByteView::from_vec(vec![0]), 0).is_none());
    }
}
