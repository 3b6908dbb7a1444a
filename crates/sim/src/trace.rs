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
//! # Fidelity
//!
//! Replay coalesces the straight-line instruction counts between two
//! branch events into a single [`ExecObserver::on_instrs`] call. Any
//! observer that accumulates counts (every observer in this workspace)
//! sees bit-identical totals at every branch event; only the block-level
//! granularity of `on_instrs` calls differs from the live run.
//!
//! # Representation
//!
//! Executions revisit the same few branch sites millions of times, so
//! the trace is dictionary-compressed: the distinct `(instrs, branch,
//! taken)` events are interned once and the execution is a sequence of
//! dictionary indices. The suite's largest traced benchmark (~1.7M
//! branch events) fits in a few megabytes.

use std::sync::atomic::{AtomicU64, Ordering};

use bpfree_ir::BranchRef;

use crate::bytes::ByteView;
use crate::observer::ExecObserver;
use crate::profile::{EdgeProfile, SiteTable};

/// Process-wide count of owned trace-sequence materializations —
/// every allocation that decodes or widens a sequence buffer (the
/// image's wide-sequence decode, the lazy byte-wide copy behind
/// [`BranchTrace::seq_u8`]). The mounted suite image serves sequences
/// as borrowed [`ByteView`]s, so a fully mounted warm run leaves this
/// counter untouched; the image tests use the delta as their
/// zero-allocation proof.
static SEQ_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-wide sequence-materialization counter.
pub fn trace_seq_allocs() -> u64 {
    SEQ_ALLOCS.load(Ordering::Relaxed)
}

/// Records one owned sequence materialization. Public so the cache
/// image's wide-sequence decoder can report its allocations to the same
/// counter.
pub fn note_trace_seq_alloc() {
    SEQ_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

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
    fn build(dict: &[TraceEvent], seq: &[u32], trailing_instrs: u64) -> TraceTally {
        let mut counts = vec![0u64; dict.len()];
        for &i in seq {
            counts[i as usize] += 1;
        }
        TraceTally::from_counts(dict, counts, trailing_instrs)
    }

    fn from_counts(dict: &[TraceEvent], counts: Vec<u64>, trailing_instrs: u64) -> TraceTally {
        let instructions = dict
            .iter()
            .zip(&counts)
            .map(|(e, &c)| e.instrs * c)
            .sum::<u64>()
            + trailing_instrs;
        TraceTally {
            counts,
            instructions,
        }
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

#[derive(Debug, Clone)]
enum SeqStore {
    /// Owned wide indices, with a lazily-built byte-wide copy for
    /// small dictionaries (see [`BranchTrace::seq_u8`]). The copy is
    /// derived data — excluded from equality, built at most once.
    Wide(Vec<u32>, std::sync::OnceLock<Vec<u8>>),
    /// Byte-wide indices borrowed from a shared buffer (the mounted
    /// suite image). Only constructed for dictionaries ≤ 256 entries.
    Borrowed(ByteView),
}

impl Default for SeqStore {
    fn default() -> SeqStore {
        SeqStore::Wide(Vec::new(), std::sync::OnceLock::new())
    }
}

/// A dictionary-compressed branch-event trace of one execution.
#[derive(Debug, Clone, Default)]
pub struct BranchTrace {
    dict: Vec<TraceEvent>,
    seq: SeqStore,
    trailing_instrs: u64,
    tally: TraceTally,
}

/// Equality is over the logical trace (dictionary, index sequence,
/// trailing run) regardless of sequence storage width; the tally is a
/// deterministic function of those, so it does not participate.
impl PartialEq for BranchTrace {
    fn eq(&self, other: &BranchTrace) -> bool {
        if self.dict != other.dict || self.trailing_instrs != other.trailing_instrs {
            return false;
        }
        match (&self.seq, &other.seq) {
            (SeqStore::Wide(a, _), SeqStore::Wide(b, _)) => a == b,
            _ => self.indices().eq(other.indices()),
        }
    }
}

impl Eq for BranchTrace {}

impl BranchTrace {
    /// Assembles a trace whose sequence indices are known to be in
    /// range, computing the tally as part of construction.
    fn assemble(dict: Vec<TraceEvent>, seq: Vec<u32>, trailing_instrs: u64) -> BranchTrace {
        let tally = TraceTally::build(&dict, &seq, trailing_instrs);
        BranchTrace {
            dict,
            seq: SeqStore::Wide(seq, std::sync::OnceLock::new()),
            trailing_instrs,
            tally,
        }
    }

    /// Rebuilds a trace from its serialized parts, or `None` if any
    /// sequence index is out of range (corrupt input).
    pub fn from_parts(dict: Vec<TraceEvent>, seq: Vec<u32>, trailing_instrs: u64) -> Option<Self> {
        let n = dict.len() as u32;
        if seq.iter().any(|&i| i >= n) {
            return None;
        }
        Some(BranchTrace::assemble(dict, seq, trailing_instrs))
    }

    /// Rebuilds a trace whose sequence *borrows* byte-wide indices from
    /// a shared buffer (the mounted suite image) — no sequence
    /// allocation, no decode. Returns `None` when the dictionary has
    /// more than 256 entries (byte indices could not address it) or any
    /// index is out of range (corrupt input). The single validation
    /// pass also computes the tally, so construction does exactly one
    /// read of the borrowed bytes and allocates only the O(dict)
    /// counts.
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
        let tally = TraceTally::from_counts(&dict, counts, trailing_instrs);
        Some(BranchTrace {
            dict,
            seq: SeqStore::Borrowed(seq),
            trailing_instrs,
            tally,
        })
    }

    /// The interned distinct events.
    pub fn dict(&self) -> &[TraceEvent] {
        &self.dict
    }

    /// The execution as wide dictionary indices, or `None` when the
    /// sequence is stored byte-wide (mounted from an image). A `None`
    /// here implies [`BranchTrace::seq_u8`] is `Some`, so every caller
    /// has a zero-copy path.
    pub fn seq_u32(&self) -> Option<&[u32]> {
        match &self.seq {
            SeqStore::Wide(s, _) => Some(s),
            SeqStore::Borrowed(_) => None,
        }
    }

    /// The execution as dictionary indices, in order.
    pub fn indices(&self) -> impl Iterator<Item = u32> + '_ {
        match &self.seq {
            SeqStore::Wide(s, _) => IdxIter::Wide(s.iter()),
            SeqStore::Borrowed(v) => IdxIter::Bytes(v.as_slice().iter()),
        }
    }

    /// The sequence as byte-wide indices, or `None` when the dictionary
    /// has more than 256 entries. Real traces intern a few dozen
    /// distinct events, so replay kernels that stream the sequence can
    /// read a quarter of the memory — and index a 256-entry lookup
    /// table without bounds checks. Traces mounted from a suite image
    /// already store byte-wide indices and answer borrowed image bytes
    /// directly; owned wide traces build the byte copy on first use,
    /// then cache it for the life of the trace (replays are the hot
    /// path; construction is not).
    pub fn seq_u8(&self) -> Option<&[u8]> {
        match &self.seq {
            SeqStore::Borrowed(v) => Some(v.as_slice()),
            SeqStore::Wide(s, seq8) => {
                if self.dict.len() > 256 {
                    return None;
                }
                Some(seq8.get_or_init(|| {
                    note_trace_seq_alloc();
                    s.iter().map(|&i| i as u8).collect()
                }))
            }
        }
    }

    /// Straight-line instructions after the last branch event.
    pub fn trailing_instrs(&self) -> u64 {
        self.trailing_instrs
    }

    /// Number of branch events.
    pub fn len(&self) -> usize {
        match &self.seq {
            SeqStore::Wide(s, _) => s.len(),
            SeqStore::Borrowed(v) => v.len(),
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

    /// Streams the recorded execution into `observer`, as if the program
    /// ran again (with straight-line runs coalesced — see the module
    /// docs). Any number of observers can replay the same trace, so one
    /// interpreter pass serves every post-hoc analysis.
    ///
    /// This is the serial reference; see [`BranchTrace::replay_segmented`]
    /// for the parallel tier and [`BranchTrace::tally`] for the O(dict)
    /// tier, both provably equivalent for their supported observers.
    pub fn replay<O: ExecObserver + ?Sized>(&self, observer: &mut O) {
        self.replay_events(0..self.len(), observer);
        if self.trailing_instrs > 0 {
            observer.on_instrs(self.trailing_instrs);
        }
    }

    /// Streams the events of one contiguous index range (no trailing
    /// instructions) — the building block segmented replay hands each
    /// worker.
    pub fn replay_events<O: ExecObserver + ?Sized>(
        &self,
        range: std::ops::Range<usize>,
        observer: &mut O,
    ) {
        fn stream<O: ExecObserver + ?Sized>(
            dict: &[TraceEvent],
            indices: impl Iterator<Item = usize>,
            observer: &mut O,
        ) {
            for idx in indices {
                let event = dict[idx];
                if event.instrs > 0 {
                    observer.on_instrs(event.instrs);
                }
                observer.on_branch(event.branch, event.taken);
            }
        }
        match &self.seq {
            SeqStore::Wide(s, _) => {
                stream(&self.dict, s[range].iter().map(|&i| i as usize), observer)
            }
            SeqStore::Borrowed(v) => stream(
                &self.dict,
                v.as_slice()[range].iter().map(|&i| i as usize),
                observer,
            ),
        }
    }
}

/// Width-erasing iterator behind [`BranchTrace::indices`].
enum IdxIter<'a> {
    Wide(std::slice::Iter<'a, u32>),
    Bytes(std::slice::Iter<'a, u8>),
}

impl Iterator for IdxIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            IdxIter::Wide(it) => it.next().copied(),
            IdxIter::Bytes(it) => it.next().map(|&b| u32::from(b)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IdxIter::Wide(it) => it.size_hint(),
            IdxIter::Bytes(it) => it.size_hint(),
        }
    }
}

/// Records the branch-event stream of one execution into a
/// [`BranchTrace`].
///
/// Interning needs no hashing: each branch site keeps the few events
/// seen there in a dense `[func][block]` table and an event is looked
/// up by scanning its site's list. A new event takes the next
/// dictionary index, so the dictionary is in first-occurrence order.
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
    /// Each site's interned events, in first-use order.
    variants: SiteTable<Vec<Variant>>,
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
    }
}

impl ExecObserver for TraceRecorder {
    fn on_instrs(&mut self, count: u64) {
        self.pending_instrs += count;
    }

    #[inline]
    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        let instrs = std::mem::take(&mut self.pending_instrs);
        let variants = self.variants.slot(branch);
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

    #[test]
    fn record_and_replay_roundtrip() {
        let mut rec = TraceRecorder::new();
        rec.on_instrs(3);
        rec.on_instrs(2);
        rec.on_branch(b(1), true);
        rec.on_instrs(4);
        rec.on_branch(b(1), true); // same event interns once
        rec.on_instrs(4);
        rec.on_branch(b(2), false);
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
            rec.on_branch(b(3), true);
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
            rec.on_branch(b(3), i % 10 != 9);
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
            rec.on_branch(b(1), i % 3 == 0);
            rec.on_instrs(1);
            rec.on_branch(b(2), i % 7 == 0);
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
            rec.on_branch(b(3), i % 10 != 9);
            rec.on_instrs(2);
            rec.on_branch(b(4), i % 3 == 0);
        }
        rec.on_instrs(7);
        let wide = rec.into_trace();
        let bytes: Vec<u8> = wide.seq_u8().unwrap().to_vec();
        let borrowed = BranchTrace::from_borrowed_parts(
            wide.dict().to_vec(),
            ByteView::from_vec(bytes),
            wide.trailing_instrs(),
        )
        .unwrap();

        assert_eq!(borrowed, wide);
        assert_eq!(borrowed.tally(), wide.tally());
        assert_eq!(borrowed.total_instructions(), wide.total_instructions());
        assert_eq!(borrowed.edge_profile(), wide.edge_profile());
        assert!(borrowed.seq_u32().is_none());
        assert_eq!(borrowed.seq_u8().unwrap(), wide.seq_u8().unwrap());

        let mut a = CountingObserver::default();
        let mut b_ = CountingObserver::default();
        borrowed.replay(&mut a);
        wide.replay(&mut b_);
        assert_eq!(a.instructions, b_.instructions);
        assert_eq!(a.taken, b_.taken);
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
