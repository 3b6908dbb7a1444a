//! Instructions per break in control (Section 6).
//!
//! A *break in control* is a mispredicted branch (our IR has no indirect
//! jumps or indirect calls, the paper's other break sources). Each break
//! `B` defines a sequence of instructions from (but not including) the
//! previous break up to and including `B`; the sequences partition the
//! instruction trace.
//!
//! Following the paper, we record, for `0 <= j < 1000`, the number of
//! sequences whose length lies in `[10j, 10j+9]` (the last bucket absorbs
//! everything ≥ 9990) and the summed length per bucket. From these come:
//!
//! * the **profile-based IPBC average**: total instructions / breaks;
//! * the cumulative distribution of sequence lengths weighted by
//!   instructions (Graphs 4, 6–11) or by breaks (Graph 5);
//! * the **dividing length**: the sequence length at which 50% of
//!   executed instructions are accounted for — the paper's alternative
//!   to the (misleading) IPBC average.
//!
//! Several predictors are measured in a single simulated run by keeping
//! one sequence counter per predictor, replacing materialised trace
//! files.

use std::ops::Range;
use std::sync::Arc;

use bpfree_ir::{BranchRef, Program, Terminator};
use bpfree_sim::{BranchTrace, ExecObserver, SegmentedObserver, TraceSegment};

use crate::predictors::{Direction, Predictions};

/// Number of histogram buckets (bucket `j` covers lengths `10j..10j+9`).
pub const N_BUCKETS: usize = 1000;

/// Sequence-length statistics for one predictor over one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceDist {
    /// The predictor's display name.
    pub name: String,
    /// Sequences per bucket.
    counts: Vec<u64>,
    /// Summed sequence length per bucket.
    length_sums: Vec<u64>,
    /// Breaks in control (mispredicted branches).
    pub breaks: u64,
    /// Total instructions executed.
    pub total_instructions: u64,
    /// Mispredicted / total conditional branches.
    pub mispredicted: u64,
    /// Total conditional branches executed.
    pub total_branches: u64,
}

impl SequenceDist {
    fn new(name: String) -> SequenceDist {
        SequenceDist {
            name,
            counts: vec![0; N_BUCKETS],
            length_sums: vec![0; N_BUCKETS],
            breaks: 0,
            total_instructions: 0,
            mispredicted: 0,
            total_branches: 0,
        }
    }

    fn record_sequence(&mut self, len: u64) {
        let bucket = ((len / 10) as usize).min(N_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.length_sums[bucket] += len;
    }

    /// The profile-based IPBC average: instructions per break.
    pub fn ipbc_average(&self) -> f64 {
        if self.breaks == 0 {
            self.total_instructions as f64
        } else {
            self.total_instructions as f64 / self.breaks as f64
        }
    }

    /// Overall branch miss rate for this predictor.
    pub fn miss_rate(&self) -> f64 {
        if self.total_branches == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.total_branches as f64
        }
    }

    /// Fraction of executed instructions in sequences of length `< x`
    /// (x in multiples of 10; intermediate values use the bucket floor).
    pub fn cumulative_instructions_below(&self, x: u64) -> f64 {
        if self.total_instructions == 0 {
            return 0.0;
        }
        let bucket = ((x / 10) as usize).min(N_BUCKETS);
        let sum: u64 = self.length_sums[..bucket].iter().sum();
        sum as f64 / self.total_instructions as f64
    }

    /// Fraction of sequences (breaks) of length `< x`.
    pub fn cumulative_breaks_below(&self, x: u64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let bucket = ((x / 10) as usize).min(N_BUCKETS);
        let sum: u64 = self.counts[..bucket].iter().sum();
        sum as f64 / total as f64
    }

    /// The dividing length: the smallest bucket boundary at which at
    /// least half the executed instructions are in shorter sequences.
    pub fn dividing_length(&self) -> u64 {
        let mut acc = 0u64;
        for (j, &s) in self.length_sums.iter().enumerate() {
            acc += s;
            if acc * 2 >= self.total_instructions {
                return (j as u64 + 1) * 10;
            }
        }
        (N_BUCKETS as u64) * 10
    }

    /// The plot series for the paper's graphs: `(length, cumulative
    /// instruction fraction)` at every bucket boundary up to `max_len`.
    pub fn instruction_cdf(&self, max_len: u64) -> Vec<(u64, f64)> {
        (0..=max_len / 10)
            .map(|j| (j * 10, self.cumulative_instructions_below(j * 10)))
            .collect()
    }

    /// The per-bucket sequence counts (for tests and custom plots).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Dense per-function prediction lookup (`taken?` per block) so the
/// per-branch hot path avoids hashing.
struct DensePredictions {
    per_func: Vec<Vec<Option<bool>>>,
}

impl DensePredictions {
    fn build(program: &Program, predictions: &Predictions) -> DensePredictions {
        let mut per_func: Vec<Vec<Option<bool>>> = program
            .funcs()
            .iter()
            .map(|f| vec![None; f.blocks().len()])
            .collect();
        for fid in program.func_ids() {
            let func = program.func(fid);
            for bid in func.block_ids() {
                if let Terminator::Branch { .. } = func.block(bid).term {
                    let dir = predictions.get(BranchRef {
                        func: fid,
                        block: bid,
                    });
                    per_func[fid.index()][bid.index()] = dir.map(|d| d == Direction::Taken);
                }
            }
        }
        DensePredictions { per_func }
    }

    #[inline]
    fn predicts_taken(&self, branch: BranchRef) -> Option<bool> {
        self.per_func[branch.func.index()][branch.block.index()]
    }
}

/// Streams an execution once while scoring several static predictors'
/// sequence-length distributions simultaneously.
///
/// # Example
///
/// ```
/// use bpfree_core::ipbc::IpbcAnalyzer;
/// use bpfree_core::{perfect_predictions, BranchClassifier};
/// use bpfree_sim::{EdgeProfiler, Simulator};
///
/// let p = bpfree_lang::compile(
///     "fn main() -> int {
///         int i; int s;
///         for (i = 0; i < 200; i = i + 1) { if (i % 3 == 0) { s = s + 1; } }
///         return s;
///     }",
/// ).unwrap();
/// let mut prof = EdgeProfiler::new();
/// Simulator::new(&p).run(&mut prof).unwrap();
/// let profile = prof.into_profile();
///
/// let mut an = IpbcAnalyzer::new(&p);
/// an.add_predictor("Perfect", &perfect_predictions(&p, &profile));
/// Simulator::new(&p).run(&mut an).unwrap();
/// let dists = an.finish();
/// assert!(dists[0].ipbc_average() > 1.0);
/// ```
pub struct IpbcAnalyzer<'p> {
    program: &'p Program,
    dense: Vec<DensePredictions>,
    dists: Vec<SequenceDist>,
    current_len: Vec<u64>,
    fused: Option<Arc<FusedTables>>,
}

impl<'p> IpbcAnalyzer<'p> {
    /// Creates an analyzer for one program.
    pub fn new(program: &'p Program) -> IpbcAnalyzer<'p> {
        IpbcAnalyzer {
            program,
            dense: Vec::new(),
            dists: Vec::new(),
            current_len: Vec::new(),
            fused: None,
        }
    }

    /// Registers a predictor to score. Call before running the simulator.
    ///
    /// # Panics
    ///
    /// Past 64 predictors: the replay kernel keeps one bit per predictor
    /// in a `u64` miss mask.
    pub fn add_predictor(&mut self, name: impl Into<String>, predictions: &Predictions) {
        assert!(
            self.dists.len() < 64,
            "an IpbcAnalyzer scores at most 64 predictors"
        );
        self.dense
            .push(DensePredictions::build(self.program, predictions));
        self.dists.push(SequenceDist::new(name.into()));
        self.current_len.push(0);
    }

    /// Finalises the distributions, flushing each predictor's trailing
    /// sequence (the tail has no terminating break and is recorded as a
    /// sequence without incrementing the break count).
    pub fn finish(mut self) -> Vec<SequenceDist> {
        for (i, dist) in self.dists.iter_mut().enumerate() {
            if self.current_len[i] > 0 {
                let len = self.current_len[i];
                dist.record_sequence(len);
            }
        }
        self.dists
    }
}

/// Per-trace lookup tables shared (via `Arc`) by every replay segment:
/// for each dictionary entry, its instruction count and a bitmask of
/// which registered predictors mispredict it. Built once in `prepare`,
/// they turn the per-event work of the fused kernel into a single
/// packed array read — no hashing, no observer dispatch, and no
/// per-predictor work on correctly-predicted events.
struct FusedTables {
    /// `entries[d]` = (instruction count, miss mask over the predictors)
    /// of dictionary entry `d`.
    entries: Vec<(u64, u64)>,
    /// `entries` zero-padded to exactly 256 slots when the dictionary
    /// fits (always, in practice). Indexed with the byte-wide sequence
    /// from [`BranchTrace::seq_u8`], a `u8` index into a fixed-size
    /// 256-entry array needs no bounds check in the hot loop.
    packed: Option<Box<[(u64, u64); 256]>>,
}

fn miss_mask(dense: &[DensePredictions], e: &bpfree_sim::TraceEvent) -> u64 {
    let mut m = 0u64;
    for (p, d) in dense.iter().enumerate() {
        if d.predicts_taken(e.branch) != Some(e.taken) {
            m |= 1 << p;
        }
    }
    m
}

impl FusedTables {
    fn build(dense: &[DensePredictions], trace: &BranchTrace) -> FusedTables {
        let entries: Vec<(u64, u64)> = trace
            .dict()
            .iter()
            .map(|e| (e.instrs, miss_mask(dense, e)))
            .collect();
        let packed = (entries.len() <= 256).then(|| {
            let mut t = Box::new([(0u64, 0u64); 256]);
            t[..entries.len()].copy_from_slice(&entries);
            t
        });
        FusedTables { entries, packed }
    }
}

/// One predictor's order-dependent state over one segment. The run that
/// is open when the segment starts cannot be bucketed locally — its
/// total length depends on earlier segments — so the length closed by
/// the *first* break is parked in `first_break` and the still-open tail
/// in `len`; `merge` stitches both across the boundary.
struct SegmentState {
    counts: Vec<u64>,
    length_sums: Vec<u64>,
    breaks: u64,
    first_break: Option<u64>,
    len: u64,
}

impl SegmentState {
    fn new() -> SegmentState {
        SegmentState {
            counts: vec![0; N_BUCKETS],
            length_sums: vec![0; N_BUCKETS],
            breaks: 0,
            first_break: None,
            len: 0,
        }
    }

    fn record_sequence(&mut self, len: u64) {
        let bucket = ((len / 10) as usize).min(N_BUCKETS - 1);
        self.counts[bucket] += 1;
        self.length_sums[bucket] += len;
    }
}

/// The per-worker state of segmented IPBC analysis (see
/// [`SegmentedObserver`]). Replays its slice with the fused kernel: a
/// single event-major scan over precomputed per-dictionary-entry
/// instruction counts and miss bitmasks, instead of per-event
/// [`ExecObserver`] dispatch plus a prediction lookup per predictor.
pub struct IpbcSegment {
    tables: Arc<FusedTables>,
    states: Vec<SegmentState>,
    /// Branch events in this segment (same for every predictor).
    events: u64,
    /// Instructions in this segment (same for every predictor).
    instrs: u64,
}

/// Per-predictor stride of the fused kernel's flat local histogram:
/// a power of two ≥ `N_BUCKETS` so the bucket offset is a shift. Each
/// cell is a `u128` holding the length sum in its high half and the
/// sequence count in its low half, so one break is one read-modify-
/// write; the count side cannot carry into the sums before 2⁶⁴ breaks.
const HIST_SHIFT: usize = 10;
const _: () = assert!(N_BUCKETS <= 1 << HIST_SHIFT);

impl TraceSegment for IpbcSegment {
    fn replay(&mut self, trace: &BranchTrace, range: Range<usize>) {
        let tables = Arc::clone(&self.tables);
        self.events += range.len() as u64;

        // Each predictor's open-run length is a distance from one
        // running position: `len_p = pos - start_p`. A correctly-
        // predicted event then costs one packed table read and one add
        // for all predictors; breaks walk only the set mask bits and
        // write into a flat shift-indexed histogram, folded back into
        // the (pointer-chasing) `SegmentState`s once at the end. `base`
        // keeps the subtraction in u64 if states carry an open run in
        // from an earlier call.
        //
        // The scan runs in two phases. The *prefix* loop tracks which
        // predictors still owe their first break of the call — that
        // break closes a run that may span the segment boundary, so its
        // length is parked in `first` (bit in `seen`) rather than
        // bucketed. Once every predictor has broken (almost immediately
        // on real traces) the *main* loop drops that test: each break
        // is one unconditional histogram read-modify-write.
        let n = self.states.len();
        let states = &mut self.states;
        let mut hist = vec![0u128; n << HIST_SHIFT];
        let mut start = [0u64; 64];
        let mut first = [0u64; 64];
        let base: u64 = states.iter().map(|s| s.len).max().unwrap_or(0);
        for (p, st) in states.iter().enumerate() {
            start[p] = base - st.len;
        }
        let mut pos = base;
        let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
        let mut seen: u64 = 0;

        if let (Some(seq8), Some(packed)) = (trace.seq_u8(), tables.packed.as_deref()) {
            let s = &seq8[range.clone()];
            let mut i = 0;
            while i < s.len() && seen != full {
                let e = packed[s[i] as usize];
                i += 1;
                pos += e.0;
                let mut m = e.1;
                while m != 0 {
                    let p = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let len = pos - start[p];
                    if seen & (1 << p) == 0 {
                        seen |= 1 << p;
                        first[p] = len;
                    } else {
                        let off = (p << HIST_SHIFT) | ((len / 10) as usize).min(N_BUCKETS - 1);
                        // SAFETY: miss masks only set bits below `n`, so
                        // `p < n`, and the bucket is `< 2^HIST_SHIFT`
                        // (const-asserted), so `off < n << HIST_SHIFT`,
                        // the histogram's length.
                        unsafe { *hist.get_unchecked_mut(off) += ((len as u128) << 64) | 1 };
                    }
                    start[p] = pos;
                }
            }
            for &idx in &s[i..] {
                let e = packed[idx as usize];
                pos += e.0;
                let mut m = e.1;
                while m != 0 {
                    let p = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let len = pos - start[p];
                    let off = (p << HIST_SHIFT) | ((len / 10) as usize).min(N_BUCKETS - 1);
                    // SAFETY: as in the prefix loop.
                    unsafe { *hist.get_unchecked_mut(off) += ((len as u128) << 64) | 1 };
                    start[p] = pos;
                }
            }
        } else {
            // Word-wide fallback for dictionaries past 256 entries.
            // Borrowed (image-mounted) traces always have ≤ 256 dict
            // entries, so only owned wide sequences reach here.
            let entries = &tables.entries[..];
            let seq = trace
                .seq_u32()
                .expect("dictionaries past 256 entries use wide sequence storage");
            for &idx in &seq[range.clone()] {
                let e = entries[idx as usize];
                pos += e.0;
                let mut m = e.1;
                while m != 0 {
                    let p = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let len = pos - start[p];
                    if seen & (1 << p) == 0 {
                        seen |= 1 << p;
                        first[p] = len;
                    } else {
                        let off = (p << HIST_SHIFT) | ((len / 10) as usize).min(N_BUCKETS - 1);
                        hist[off] += ((len as u128) << 64) | 1;
                    }
                    start[p] = pos;
                }
            }
        }

        self.instrs += pos - base;
        for (p, st) in states.iter_mut().enumerate() {
            st.len = pos - start[p];
            let mut bucketed = 0u64;
            for bucket in 0..N_BUCKETS {
                let cell = hist[(p << HIST_SHIFT) | bucket];
                st.counts[bucket] += cell as u64;
                st.length_sums[bucket] += (cell >> 64) as u64;
                bucketed += cell as u64;
            }
            if seen & (1 << p) != 0 {
                if st.breaks == 0 {
                    // First break this segment has ever seen: the run it
                    // closed was open at the segment boundary, so park
                    // its length for `merge` to stitch.
                    st.first_break = Some(first[p]);
                } else {
                    st.record_sequence(first[p]);
                }
                st.breaks += 1 + bucketed;
            }
        }
    }
}

impl SegmentedObserver for IpbcAnalyzer<'_> {
    type Segment = IpbcSegment;

    fn prepare(&mut self, trace: &BranchTrace) {
        self.fused = Some(Arc::new(FusedTables::build(&self.dense, trace)));
    }

    fn segment(&self) -> IpbcSegment {
        let tables = self
            .fused
            .as_ref()
            .expect("IpbcAnalyzer::prepare runs before segments are created");
        IpbcSegment {
            tables: Arc::clone(tables),
            states: self.dists.iter().map(|_| SegmentState::new()).collect(),
            events: 0,
            instrs: 0,
        }
    }

    fn merge(&mut self, parts: Vec<IpbcSegment>) {
        for part in parts {
            for (i, state) in part.states.into_iter().enumerate() {
                let dist = &mut self.dists[i];
                dist.total_branches += part.events;
                dist.total_instructions += part.instrs;
                dist.mispredicted += state.breaks;
                dist.breaks += state.breaks;
                for (bucket, (&c, &s)) in state.counts.iter().zip(&state.length_sums).enumerate() {
                    dist.counts[bucket] += c;
                    dist.length_sums[bucket] += s;
                }
                match state.first_break {
                    // The segment's first break closed the run that was
                    // open across the boundary: its full length is the
                    // parent's open tail plus the segment's prefix.
                    Some(first) => {
                        dist.record_sequence(self.current_len[i] + first);
                        self.current_len[i] = state.len;
                    }
                    // Break-free segment: the open run just grows.
                    None => self.current_len[i] += state.len,
                }
            }
        }
    }
}

impl ExecObserver for IpbcAnalyzer<'_> {
    fn on_instrs(&mut self, count: u64) {
        for (i, dist) in self.dists.iter_mut().enumerate() {
            dist.total_instructions += count;
            self.current_len[i] += count;
        }
    }

    fn on_branch(&mut self, branch: BranchRef, taken: bool) {
        for i in 0..self.dists.len() {
            let dist = &mut self.dists[i];
            dist.total_branches += 1;
            let correct = match self.dense[i].predicts_taken(branch) {
                Some(p) => p == taken,
                None => false,
            };
            if !correct {
                dist.mispredicted += 1;
                dist.breaks += 1;
                let len = self.current_len[i];
                dist.record_sequence(len);
                self.current_len[i] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_analyzer_scores_up_to_64_predictors_and_panics_past_them() {
        let program = bpfree_lang::compile(
            "fn main() -> int {
                int i; int s;
                for (i = 0; i < 50; i = i + 1) { if (i % 3 == 0) { s = s + 1; } }
                return s;
            }",
        )
        .unwrap();
        let mut recorder = bpfree_sim::TraceRecorder::new();
        bpfree_sim::Simulator::new(&program)
            .run(&mut recorder)
            .unwrap();
        let trace = recorder.into_trace();
        let mut sites: Vec<BranchRef> = trace.dict().iter().map(|e| e.branch).collect();
        sites.sort();
        sites.dedup();
        // Predictor `i` predicts site `s` taken iff bit `s % 6` of `i` is
        // set, so every bit of the 64-wide miss mask sees use.
        let predictors: Vec<Predictions> = (0..64)
            .map(|i| {
                let mut p = Predictions::new();
                for (s, &site) in sites.iter().enumerate() {
                    let dir = match (i >> (s % 6)) & 1 {
                        1 => Direction::Taken,
                        _ => Direction::FallThru,
                    };
                    p.set(site, dir);
                }
                p
            })
            .collect();
        let analyzer = |predictors: &[Predictions]| {
            let mut a = IpbcAnalyzer::new(&program);
            for (i, p) in predictors.iter().enumerate() {
                a.add_predictor(format!("p{i}"), p);
            }
            a
        };

        let mut serial = analyzer(&predictors);
        trace.replay(&mut serial);
        let mut segmented = analyzer(&predictors);
        trace.replay_segmented_jobs(3, &mut segmented);
        assert_eq!(segmented.finish(), serial.finish());

        let mut full = analyzer(&predictors);
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            full.add_predictor("one too many", &Predictions::new())
        }));
        assert!(past.is_err(), "a 65th predictor is refused");
    }
}
