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

use bpfree_ir::{BranchRef, Program, Terminator};
use bpfree_sim::{BranchTrace, ExecObserver, TraceEvent, TraceKernel, TraceSeq};

use crate::predictors::{Direction, Predictions};

/// Number of histogram buckets (bucket `j` covers lengths `10j..10j+9`).
pub const N_BUCKETS: usize = 1000;

/// The histogram bucket of a sequence of `len` instructions.
fn bucket(len: u64) -> usize {
    ((len / 10) as usize).min(N_BUCKETS - 1)
}

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
        let bucket = bucket(len);
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
}

impl<'p> IpbcAnalyzer<'p> {
    /// Creates an analyzer for one program.
    pub fn new(program: &'p Program) -> IpbcAnalyzer<'p> {
        IpbcAnalyzer {
            program,
            dense: Vec::new(),
            dists: Vec::new(),
            current_len: Vec::new(),
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

    /// Which registered predictors mispredict `event`, one bit each.
    fn miss_mask(&self, event: &TraceEvent) -> u64 {
        let mut mask = 0u64;
        for (p, dense) in self.dense.iter().enumerate() {
            if dense.predicts_taken(event.branch) != Some(event.taken) {
                mask |= 1 << p;
            }
        }
        mask
    }
}

/// The fused kernel: one serial pass over the trace's dictionary
/// indices that scores every registered predictor at once, with no
/// observer dispatch and no per-event prediction lookup.
impl TraceKernel for IpbcAnalyzer<'_> {
    fn replay_trace(&mut self, trace: &BranchTrace) {
        // Per dictionary entry: its instruction count and which
        // predictors mispredict it. A correctly predicted event is then
        // one table read and one add; a break walks only the set bits.
        let entries: Vec<(u64, u64)> = trace
            .dict()
            .iter()
            .map(|e| (e.instrs, self.miss_mask(e)))
            .collect();
        // Each predictor's open run is a distance from one running
        // position, `pos - start[p]`; `base` carries in runs left open
        // by an earlier replay. Breaks land in a per-predictor
        // histogram of `u128` cells, length sum in the high half and
        // sequence count in the low half, so a break is one
        // read-modify-write; the count cannot carry into the sum before
        // 2^64 breaks.
        let base = self.current_len.iter().copied().max().unwrap_or(0);
        let mut start = [0u64; 64];
        for (s, &len) in start.iter_mut().zip(&self.current_len) {
            *s = base - len;
        }
        let mut hist = vec![[0u128; N_BUCKETS]; self.dists.len()];
        let mut pos = base;
        let mut step = |idx: usize| {
            let (instrs, mut misses) = entries[idx];
            pos += instrs;
            while misses != 0 {
                // A set bit is below 64; the mask lets the compiler see
                // it, so indexing `start` needs no bounds check.
                let p = (misses.trailing_zeros() & 63) as usize;
                misses &= misses - 1;
                let len = pos - start[p];
                hist[p][bucket(len)] += (u128::from(len) << 64) | 1;
                start[p] = pos;
            }
        };
        match trace.seq() {
            TraceSeq::Narrow(seq) => seq.iter().for_each(|&i| step(usize::from(i))),
            TraceSeq::Wide(seq) => seq.iter().for_each(|&i| step(i as usize)),
        }

        let tail = trace.trailing_instrs();
        for (p, dist) in self.dists.iter_mut().enumerate() {
            for (b, &cell) in hist[p].iter().enumerate() {
                dist.counts[b] += cell as u64;
                dist.length_sums[b] += (cell >> 64) as u64;
            }
            let breaks: u64 = hist[p].iter().map(|&cell| cell as u64).sum();
            dist.breaks += breaks;
            dist.mispredicted += breaks;
            dist.total_branches += trace.len() as u64;
            dist.total_instructions += pos - base + tail;
            self.current_len[p] = pos - start[p] + tail;
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
    fn the_kernel_carries_the_trailing_run_of_a_branch_free_trace() {
        let program = bpfree_lang::compile("fn main() -> int { return 7; }").unwrap();
        let mut recorder = bpfree_sim::TraceRecorder::new();
        bpfree_sim::Simulator::new(&program)
            .run(&mut recorder)
            .unwrap();
        let trace = recorder.into_trace();
        assert!(trace.is_empty() && trace.trailing_instrs() > 0);
        let analyzer = || {
            let mut a = IpbcAnalyzer::new(&program);
            a.add_predictor("none", &Predictions::new());
            a
        };
        let (mut reference, mut fused) = (analyzer(), analyzer());
        trace.replay(&mut reference);
        fused.replay_trace(&trace);
        let dists = fused.finish();
        assert_eq!(dists, reference.finish());
        assert_eq!(dists[0].breaks, 0);
        assert_eq!(dists[0].total_instructions, trace.trailing_instrs());
        assert_eq!(
            dists[0].bucket_counts().iter().sum::<u64>(),
            1,
            "one open run"
        );
    }

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
        let mut fused = analyzer(&predictors);
        fused.replay_trace(&trace);
        assert_eq!(fused.finish(), serial.finish());

        // The repo benchmark's entry point is the same kernel.
        let mut via_benchmark_name = analyzer(&predictors);
        trace.replay_segmented(&mut via_benchmark_name);
        let mut fused = analyzer(&predictors);
        fused.replay_trace(&trace);
        assert_eq!(via_benchmark_name.finish(), fused.finish());

        let mut full = analyzer(&predictors);
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            full.add_predictor("one too many", &Predictions::new())
        }));
        assert!(past.is_err(), "a 65th predictor is refused");
    }
}
