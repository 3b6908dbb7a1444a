//! What the predictions are *for*: trace growing.
//!
//! Compilers like trace schedulers and code positioners (Fisher; Pettis &
//! Hanson — both cited by the paper) follow predicted branch directions
//! to lay out likely-executed straight-line paths. This example grows a
//! trace through each function of a benchmark by always following the
//! predicted edge, then checks what fraction of the program's dynamic
//! instruction count the trace blocks actually cover.
//!
//! Run with: `cargo run --release --example trace_layout`

use std::collections::{HashMap, HashSet};

use bpfree::core::{CombinedPredictor, Direction, HeuristicKind};
use bpfree::engine::{Engine, EngineConfig};
use bpfree::ir::{BlockId, BranchRef, FuncId, Terminator};
use bpfree::lang::Options;
use bpfree::sim::{BranchSite, ExecObserver};

/// Counts the dynamic instructions of each branch-terminated block's
/// region. The simulator reports straight-line instruction batches
/// without naming the block, so each batch goes to the branch that
/// produces the next event: exact for branch-ending blocks, while runs
/// ending in jumps or returns land in the next branch block's region.
#[derive(Default)]
struct BranchBlockCounter {
    instructions: HashMap<BranchRef, u64>,
    pending_instrs: u64,
}

impl ExecObserver for BranchBlockCounter {
    fn on_instrs(&mut self, count: u64) {
        self.pending_instrs += count;
    }

    fn on_branch(&mut self, site: &BranchSite, _taken: bool) {
        *self.instructions.entry(site.branch).or_default() +=
            std::mem::take(&mut self.pending_instrs);
    }
}

fn main() {
    let engine = Engine::new(EngineConfig::default());
    let bench = bpfree::suite::by_name("gcc").expect("gcc analogue exists");
    let compiled = engine.compiled(&bench, Options::default());
    let (program, classifier) = (&compiled.program, &compiled.classifier);
    let predictor = CombinedPredictor::new(program, classifier, HeuristicKind::paper_order());
    let predictions = predictor.as_predictions();

    // Grow one trace per function: start at the entry, follow jumps and
    // predicted branch directions, stop on return or revisit.
    let mut trace_blocks: HashSet<(FuncId, BlockId)> = HashSet::new();
    let mut trace_lens = Vec::new();
    for fid in program.func_ids() {
        let func = program.func(fid);
        let mut cur = func.entry();
        let mut visited = HashSet::new();
        let mut len = 0u64;
        loop {
            if !visited.insert(cur) {
                break;
            }
            trace_blocks.insert((fid, cur));
            len += func.block(cur).len_with_term();
            cur = match &func.block(cur).term {
                Terminator::Jump(t) => *t,
                Terminator::Branch {
                    taken, fallthru, ..
                } => {
                    match predictions.get(BranchRef {
                        func: fid,
                        block: cur,
                    }) {
                        Some(Direction::Taken) => *taken,
                        _ => *fallthru,
                    }
                }
                Terminator::Ret { .. } => break,
            };
        }
        trace_lens.push((func.name().to_string(), len));
    }

    // Measure how much dynamic execution lands on the trace. The
    // engine's recorded branch trace replays into any observer, so this
    // analysis shares the single interpreter pass (or a cached trace)
    // with everything else computed for gcc/dataset 0.
    let mut counter = BranchBlockCounter::default();
    engine
        .trace(&bench, Options::default(), 0)
        .replay(&mut counter);
    let result = engine.run(&bench, Options::default(), 0).result;
    let datasets = engine.datasets(&bench);

    let mut on_trace = 0u64;
    let mut total = 0u64;
    for (branch, count) in &counter.instructions {
        total += count;
        if trace_blocks.contains(&(branch.func, branch.block)) {
            on_trace += count;
        }
    }

    println!("benchmark: {} (dataset {})", bench.name, datasets[0].name);
    println!("dynamic instructions: {}", result.instructions);
    println!();
    println!("predicted main traces:");
    trace_lens.sort_by_key(|(_, l)| std::cmp::Reverse(*l));
    for (name, len) in trace_lens.iter().take(6) {
        println!("  {:<16} {:>4} instructions on trace", name, len);
    }
    println!();
    println!(
        "branch-block instructions landing on the predicted traces: {:.1}%",
        100.0 * on_trace as f64 / total.max(1) as f64
    );
    println!();
    println!("A trace scheduler compacts exactly these paths; the better the static");
    println!("prediction, the more of the execution the compacted trace captures.");
}
