//! A branch-prediction explainer: for every conditional branch of a
//! program, show its classification, which heuristic fired under the
//! paper's priority order, the predicted direction, and how the
//! prediction fared against an actual run.
//!
//! This is the tool a compiler engineer would use to debug a static
//! prediction pass. Run with: `cargo run --example why_predicted`

use bpfree::core::{
    Attribution, BranchClass, BranchClassifier, CombinedPredictor, Direction, HeuristicKind,
};
use bpfree::lang::compile;
use bpfree::sim::{EdgeProfiler, Simulator};

const PROGRAM: &str = r#"
global int log_buf[16];
global int log_len;

fn record(int code) {
    if (log_len < 16) {
        log_buf[log_len] = code;
        log_len = log_len + 1;
    }
}

fn process(ptr item) -> int {
    int v;
    if (item == null) {
        record(-1);
        return 0;
    }
    v = item[0];
    if (v < 0) {
        record(v);
        return 0;
    }
    return v * 2;
}

fn main() -> int {
    ptr items; int i; int total;
    items = alloc(64);
    for (i = 0; i < 64; i = i + 1) {
        ptr it;
        it = alloc(1);
        it[0] = i % 13;
        items[i] = it;
    }
    for (i = 0; i < 64; i = i + 1) {
        total = total + process(items[i]);
    }
    return total;
}
"#;

fn main() {
    let program = compile(PROGRAM).unwrap_or_else(|e| panic!("{}", e.render(PROGRAM)));
    let classifier = BranchClassifier::analyze(&program);
    let predictor = CombinedPredictor::new(&program, &classifier, HeuristicKind::paper_order());
    let predictions = predictor.as_predictions();

    let mut profiler = EdgeProfiler::new();
    Simulator::new(&program).run(&mut profiler).unwrap();
    let profile = profiler.into_profile();

    println!(
        "{:<14} {:<8} {:<10} {:<9} {:>7} {:>7} {:>7}",
        "branch", "class", "rule", "predicts", "taken", "fall", "miss%"
    );
    println!("{:-<70}", "");
    let mut branches = program.branches();
    branches.sort();
    for b in branches {
        let func = program.func(b.func).name();
        let class = match classifier.class(b) {
            BranchClass::Loop => "loop",
            BranchClass::NonLoop => "nonloop",
        };
        let rule = match predictor.attribution(b) {
            Attribution::LoopBranch => "loop-pred".to_string(),
            Attribution::Heuristic(k) => k.label().to_lowercase(),
            Attribution::Default => "default".to_string(),
        };
        let dir = match predictions.get(b) {
            Some(Direction::Taken) => "taken",
            Some(Direction::FallThru) => "fall",
            None => "-",
        };
        let c = profile.counts(b);
        let miss = match predictions.get(b) {
            Some(Direction::Taken) => c.fallthru,
            Some(Direction::FallThru) => c.taken,
            None => c.total(),
        };
        let miss_pct = if c.total() == 0 {
            "-".to_string()
        } else {
            format!("{:.0}", 100.0 * miss as f64 / c.total() as f64)
        };
        println!(
            "{:<14} {:<8} {:<10} {:<9} {:>7} {:>7} {:>7}",
            format!("{}:{}", func, b.block),
            class,
            rule,
            dir,
            c.taken,
            c.fallthru,
            miss_pct
        );
    }
    println!();
    println!("Things to look for: the null test predicted non-null by the pointer/");
    println!("guard rules, the error paths avoided by the call/return rules, and the");
    println!("loop latches predicted to iterate.");
}
