//! Profile-based vs. program-based prediction across datasets — the
//! paper's motivating comparison (after Fisher & Freudenberger).
//!
//! Profile-based prediction trains on one run and predicts another. This
//! example trains the profile predictor on dataset A and tests on
//! dataset B, alongside the program-based predictor (which never sees any
//! profile) and the self-trained perfect bound, for a few benchmarks.
//!
//! Run with: `cargo run --release --example cross_dataset`

use bpfree::core::{evaluate, perfect_predictions, CombinedPredictor, HeuristicKind};
use bpfree::engine::{Engine, EngineConfig};
use bpfree::lang::Options;

fn main() {
    // The engine memoizes every artifact queried below and serves what
    // the cache image in the default cache directory already holds.
    let engine = Engine::new(EngineConfig::default());
    println!(
        "{:<11} {:>14} {:>14} {:>12}",
        "benchmark", "profile(A->B)%", "program-based%", "perfect(B)%"
    );
    println!("{:-<55}", "");
    for name in ["xlisp", "compress", "espresso", "doduc", "tomcatv"] {
        let bench = bpfree::suite::by_name(name).expect("known benchmark");
        let compiled = engine.compiled(&bench, Options::default());
        let (program, classifier) = (&compiled.program, &compiled.classifier);

        // Train on dataset 0.
        let train_profile = engine.run(&bench, Options::default(), 0).profile;
        let profile_based = perfect_predictions(program, &train_profile);

        // Test on dataset 1.
        let test_profile = engine.run(&bench, Options::default(), 1).profile;
        let cp = CombinedPredictor::new(program, classifier, HeuristicKind::paper_order());

        let r_profile = evaluate(&profile_based, &test_profile, classifier);
        let r_program = evaluate(&cp.predictions(), &test_profile, classifier);
        let r_perfect = evaluate(
            &perfect_predictions(program, &test_profile),
            &test_profile,
            classifier,
        );

        println!(
            "{:<11} {:>14.1} {:>14.1} {:>12.1}",
            name,
            100.0 * r_profile.all.miss_rate(),
            100.0 * r_program.all.miss_rate(),
            100.0 * r_perfect.all.miss_rate(),
        );
    }
    println!();
    println!("The paper's framing: profile-based prediction transfers well between");
    println!("runs (Fisher & Freudenberger) and beats program-based prediction by");
    println!("roughly 2x — but program-based prediction costs no profiling run.");
}
